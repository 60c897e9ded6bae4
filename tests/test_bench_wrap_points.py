"""The benchmark's traced run wraps module attributes of ``spandep`` by
name (``perfbench/layers.py``).  Installing and removing its wrappers here
catches a rename in ``src/`` that would break ``perfbench/run.py --trace 1``
before the benchmark runs.  Whether each wrap point sees calls is checked
by the benchmark itself (``layers.check_calls``)."""

import spandep.training
from perfbench.layers import install
from perfbench.trace import Tracer


def test_every_wrap_point_resolves_and_restores():
    before = spandep.training.decode
    tracer = Tracer()
    try:
        install(tracer)
        assert spandep.training.decode is not before
    finally:
        tracer.restore()
    assert spandep.training.decode is before
