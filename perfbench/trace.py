"""In-memory span tracing by wrapping module attributes from the outside.

``Tracer.wrap`` replaces a function or method with a wrapper that records one
span per call: name, start, end and the enclosing span.  Spans live in flat
arrays until ``save`` writes them out.  An optional ``observe`` callback sees
each call's arguments and result, so counts are taken where the work happens.
``restore`` puts every original attribute back.

The program under test is never edited: every wrap point is a public name
looked up on the module or class that the caller resolves it from.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    # --- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, owner, attr: str, name: str,
             observe: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``observe(tracer, args, kwargs, result, seconds)``
        runs after each call, outside the span."""
        original = getattr(owner, attr)
        nid = self._intern(name)
        stack, starts, ends = self._stack, self.starts, self.ends
        parents, name_ids, clock = self.parents, self.name_ids, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, ends[idx] - starts[idx])
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def observe(self, owner, attr: str, observe: Callable) -> None:
        """Like ``wrap``, but without a span: only ``observe`` runs."""
        original = getattr(owner, attr)

        def observed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            observe(self, args, kwargs, result, time.perf_counter() - t0)
            return result

        observed.__wrapped__ = original
        setattr(owner, attr, observed)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.int32),
                np.frombuffer(self.starts), np.frombuffer(self.ends),
                np.frombuffer(self.parents, dtype=np.int32))

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds.  Self time is
        a span's duration minus the time its direct children cover."""
        nid, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(self_t[sel].sum())}
        return out

    def covered_s(self) -> float:
        """Wall time covered by at least one span (spans nest, so this is
        the summed duration of the root spans)."""
        _, start, end, parent = self.arrays()
        root = parent < 0
        return float((end[root] - start[root]).sum())

    def save(self, path) -> None:
        nid, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_ids=nid,
                 starts=start, ends=end, parents=parent)
