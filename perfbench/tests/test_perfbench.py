"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run  # noqa: E402
from perfbench.inputs import join_clauses, write_inputs, generate  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_input_bytes(tmp_path, name):
    spec = WORKLOADS[name].spec
    write_inputs(generate(7, spec), tmp_path / "a")
    write_inputs(generate(7, spec), tmp_path / "b")
    write_inputs(generate(8, spec), tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_joined_clauses_shift_second_clause():
    c = generate(3, WORKLOADS["train"].spec)
    a, b = c["fn_exemplar"][:2]
    j = join_clauses(a, b, "j")
    k = len(a) + 1
    assert len(j) == len(a) + len(b) + 1 and j.tokens[len(a)].form == "and"
    first, second = j.supervision.parses
    assert first == a.supervision.parses[0]
    assert second.target.start == b.supervision.parses[0].target.start + k
    assert {(i - k, e - k, r) for i, e, r in second.arguments} == \
        set(b.supervision.parses[0].arguments)


def _decode_log(name: str, tmp_path: Path, seed: int, requests: int):
    wl = WORKLOADS[name](tmp_path, seed)
    observers = Tracer()
    log = checks.DecodeLog()
    log.observe(observers)
    wl.observe(observers)
    try:
        out = run.run_pass(wl, wl.setup(), count=requests)
    finally:
        observers.restore()
    return log, out


@pytest.mark.parametrize("name,requests", [("train", 1), ("predict-sdp", 5)])
def test_same_seed_same_decodes(tmp_path, name, requests):
    first, out = _decode_log(name, tmp_path / "a", 5, requests)
    modes = [(r.mode, r.n) for r in first.records]
    assert modes and len(out.latencies) == out.instances
    again, _ = _decode_log(name, tmp_path / "b", 5, requests)
    assert modes == [(r.mode, r.n) for r in again.records]


def test_latent_completion_oracle_matches_decoder(tmp_path):
    """The pinned-space oracle agrees with the decoder's exact completions."""
    log, _ = _decode_log("train", tmp_path, 2, 1)
    done = [r for r in log.records if r.mode == "latent_completion"
            and r.space is not None and r.status == "exact"
            and checks.oracle_cost(r.space) <= checks.ORACLE_BUDGET]
    assert done
    for r in done[:10]:
        assert abs(checks.oracle_objective(r) - r.objective) < 1e-6


def _smoke(name: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_unit(name, trace):
    result, stdout = _smoke(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f" {m['unit']}\n" in stdout.split(m["name"], 1)[1]


def test_refuses_without_sources(tmp_path):
    """Outside a checkout (only the benchmark files) it fails, printing no
    result."""
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
