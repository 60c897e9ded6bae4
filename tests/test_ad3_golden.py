"""Solver regression: every ``ad3_solve`` call on a fixed set of seeded
``random_joint_instance`` graphs must give the recorded status, iteration
count, objective (exact float) and active mask.

Each graph is solved plainly, then with its frame side pinned as latent
completion pins it: the lowest-scoring predicate on, every other frame part
off.  The records in ``ad3_golden.json`` come from the solver before its
per-iteration work was restructured; the restructuring must not move any of
them.  ``python -m tests.test_ad3_golden`` prints the records of the current
code as JSON.
"""

import json
from pathlib import Path

import numpy as np

from spandep.inference.ad3 import ad3_solve
from spandep.inference.factor_graph import build_factor_graph
from spandep.synthetic import random_joint_instance

FIXTURE = Path(__file__).with_name("ad3_golden.json")
SEED, GRAPHS = 20261020, 40


def _record(res) -> dict:
    return {"status": res.status, "iterations": res.iterations,
            "objective": res.objective.hex(),
            "active": "".join("1" if b else "0" for b in res.active)}


def solver_records() -> list[dict]:
    rng = np.random.default_rng(SEED)
    records = []
    for _ in range(GRAPHS):
        space = random_joint_instance(rng)
        fg = build_factor_graph(space)
        records.append(_record(ad3_solve(fg)))
        preds = np.arange(space.predicate_ids.start, space.predicate_ids.stop)
        on = int(preds[np.argmin(space.scores[preds])])
        fixed = {v: v == on for v in range(space.head_ids.start)}
        records.append(_record(ad3_solve(fg, fixed=fixed)))
    return records


def test_solver_matches_recorded_calls():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = solver_records()
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"call {k}"


def test_recorded_calls_run_the_loop():
    # the fixture must exercise the ADMM loop, not only peeling
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sum(r["iterations"] > 0 for r in want) >= 10


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(r) for r in solver_records())
          + "\n]")
