"""Fixed-seed benchmark of spandep training and prediction.

    python3 perfbench/run.py --workload train --seed 1 --seconds 50 --trace 0

Runs one closed-loop workload (see ``perfbench/workloads.py``) from the root
of a source checkout, in one process with BLAS pinned to one thread.  Inputs
are generated from ``--seed`` and written under ``.bench_work/``.

``--trace 0`` sets up several times (``setup_s`` is the median), sends
requests for ``--seconds`` and prints the end-to-end metrics.  Rates and
latencies are given twice: as measured, and as ``ref_*`` at the reference
host speed (see ``probe``).  ``BENCHMARK.json`` gates the latencies at the
reference speed, not the rates (see ``measure``).  ``--trace 1`` sends requests for half of
``--seconds`` with every layer wrapped in spans, replays a prefix of them
untraced, and prints the per-layer metrics, the tracing overhead and the
share of the program's time no span covers.  Both check the outputs after
timing ends and print a report with the host, the checks and the figures
that are not gated (raw timings, ``fail_frac``, ``train_inst_per_s``, dev
F1).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (decodes), ``failed`` and ``metrics``.
``failed`` counts decodes whose output is wrong: reported ``exact`` but off
the oracle's optimum.  A decode the solver reports as ``rounded`` (its
branch-and-bound budget ran out before the optimum was certified) is a
bounded approximation, not a wrong output: it counts against
``decode_ok_frac`` and ``fail_frac``, not ``failed``.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
# Seconds ``probe`` takes at the reference host speed: its median on the
# 2-core host where the bounds in BENCHMARK.json were set.
PROBE_REF_S = 0.0004


def _import_program():
    """Put the checkout's ``src`` first on the path; refuse to run against
    an installed copy or without the source tree."""
    src = ROOT / "src"
    if not (src / "spandep" / "__init__.py").is_file():
        sys.exit(f"error: no spandep sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import spandep
    if Path(spandep.__file__).resolve().parent != src / "spandep":
        sys.exit(f"error: imported spandep from {spandep.__file__}")


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, env=env)
        describe = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        describe = "unavailable"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_describe": describe}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe() -> float:
    """Seconds a fixed computation takes now: Python arithmetic and small
    numpy products, the mix spandep's hot paths run.  It runs twice and
    the faster run counts, so caches the program left cold do not.

    The host this runs on is shared: its speed drifts by a quarter or more
    for minutes at a time and for fractions of a second within them, which
    moves every timing of a run alike.  Dividing a request's time by the
    probes run beside it, times ``PROBE_REF_S``, gives the time the request
    would take at the reference speed; the program's own cost is left as
    measured."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0
        for i in range(5000):
            s += i * i
        a = np.full((40, 40), 0.5)
        for _ in range(10):
            a = a @ a * 1e-2
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(wl, state, deadline=None, count=None):
    """Send ``count`` requests, or if ``count`` is None, requests until
    ``deadline`` (perf_counter) has passed and ``wl.min_requests`` were sent.
    A probe runs before the first request and after each, outside the
    request's time."""
    from perfbench.workloads import Pass
    out = Pass()
    out.probes.append(probe())
    i = 0
    t = time.perf_counter()
    while (i < count if count is not None else
           i < wl.min_requests or t < deadline):
        sents, lats = out.sentences, len(out.latencies)
        t0 = time.perf_counter()
        wl.request(state, i, out)
        t = time.perf_counter()
        out.per_request.append((out.sentences - sents, t - t0,
                                len(out.latencies) - lats))
        out.probes.append(probe())
        i += 1
    out.requests = i
    return out


def pct(xs, q) -> float:
    return float(np.percentile(xs, q))


def measure(wl, seconds: float):
    """Untraced run: timed set-ups, then requests for ``seconds``.

    The rates are totals over the run, so the rare decodes that take
    seconds count in full.  On ``train`` those decodes set the rate, and how
    many a run meets depends on its inputs: between seeds the rate spreads
    by more than twice the largest bound ``BENCHMARK.json`` may set, so the
    rates are printed and not gated."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    out = run_pass(wl, state, deadline=time.perf_counter() + seconds)
    wl.finish(state, out)
    rss = peak_rss_mb()
    probes = np.array(out.probes)
    # host slowness during each request, against the reference speed
    slow = (probes[:-1] + probes[1:]) / (2 * PROBE_REF_S)
    sents, secs, lats = (np.array(x) for x in zip(*out.per_request))
    latencies = np.array(out.latencies)
    ref_latencies = latencies / np.repeat(slow, lats)
    busy = secs.sum()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ref_latency_p50_ms": (pct(ref_latencies, 50), "ms"),
        "ref_latency_p90_ms": (pct(ref_latencies, 90), "ms"),
    }
    extra = {"latency_p50_ms": (pct(latencies, 50), "ms"),
             "latency_p90_ms": (pct(latencies, 90), "ms"),
             "sent_per_s": (sents.sum() / busy, "1/s"),
             "ref_sent_per_s": (sents.sum() / (secs / slow).sum(), "1/s"),
             "train_inst_per_s": (out.instances / busy, "1/s"),
             "host_slowness_p50": (float(np.median(slow)), "x"),
             "requests": (out.requests, "count"),
             "latency_samples": (len(latencies), "count")}
    return state, out, metrics, extra


def measure_traced(wl, seconds: float, trace_path: Path):
    """Traced pass for half the time, then the longest prefix of its
    requests that fits in the other half again untraced; the tracing
    overhead compares the two on that prefix, set-up included."""
    from perfbench import layers
    from perfbench.trace import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        t0 = time.perf_counter()
        state = wl.setup()
        traced_setup = time.perf_counter() - t0
        out = run_pass(wl, state, deadline=time.perf_counter() + seconds / 2)
        t0 = time.perf_counter()
        wl.finish(state, out)
        traced_finish = time.perf_counter() - t0
    finally:
        tracer.restore()
    tracer.save(trace_path)
    layers.check_calls(tracer.summary(), wl.name)
    metrics = layers.metrics(tracer, out.sentences)

    elapsed = np.cumsum([secs for _, secs, _ in out.per_request])
    k = max(1, int(np.searchsorted(elapsed, seconds / 2, side="right")))
    t0 = time.perf_counter()
    fresh = wl.setup()
    plain_s = time.perf_counter() - t0 + sum(
        secs for _, secs, _ in run_pass(wl, fresh, count=k).per_request)
    overhead = traced_setup + elapsed[k - 1] - plain_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / plain_s, "frac")
    # the program's time leaves out the probes run between requests
    traced_s = traced_setup + elapsed[-1] + traced_finish
    metrics["trace.uncovered_frac"] = (
        1.0 - tracer.covered_s() / traced_s, "frac")
    extra = {"trace.spans": (len(tracer.starts), "count"),
             "requests": (out.requests, "count"),
             "overhead_requests": (k, "count")}
    return state, out, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    from perfbench import checks
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        print("inputs:", json.dumps(wl.describe(), sort_keys=True))
        # observers for the whole run, without spans
        observers = Tracer()
        log = checks.DecodeLog()
        log.observe(observers)
        wl.observe(observers)
        try:
            if args.trace:
                state, out, metrics, extra = measure_traced(
                    wl, args.seconds, base / f"trace-{args.workload}.npz")
            else:
                state, out, metrics, extra = measure(wl, args.seconds)
        finally:
            observers.restore()
        # everything below runs after timing ends
        correct = True
        try:
            quality = wl.quality(state, out)
        except AssertionError as e:
            print(f"output check failed: {e}", file=sys.stderr)
            correct, quality = False, {}
        dc = checks.check_decodes(log.records)
        if dc.exact_misses:
            print(f"{dc.exact_misses} decodes reported exact but miss the "
                  "oracle", file=sys.stderr)
            correct = False
        if not args.trace:
            metrics["decode_ok_frac"] = (dc.ok_frac, "frac")
        report = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_info(),
            "checks": {"correct": correct,
                       "decodes": dc.attempted, "failed": dc.failed,
                       "fail_frac": dc.failed / max(dc.attempted, 1),
                       "uncertified": dc.uncertified,
                       "oracle_checked": dc.oracle_checked,
                       "oracle_skipped": dc.oracle_skipped,
                       "oracle_misses": dc.oracle_misses,
                       "oracle_max_gap": dc.max_gap,
                       "oracle_s": dc.seconds},
            "quality": quality,
            "extra": {k: {"value": v, "unit": u}
                      for k, (v, u) in extra.items()},
        }
        print("report:", json.dumps(report, sort_keys=True))
        shown = {**metrics, **extra,
                 "fail_frac": (report["checks"]["fail_frac"], "frac"),
                 **{k: (v, "f1") for k, v in quality.items()}}
        for name, (value, unit) in sorted(shown.items()):
            print(f"  {name:40s} {value:14.6g} {unit}")
        (base / "results").mkdir(exist_ok=True)
        result = {"correct": correct, "attempted": max(dc.attempted, 1),
                  "failed": dc.exact_misses,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (base / "results" / f"{stem}.json").write_text(
            json.dumps({**report, "result": result}, indent=1, sort_keys=True)
            + "\n", encoding="utf-8")
        print(json.dumps(result, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
