"""ishkit benchmark: seeded request workloads through the public request path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 25 --trace 0

Self-tests: ``python3 -m pytest -q perfbench/tests``.

A single-process closed loop with one client: one fresh worker
interpreter (``worker.py``) serves the seed's request list through
``ishkit.cli.request_from_doc`` and ``ishkit.cli.run`` with
``"format": "json"``, one request at a time.  The list is a fixed amount
of work: the whole rounds (see ``workloads.py``) that took about
``--seconds`` seconds at the seed commit, and at least 100 requests.
Every answer is checked against
independent closed forms and the golden file (``reference.py``) after
the worker has finished, outside the timed interval.  Load stays on one
core: one worker at a time, no threads doing work.

The time metrics below are scaled to the reference machine speed
(``calibrate.py``): each request's measured time is divided by the
slowdown that a fixed calibration, timed before every request, shows
around it.  The log lines also give the measured (unscaled) values.

``--trace 0`` prints the end-to-end metrics:

* ``req_per_s``: correct requests per second of busy time;
* ``latency_p50_ms`` / ``latency_p90_ms``: in-process time per request,
  from ``request_from_doc`` to the rendered output (the run holds at
  least 100 requests, so ten or more lie beyond the 90th percentile);
* ``setup_s``: median over ``SETUP_SAMPLES`` fresh interpreters of the
  time from spawn until ``ishkit.cli`` is imported, scaled like the
  other times;
* ``peak_rss_mb``: the worker's peak resident memory (``ru_maxrss``).

The error rate (failed / attempted) is the ``failed`` and ``attempted``
fields of the result line; it is not a metric because it is 0 on a
correct program.

``--trace 1`` serves a fixed amount of work, the fewest whole rounds with
at least 100 requests, twice in fresh workers: untraced, then traced
(``tracing.py``), so its counts repeat exactly for a seed.  It prints the
per-layer metrics (their times measured, not scaled) and the tracing
overhead (of the scaled times), and checks that the traced answers equal
the untraced ones.  Spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import sample, slowdown, speed
from reference import check, check_pairs, load_golden
from workloads import WORKLOADS, describe, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15  # interpreters started per run to measure set-up; the median is reported
SETUP_CAL = 5  # calibrations timed before and after each of them
WORKER_DEADLINE_S = 150  # a worker still running after this is killed and the run fails


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- workers ---------------------------------------------------------------


def _spawn(probe: bool = False) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(HERE / "worker.py")] + (["--probe"] if probe else []),
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if not line.startswith('{"ready"'):
        proc.kill()
        proc.wait()
        raise BenchError("the worker could not import ishkit.cli from src/")
    return proc, setup


def probe_setup() -> tuple[float, float]:
    """Set-up time of one fresh interpreter that only imports ishkit.cli: (measured, scaled)."""
    cal = [sample() for _ in range(SETUP_CAL)]
    proc, setup = _spawn(probe=True)
    proc.stdin.close()
    proc.stdout.read()
    if proc.wait() != 0:
        raise BenchError("the set-up probe failed")
    cal += [sample() for _ in range(SETUP_CAL)]
    return setup, setup / slowdown(cal)


def run_worker(docs: list[dict], trace: bool = False, spans: str = "") -> dict:
    """Serve the requests in a fresh worker; returns its records and totals."""
    proc, _ = _spawn()
    timer = threading.Timer(WORKER_DEADLINE_S, proc.kill)
    timer.start()
    job = {"docs": docs, "trace": trace, "spans": spans}
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        records, final = [], None
        for line in proc.stdout:
            msg = json.loads(line)
            if msg.get("done"):
                final = msg
            else:
                records.append(msg)
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0 or final is None or len(records) != len(docs):
        raise BenchError(f"the worker failed (exit code {code})")
    return {"records": records, **final}
# -- checking --------------------------------------------------------------


def check_records(docs, records, golden) -> list[list[str]]:
    """Problems per request (empty list: correct)."""
    problems = []
    charpolys, where = [], []
    for i, (doc, rec) in enumerate(zip(docs, records)):
        if "error" in rec:
            problems.append([f"raised {rec['error']}"])
            continue
        found = check(doc, rec["out"], golden)
        problems.append(found)
        if not found and doc["command"] == "charpoly":
            charpolys.append((doc, json.loads(rec["out"])))
            where.append(i)
    for j, problem in check_pairs(charpolys):
        problems[where[j]].append(problem)
    return problems


# -- metadata --------------------------------------------------------------


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def metadata() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    baseline = json.loads((HERE / "baseline.json").read_text())
    lines = src_lines()
    return {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": lines,
        "src_lines_net": lines - baseline["src_lines"],
    }


# -- the two kinds of run --------------------------------------------------


def scaled(records) -> list[float]:
    """Request times in milliseconds at the reference machine speed."""
    return [rec["ms"] / f for rec, f in zip(records, speed([rec["cal_ms"] for rec in records]))]


def end_to_end(docs, golden) -> tuple[dict, list]:
    setups = [probe_setup() for _ in range(SETUP_SAMPLES)]
    res = run_worker(docs)
    records = res["records"]
    problems = check_records(docs, records, golden)
    correct = sum(1 for p in problems if not p)

    def times(latencies):
        return {
            "req_per_s": (correct / (sum(latencies) / 1e3), "1/s"),
            "latency_p50_ms": (statistics.median(latencies), "ms"),
            "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        }

    measured = [rec["ms"] for rec in records]
    for name, (value, unit) in times(measured).items():
        print(f"measured, not scaled: {name} {value:.4f} {unit}")
    print(f"measured, not scaled: setup_s {statistics.median(s for s, _ in setups):.4f} s")
    metrics = times(scaled(records))
    metrics["setup_s"] = (statistics.median(s for _, s in setups), "s")
    metrics["peak_rss_mb"] = (res["maxrss_kb"] / 1024, "MB")
    return metrics, problems


def traced(docs, golden, spans: str) -> tuple[dict, list]:
    from tracing import per_layer_metrics

    plain = run_worker(docs)
    res = run_worker(docs, trace=True, spans=spans)
    problems = check_records(docs, plain["records"], golden)
    for p, a, b in zip(problems, plain["records"], res["records"]):
        if a.get("out", a.get("error")) != b.get("out", b.get("error")):
            p.append("the traced answer differs from the untraced one")
    plain_s = sum(scaled(plain["records"]))
    traced_s = sum(scaled(res["records"]))
    metrics = per_layer_metrics(res["layers"])
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")
    print(f"spans: {res['layers']['spans']} written to {res['spans']}")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ishkit" / "cli.py").is_file():
        raise BenchError(f"no ishkit sources under {SRC}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        rounds = generate(workload, args.seed, workload.rounds_for(0))
    else:
        rounds = generate(workload, args.seed, workload.rounds_for(args.seconds))
    docs = [d for r in rounds for d in r]
    golden = load_golden()
    if args.trace:
        spans = str(HERE / "out" / f"spans-{workload.name}-seed{args.seed}.tsv.gz")
        metrics, problems = traced(docs, golden, spans)
    else:
        metrics, problems = end_to_end(docs, golden)

    failed = sum(1 for p in problems if p)
    print(json.dumps({"workload": describe(workload, rounds), "meta": metadata()}))
    for i, p in enumerate(problems):
        if p:
            print(f"FAILED request {i}: {json.dumps(docs[i])}: {'; '.join(p)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:32s} {value:14.4f} {unit}")
    print(f"{args.workload:10s} {'error_rate':32s} {failed / len(docs):14.4f} ratio ({failed} of {len(docs)} requests)")
    result = {
        "correct": failed == 0,
        "attempted": len(docs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
