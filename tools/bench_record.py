"""Record benchmark runs, with the commit and the size of ``src/``, in one JSON file.

Run from the root of a checkout::

    python3 tools/bench_record.py --out BENCH_10.json --workloads lattice saito \
        --seeds 301 302 --baseline ../parent --scale 40 80 120

For each workload and seed this runs ``perfbench/run.py --trace 0``, for the
``run_seconds`` that ``BENCHMARK.json`` fixes, once in this checkout and, with
``--baseline``, once in the other checkout too, the two in alternating order
from one seed to the next.  Before a workload's first seed each checkout runs
it once on that seed as a warm-up, which is not recorded.  Each run records
the end-to-end metrics, the ``correct`` / ``attempted`` / ``failed`` fields of
the last line ``perfbench/run.py`` prints, and whether it ran first in its
pair (``first``).  A run whose answers are judged wrong
(``correct`` false) stops the record with an error naming the checkout, the
workload and the seed, and no file is written.  The file also gives each checkout's commit (with
``-dirty`` when it has uncommitted changes, ``null`` when it is not a git
checkout), the line count of its ``src/``
Python files (``src_lines``), their code lines, neither blank nor comment
nor docstring (``src_code_lines``), and the code lines of each file, by its
path under ``src/`` (``src_code_lines_by_module``), and, per workload, the median and
quartiles of every metric on each side, and with a baseline the pairs won
and lost on each metric, by the direction ``BENCHMARK.json`` gives it, and
the pairs that the side which ran first won (``first_won``): far from half
the pairs, it shows an order effect, not a change in the code.

With ``--scale``, each checkout also climbs the scale ladder (``scale``):
the Saito certificate of the paper's basis on the cone of Ish,
``factored_saito_constant(factored_basis(ish_nest(ell)), cone(build_n_ish(...)))``,
at each ``ell`` given, in increasing order.  Each step runs in a fresh
``python3 -I`` and records the median of 3 runs in process and the step's
own ``VmHWM``, the peak resident memory of that process, import included.
A step that is not done within ``SCALE_CAP_S`` seconds is killed and recorded
as over, and the ladder stops there.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import platform
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE_CAP_S = 10.0

# One scale step: argv is the checkout's src and ell; prints the median and the peak memory.
_SCALE_STEP = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from ishkit.arrangement import build_n_ish, cone, ish_nest
from ishkit.freeness import factored_basis, factored_saito_constant
nest = ish_nest(int(sys.argv[2]))
times = []
for _ in range(3):
    start = time.perf_counter()
    factored_saito_constant(factored_basis(nest), cone(build_n_ish(nest)))
    times.append(time.perf_counter() - start)
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"median_s": statistics.median(times), "vmhwm_mb": hwm_kb / 1024}))
"""


def commit_of(checkout: Path) -> str | None:
    """The checkout's commit, with ``-dirty`` when it has uncommitted changes,
    or None when git names no commit there (a copy that is not a checkout)."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):  # no git, or no checkout
        return None
    return head + ("-dirty" if dirty else "")


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src").rglob("*.py"))


def code_lines(source: str) -> int:
    """The lines of a Python module that hold code: not blank, not only a
    comment, and not inside a docstring (of the module, a class or a function)."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def src_code_lines_by_module(checkout: Path) -> dict[str, int]:
    """The code lines (``code_lines``) of each of ``src/``'s Python files, by its path under ``src/``."""
    src = checkout / "src"
    return {p.relative_to(src).as_posix(): code_lines(p.read_text()) for p in sorted(src.rglob("*.py"))}


def src_code_lines(checkout: Path) -> int:
    """The code lines of ``src/``'s Python files."""
    return sum(src_code_lines_by_module(checkout).values())


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: the result line of ``perfbench/run.py``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"workload": workload, "seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def scale_ladder(checkout: Path, ells: list[int], cap: float = SCALE_CAP_S) -> list[dict]:
    """One record per step of the scale ladder, in order: ``ell``, the median
    seconds of 3 certificates and the step's ``VmHWM`` in MB, or ``over``
    for a step past ``cap`` seconds, which ends the ladder."""
    steps = []
    for ell in sorted(ells):
        cmd = [sys.executable, "-I", "-c", _SCALE_STEP, str(checkout / "src"), str(ell)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=cap)
        except subprocess.TimeoutExpired:
            steps.append({"ell": ell, "over": True, "cap_s": cap})
            break
        if proc.returncode != 0:
            raise RuntimeError(f"the scale step at ell = {ell} in {checkout} failed:\n{proc.stderr}")
        steps.append({"ell": ell, **json.loads(proc.stdout)})
        print(f"{checkout.name} scale ell {ell}: {json.dumps(steps[-1])}", flush=True)
    return steps


def summary(runs: list[dict]) -> dict:
    """Per workload and metric: the median and the quartiles over the runs."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name] for r in mine]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            out[workload][name] = {"median": q2, "q1": q1, "q3": q3}
    return out


def comparison(runs: list[dict], base: list[dict], declared: list[dict]) -> dict:
    """Per workload and metric: the pairs this checkout wins and loses against
    the baseline, and the pairs won by the side that ran first."""
    better = {m["name"]: m["better"] for m in declared}
    out: dict[str, dict] = {}
    for mine, theirs in zip(runs, base):
        for name, direction in better.items():
            diff = mine["metrics"][name] - theirs["metrics"][name]
            per_workload = out.setdefault(mine["workload"], {})
            tally = per_workload.setdefault(name, {"won": 0, "lost": 0, "pairs": 0, "first_won": 0})
            tally["pairs"] += 1
            if diff:
                won = (diff > 0) == (direction == "higher")
                tally["won" if won else "lost"] += 1
                tally["first_won"] += won == mine["first"]
    return out


def side(head: dict, runs: list[dict]) -> dict:
    return {**head, "runs": runs, "summary": summary(runs)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--workloads", nargs="*", default=[])
    ap.add_argument("--seeds", nargs="*", type=int, default=[])
    ap.add_argument("--scale", nargs="*", type=int, default=[], metavar="ELL",
                    help="climb the scale ladder at these ell, e.g. 40 80 120")
    ap.add_argument(
        "--baseline", type=Path, help="another checkout to run alongside, e.g. the parent commit"
    )
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    checkouts = [ROOT] + ([args.baseline.resolve()] if args.baseline else [])
    # read before the first run, so a baseline that is not a git checkout fails at once:
    # its commit is all that names what this checkout was compared with
    heads = {c: {"commit": commit_of(c), "src_lines": src_lines(c), "src_code_lines": src_code_lines(c),
                 "src_code_lines_by_module": src_code_lines_by_module(c)}
             for c in checkouts}
    if args.baseline and heads[checkouts[1]]["commit"] is None:
        ap.error(f"--baseline {args.baseline} is not a git checkout")
    if args.scale:
        for checkout in checkouts:
            heads[checkout]["scale"] = scale_ladder(checkout, args.scale)
    runs: dict[Path, list[dict]] = {c: [] for c in checkouts}
    for workload in args.workloads:
        for checkout in checkouts if args.seeds else []:  # the warm-up, not recorded
            run_once(checkout, workload, args.seeds[0], seconds)
        for k, seed in enumerate(args.seeds):
            order = checkouts[::-1] if k % 2 else checkouts
            for checkout in order:
                run = run_once(checkout, workload, seed, seconds)
                if not run["correct"]:
                    raise SystemExit(f"error: {checkout} {workload} seed {seed}: the answers were judged wrong")
                runs[checkout].append({**run, "first": checkout == order[0]})
                metrics = json.dumps(run["metrics"])
                print(f"{checkout.name} {workload} seed {seed}: {metrics}", flush=True)

    record = {
        "seeds": args.seeds,
        "seconds": seconds,
        "machine": {"python": platform.python_version(), "platform": platform.platform()},
        **side(heads[ROOT], runs[ROOT]),
    }
    if args.baseline:
        record["baseline"] = side(heads[checkouts[1]], runs[checkouts[1]])
        record["pairs"] = comparison(runs[ROOT], runs[checkouts[1]], benchmark["end_to_end"])
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
