"""Check that two checkouts give the same answer, byte for byte, to the benchmark's requests.

Run from the root of a checkout::

    python3 tools/same_answers.py --baseline ../parent --seeds 901 902

For each workload and seed, the requests are those that
``perfbench/workloads.py`` deals a benchmark run of that seed: as many
rounds as ``rounds_for`` gives for the ``run_seconds`` of
``BENCHMARK.json``, or ``--rounds``.  Every request is answered in text
and in JSON through ``ishkit.cli.run``, once in this checkout and once
in the ``--baseline`` checkout.  Each checkout answers in a subprocess
of its own, with ``PYTHONPATH`` set to its ``src``.  An answer is the
rendered report, or the type and message of the exception the request
raised.  After the workloads, every run also compares two fixed corpora,
each request in text and in JSON: a graph corpus, ``survey`` at ell =
2..6 and ``graph`` on every graph at ell <= 5 for both deleted kinds;
and a spec corpus, every command but ``survey`` on specs of each of the
six kinds at ell = 3 and 4, affine and coned, one graph given with its
edges out of order and repeated, plus ``basis`` and ``saito`` on five
specs past the benchmark's sizes (``SAITO_SPECS``), affine and coned,
whose refusals are compared by their messages.  The tool prints one line per workload and
seed and one per corpus, and exits 0 when every answer is the same and 1
at the first request whose answers differ, naming it.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, generate  # noqa: E402

# One JSON request per input line in, one JSON-encoded answer per output line out.
_ANSWER = """
import json, sys
from ishkit.cli import request_from_doc, run
for line in sys.stdin:
    try:
        answer = run(request_from_doc(json.loads(line)))
    except Exception as exc:
        answer = f"{type(exc).__name__}: {exc}"
    print(json.dumps(answer))
"""


def answers(checkout: Path, docs: list[dict]) -> list[str]:
    """The answers of the checkout's ``src`` to the requests, in order."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _ANSWER],
        input="".join(json.dumps(doc) + "\n" for doc in docs),
        capture_output=True, text=True, cwd=checkout, env=env,
    )
    out = proc.stdout.splitlines()
    if proc.returncode != 0 or len(out) != len(docs):
        raise RuntimeError(f"answering in {checkout} failed (exit {proc.returncode}):\n{proc.stderr}")
    return [json.loads(line) for line in out]


def requests(workload: str, seed: int, rounds: int | None) -> list[dict]:
    """Every request of the seed's run, once in text and once in JSON."""
    w = WORKLOADS[workload]
    if rounds is None:
        rounds = w.rounds_for(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    docs = [doc for r in generate(w, seed, rounds) for doc in r]
    return [dict(doc, format=fmt) for doc in docs for fmt in ("text", "json")]


def graph_corpus() -> list[dict]:
    """``survey`` at ell = 2..6 and ``graph`` on every graph at ell <= 5, for
    both deleted kinds, once in text and once in JSON."""
    docs = [{"command": "survey", "ell": ell} for ell in range(2, 7)]
    for ell in range(1, 6):
        pairs = [[i, j] for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        for mask in range(1 << len(pairs)):
            edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
            docs += [{"command": "graph", "type": kind, "ell": ell, "edges": edges}
                     for kind in ("deleted_shi", "deleted_ish")]
    return [dict(doc, format=fmt) for doc in docs for fmt in ("text", "json")]


# Past the benchmark's sizes: an ell = 5 chain of half-integers, an ell = 5
# chain over the denominator 6 (halves and thirds, given out of order), Ish at
# ell = 6, and an ell = 6 nest that is no chain, which basis and saito refuse.
SAITO_SPECS = [
    {"type": "n_ish", "N": [["-1/2"], ["-1/2", "1/2"], ["-1/2", "1/2", "3/2"], ["-1/2", "1/2", "3/2", 2]]},
    {"type": "n_ish", "N": [["1/3", "-1/2", "2/3"], ["1/3"], ["1/3", "-1/2", "2/3", "5/2"], ["1/3", "-1/2"]]},
    {"type": "ish", "ell": 6},
    {"type": "n_ish", "N": [[0], [0, 1], [0, 2], [0, 1, 2], [0, 1, 2, 3]]},
    # a chain with an empty set and two equal sets, out of order: tied exchange groups
    {"type": "n_ish", "N": [[0, "1/2", 2], [], ["1/2", 0], [0, "1/2"], [2, "1/2", -1, 0]]},
]


def spec_corpus() -> list[dict]:
    """Every command but ``survey`` on the specs of each kind at ell = 3 and 4,
    affine and coned, once in text and once in JSON.  The nests and graphs
    are a chain and a non-chain each (a free and a non-free cone), and the
    nest of zero sets is central unconed, so ``supersolvable`` takes its
    lattice route on a spec that is not a cone.  At ell = 4 each deleted kind
    also takes a free graph whose edges come reversed, one pair repeated, so
    that the comparison covers the graph's canonical form: its echoed edges
    sorted and each written once.  Then ``basis`` and ``saito`` on each of
    ``SAITO_SPECS``, affine and coned, in both formats."""
    nests = {
        3: [[[0, "1/2"], [0]], [[0, 1], [0, 2]], [[0], [0]]],
        4: [[[0, "1/2"], [0], [0, "1/2", 2]], [[0], [1], ["-3/2"]], [[0], [0], [0]]],
    }
    graphs = {
        3: [[[1, 2]], [[1, 2], [2, 3]]],
        4: [[[1, 2]], [[1, 2], [2, 3], [3, 4]], [[2, 4], [1, 4], [1, 3], [2, 4]]],
    }
    specs = []
    for ell in (3, 4):
        specs += [{"type": kind, "ell": ell} for kind in ("coxeter", "shi", "ish")]
        specs += [{"type": "n_ish", "N": sets} for sets in nests[ell]]
        specs += [{"type": kind, "ell": ell, "edges": edges}
                  for kind in ("deleted_shi", "deleted_ish")
                  for edges in graphs[ell]]
    commands = ("charpoly", "freeness", "basis", "saito", "supersolvable", "chambers", "wallcross", "graph")
    docs = [dict(spec, cone=cone, command=command)
            for spec in specs for cone in (False, True) for command in commands]
    docs += [dict(spec, cone=cone, command=command)
             for spec in SAITO_SPECS for cone in (False, True) for command in ("basis", "saito")]
    return [dict(doc, format=fmt) for doc in docs for fmt in ("text", "json")]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", type=Path, required=True, help="the checkout to compare with")
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    ap.add_argument("--rounds", type=int, help="rounds per seed (default: a benchmark run's)")
    args = ap.parse_args(argv)
    baseline = args.baseline.resolve()
    runs = [(f"{workload} seed {seed}", requests(workload, seed, args.rounds))
            for workload in args.workloads for seed in args.seeds]
    total = 0
    for name, docs in [*runs, ("graph corpus", graph_corpus()), ("spec corpus", spec_corpus())]:
        mine, theirs = answers(ROOT, docs), answers(baseline, docs)
        for doc, a, b in zip(docs, mine, theirs):
            if a != b:
                print(f"{name}: the answers differ on {json.dumps(doc, sort_keys=True)}")
                return 1
        total += len(docs)
        print(f"{name}: {len(docs)} answers the same")
    print(f"{total} answers the same")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
