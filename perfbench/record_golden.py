"""Record ``golden.json``: answer digests for every request the generator can emit.

    python3 perfbench/record_golden.py

Run it only at a commit whose answers are trusted; the file in the
repository was recorded at the seed commit of the benchmark.  Each pool
category runs in its own fresh worker.  The closed-form checks of
``reference.py`` run on every answer too, and any problem they find is
printed and stops the recording.  Per-category request times are printed
to help size the rounds.
"""

from __future__ import annotations

import json
import statistics
import sys

import run
from reference import GOLDEN, check, digest
from workloads import WORKLOADS, key, pools


def main() -> int:
    run.WORKER_DEADLINE_S = 3600
    answers: dict[str, str] = {}
    bad = 0
    for workload in WORKLOADS.values():
        pool = pools(workload)
        groups = {label: [d for item in items for d in item] for label, items in pool.items()}
        groups["fixed"] = list(workload.fixed)
        round_s = 0.0
        for label, docs in groups.items():
            res = run.run_worker([dict(d, format="json") for d in docs])
            times = []
            for doc, rec in zip(docs, res["records"]):
                times.append(rec["ms"])
                if "error" in rec:
                    print(f"ERROR {json.dumps(doc)}: {rec['error']}")
                    bad += 1
                    continue
                problems = [p for p in check(doc, rec["out"], {}) if p != "request has no golden answer"]
                if problems:
                    print(f"CHECK {json.dumps(doc)}: {problems}")
                    bad += 1
                answers[key(doc)] = digest(doc, json.loads(rec["out"]))
            per_item = sum(times) / (len(docs) if label == "fixed" else len(pool[label]))
            uses = sum(1 for t in workload.templates if t.label == label)
            if label == "fixed":
                print(f"{workload.name:10s} fixed requests: {sum(times) / 1e3:.2f} s")
            else:
                round_s += uses * per_item / 1e3
                print(
                    f"{workload.name:10s} {label:48s} mean={per_item:8.1f} ms "
                    f"cv={statistics.pstdev(times) / statistics.mean(times):.2f} max={max(times):8.1f} ms",
                    flush=True,
                )
        print(f"{workload.name:10s} one round: {round_s:.2f} s", flush=True)
    if bad:
        print(f"{bad} answers failed; golden file not written", file=sys.stderr)
        return 1
    meta = run.metadata()
    GOLDEN.write_text(
        json.dumps({"commit": meta["commit"], "interpreter": meta["interpreter"], "answers": answers},
                   indent=0, sort_keys=True)
        + "\n"
    )
    print(f"{len(answers)} answers written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
