"""One benchmark worker: a fresh interpreter that serves a request list.

Protocol (stdin/stdout, one JSON document per line):

1. On start the worker imports ``ishkit.cli`` from the checkout's ``src``
   and prints ``{"ready": ...}``; the parent's clock from spawn to this
   line is the set-up time.  Started with ``--probe`` it exits here.
2. It reads one job, ``{"docs": [doc, ...], "trace": bool, "spans": path}``.
3. Closed loop, one client: each request runs through
   ``cli.request_from_doc`` and ``cli.run``; its in-process time is
   measured and one line ``{"ms": ..., "cal_ms": ..., "out": ...}`` (or
   ``"error"``) is written after the clock stops.  ``cal_ms`` is the
   machine-speed calibration (``calibrate.py``) timed right before the
   request.
4. A last line ``{"done": true, "maxrss_kb": ..., "layers": ...}``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _load_cli():
    if not (SRC / "ishkit" / "cli.py").is_file():
        raise SystemExit(f"worker: no ishkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from ishkit import cli

    if Path(cli.__file__).resolve().parent != (SRC / "ishkit").resolve():
        raise SystemExit(f"worker: imported ishkit from {cli.__file__}, not from {SRC}")
    return cli


def serve(cli, job: dict) -> None:
    sys.path.insert(0, str(HERE))
    from calibrate import sample

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        for i, doc in enumerate(job["docs"]):
            if tracer is not None:
                tracer.request = i
            cal = sample()
            t0 = time.perf_counter()
            try:
                out = cli.run(cli.request_from_doc(doc))
            except Exception as exc:  # a failed request is counted, not fatal
                dt = time.perf_counter() - t0
                _emit({"ms": dt * 1e3, "cal_ms": cal, "error": f"{type(exc).__name__}: {exc}"})
            else:
                dt = time.perf_counter() - t0
                _emit({"ms": dt * 1e3, "cal_ms": cal, "out": out})
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"done": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.layer_table()
        result["spans"] = tracer.write_spans(job["spans"])
    _emit(result)


def main() -> int:
    cli = _load_cli()
    _emit({"ready": True})
    if "--probe" in sys.argv[1:]:
        return 0
    serve(cli, json.loads(sys.stdin.readline()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
