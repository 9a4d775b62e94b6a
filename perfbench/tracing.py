"""Outside-in tracing of ishkit's layers.

The tracer replaces every public function of the layer modules, plus
``MultiPoly.__mul__`` and ``Flat.intersect_hyperplane``, with a wrapper
that records a span ``(name, start, end, parent, request)``.  The
replacement is made in every ``ishkit`` namespace that bound the
original (``from .lattice import char_poly`` in ``cli`` makes a second
binding), so calls between modules are traced too.  No source file
changes, and ``uninstall`` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans; calls on one thread
nest, so children never overlap.  Every ``*_ms`` metric is a self time.

Which end-to-end metric each group of per-layer metrics should move:

* ``lattice.*``: ``req_per_s``, ``latency_p50_ms`` and ``latency_p90_ms``
  on lattice; ``lattice.flats`` also ``peak_rss_mb`` on lattice;
* ``exactmath.*``: ``req_per_s`` and ``latency_p90_ms`` on saito;
* ``freeness.*``: ``req_per_s`` on saito;
* ``chambers.*``: ``req_per_s`` and ``latency_p90_ms`` on chambers
  (``fm_feasible_ratio`` is feasible results per Fourier-Motzkin call);
* ``graphs.*``: ``latency_p50_ms`` and ``req_per_s`` on lattice, through
  its subgraph requests and the survey;
* ``arrangement.from_spec_ms``, ``cli.self_ms``: ``latency_p50_ms`` on
  lattice, whose small requests sit below the median.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("arrangement", "lattice", "chambers", "freeness", "exactmath", "graphs", "cli")
METHODS = (("exactmath", "MultiPoly", "__mul__"), ("lattice", "Flat", "intersect_hyperplane"))


def _namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "ishkit" or name.startswith("ishkit.")]


def targets() -> list[tuple[str, object, list[tuple[object, str]]]]:
    """``(span name, original, [(owner, attribute), ...])`` for each traced callable."""
    out = []
    spaces = _namespaces()
    for layer in LAYERS:
        mod = sys.modules[f"ishkit.{layer}"]
        for attr, fn in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            bindings = [(ns, a) for ns in spaces for a, v in vars(ns).items() if v is fn]
            out.append((f"{layer}.{attr}", fn, bindings))
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"ishkit.{layer}"], cls_name)
        fn = vars(cls)[attr]
        bindings = [(cls, a) for a, v in vars(cls).items() if v is fn]
        out.append((f"{layer}.{cls_name}.{attr}", fn, bindings))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.request = -1
        self.counts = {"flats": 0, "chambers": 0, "feasible": 0}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _observer(self, name: str):
        """What a traced call's result adds to the counts, if anything."""
        counts = self.counts

        def add(key, amount):
            counts[key] += amount

        if name == "lattice.intersection_poset":
            return lambda res: add("flats", len(res))
        if name == "chambers.enumerate_chambers":
            return lambda res: add("chambers", len(res))
        if name == "chambers.find_interior_point":
            return lambda res: add("feasible", res is not None)
        return None

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        observe = self._observer(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.request)
            if observe is not None:
                observe(res)
            return res

        return traced

    def install(self) -> None:
        for name, fn, bindings in targets():
            wrapper = self._wrap(name, fn)
            for owner, attr in bindings:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def table(self) -> dict[str, dict]:
        """Per traced name: calls and self time in ms."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        for i, (nid, t0, t1, _, _) in enumerate(self.spans):
            calls[self.names[nid]] += 1
            self_ms[self.names[nid]] += (t1 - t0 - child[i]) * 1e3
        return {n: {"calls": calls[n], "self_ms": self_ms[n]} for n in self.names}

    def layer_table(self) -> dict:
        return {"functions": self.table(), "counts": dict(self.counts), "spans": len(self.spans)}

    def write_spans(self, path: str) -> str:
        """Write the spans as gzip'd TSV, times relative to the first span."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(out, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\trequest\n")
            for i, (nid, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{(t0 - base) * 1e6:.1f}\t{(t1 - base) * 1e6:.1f}\t{parent}\t{req}\n")
        return str(out)


def _fn(table: dict, name: str) -> dict:
    return table["functions"].get(name, {"calls": 0, "self_ms": 0.0})


def per_layer_metrics(table: dict) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, ``name -> (value, unit)``, from a layer table."""
    f = functools.partial(_fn, table)
    counts = table["counts"]
    fm_calls = f("chambers.find_interior_point")["calls"]
    out = {
        "lattice.poset_ms": (f("lattice.intersection_poset")["self_ms"], "ms"),
        "lattice.poset_calls": (f("lattice.intersection_poset")["calls"], "count"),
        "lattice.flats": (counts["flats"], "count"),
        "lattice.intersect_calls": (f("lattice.Flat.intersect_hyperplane")["calls"], "count"),
        "lattice.intersect_ms": (f("lattice.Flat.intersect_hyperplane")["self_ms"], "ms"),
        "lattice.supersolvable_self_ms": (f("lattice.is_supersolvable")["self_ms"], "ms"),
        "lattice.char_poly_self_ms": (f("lattice.char_poly")["self_ms"], "ms"),
        "exactmath.mul_calls": (f("exactmath.MultiPoly.__mul__")["calls"], "count"),
        "exactmath.mul_ms": (f("exactmath.MultiPoly.__mul__")["self_ms"], "ms"),
        "exactmath.det_calls": (f("exactmath.poly_det")["calls"], "count"),
        "exactmath.det_ms": (f("exactmath.poly_det")["self_ms"], "ms"),
        "exactmath.div_calls": (f("exactmath.poly_exact_div")["calls"], "count"),
        "exactmath.div_ms": (f("exactmath.poly_exact_div")["self_ms"], "ms"),
        "freeness.basis_ms": (f("freeness.basis_derivations")["self_ms"], "ms"),
        "freeness.saito_self_ms": (f("freeness.saito_constant")["self_ms"], "ms"),
        "freeness.log_check_calls": (f("freeness.is_log_derivation")["calls"], "count"),
        "freeness.log_check_ms": (f("freeness.is_log_derivation")["self_ms"], "ms"),
        "freeness.decide_ms": (f("freeness.decide_free")["self_ms"], "ms"),
        "chambers.enumerate_self_ms": (f("chambers.enumerate_chambers")["self_ms"], "ms"),
        "chambers.fm_calls": (fm_calls, "count"),
        "chambers.fm_ms": (f("chambers.find_interior_point")["self_ms"], "ms"),
        "chambers.fm_feasible_ratio": (counts["feasible"] / fm_calls if fm_calls else 0.0, "ratio"),
        "chambers.count": (counts["chambers"], "count"),
        "chambers.distance_self_ms": (f("chambers.distance_poly")["self_ms"], "ms"),
        "graphs.analyze_ms": (f("graphs.analyze_graph")["self_ms"], "ms"),
        "graphs.athanasiadis_calls": (f("graphs.athanasiadis_condition")["calls"], "count"),
        "graphs.athanasiadis_ms": (f("graphs.athanasiadis_condition")["self_ms"], "ms"),
        "graphs.survey_self_ms": (f("graphs.survey")["self_ms"], "ms"),
        "arrangement.from_spec_ms": (f("arrangement.from_spec")["self_ms"], "ms"),
    }
    for layer in LAYERS:
        total = sum(v["self_ms"] for n, v in table["functions"].items() if n.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (total, "ms")
    return out
