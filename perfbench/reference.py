"""Independent answer checks; nothing here imports ishkit.

Closed forms from the paper, computed by the benchmark itself:

* chi(Shi) = chi(Ish) = t (t - l)^(l-1);  chi(Coxeter) = t (t-1) ... (t-l+1);
* for a nest whose sets form a chain (N-Ish, Ish, and deleted Ish through
  N_G = {0} | {i : (i, j) in G}): chi = t * prod_k (t - e_k) with
  e_k = |N_w(k)| + l - k over the chain order w; the cone has exponents
  {0, 1} | {e_k}; deleted Shi shares chi with deleted Ish of the graph;
* coning multiplies chi by (t - 1);
* the supersolvable verdict of a nest-backed cone is the chain test, and
  the braid (Coxeter) arrangement and its cone are supersolvable;
* a chamber count equals |chi(-1)|;
* the wall-crossing polynomial of a descending nest is
  (1 + t) * prod_k (1 + t + ... + t^e_k); of affine Ish, (1 + ... + t^l)^(l-1);
* Saito passes with the cone exponents; a non-chain has the rank-3
  witness at its first incomparable pair;
* the four graph conditions agree; the l=4 survey has 64 subgraphs,
  37 free, 0 violations.

Every answer is also compared with ``golden.json``: digests of its answer
fields recorded at the seed commit.  Fields an implementation may
legitimately choose (chamber witness points, which modular chain is
found) are left out of the digest and checked structurally instead.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import key

GOLDEN = Path(__file__).resolve().parent / "golden.json"

Poly = tuple  # ascending Fraction coefficients, no trailing zeros


def _trim(c: list) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pmul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def from_roots(roots) -> Poly:
    p: Poly = (Fraction(1),)
    for r in roots:
        p = pmul(p, (Fraction(-r), Fraction(1)))
    return p


def geometric(top: int) -> Poly:
    return tuple(Fraction(1) for _ in range(top + 1))


def evaluate(p: Poly, x) -> Fraction:
    return sum((c * Fraction(x) ** k for k, c in enumerate(p)), Fraction(0))


def parse_poly(coeffs: list[str]) -> Poly:
    return _trim([Fraction(c) for c in coeffs])


# -- the spec, read independently ------------------------------------------


def _sets(doc: dict) -> list[frozenset[Fraction]] | None:
    """N_2..N_l of a nest-backed spec, or None."""
    kind = doc["type"]
    if kind == "n_ish":
        return [frozenset(Fraction(a) for a in s) for s in doc["N"]]
    if kind == "ish":
        return [frozenset(Fraction(a) for a in range(j)) for j in range(2, doc["ell"] + 1)]
    if kind in ("deleted_ish", "deleted_shi"):
        return graph_sets(doc["ell"], doc["edges"])
    return None


def graph_sets(ell: int, edges) -> list[frozenset[Fraction]]:
    return [
        frozenset({Fraction(0)} | {Fraction(i) for i, jj in edges if jj == j}) for j in range(2, ell + 1)
    ]


def chain_order(sets) -> list[int] | None:
    """Indices 2..l sorted ascending by inclusion, or None if no chain."""
    order = sorted(range(2, len(sets) + 2), key=lambda j: len(sets[j - 2]))
    for a, b in zip(order, order[1:]):
        if not sets[a - 2] <= sets[b - 2]:
            return None
    return order


def nest_exponents(sets) -> list[int] | None:
    """e_k = |N_w(k)| + l - k for k = 2..l over the chain order w, or None."""
    order = chain_order(sets)
    if order is None:
        return None
    ell = len(sets) + 1
    return [len(sets[order[k - 2] - 2]) + ell - k for k in range(2, ell + 1)]


def cone_exponents(sets) -> list[int] | None:
    exps = nest_exponents(sets)
    return None if exps is None else sorted([0, 1] + exps)


def _ell(doc: dict) -> int:
    return doc["ell"] if "ell" in doc else len(doc["N"]) + 1


def expected_charpoly(doc: dict) -> Poly | None:
    """chi of the spec from a closed form, or None when there is none."""
    kind, ell = doc["type"], _ell(doc)
    if kind in ("shi", "ish"):
        chi = from_roots([0] + [ell] * (ell - 1))
    elif kind == "coxeter":
        chi = from_roots(range(ell))
    else:
        exps = cone_exponents(_sets(doc))
        if exps is None:
            return None
        exps.remove(1)
        chi = from_roots(exps)
    return pmul(chi, from_roots([1])) if doc.get("cone") else chi


def nest_backed(doc: dict) -> bool:
    return doc["type"] in ("ish", "n_ish", "deleted_ish")


# -- golden digests --------------------------------------------------------


def answer_fields(doc: dict, answer: dict) -> dict:
    """The answer without the echo and without implementation choices."""
    fields = {k: v for k, v in answer.items() if k not in ("command", "spec")}
    if doc["command"] == "chambers":
        fields["chambers"] = sorted(c["signs"] for c in answer["chambers"])
    if doc["command"] == "supersolvable" and answer["chain"] is not None:
        fields["chain"] = [flat["rank"] for flat in answer["chain"]]
    return fields


def digest(doc: dict, answer: dict) -> str:
    text = json.dumps(answer_fields(doc, answer), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["answers"]


# -- per-request checks ----------------------------------------------------


def _contains(lower: list[list[str]], upper: list[list[str]]) -> bool:
    """Does the flat with RREF rows ``upper`` lie inside the one with ``lower``?"""
    rows = [[Fraction(v) for v in r] for r in upper]
    for r in lower:
        out = [Fraction(v) for v in r]
        for rr in rows:
            pivot = next(i for i, v in enumerate(rr) if v != 0)
            f = out[pivot]
            if f:
                out = [a - f * b for a, b in zip(out, rr)]
        if any(out):
            return False
    return True


def _check_charpoly(doc, ans, problems):
    want = expected_charpoly(doc)
    got = parse_poly(ans["charPoly"])
    if want is not None and got != want:
        problems.append(f"charPoly {ans['charPoly']} differs from the closed form")
    if nest_backed(doc):
        exps = cone_exponents(_sets(doc))
        if exps is not None and not doc.get("cone"):
            exps.remove(1)
        if (sorted(ans["roots"]) if ans["roots"] is not None else None) != exps:
            problems.append(f"roots {ans['roots']} != {exps}")
    elif ans["roots"] is not None:
        problems.append("roots reported for a spec that is not nest-backed")


def _check_supersolvable(doc, ans, problems):
    chain = ans["chain"]
    if ans["supersolvable"] != (chain is not None):
        problems.append("verdict and chain disagree")
    if chain is not None:
        if [f["rank"] for f in chain] != list(range(len(chain))):
            problems.append("chain ranks are not 0, 1, 2, ...")
        for lo, hi in zip(chain, chain[1:]):
            if not _contains(lo["rref"], hi["rref"]):
                problems.append("chain is not increasing")
                break
    if nest_backed(doc) and doc.get("cone"):
        want = chain_order(_sets(doc)) is not None
        if ans["supersolvable"] != want:
            problems.append(f"supersolvable {ans['supersolvable']} but the chain test says {want}")
    if doc["type"] == "coxeter" and not ans["supersolvable"]:
        problems.append("the braid arrangement is supersolvable")


def _check_chambers(doc, ans, problems):
    signs = [c["signs"] for c in ans["chambers"]]
    if ans["count"] != len(signs) or len(set(signs)) != len(signs):
        problems.append("chamber list and count disagree or repeat")
    chi = expected_charpoly(doc)
    if chi is not None and ans["count"] != abs(evaluate(chi, -1)):
        problems.append(f"{ans['count']} chambers but |chi(-1)| = {abs(evaluate(chi, -1))}")


def _check_wallcross(doc, ans, problems):
    got = parse_poly(ans["distancePoly"])
    if evaluate(got, 1) != ans["chambers"]:
        problems.append("distance polynomial and chamber count disagree")
    if doc["type"] == "ish":
        want: Poly = (Fraction(1),)
        for _ in range(doc["ell"] - 1):
            want = pmul(want, geometric(doc["ell"]))
    else:
        exps = nest_exponents(_sets(doc))
        if exps is None:
            problems.append("wall-crossing answered for a non-chain")
            return
        want = geometric(1)
        for e in exps:
            want = pmul(want, geometric(e))
    if got != want:
        problems.append("distance polynomial differs from (1+t) prod [e+1]_t")


def _first_incomparable(sets):
    for i in range(2, len(sets) + 2):
        for j in range(i + 1, len(sets) + 2):
            a, b = sets[i - 2], sets[j - 2]
            if not a <= b and not b <= a:
                return {"i": i, "j": j, "localized": [1, len(a), len(b)], "restriction": len(a | b)}
    return None


def _check_freeness(doc, ans, problems):
    sets = _sets(doc)
    exps = cone_exponents(sets)
    want = {"free": exps is not None, "exponents": exps, "witness": None if exps else _first_incomparable(sets)}
    if {k: ans[k] for k in want} != want:
        problems.append(f"freeness verdict {ans} != {want}")


def _check_saito(doc, ans, problems):
    exps = cone_exponents(_sets(doc))
    if not ans["pass"] or ans["exponents"] != exps:
        problems.append(f"Saito answer {ans['pass']} {ans['exponents']} != pass {exps}")


def _check_basis(doc, ans, problems):
    exps = cone_exponents(_sets(doc))
    if sorted(ans["degrees"]) != exps:
        problems.append(f"basis degrees {ans['degrees']} are not the exponents {exps}")


def _check_graph(doc, ans, problems):
    sets = graph_sets(doc["ell"], doc["edges"])
    got_sets = [frozenset(Fraction(a) for a in s) for s in ans["nG"]]
    if got_sets != sets:
        problems.append("derived sets differ from N_G")
    nest = chain_order(sets) is not None
    verdicts = (ans["nest"], ans["athanasiadis"] is not None, ans["pairwise"], ans["free"])
    if verdicts != (nest,) * 4:
        problems.append(f"graph conditions {verdicts} do not all equal the chain test {nest}")


def _check_survey(doc, ans, problems):
    if (ans["total"], ans["freeCount"], ans["violations"]) != (64, 37, []):
        problems.append(f"survey: {ans['total']} subgraphs, {ans['freeCount']} free, {ans['violations']}")
    if any(r["charPolyShi"] != r["charPolyIsh"] or not r["agree"] for r in ans["records"]):
        problems.append("survey: deleted Shi and Ish charpolys differ")


CHECKS = {
    "charpoly": _check_charpoly,
    "supersolvable": _check_supersolvable,
    "chambers": _check_chambers,
    "wallcross": _check_wallcross,
    "freeness": _check_freeness,
    "saito": _check_saito,
    "basis": _check_basis,
    "graph": _check_graph,
    "survey": _check_survey,
}


def check(doc: dict, output: str, golden: dict[str, str]) -> list[str]:
    """Problems with one rendered JSON answer; empty when it is right."""
    try:
        ans = json.loads(output)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems: list[str] = []
    try:
        CHECKS[doc["command"]](doc, ans, problems)
        want = golden.get(key(doc))
        if want is None:
            problems.append("request has no golden answer")
        elif digest(doc, ans) != want:
            problems.append("answer fields differ from the golden answer")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed answer: {type(exc).__name__}: {exc}")
    return problems


def check_pairs(results: list[tuple[dict, dict]]) -> list[tuple[int, str]]:
    """Cross-request checks: deleted Shi and Ish of one graph share chi, and
    a cone's chi is (t - 1) times the affine one.  ``results`` holds
    (request, parsed answer) for the correct charpoly answers;
    returns ``(index, problem)`` pairs."""
    by_graph: dict[str, list[int]] = {}
    by_spec: dict[str, dict[bool, int]] = {}
    for i, (doc, _) in enumerate(results):
        base = {k: v for k, v in doc.items() if k not in ("cone", "format")}
        if doc["type"] in ("deleted_shi", "deleted_ish"):
            g = json.dumps([doc["ell"], doc["edges"], bool(doc.get("cone"))])
            by_graph.setdefault(g, []).append(i)
        by_spec.setdefault(json.dumps(base, sort_keys=True), {})[bool(doc.get("cone"))] = i
    problems = []
    for idx in by_graph.values():
        polys = {tuple(results[i][1]["charPoly"]) for i in idx}
        if len(polys) > 1:
            problems += [(i, "deleted Shi and deleted Ish of one graph differ") for i in idx]
    for pair in by_spec.values():
        if len(pair) == 2:
            affine = parse_poly(results[pair[False]][1]["charPoly"])
            coned = parse_poly(results[pair[True]][1]["charPoly"])
            if pmul(affine, from_roots([1])) != coned:
                problems.append((pair[True], "chi of the cone is not (t - 1) chi"))
    return problems
