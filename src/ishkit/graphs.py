"""Freeness of deleted arrangements through their subgraph combinatorics.

Every subgraph G of the complete graph on {1..l} cuts two arrangements
out of the full deletion families (keep only the shifted hyperplanes
indexed by edges of G).  Freeness of either cone turns out to be a
property of G alone, and this module computes it three independent
ways and cross-checks them:

* the chain condition on the derived sets N_j = {0} | {i : (i,j) in G};
* the permutation condition (some relabeling w makes w^{-1}G increasing
  and closed under raising the larger endpoint);
* the pairwise condition (for every j, k the edge sets below min(j,k)
  are comparable).

A disagreement between the routes would falsify the equivalence this
package is built around, so `analyze_graph` treats it as an internal
error, not a result.  `survey` runs every subgraph of a small complete
graph and additionally compares the characteristic polynomials of the
two deletion families, which are expected to coincide (Armstrong-Rhoades).
It takes them from two different rook boards (`rooks.graph_char_poly`
for deleted Shi, `rooks.nest_char_poly` on N_G for deleted Ish), so the
comparison is not one path checked against itself; `lattice.char_poly`,
the Moebius route, is kept as the oracle the tests hold both against.
"""

from __future__ import annotations

from typing import NamedTuple

from .arrangement import Graph, NestSpec, n_from_graph
from .errors import CapacityError
from .exactmath import UniPoly, _shown, unipoly_to_json
from .freeness import decide_free
from .rooks import graph_char_poly, nest_char_poly

ATHANASIADIS_MAX_ELL = 8
SURVEY_MAX_ELL = 6


def athanasiadis_condition(graph: Graph) -> tuple[int, ...] | None:
    """Search for a relabeling certifying freeness of the deleted cone.

    Returns the lexicographically first permutation w (one-line
    notation) such that transporting every edge (a, b) to
    (w^{-1}(a), w^{-1}(b)) yields only increasing pairs, and whenever a
    transported edge (i, j) exists, so does (i, k) for every k > j.
    Returns None when no permutation works.

    A depth-first search places the vertices slot by slot, trying them
    in increasing order, so the first complete placement is the
    lexicographically first witness.  A vertex may take the next slot
    only when all its in-neighbours are placed, and when it is an
    out-neighbour of every placed vertex that already has a placed
    out-neighbour (the out-neighbours of a vertex fill a final run of
    slots).  Both conditions only ever fail for good as the prefix
    grows, so pruning on them loses no witness.
    """
    if graph.ell > ATHANASIADIS_MAX_ELL:
        raise CapacityError(
            f"the depth-first relabeling search got ell = {_shown(graph.ell)}, over the guard "
            f"ell <= {ATHANASIADIS_MAX_ELL}"
        )
    ell = graph.ell
    everyone = (1 << (ell + 1)) - 2
    outs = [0] * (ell + 1)
    ins = [0] * (ell + 1)
    for a, b in graph.edges:
        outs[a] |= 1 << b
        ins[b] |= 1 << a
    # placing v starts every in-neighbour of v: later slots must be out-neighbours of it
    narrows = [everyone] * (ell + 1)
    for a, b in graph.edges:
        narrows[b] &= outs[a]
    w: list[int] = []

    def place(placed: int, allowed: int) -> bool:
        if len(w) == ell:
            return True
        for v in range(1, ell + 1):
            bit = 1 << v
            if placed & bit or not allowed & bit or ins[v] & ~placed:
                continue
            w.append(v)
            if place(placed | bit, allowed & narrows[v]):
                return True
            w.pop()
        return False

    return tuple(w) if place(0, everyone) else None


def pairwise_condition(graph: Graph) -> bool:
    """For every pair j < k in {2..l}: either every edge (i, j) comes with
    the edge (i, k), or every edge (i, k) comes with the edge (i, j).

    A required edge (i, j) with i >= j cannot exist and counts as
    absent, so an edge (i, k) with j <= i < k defeats the second
    alternative outright.  (Capping the quantifier at i <= min(j, k)
    would wave such edges through and break the equivalence with the
    chain condition, e.g. on the two disjoint edges (1,2), (3,4).)
    """
    edges = graph.edges

    def has(i: int, j: int) -> bool:
        return i < j and (i, j) in edges

    for j in range(2, graph.ell + 1):
        for k in range(j + 1, graph.ell + 1):
            into_k = all(has(i, k) for i in range(1, j) if has(i, j))
            into_j = all(has(i, j) for i in range(1, k) if has(i, k))
            if not (into_k or into_j):
                return False
    return True


class GraphAnalysis(NamedTuple):
    """One subgraph, judged by all the equivalent freeness conditions."""

    graph: Graph
    n_g: NestSpec
    nest_ok: bool
    athanasiadis_witness: tuple[int, ...] | None
    pairwise_ok: bool
    free: bool

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.graph.sorted_edges()],
            "nG": self.n_g.to_json(),
            "nest": self.nest_ok,
            "athanasiadis": list(self.athanasiadis_witness)
            if self.athanasiadis_witness is not None
            else None,
            "pairwise": self.pairwise_ok,
            "free": self.free,
        }


def analyze_graph(graph: Graph) -> GraphAnalysis:
    """Run the three combinatorial conditions; the chain condition is the freeness decision.

    ``decide_free`` calls N_G free exactly when ``is_nest`` finds a chain
    order, so one call gives both the ``nest`` and the ``free`` field.  The
    three answers are provably equivalent; a mismatch is a bug in this
    package and raises RuntimeError rather than returning.
    """
    n_g = n_from_graph(graph)
    free = decide_free(n_g).free
    witness = athanasiadis_condition(graph)
    pairwise_ok = pairwise_condition(graph)
    if not (free == (witness is not None) == pairwise_ok):
        raise RuntimeError(
            f"equivalence broke on {sorted(graph.edges)}: nest={free}, "
            f"athanasiadis={witness}, pairwise={pairwise_ok}, free={free}"
        )
    return GraphAnalysis(graph, n_g, free, witness, pairwise_ok, free)


class SurveyRecord(NamedTuple):
    analysis: GraphAnalysis
    char_shi: UniPoly
    char_ish: UniPoly

    @property
    def agree(self) -> bool:
        return self.char_shi == self.char_ish

    def to_json(self) -> dict:
        out = self.analysis.to_json()
        out["charPolyShi"] = unipoly_to_json(self.char_shi)
        out["charPolyIsh"] = unipoly_to_json(self.char_ish)
        out["agree"] = self.agree
        return out


class SurveyReport(NamedTuple):
    ell: int
    records: tuple[SurveyRecord, ...]
    free_count: int
    violations: tuple[str, ...]

    @property
    def total(self) -> int:
        return len(self.records)

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "total": self.total,
            "freeCount": self.free_count,
            "violations": list(self.violations),
            "records": [r.to_json() for r in self.records],
        }


def survey(ell: int) -> SurveyReport:
    """Analyze every subgraph of the complete graph on {1..l}.

    Subgraphs are enumerated by bitmask over the lexicographically
    sorted edge list, so the report order is reproducible.  For each
    subgraph the characteristic polynomials of both deletion families
    are taken from their rook boards and compared; disagreements are
    collected as violations (none are expected).
    """
    if ell < 2:
        raise ValueError("survey needs ell >= 2")
    if ell > SURVEY_MAX_ELL:
        raise CapacityError(
            f"the survey of 2^(ell(ell-1)/2) subgraphs got ell = {_shown(ell)}, over the guard "
            f"ell <= {SURVEY_MAX_ELL}"
        )
    all_edges = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    records = []
    violations = []
    for mask in range(1 << len(all_edges)):
        edges = [e for bit, e in enumerate(all_edges) if mask >> bit & 1]
        graph = Graph.make(ell, edges)
        analysis = analyze_graph(graph)
        record = SurveyRecord(
            analysis, graph_char_poly(graph), nest_char_poly(analysis.n_g)
        )
        if not record.agree:
            violations.append(f"characteristic polynomials differ on {edges}")
        records.append(record)
    free_count = sum(1 for r in records if r.analysis.free)
    return SurveyReport(ell, tuple(records), free_count, tuple(violations))
