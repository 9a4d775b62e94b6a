"""Freeness of deleted arrangements through their subgraph combinatorics.

Every subgraph G of the complete graph on {1..l} cuts two arrangements
out of the full deletion families (keep only the shifted hyperplanes
indexed by edges of G).  Freeness of either cone turns out to be a
property of G alone, and this module computes it three independent
ways and cross-checks them:

* the chain condition on the derived sets N_j = {0} | {i : (i,j) in G};
* the permutation condition (some relabeling w makes w^{-1}G increasing
  and closed under raising the larger endpoint), checked on the one
  order that can work, the vertices sorted by in-degree;
* the pairwise condition (for every j, k the in-neighbour sets of j and
  k are comparable), one bit-mask test per pair.

A disagreement between the routes would falsify the equivalence this
package is built around, so `analyze_graph` treats it as an internal
error, not a result.  `survey` runs every subgraph of a small complete
graph and additionally compares the characteristic polynomials of the
two deletion families, which are expected to coincide (Armstrong-Rhoades).
The two rook boards share their cells: the board of N_G is the deleted
Shi board, transposed, plus the full column of the entry 0.  So the
comparison checks less than two independent routes would.  The two
polynomials come from separate DP vectors, one with that column and one
without, and through ``rooks._chi`` at different shifts, so a fault in
either vector's steps or in either shift shows as a violation; a fault
in the column step they share would not.  `lattice.char_poly`, the
Moebius route, is the independent oracle the tests hold both against.
"""

from __future__ import annotations

from typing import NamedTuple

from .arrangement import GRAPH_MAX_ELL, Graph, NestSpec, n_from_graph
from .errors import CapacityError
from .exactmath import UniPoly, _shown
from .freeness import is_nest
from .rooks import _chi, add_column, every_column_counts

SURVEY_MAX_ELL = 6


def athanasiadis_condition(graph: Graph) -> tuple[int, ...] | None:
    """Find a relabeling certifying freeness of the deleted cone.

    Returns the lexicographically first permutation w (one-line
    notation) such that transporting every edge (a, b) to
    (w^{-1}(a), w^{-1}(b)) yields only increasing pairs, and whenever a
    transported edge (i, j) exists, so does (i, k) for every k > j.
    Returns None when no permutation works.

    No search is needed.  Under any witness the out-slots of each slot
    are a final run, so the in-neighbour sets grow along the slots: they
    form a chain, and w is nondecreasing in in-degree.  Conversely, when
    they form a chain, an edge a -> b puts a in in(b) but not in in(a),
    so in(a) is strictly inside in(b), and out(a) = {b : a in in(b)} is
    an up-set of the chain: every order nondecreasing in in-degree is a
    witness.  The first is the vertices sorted by (in-degree, label), so
    the condition is checked on that one order; if it fails, none works.
    """
    ell = graph.ell
    indegree = [0] * (ell + 1)
    for _, b in graph.edges:
        indegree[b] += 1
    w = sorted(range(1, ell + 1), key=lambda v: (indegree[v], v))
    slot = {v: s for s, v in enumerate(w, start=1)}
    out_slots: list[list[int]] = [[] for _ in range(ell + 1)]
    for a, b in graph.edges:
        out_slots[a].append(slot[b])
    # the d out-slots of a fill the final run of d slots iff the first is ell - d + 1;
    # slot(a) is not in that run, so it comes before: every edge increases
    return tuple(w) if all(min(s) == ell - len(s) + 1 for s in out_slots if s) else None


def pairwise_condition(graph: Graph) -> bool:
    """For every pair j < k in {2..l}: either every edge (i, j) comes with
    the edge (i, k), or every edge (i, k) comes with the edge (i, j).

    A required edge (i, j) with i >= j cannot exist and counts as
    absent, so an edge (i, k) with j <= i < k defeats the second
    alternative outright.  (Capping the quantifier at i <= min(j, k)
    would wave such edges through and break the equivalence with the
    chain condition, e.g. on the two disjoint edges (1,2), (3,4).)  So
    in(j) and in(k) are comparable: one bit-mask test per pair.
    """
    ins = [0] * (graph.ell + 1)
    for i, j in graph.edges:
        ins[j] |= 1 << i
    for j, a in enumerate(ins):
        for b in ins[j + 1 :]:
            if a | b not in (a, b):
                return False
    return True


class GraphAnalysis(NamedTuple):
    """One subgraph, judged by all the equivalent freeness conditions."""

    graph: Graph
    n_g: NestSpec
    athanasiadis_witness: tuple[int, ...] | None
    pairwise_ok: bool
    free: bool

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.graph.sorted_edges()],
            "nG": self.n_g.to_json(),
            "nest": self.free,
            "athanasiadis": list(self.athanasiadis_witness)
            if self.athanasiadis_witness is not None
            else None,
            "pairwise": self.pairwise_ok,
            "free": self.free,
        }


def analyze_graph(graph: Graph) -> GraphAnalysis:
    """Run the three combinatorial conditions; the chain condition is the freeness decision.

    Freeness comes from ``is_nest``, the test ``decide_free`` decides by;
    that one bit is both the ``nest`` and the ``free`` field.  The three
    answers are provably equivalent; a mismatch is a bug in this package
    and raises RuntimeError rather than returning.  The pairwise test
    visits ell^2 vertex pairs, so ell is bounded first.
    """
    if graph.ell > GRAPH_MAX_ELL:
        raise CapacityError(
            f"the graph analysis of ell^2 vertex pairs got ell = {_shown(graph.ell)}, over the guard "
            f"ell <= {GRAPH_MAX_ELL}"
        )
    n_g = n_from_graph(graph)
    free = is_nest(n_g) is not None
    witness = athanasiadis_condition(graph)
    pairwise_ok = pairwise_condition(graph)
    if not (free == (witness is not None) == pairwise_ok):
        raise RuntimeError(
            f"equivalence broke on {sorted(graph.edges)}: nest={free}, "
            f"athanasiadis={witness}, pairwise={pairwise_ok}"
        )
    return GraphAnalysis(graph, n_g, witness, pairwise_ok, free)


class SurveyRecord(NamedTuple):
    analysis: GraphAnalysis
    char_shi: UniPoly
    char_ish: UniPoly

    @property
    def agree(self) -> bool:
        return self.char_shi == self.char_ish


class SurveyReport(NamedTuple):
    ell: int
    records: tuple[SurveyRecord, ...]
    free_count: int
    violations: tuple[str, ...]

    @property
    def total(self) -> int:
        return len(self.records)


def survey(ell: int) -> SurveyReport:
    """Analyze every subgraph of the complete graph on {1..l}.

    The subgraphs are the leaves of one tree, walked depth first: level i
    (i = l-1 down to 1) picks the out-set of vertex i, in increasing
    subset order, so the leaves come in the order of their bitmasks over
    the lexicographically sorted edge list.  Each node carries two rook
    DP vectors, and each tree edge adds its out-set to both as one column
    (``add_column``; an empty out-set adds none):

    * the deleted Shi board, transposed (a row per vertex j = 2..l, the
      column of vertex i holding its out-neighbours), from the empty board;
    * the board of N_G, the same cells after the full column of the
      entry 0, in every N_j.

    The last level, vertex 1, whose out-set may be any column, takes the
    rook numbers of all its leaves from its node's two vectors at once
    (``every_column_counts``).  Each leaf runs ``analyze_graph`` and takes
    both characteristic polynomials from its two rook vectors, through a
    memo keyed by the rook numbers and the shift of ``_chi``; a
    disagreement is a violation (none is expected).
    """
    if ell < 2:
        raise ValueError("survey needs ell >= 2")
    if ell > SURVEY_MAX_ELL:
        raise CapacityError(
            f"the survey of 2^(ell(ell-1)/2) subgraphs got ell = {_shown(ell)}, over the guard "
            f"ell <= {SURVEY_MAX_ELL}"
        )
    # out_sets[i][s]: the edges (i, j), j > i, of the subset s of i's later vertices
    out_sets = {
        i: [tuple((i, j) for j in range(i + 1, ell + 1) if s >> (j - i - 1) & 1) for s in range(1 << (ell - i))]
        for i in range(1, ell)
    }
    chis: dict[tuple[tuple[int, ...], int], UniPoly] = {}
    records: list[SurveyRecord] = []
    violations: list[str] = []

    def chi(rooks: tuple[int, ...], shift: int) -> UniPoly:
        key = (rooks, shift)
        if key not in chis:
            chis[key] = _chi(rooks, ell, shift, False)
        return chis[key]

    def walk(i: int, edges: tuple[tuple[int, int], ...], shi: list[int], ish: list[int]) -> None:
        if i > 1:
            for s, out in enumerate(out_sets[i]):
                if s:
                    col = s << (i - 1)
                    walk(i - 1, out + edges, add_column(shi, col), add_column(ish, col))
                else:
                    walk(i - 1, edges, shi, ish)
            return
        # the leaves: vertex 1's out-set s is the column s, over every row
        for out, shi_rooks, ish_rooks in zip(out_sets[1], every_column_counts(shi), every_column_counts(ish)):
            graph_edges = out + edges
            analysis = analyze_graph(Graph(ell, frozenset(graph_edges)))  # each edge is 1 <= i < j <= ell
            record = SurveyRecord(analysis, chi(shi_rooks, 1), chi(ish_rooks, 0))
            if not record.agree:
                violations.append(f"characteristic polynomials differ on {list(graph_edges)}")
            records.append(record)

    empty = [1] + [0] * ((1 << (ell - 1)) - 1)
    walk(ell - 1, (), empty, add_column(empty, (1 << (ell - 1)) - 1))
    free_count = sum(1 for r in records if r.analysis.free)
    return SurveyReport(ell, tuple(records), free_count, tuple(violations))
