"""Freeness of deleted arrangements through their subgraph combinatorics.

Every subgraph G of the complete graph on {1..l} cuts two arrangements
out of the full deletion families (keep only the shifted hyperplanes
indexed by edges of G).  Freeness of either cone is a property of G
alone: the derived sets N_j = {0} | {i : (i,j) in G} form a chain, that
is, the in-neighbour sets of the vertices form a chain.  Athanasiadis's
permutation condition (some relabeling w makes w^{-1}G increasing and
closed under raising the larger endpoint) and the pairwise condition
(every two in-neighbour sets are comparable) state the same fact.

`analyze_graph` decides it once, on the in-neighbour sets as bit masks
(``Graph.in_masks``, the one derivation of that table, from the sorted
edge tuple that ``Graph.make`` builds), and checks the verdict's
certificate on the edge set: a FREE verdict by the permutation condition
on its order, a NOT FREE verdict by one incomparable pair of in-neighbour
sets, read back as two edges present and two absent.  A certificate that
fails its check is a bug in this package, an internal error rather than a
result.  The chain test on N_G (`decide_free`) and both conditions, as written
in the literature, are the oracles the tests hold the verdict to.  A
`GraphAnalysis` holds the graph, the order and the verdict, not N_G: the
answers that show N_G build it by `n_from_graph` as they write it (the
`graph` answer in both formats and a survey's JSON records, in `cli`), so
a text survey builds none.  No record here knows its JSON form; `cli`
writes every answer.

`survey` runs every subgraph of a small complete graph and additionally
compares the characteristic polynomials of the two deletion families,
which are expected to coincide (Armstrong-Rhoades).
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

from .arrangement import GRAPH_MAX_ELL, Graph
from .errors import CapacityError
from .exactmath import UniPoly, _shown
from .rooks import _chi, add_column, every_column_counts

SURVEY_MAX_ELL = 6


def _free_order(graph: Graph) -> tuple[int, ...] | None:
    """The vertices in an order certifying freeness, or None when the graph is not free.

    The vertices are sorted by (in-degree, label), and the graph is free
    when each in-neighbour mask lies inside the next.  The order is then
    the lexicographically first permutation w that transports every edge
    (a, b) to an increasing pair (w^{-1}(a), w^{-1}(b)) such that a
    transported edge (i, j) brings (i, k) for every k > j: under any such
    w the in-neighbour sets grow along the slots, so w is nondecreasing in
    in-degree; and along a chain, an edge a -> b puts a in in(b) but not
    in in(a), so out(a) is an up-set of the chain, a final run of slots.

    Each verdict is checked on the edge set, and a failed check raises
    RuntimeError.  FREE: the out-slots of each vertex fill a final run
    (the vertex is not in its own run, so it comes before: every edge
    increases).  NOT FREE: at the first adjacent pair (j, k) that is not
    nested, the least i in in(j) - in(k) and the least i' in in(k) - in(j)
    give the edges (i, j), (i', k) and the non-edges (i, k), (i', j).
    """
    ell, edges, ins = graph.ell, graph.edges, graph.in_masks()
    order = sorted(range(1, ell + 1), key=lambda v: (ins[v].bit_count(), v))
    for j, k in zip(order, order[1:]):
        if ins[j] & ~ins[k]:
            i, i2 = ((m & -m).bit_length() - 1 for m in (ins[j] & ~ins[k], ins[k] & ~ins[j]))
            present = set(edges)
            if not ({(i, j), (i2, k)} <= present and present.isdisjoint({(i, k), (i2, j)})):
                raise RuntimeError(
                    f"the in-neighbours {i} of {j} and {i2} of {k} do not certify {list(edges)} not free"
                )
            return None
    slot = {v: s for s, v in enumerate(order, start=1)}
    out_slots: list[list[int]] = [[] for _ in range(ell + 1)]
    for a, b in edges:
        out_slots[a].append(slot[b])
    # the d out-slots of a fill the final run of d slots iff the first is ell - d + 1
    if not all(min(s) == ell - len(s) + 1 for s in out_slots if s):
        raise RuntimeError(f"the order {tuple(order)} does not certify {list(edges)} free")
    return tuple(order)


class GraphAnalysis(NamedTuple):
    """One subgraph, judged free or not free, with the order that certifies freeness."""

    graph: Graph
    athanasiadis_witness: tuple[int, ...] | None
    free: bool


def analyze_graph(graph: Graph) -> GraphAnalysis:
    """Decide freeness once, by ``_free_order``, whose certificate is checked
    on the edge set; the one verdict is the ``nest``, ``pairwise`` and
    ``free`` field, and its order the Athanasiadis witness.

    A failed certificate raises RuntimeError rather than returning.  The
    answer of the ``graph`` command writes the derived sets N_G, up to
    ell^2 / 2 entries, so ell is bounded first.
    """
    if graph.ell > GRAPH_MAX_ELL:
        raise CapacityError(
            f"the graph analysis of ell^2 vertex pairs got ell = {_shown(graph.ell)}, over the guard "
            f"ell <= {GRAPH_MAX_ELL}"
        )
    witness = _free_order(graph)
    return GraphAnalysis(graph, witness, witness is not None)


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
    (``every_column_counts``).  A leaf's graph holds the edge tuple the walk
    made, already sorted, as it is.  Each leaf runs ``analyze_graph`` and takes
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
            analysis = analyze_graph(Graph(ell, graph_edges))  # sorted, each edge 1 <= i < j <= ell
            record = SurveyRecord(analysis, chi(shi_rooks, 1), chi(ish_rooks, 0))
            if not record.agree:
                violations.append(f"characteristic polynomials differ on {list(graph_edges)}")
            records.append(record)

    empty = [1] + [0] * ((1 << (ell - 1)) - 1)
    walk(ell - 1, (), empty, add_column(empty, (1 << (ell - 1)) - 1))
    free_count = sum(1 for r in records if r.analysis.free)
    return SurveyReport(ell, tuple(records), free_count, tuple(violations))
