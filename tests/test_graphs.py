import random
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ishkit.arrangement import Graph, NestSpec, build_deleted, build_n_ish, build_named, n_from_graph
from ishkit.errors import CapacityError
from ishkit.freeness import is_nest
from ishkit.graphs import GraphAnalysis, SurveyRecord, SurveyReport, analyze_graph, survey
from ishkit.lattice import char_poly
from ishkit.rooks import graph_char_poly, nest_char_poly
from test_arrangement import nest_to_json, same_arrangement
from test_exactmath import unipoly_to_json


def athanasiadis_condition(graph: Graph) -> tuple[int, ...] | None:
    """The permutation condition checked on the one order that can work.

    Returns the lexicographically first permutation w (one-line notation)
    such that transporting every edge (a, b) to (w^{-1}(a), w^{-1}(b))
    yields only increasing pairs, and whenever a transported edge (i, j)
    exists, so does (i, k) for every k > j; None when no permutation works.
    Under any witness the in-neighbour sets grow along the slots, and along
    a chain every order nondecreasing in in-degree is a witness, so the
    condition is checked on the vertices sorted by (in-degree, label).
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


def scan_athanasiadis(graph: Graph) -> tuple[int, ...] | None:
    """The permutation condition by scanning all ell! relabelings in order."""
    for w in permutations(range(1, graph.ell + 1)):
        if meets_the_permutation_condition(graph, w):
            return w
    return None


def meets_the_permutation_condition(graph: Graph, w: tuple[int, ...]) -> bool:
    """Athanasiadis's definition read literally: every transported edge
    increases, and a transported edge (i, j) brings (i, k) for all k > j."""
    winv = {vertex: slot for slot, vertex in enumerate(w, start=1)}
    moved = {(winv[a], winv[b]) for a, b in graph.edges}
    if any(i >= j for i, j in moved):
        return False
    return all((i, k) in moved for i, j in moved for k in range(j + 1, graph.ell + 1))


def search_athanasiadis(graph: Graph) -> tuple[int, ...] | None:
    """The permutation condition by a pruned depth-first search.

    The vertices are placed slot by slot, tried in increasing order, so the
    first complete placement is the lexicographically first witness.  A
    vertex may take the next slot only when all its in-neighbours are
    placed, and when it is an out-neighbour of every placed vertex that
    already has a placed out-neighbour (the out-neighbours of a vertex fill
    a final run of slots).  Both conditions only ever fail for good as the
    prefix grows, so pruning on them loses no witness.
    """
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


def looped_pairwise(graph: Graph) -> bool:
    """The pairwise condition as its three quantifiers, over edge lookups."""
    edges = set(graph.edges)

    def has(i: int, j: int) -> bool:
        return i < j and (i, j) in edges

    for j in range(2, graph.ell + 1):
        for k in range(j + 1, graph.ell + 1):
            into_k = all(has(i, k) for i in range(1, j) if has(i, j))
            into_j = all(has(i, j) for i in range(1, k) if has(i, k))
            if not (into_k or into_j):
                return False
    return True


def all_subgraphs(ell: int) -> list[Graph]:
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    return [
        Graph.make(ell, [e for b, e in enumerate(pairs) if mask >> b & 1])
        for mask in range(1 << len(pairs))
    ]


def strictly_increasing(graph: Graph) -> bool:
    return isinstance(graph.edges, tuple) and all(a < b for a, b in zip(graph.edges, graph.edges[1:]))


@st.composite
def shuffled_edge_lists(draw):
    """An ell and its edges given in any order, some repeated, each a list or a tuple."""
    ell = draw(st.integers(2, 7))
    pairs = st.tuples(st.integers(1, ell - 1), st.integers(1, ell)).filter(lambda p: p[0] < p[1])
    edges = draw(st.lists(pairs, max_size=12))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    edges = draw(st.permutations(edges))
    return ell, [list(e) if draw(st.booleans()) else e for e in edges]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shuffled_edge_lists())
def test_graph_make_sorts_its_edges_once(ell_and_edges):
    ell, edges = ell_and_edges
    graph = Graph.make(ell, edges)
    assert strictly_increasing(graph)
    assert graph.edges == tuple(sorted({tuple(e) for e in edges}))


def test_every_graph_src_makes_has_strictly_increasing_edges():
    for ell in range(2, 8):
        assert strictly_increasing(Graph.complete(ell))
        with mock.patch("ishkit.arrangement.build_deleted", wraps=build_deleted) as build:
            build_named("coxeter", ell)
        (kind, graph), = (call.args for call in build.call_args_list)
        assert (kind, graph) == ("shi", Graph(ell, ()))
    for ell in range(2, 6):
        assert all(strictly_increasing(r.analysis.graph) for r in survey(ell).records)


def test_search_matches_the_permutation_scan():
    for ell in range(2, 6):
        for graph in all_subgraphs(ell):
            w = scan_athanasiadis(graph)
            assert athanasiadis_condition(graph) == w, graph
            assert analyze_graph(graph).athanasiadis_witness == w, graph


def witnesses(edges: list[tuple[int, int]]) -> set:
    """The oracle's witness and the verdict's, on a graph with three vertices."""
    graph = Graph.make(3, edges)
    return {athanasiadis_condition(graph), analyze_graph(graph).athanasiadis_witness}


def test_athanasiadis_identity_cases():
    assert witnesses([]) == {(1, 2, 3)}
    assert witnesses([(1, 2), (1, 3)]) == {(1, 2, 3)}


def test_athanasiadis_no_witness():
    assert witnesses([(1, 2), (2, 3)]) == {None}


def test_athanasiadis_needs_relabel():
    # the single edge (1,2) violates the closure under the identity
    # (no (1,3) present) but survives swapping vertices 2 and 3
    assert witnesses([(1, 2)]) == {(1, 3, 2)}


def test_graph_analysis_has_one_ell_guard():
    # nine vertices answer; the two disjoint edges are not free
    analysis = analyze_graph(Graph.make(9, [(1, 2), (3, 4)]))
    assert (analysis.free, analysis.athanasiadis_witness) == (False, None)
    top = analyze_graph(Graph.make(1000, [(1, 1000)]))
    assert top.free and top.athanasiadis_witness == tuple(range(1, 1001))
    message = "the graph analysis of ell^2 vertex pairs got ell = 1001, over the guard ell <= 1000"
    with mock.patch("ishkit.graphs._free_order") as decide:  # the guard trips before any work
        with pytest.raises(CapacityError) as caught:
            analyze_graph(Graph.make(1001, []))
    assert str(caught.value) == message
    decide.assert_not_called()


def test_pairwise_examples():
    for graph, free in ((Graph.make(3, []), True), (Graph.complete(3), True), (Graph.make(3, [(1, 2), (2, 3)]), False)):
        assert pairwise_condition(graph) == analyze_graph(graph).free == free


def test_pairwise_sees_edges_between_the_indices():
    # (3,4) forces 3 into the fourth derived set; no containment holds
    # against the second one even though no edge lies below min(2,4)=2
    # on the offending side.
    graph = Graph.make(4, [(1, 2), (3, 4)])
    assert not pairwise_condition(graph) and not analyze_graph(graph).free


def test_analysis_agrees_with_chain_condition_exhaustively():
    for ell in (2, 3, 4):
        for graph in all_subgraphs(ell):
            analysis = analyze_graph(graph)  # raises on a certificate that fails its check
            assert analysis.free == (is_nest(n_from_graph(graph)) is not None)


def test_deleted_families_share_the_derived_arrangement():
    for edges in ([], [(1, 3)], [(1, 2), (2, 3)], [(1, 2), (1, 3), (2, 3)]):
        graph = Graph.make(3, edges)
        assert same_arrangement(build_n_ish(n_from_graph(graph)), build_deleted("ish", graph))


def per_graph_survey(ell: int) -> SurveyReport:
    """The survey as one loop over the edge masks, each graph built from its
    mask and both its rook DPs run from scratch: the oracle of the tree."""
    all_edges = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    records = []
    violations = []
    for mask in range(1 << len(all_edges)):
        edges = [e for bit, e in enumerate(all_edges) if mask >> bit & 1]
        graph = Graph.make(ell, edges)
        analysis = analyze_graph(graph)
        record = SurveyRecord(analysis, graph_char_poly(graph), nest_char_poly(n_from_graph(graph)))
        if not record.agree:
            violations.append(f"characteristic polynomials differ on {edges}")
        records.append(record)
    free_count = sum(1 for r in records if r.analysis.free)
    return SurveyReport(ell, tuple(records), free_count, tuple(violations))


def analysis_to_json(a: GraphAnalysis) -> dict:
    """The fields of a ``graph`` answer as a dict, N_G built from the graph:
    ``GraphAnalysis.to_json`` as it stood, the oracle of the ``graph``
    answer and of a survey record's fields besides chi."""
    return {
        "edges": [list(e) for e in sorted(a.graph.edges)],
        "nG": nest_to_json(n_from_graph(a.graph)),
        "nest": a.free,
        "athanasiadis": list(a.athanasiadis_witness) if a.athanasiadis_witness is not None else None,
        "pairwise": a.free,
        "free": a.free,
    }


def record_to_json(record: SurveyRecord) -> dict:
    """A survey record as a dict: the oracle of the JSON records writer."""
    out = analysis_to_json(record.analysis)
    out["charPolyShi"] = unipoly_to_json(record.char_shi)
    out["charPolyIsh"] = unipoly_to_json(record.char_ish)
    out["agree"] = record.agree
    return out


def report_to_json(report: SurveyReport) -> dict:
    """The fields a survey answer adds to its JSON document, as dicts."""
    return {
        "ell": report.ell,
        "total": report.total,
        "freeCount": report.free_count,
        "violations": list(report.violations),
        "records": [record_to_json(r) for r in report.records],
    }


def assert_the_per_graph_routes(record: SurveyRecord) -> None:
    a = record.analysis
    assert record.char_shi == graph_char_poly(a.graph), a.graph
    assert record.char_ish == nest_char_poly(n_from_graph(a.graph)), a.graph


def test_the_tree_matches_the_per_graph_survey_on_k2_to_k5():
    for ell in range(2, 6):
        report = survey(ell)
        assert report == per_graph_survey(ell)
        assert [r.analysis.graph for r in report.records] == all_subgraphs(ell)  # in mask order
        for record in report.records:
            assert_the_per_graph_routes(record)


def test_survey_two_vertices():
    report = survey(2)
    assert report.total == 2
    assert report.free_count == 2
    assert report.violations == ()


def test_survey_three_vertices():
    report = survey(3)
    assert report.total == 8
    assert report.free_count == 7
    assert report.violations == ()
    not_free = [r for r in report.records if not r.analysis.free]
    assert len(not_free) == 1
    assert not_free[0].analysis.graph.edges == ((1, 2), (2, 3))
    assert all(r.agree for r in report.records)


def test_survey_char_polys_match_direct_computation():
    sample = random.Random(5).sample(survey(5).records, 60)
    for record in [*survey(4).records, *sample]:
        g = record.analysis.graph
        assert record.char_shi == char_poly(build_deleted("shi", g))
        assert record.char_ish == char_poly(build_deleted("ish", g))


@pytest.fixture(scope="module")
def survey6():
    return survey(6)


def test_survey_at_six_vertices(survey6):
    assert (survey6.total, survey6.free_count, survey6.violations) == (32768, 2637, ())


def test_survey_at_six_vertices_matches_the_moebius_sum(survey6):
    for record in random.Random(6).sample(survey6.records, 12):
        g = record.analysis.graph
        assert record.char_shi == char_poly(build_deleted("shi", g))
        assert record.char_ish == char_poly(build_deleted("ish", g))


def test_the_tree_matches_the_per_graph_routes_on_a_sample_of_k6(survey6):
    for record in random.Random(61).sample(survey6.records, 2000):
        assert_the_per_graph_routes(record)


def test_conditions_match_their_oracles_on_every_subgraph_of_k6(survey6):
    for record in survey6.records:
        a = record.analysis
        assert a.athanasiadis_witness == search_athanasiadis(a.graph), a.graph
        assert a.free == looped_pairwise(a.graph), a.graph


@st.composite
def graphs_around_witnesses(draw, min_ell: int = 6, max_ell: int = 10):
    """A graph on 6..10 vertices (or min_ell..max_ell).  Half the draws are witness graphs: each
    slot i points to a final run of later slots (maybe empty), and then
    the slots are relabeled in a random order that keeps every edge
    increasing.  The other half take each edge with probability one half."""
    ell = draw(st.integers(min_ell, max_ell))
    if draw(st.booleans()):
        starts = [draw(st.integers(i + 1, ell + 1)) for i in range(1, ell)] + [ell + 1]
        label: dict[int, int] = {}
        for next_label in range(1, ell + 1):
            ready = [
                k for k in range(1, ell + 1)
                if k not in label and all(i in label for i in range(1, k) if starts[i - 1] <= k)
            ]
            label[draw(st.sampled_from(ready))] = next_label
        edges = [(label[i], label[k]) for i in range(1, ell) for k in range(starts[i - 1], ell + 1)]
        return Graph.make(ell, edges), True
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.make(ell, [e for e, keep in zip(pairs, picks) if keep]), False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_around_witnesses())
def test_witness_meets_the_definition_on_six_to_ten_vertices(graph_and_planted):
    graph, planted = graph_and_planted
    w = analyze_graph(graph).athanasiadis_witness
    assert w == search_athanasiadis(graph) == athanasiadis_condition(graph)
    assert w is not None or not planted
    if w is not None:
        assert sorted(w) == list(range(1, graph.ell + 1))
        assert meets_the_permutation_condition(graph, w)
    assert pairwise_condition(graph) == looped_pairwise(graph)
    assert analyze_graph(graph).free == (w is not None)


@st.composite
def graphs_near_witnesses(draw):
    """A graph of ``graphs_around_witnesses`` on 7..40 vertices, and in one
    draw of two that graph with one pair of vertices toggled, so that some
    non-free graphs differ from a free one by one edge."""
    graph, _ = draw(graphs_around_witnesses(7, 40))
    if draw(st.booleans()):
        i = draw(st.integers(1, graph.ell - 1))
        graph = Graph.make(graph.ell, set(graph.edges) ^ {(i, draw(st.integers(i + 1, graph.ell)))})
    return graph


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs_near_witnesses())
def test_the_verdict_matches_the_oracles_on_seven_to_forty_vertices(graph):
    a = analyze_graph(graph)
    assert (a.free, a.athanasiadis_witness) == (is_nest(n_from_graph(graph)) is not None, athanasiadis_condition(graph))
    assert pairwise_condition(graph) == looped_pairwise(graph) == a.free


def test_survey_guards():
    with pytest.raises(CapacityError):
        survey(7)
    with pytest.raises(ValueError):
        survey(1)


def test_record_json_keys():
    report = survey(2)
    record = record_to_json(report.records[-1])
    assert set(record) == {
        "edges",
        "nG",
        "nest",
        "athanasiadis",
        "pairwise",
        "free",
        "charPolyShi",
        "charPolyIsh",
        "agree",
    }
    assert record["edges"] == [[1, 2]]
    assert record["agree"] is True
    top = report_to_json(report)
    assert top["total"] == 2 and top["freeCount"] == 2 and top["violations"] == []


def test_analysis_fields_for_a_free_graph():
    analysis = analyze_graph(Graph.make(3, [(1, 2)]))
    assert isinstance(analysis, GraphAnalysis)
    assert analysis.free
    assert analysis.athanasiadis_witness == (1, 3, 2)
    assert n_from_graph(analysis.graph) == NestSpec(3, 1, ((0, 1), (0,)))
