import random
from itertools import permutations

import pytest

from ishkit.arrangement import Graph, build_deleted, build_n_ish, n_from_graph
from ishkit.errors import CapacityError
from ishkit.freeness import is_nest
from ishkit.graphs import (
    GraphAnalysis,
    analyze_graph,
    athanasiadis_condition,
    pairwise_condition,
    survey,
)
from ishkit.lattice import char_poly


def scan_athanasiadis(graph: Graph) -> tuple[int, ...] | None:
    """The permutation condition by scanning all ell! relabelings in order."""
    for w in permutations(range(1, graph.ell + 1)):
        winv = {vertex: slot for slot, vertex in enumerate(w, start=1)}
        moved = {(winv[a], winv[b]) for a, b in graph.edges}
        if any(i >= j for i, j in moved):
            continue
        if all(
            (i, k) in moved
            for i, j in moved
            for k in range(j + 1, graph.ell + 1)
        ):
            return w
    return None


def all_subgraphs(ell: int) -> list[Graph]:
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    return [
        Graph.make(ell, [e for b, e in enumerate(pairs) if mask >> b & 1])
        for mask in range(1 << len(pairs))
    ]


def test_search_matches_the_permutation_scan():
    for ell in range(2, 6):
        for graph in all_subgraphs(ell):
            assert athanasiadis_condition(graph) == scan_athanasiadis(graph), graph


def test_athanasiadis_identity_cases():
    assert athanasiadis_condition(Graph.make(3, [])) == (1, 2, 3)
    assert athanasiadis_condition(Graph.make(3, [(1, 2), (1, 3)])) == (1, 2, 3)


def test_athanasiadis_no_witness():
    assert athanasiadis_condition(Graph.make(3, [(1, 2), (2, 3)])) is None


def test_athanasiadis_needs_relabel():
    # the single edge (1,2) violates the closure under the identity
    # (no (1,3) present) but survives swapping vertices 2 and 3
    assert athanasiadis_condition(Graph.make(3, [(1, 2)])) == (1, 3, 2)


def test_athanasiadis_capacity_guard():
    message = "the depth-first relabeling search got ell = 9, over the guard ell <= 8"
    with pytest.raises(CapacityError) as caught:
        athanasiadis_condition(Graph.make(9, []))
    assert str(caught.value) == message


def test_pairwise_examples():
    assert pairwise_condition(Graph.make(3, []))
    assert pairwise_condition(Graph.complete(3))
    assert not pairwise_condition(Graph.make(3, [(1, 2), (2, 3)]))


def test_pairwise_sees_edges_between_the_indices():
    # (3,4) forces 3 into the fourth derived set; no containment holds
    # against the second one even though no edge lies below min(2,4)=2
    # on the offending side.
    assert not pairwise_condition(Graph.make(4, [(1, 2), (3, 4)]))


def test_analysis_agrees_with_chain_condition_exhaustively():
    for ell in (2, 3, 4):
        for graph in all_subgraphs(ell):
            analysis = analyze_graph(graph)  # raises on any mismatch
            assert analysis.free == (is_nest(n_from_graph(graph)) is not None)


def test_deleted_families_share_the_derived_arrangement():
    for edges in ([], [(1, 3)], [(1, 2), (2, 3)], [(1, 2), (1, 3), (2, 3)]):
        graph = Graph.make(3, edges)
        assert build_n_ish(n_from_graph(graph)) == build_deleted("ish", graph)


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
    assert not_free[0].analysis.graph.sorted_edges() == [(1, 2), (2, 3)]
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


def test_survey_guards():
    with pytest.raises(CapacityError):
        survey(7)
    with pytest.raises(ValueError):
        survey(1)


def test_record_json_keys():
    report = survey(2)
    record = report.records[-1].to_json()
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
    top = report.to_json()
    assert top["total"] == 2 and top["freeCount"] == 2 and top["violations"] == []


def test_analysis_fields_for_a_free_graph():
    analysis = analyze_graph(Graph.make(3, [(1, 2)]))
    assert isinstance(analysis, GraphAnalysis)
    assert analysis.free and analysis.nest_ok and analysis.pairwise_ok
    assert analysis.athanasiadis_witness == (1, 3, 2)
    assert analysis.n_g.nums == ((0, 1), (0,)) and analysis.n_g.den == 1
