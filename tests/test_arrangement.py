import itertools
from fractions import Fraction

import pytest

from ishkit.arrangement import (
    Arrangement,
    Graph,
    Hyperplane,
    NestSpec,
    build_deleted,
    build_n_ish,
    build_named,
    cone,
    from_spec,
    ish_nest,
    n_from_graph,
)


def h(coeffs, const=0):
    return Hyperplane.make(coeffs, const)


def test_hyperplane_normalization():
    assert h([Fraction(1, 2), Fraction(-1, 2)], Fraction(3, 2)) == h([1, -1], 3)
    assert h([-1, 1], 0) == h([1, -1], 0)
    assert h([-2, 4], -6) == h([1, -2], 3)
    assert h([0, 3], 0) == h([0, 1], 0)
    with pytest.raises(ValueError):
        h([0, 0], 1)
    with pytest.raises(ValueError):
        h([0, 0], 0)
    # integer and Fraction input agree, and the stored form is int
    for coeffs, const in (([-2, 4], -6), ([0, -3], 0), ([6, -4], 2), ([5, 0], 7)):
        fast = h(coeffs, const)
        assert fast == h([Fraction(c) for c in coeffs], Fraction(const))
        assert all(type(v) is int for v in fast.coeffs + (fast.const,))
    assert h([True, False], 0) == h([1, 0], 0)


def test_hyperplane_form_and_eval():
    plane = h([1, -1], 1)
    assert (plane.coeffs, plane.const) == ((1, -1), 1)
    assert plane.eval_at([3, 1]) == 1
    assert plane.eval_at([2, 1]) == 0
    assert plane.eval_at([5, 2], 2) == 1  # at (5/2, 1), times 2
    assert plane.render(["x1", "x2"]) == "x1 - x2 = 1"


def test_gain_edges_read_back_the_constant():
    arr = Arrangement(3, [h([1, -1, 0], Fraction(1, 2)), h([0, 1, -1], -2)])
    assert arr.hyperplanes[0] == Hyperplane((2, -2, 0), 1)
    edges = arr.gain_edges()
    assert edges == [(0, 1, Fraction(1, 2)), (1, 2, -2)]
    assert [type(e[2]) for e in edges] == [Fraction, int]  # int when integral
    coned = cone(arr).gain_edges()
    assert coned == [None] + edges
    assert [type(e[2]) for e in coned[1:]] == [Fraction, int]
    # a coned arrangement without z = 0 still reads as edges
    assert Arrangement(3, [h([1, -1, 0], 0)], coned=True).gain_edges() == [(0, 1, 0)]
    with pytest.raises(ValueError, match="not of the form"):
        Arrangement(3, [h([0, 0, 1], 1), h([1, -1, 0])], coned=True).gain_edges()  # z = 1


def test_build_named_ish_three():
    arr = build_named("ish", 3)
    expected = {
        h([1, -1, 0], 0),
        h([1, 0, -1], 0),
        h([0, 1, -1], 0),
        h([1, -1, 0], 1),
        h([1, 0, -1], 1),
        h([1, 0, -1], 2),
    }
    assert set(arr.hyperplanes) == expected
    assert len(arr) == 6
    assert not arr.is_central


def test_build_named_shi_and_coxeter():
    shi2 = build_named("shi", 2)
    assert set(shi2.hyperplanes) == {h([1, -1], 0), h([1, -1], 1)}
    cox4 = build_named("coxeter", 4)
    assert len(cox4) == 6
    assert cox4.is_central
    with pytest.raises(ValueError):
        build_named("ish", 1)
    with pytest.raises(ValueError):
        build_named("weyl", 3)


def test_shi_and_ish_same_size():
    for ell in (2, 3, 4, 5):
        assert len(build_named("shi", ell)) == len(build_named("ish", ell)) == ell * (ell - 1)


def test_nest_spec_basics():
    nest = NestSpec.make([[1, 0, 1], ["1/2", 0]])
    assert nest.ell == 3
    assert nest.set_at(2) == (0, 1)
    assert nest.set_at(3) == (0, Fraction(1, 2))
    assert not nest.is_ascending() and not nest.is_descending()
    asc = NestSpec.make([[0], [0, 1]])
    assert asc.is_ascending() and not asc.is_descending()
    assert asc.reordered([3, 2]).sets == (asc.set_at(3), asc.set_at(2))
    with pytest.raises(ValueError):
        NestSpec.make([])
    with pytest.raises(ValueError):
        asc.reordered([2, 2])


def test_build_n_ish_matches_named_ish():
    nest = NestSpec.make([[0, 1], [0, 1, 2]])
    assert build_n_ish(nest) == build_named("ish", 3)
    assert ish_nest(3) == nest
    for ell in (2, 3, 4, 5):
        assert build_n_ish(ish_nest(ell)) == build_named("ish", ell)


def test_build_n_ish_counts():
    # |A| = sum |N_j| + C(ell-1, 2), duplicates merged silently
    nest = NestSpec.make([[0, 1], [1]])
    arr = build_n_ish(nest)
    assert len(arr) == 3 + 1
    assert arr.dim == 3


def test_graph_validation():
    g = Graph.make(3, [(1, 2), (2, 3)])
    assert g.sorted_edges() == [(1, 2), (2, 3)]
    assert len(Graph.complete(4).edges) == 6
    with pytest.raises(ValueError):
        Graph.make(3, [(2, 2)])
    with pytest.raises(ValueError):
        Graph.make(3, [(1, 4)])


@pytest.mark.parametrize("edge", [[1], [1, 2, 3], [1, "2"], [True, 2], 12, [1.0, 2]])
def test_graph_rejects_malformed_edge(edge):
    with pytest.raises(ValueError, match="pair of integers"):
        Graph.make(3, [edge])


def test_n_from_graph_examples():
    empty = Graph.make(3, [])
    assert n_from_graph(empty) == NestSpec.make([[0], [0]])
    assert build_n_ish(n_from_graph(empty)) == build_deleted("ish", empty)
    assert build_deleted("ish", empty) == build_named("coxeter", 3)

    g23 = Graph.make(3, [(2, 3)])
    assert n_from_graph(g23) == NestSpec.make([[0], [0, 2]])


def test_deleted_matches_nest_exhaustive():
    for ell in (2, 3, 4):
        all_edges = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        for bits in itertools.product([0, 1], repeat=len(all_edges)):
            g = Graph.make(ell, [e for e, b in zip(all_edges, bits) if b])
            assert build_n_ish(n_from_graph(g)) == build_deleted("ish", g)


def test_n_from_graph_matches_the_parsed_sets():
    all_edges = list(itertools.combinations(range(1, 5), 2))
    for bits in itertools.product([0, 1], repeat=len(all_edges)):
        g = Graph.make(4, [e for e, b in zip(all_edges, bits) if b])
        parsed = NestSpec.make([[0] + [i for i, j in g.edges if j == k] for k in range(2, 5)])
        nest = n_from_graph(g)
        assert nest == parsed
        assert all(type(a) is Fraction for s in nest.sets for a in s)


def test_deleted_shi():
    g = Graph.make(3, [(1, 3)])
    arr = build_deleted("shi", g)
    assert set(arr.hyperplanes) == {
        h([1, -1, 0], 0),
        h([1, 0, -1], 0),
        h([0, 1, -1], 0),
        h([1, 0, -1], 1),
    }
    with pytest.raises(ValueError):
        build_deleted("coxeter", g)


def test_cone_example():
    arr = cone(build_named("ish", 2))
    assert arr.coned and arr.is_central and arr.dim == 3
    assert arr.hyperplanes[0] == h([0, 0, 1], 0)  # z = 0 comes first
    assert set(arr.hyperplanes) == {h([0, 0, 1]), h([1, -1, 0]), h([1, -1, -1])}
    with pytest.raises(ValueError):
        cone(arr)


def test_arrangement_dedup_and_equality():
    a = Arrangement(2, [h([1, -1]), h([-1, 1]), h([1, -1], 1)])
    assert len(a) == 2
    b = Arrangement(2, [h([1, -1], 1), h([1, -1])])
    assert a == b  # set semantics
    assert a != Arrangement(2, [h([1, -1])])


def test_from_spec_shapes():
    ps = from_spec({"type": "ish", "ell": 3})
    assert ps.arrangement == build_named("ish", 3)
    assert ps.nest == ish_nest(3)
    assert ps.graph is None and not ps.coned

    ps = from_spec({"type": "n_ish", "N": [[0, 1], ["0", "2"]], "cone": True})
    assert ps.arrangement.coned and ps.ell == 3
    assert ps.nest == NestSpec.make([[0, 1], [0, 2]])

    ps = from_spec({"type": "deleted_ish", "ell": 3, "edges": [[2, 3]]})
    assert ps.nest == NestSpec.make([[0], [0, 2]])
    assert ps.graph == Graph.make(3, [(2, 3)])
    assert ps.arrangement == build_deleted("ish", ps.graph)

    ps = from_spec({"type": "deleted_shi", "ell": 3, "edges": []})
    assert ps.nest is None
    assert ps.arrangement == build_named("coxeter", 3)


def test_from_spec_builds_the_arrangement_on_first_read():
    ps = from_spec({"type": "ish", "ell": 4, "cone": True})
    assert "arrangement" not in vars(ps)
    arr = ps.arrangement
    assert arr is ps.arrangement and arr == cone(build_named("ish", 4))
    assert ps == from_spec({"type": "ish", "ell": 4, "cone": True})


def test_from_spec_errors():
    with pytest.raises(ValueError):
        from_spec({"type": "nope", "ell": 3})
    with pytest.raises(ValueError):
        from_spec({"type": "ish"})
    with pytest.raises(ValueError):
        from_spec({"type": "ish", "ell": 1})
    with pytest.raises(ValueError):
        from_spec({"type": "n_ish"})
    with pytest.raises(ValueError):
        from_spec([1, 2])


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_from_spec_cone_must_be_a_boolean(flag):
    with pytest.raises(ValueError, match="'cone' must be true or false"):
        from_spec({"type": "ish", "ell": 3, "cone": flag})


def test_from_spec_edges_must_be_a_list():
    with pytest.raises(ValueError, match="'edges' must be a list"):
        from_spec({"type": "deleted_ish", "ell": 3, "edges": None})
