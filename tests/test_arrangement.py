import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ishkit.arrangement import (
    SPEC_KINDS,
    Arrangement,
    Graph,
    Hyperplane,
    NestSpec,
    ParsedSpec,
    _diff_form,
    build_deleted,
    build_n_ish,
    build_named,
    cone,
    deletion,
    from_spec,
    ish_nest,
    n_from_graph,
)
from ishkit.chambers import enumerate_chambers
from ishkit.exactmath import (
    Scalar,
    _shown,
    clear_denominators,
    default_names,
    equation_str,
    format_rational,
    parse_rational_pair,
)


def parse_rational(value: Scalar | str) -> Fraction:
    """The ``Fraction`` of ``parse_rational_pair``, with the same errors."""
    return Fraction(*parse_rational_pair(value))


def make_hyperplane(coeffs: Sequence[Scalar | str], const: Scalar | str = 0) -> Hyperplane:
    """The hyperplane ``sum(coeffs[i] * x_{i+1}) = const`` of rational input, in
    the normalized integer form that ``Arrangement`` expects."""
    ints, _ = clear_denominators([*coeffs, const])
    k = ints.pop()
    if not any(ints):
        raise ValueError("a hyperplane needs a nonzero coefficient vector")
    g = gcd(*ints, k)
    ints = [v // g for v in ints]
    k //= g
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
        k = -k
    return Hyperplane(tuple(ints), k)


h = make_hyperplane


def hyperplane_str(plane: Hyperplane, names: Sequence[str]) -> str:
    return equation_str(plane.coeffs, plane.const, names)


class PlaneArrangement:
    """An arrangement given as its hyperplanes, which need not be differences,
    deduplicated in the order of first appearance: what the general Saito
    route (``is_log_derivation``, ``saito_constant``) and the chamber of a
    point read.  The tests' one maker of an arrangement that is not a
    difference arrangement, and the oracle of ``Arrangement.hyperplanes``."""

    def __init__(self, dim: int, hyperplanes: Sequence[Hyperplane], coned: bool = False) -> None:
        self.dim, self.coned = dim, coned
        self.hyperplanes = tuple(dict.fromkeys(hyperplanes))

    def __len__(self) -> int:
        return len(self.hyperplanes)

    @property
    def is_central(self) -> bool:
        return all(plane.const == 0 for plane in self.hyperplanes)

    def var_names(self) -> list[str]:
        return default_names(self.dim, coned=self.coned)


def read_back(planes: Sequence[Hyperplane], coned: bool = False) -> tuple[int, list]:
    """The gain edges of difference hyperplanes, as ``Arrangement.gain_edges``
    gives those of a builder's arrangement: ``2*x1 - 2*x2 = 1`` and
    ``3*x1 - 3*x3 = 2`` give ``den = 6`` and the gains 3 and 4.  Any other
    hyperplane is a ``ValueError``."""
    read: list[tuple[int, int, int, int] | None] = []
    for plane in planes:
        n = plane.dim - coned
        head = plane.coeffs[:n]
        support = [k for k, v in enumerate(head) if v]
        if coned and not support and not plane.const:
            read.append(None)
            continue
        if len(support) != 2 or head[support[0]] != -head[support[1]] or (coned and plane.const):
            form = "x_i - x_j = c*z" if coned else "x_i - x_j = c"
            names = default_names(plane.dim, coned=coned)
            raise ValueError(f"the hyperplane {hyperplane_str(plane, names)} is not of the form {form}")
        i, j = support
        read.append((i, j, -plane.coeffs[n] if coned else plane.const, head[i]))
    den = lcm(*(e[3] for e in read if e is not None))
    return den, [None if e is None else (e[0], e[1], e[2] * (den // e[3])) for e in read]


def with_edges(dim: int, planes: Sequence[Hyperplane], coned: bool = False) -> Arrangement:
    """The arrangement of the difference hyperplanes ``planes`` in R^dim, as
    gain edges (``read_back``) in the same order."""
    return Arrangement(dim, *read_back(planes, coned), coned)


def same_arrangement(a: Arrangement, b: Arrangement) -> bool:
    """Equal as sets of hyperplanes in the same space: the order, which only
    indexes sign vectors, aside."""
    return (a.dim, a.coned, frozenset(a.hyperplanes)) == (b.dim, b.coned, frozenset(b.hyperplanes))


def rational_set(nest: NestSpec, j: int) -> tuple[Fraction, ...]:
    """The set N_j as ``Fraction``s: its numerators over the nest's denominator."""
    return tuple(Fraction(a, nest.den) for a in nest.set_at(j))


def rational_sets(nest: NestSpec) -> tuple[tuple[Fraction, ...], ...]:
    """The sets N_2..N_ell as ``rational_set`` gives them."""
    return tuple(rational_set(nest, j) for j in range(2, nest.ell + 1))


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
    assert h(["1/2", "-1/2"], "1/4") == h([2, -2], 1)
    with pytest.raises(ValueError, match="cannot read a rational from 0.5"):
        h([0.5, -0.5], 0.25)


def test_hyperplane_form_and_eval():
    plane = h([1, -1], 1)
    assert (plane.coeffs, plane.const) == ((1, -1), 1)
    assert plane.eval_at([3, 1]) == 1
    assert plane.eval_at([2, 1]) == 0
    assert plane.eval_at([5, 2], 2) == 1  # at (5/2, 1), times 2
    assert hyperplane_str(plane, ["x1", "x2"]) == "x1 - x2 = 1"


def test_read_back_gives_the_gain_edges_of_the_constants():
    planes = [h([1, -1, 0], Fraction(1, 2)), h([0, 1, -1], -2)]
    assert planes[0] == Hyperplane((2, -2, 0), 1)
    den, edges = read_back(planes)
    assert (den, edges) == (2, [(0, 1, 1), (1, 2, -4)])  # 1/2 and -2, over 2
    assert cone(with_edges(3, planes)).gain_edges() == (2, [None] + edges)
    assert with_edges(3, planes).hyperplanes == tuple(planes)
    # mixed denominators: 2*x1 - 2*x2 = 1 and 3*x1 - 3*x3 = 2 read as 3/6 and 4/6
    mixed = [h([2, -2, 0], 1), h([3, 0, -3], 2), h([0, 1, -1])]
    assert read_back(mixed) == (6, [(0, 1, 3), (0, 2, 4), (1, 2, 0)])
    assert cone(with_edges(3, mixed)).gain_edges() == (6, [None, (0, 1, 3), (0, 2, 4), (1, 2, 0)])
    for den, edges in (read_back(mixed), cone(with_edges(3, mixed)).gain_edges()):
        assert all(type(e[2]) is int for e in edges if e is not None)
    # a coned arrangement without z = 0 still reads as edges
    assert read_back([h([1, -1, 0], 0)], coned=True) == (1, [(0, 1, 0)])
    assert read_back([]) == (1, [])
    with pytest.raises(ValueError, match="not of the form"):
        read_back([h([0, 0, 1], 1), h([1, -1, 0])], coned=True)  # z = 1


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


def test_build_named_is_build_deleted_of_the_complete_or_empty_graph():
    for ell in range(2, 7):
        pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]

        def diff(i, j, c=0):
            return h([int(k == i) - int(k == j) for k in range(1, ell + 1)], c)

        braid = [diff(i, j) for i, j in pairs]
        cases = (
            ("coxeter", "shi", [], braid),
            ("shi", "shi", pairs, braid + [diff(i, j, 1) for i, j in pairs]),
            ("ish", "ish", pairs, braid + [diff(1, j, i) for i, j in pairs]),
        )
        for kind, deleted_kind, edges, planes in cases:
            named = build_named(kind, ell).hyperplanes
            assert named == build_deleted(deleted_kind, Graph.make(ell, edges)).hyperplanes
            assert named == tuple(planes)


def test_shi_and_ish_same_size():
    for ell in (2, 3, 4, 5):
        assert len(build_named("shi", ell)) == len(build_named("ish", ell)) == ell * (ell - 1)


def test_nest_spec_basics():
    nest = NestSpec.make([[1, 0, 1], ["1/2", 0]])
    assert nest.ell == 3
    assert nest.den == 2 and nest.set_at(2) == (0, 2) and nest.set_at(3) == (0, 1)
    assert rational_set(nest, 3) == (0, Fraction(1, 2))
    assert not nest.is_ascending() and not nest.is_descending()
    asc = NestSpec.make([[0], [0, 1]])
    assert asc.is_ascending() and not asc.is_descending()
    assert asc.reordered([3, 2]).nums == (asc.set_at(3), asc.set_at(2))
    with pytest.raises(ValueError):
        NestSpec.make([])
    with pytest.raises(ValueError):
        asc.reordered([2, 2])


def test_build_n_ish_matches_named_ish():
    nest = NestSpec.make([[0, 1], [0, 1, 2]])
    assert same_arrangement(build_n_ish(nest), build_named("ish", 3))
    assert ish_nest(3) == nest
    for ell in (2, 3, 4, 5):
        assert same_arrangement(build_n_ish(ish_nest(ell)), build_named("ish", ell))


def test_build_n_ish_counts():
    # |A| = sum |N_j| + C(ell-1, 2), duplicates merged silently
    nest = NestSpec.make([[0, 1], [1]])
    arr = build_n_ish(nest)
    assert len(arr) == 3 + 1
    assert arr.dim == 3


def test_graph_validation():
    g = Graph.make(3, [(1, 2), (2, 3)])
    assert g.edges == ((1, 2), (2, 3))
    assert len(Graph.complete(4).edges) == 6
    with pytest.raises(ValueError, match="at least 2 vertices"):
        Graph.complete(1)
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
    assert same_arrangement(build_n_ish(n_from_graph(empty)), build_deleted("ish", empty))
    assert same_arrangement(build_deleted("ish", empty), build_named("coxeter", 3))

    g23 = Graph.make(3, [(2, 3)])
    assert n_from_graph(g23) == NestSpec.make([[0], [0, 2]])


def test_deleted_matches_nest_exhaustive():
    for ell in (2, 3, 4):
        all_edges = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        for bits in itertools.product([0, 1], repeat=len(all_edges)):
            g = Graph.make(ell, [e for e, b in zip(all_edges, bits) if b])
            assert same_arrangement(build_n_ish(n_from_graph(g)), build_deleted("ish", g))


def test_n_from_graph_matches_the_parsed_sets():
    all_edges = list(itertools.combinations(range(1, 5), 2))
    for bits in itertools.product([0, 1], repeat=len(all_edges)):
        g = Graph.make(4, [e for e, b in zip(all_edges, bits) if b])
        parsed = NestSpec.make([[0] + [i for i, j in g.edges if j == k] for k in range(2, 5)])
        nest = n_from_graph(g)
        assert nest == parsed
        assert nest.den == 1 and all(type(a) is int for s in nest.nums for a in s)


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


def test_deletion_keeps_the_other_edges_in_order():
    arr = cone(build_n_ish(NestSpec.make([["1/2"], [0, "3/2"]])))
    gone = deletion(arr, (1, 2, 0))  # x2 = x3
    assert (gone.dim, gone.coned) == (arr.dim, arr.coned)
    assert gone.gain_edges() == (2, [None, (0, 1, 1), (0, 2, 0), (0, 2, 3)])
    assert gone.hyperplanes == tuple(plane for plane in arr.hyperplanes if plane != h([0, 1, -1, 0]))
    with pytest.raises(ValueError):
        deletion(gone, (1, 2, 0))


def test_arrangement_dedup_and_equality():
    a = Arrangement(2, 1, [(0, 1, 0), (0, 1, 0), (0, 1, 1)])
    assert len(a) == 2 and a.gain_edges() == (1, [(0, 1, 0), (0, 1, 1)])
    b = Arrangement(2, 1, [(0, 1, 1), (0, 1, 0)])
    assert same_arrangement(a, b)  # set semantics
    assert not same_arrangement(a, Arrangement(2, 1, [(0, 1, 0)]))
    assert not same_arrangement(a, PlaneArrangement(2, a.hyperplanes, coned=True))


def test_from_spec_shapes():
    ps = from_spec({"type": "ish", "ell": 3})
    assert same_arrangement(ps.arrangement, build_named("ish", 3))
    assert ps.nest == ish_nest(3)
    assert ps.graph is None and not ps.coned

    ps = from_spec({"type": "n_ish", "N": [[0, 1], ["0", "2"]], "cone": True})
    assert ps.arrangement.coned and ps.ell == 3
    assert ps.nest == NestSpec.make([[0, 1], [0, 2]])

    ps = from_spec({"type": "deleted_ish", "ell": 3, "edges": [[2, 3]]})
    assert ps.nest == NestSpec.make([[0], [0, 2]])
    assert ps.graph == Graph.make(3, [(2, 3)])
    assert same_arrangement(ps.arrangement, build_deleted("ish", ps.graph))

    ps = from_spec({"type": "deleted_shi", "ell": 3, "edges": []})
    assert ps.nest is None
    assert same_arrangement(ps.arrangement, build_named("coxeter", 3))


@pytest.mark.parametrize("coned", [False, True])
def test_the_hyperplane_order_of_every_spec_kind(coned):
    # each hyperplane x_i - x_j = c as (i, j, c), in the order README states
    braid = [(1, 2, 0), (1, 3, 0), (2, 3, 0)]
    cases = (
        ({"type": "coxeter", "ell": 3}, braid),
        ({"type": "shi", "ell": 3}, braid + [(1, 2, 1), (1, 3, 1), (2, 3, 1)]),
        ({"type": "ish", "ell": 3}, braid + [(1, 2, 1), (1, 3, 1), (1, 3, 2)]),
        ({"type": "deleted_shi", "ell": 3, "edges": [[2, 3], [1, 2]]}, braid + [(1, 2, 1), (2, 3, 1)]),
        ({"type": "deleted_ish", "ell": 3, "edges": [[2, 3], [1, 3]]}, braid + [(1, 3, 1), (1, 3, 2)]),
        ({"type": "n_ish", "N": [["1/2", 0], [2, -1]]},
         [(1, 2, 0), (1, 2, Fraction(1, 2)), (1, 3, -1), (1, 3, 2), (2, 3, 0)]),
    )
    for spec, planes in cases:
        forms = [([int(k == i) - int(k == j) for k in (1, 2, 3)], c) for i, j, c in planes]
        if coned:
            expected = [h([0, 0, 0, 1])] + [h(coeffs + [-c]) for coeffs, c in forms]
        else:
            expected = [h(coeffs, c) for coeffs, c in forms]
        assert from_spec({**spec, "cone": coned}).arrangement.hyperplanes == tuple(expected)
    # a duplicate keeps its first place
    assert Arrangement(2, 1, [(0, 1, 1), (0, 1, 0), (0, 1, 1)]).hyperplanes == (h([1, -1], 1), h([1, -1]))


def test_from_spec_builds_nothing_and_each_read_builds_the_arrangement(monkeypatch):
    calls = []

    def counted(kind, ell):
        calls.append((kind, ell))
        return build_named(kind, ell)

    monkeypatch.setattr("ishkit.arrangement.build_named", counted)
    ps = from_spec({"type": "ish", "ell": 4, "cone": True})
    assert calls == [] and not hasattr(ps, "__dict__")
    first, second = ps.arrangement, ps.arrangement
    assert same_arrangement(first, cone(build_named("ish", 4))) and same_arrangement(second, first)
    assert calls == [("ish", 4)] * 2
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


def nest_to_json(nest: NestSpec) -> list[list[str]]:
    """The sets as lists of ``"num/den"`` strings: ``NestSpec.to_json`` as it
    stood, the oracle of the writer ``cli._json_sets``."""
    den = nest.den
    return [[format_rational(a, den) for a in s] for s in nest.nums]


def spec_to_json(parsed: ParsedSpec) -> dict:
    """The canonical spec document, ``from_spec(spec_to_json(parsed)) == parsed``:
    ``ParsedSpec.to_json`` as it stood, the oracle of the ``cli`` spec echo."""
    out: dict = {"type": parsed.kind}
    if parsed.kind == "n_ish":
        nest = parsed.nest  # a FractionNestSpec under test_cli's fraction program, which writes itself
        out["N"] = nest.to_json() if isinstance(nest, FractionNestSpec) else nest_to_json(nest)
    else:
        out["ell"] = parsed.ell
    if parsed.graph is not None:
        out["edges"] = [list(e) for e in sorted(parsed.graph.edges)]
    if parsed.coned:
        out["cone"] = True
    return out


# -- the readers of spec entries as they stood: the oracles of the fast paths --


def old_nest_make(sets) -> NestSpec:
    """``NestSpec.make`` reading every entry through ``parse_rational_pair``."""
    if not isinstance(sets, (list, tuple)) or not all(isinstance(s, (list, tuple)) for s in sets):
        raise ValueError("'N' must be a list of lists of rationals")
    pairs = [[parse_rational_pair(a) for a in s] for s in sets]
    den = lcm(*(q for s in pairs for _, q in s))
    nums = tuple(tuple(sorted({p * (den // q) for p, q in s})) for s in pairs)
    ell = len(nums) + 1
    if ell < 2:
        raise ValueError("a nest spec needs at least the set N_2")
    return NestSpec(ell, den, nums)


def old_graph_make(ell, edges) -> Graph:
    """``Graph.make`` checking every edge by ``isinstance``."""
    if ell < 2:
        raise ValueError("graphs need at least 2 vertices")
    cleaned = set()
    for e in edges:
        if not (
            isinstance(e, (list, tuple))
            and len(e) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise ValueError(f"edge {_shown(e)} is not a pair of integers")
        i, j = e
        if not 1 <= i < j <= ell:
            raise ValueError(f"edge {_shown((i, j))} is not a pair 1 <= i < j <= {_shown(ell)}")
        cleaned.add((i, j))
    return Graph(ell, tuple(sorted(cleaned)))


def outcome(read, *args):
    """What a reader gives: its value, or the text of its ``ValueError``."""
    try:
        return read(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class Odd(int):
    """An ``int`` of another type: the fast paths send it down the full checks."""


HUGE = 10**400 + 7
ODD_ENTRIES = st.sampled_from([
    True, False, 1.5, 2.0, Fraction(3, 4), Fraction(6, 3), HUGE, -HUGE, Odd(5), None, "1/0", "2/4",
    "-3", "+6/4", "1e3", " 1", "", "9" * 50 + "/2", [1], (1, 2),
])
NEST_SETS = st.lists(
    st.lists(
        st.integers(-3, 3) | st.integers(-HUGE, HUGE) | ODD_ENTRIES
        | st.builds(lambda p, q: f"{p}/{q}", st.integers(-13, 13), st.sampled_from([1, 2, 3, 6])),
        max_size=4,
    ) | st.tuples(st.integers(-3, 3), st.just("1/2")),  # a tuple in place of a list
    max_size=4,
) | st.sampled_from([5, None, "N", [[1], 2], ((1, 2),), (), []])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(NEST_SETS)
@example([[0, 1], [0]])
@example([[HUGE, "1/3"], [True]])
@example(((0, "1/2"), [Fraction(1, 2)]))
def test_nest_spec_make_matches_the_old_reader(sets):
    assert outcome(NestSpec.make, sets) == outcome(old_nest_make, sets)


EDGE_ITEMS = (
    st.lists(st.integers(-1, 6), min_size=2, max_size=2)  # out of range among them
    | st.tuples(st.integers(0, 6), st.integers(0, 6))
    | st.lists(st.integers(1, 5), max_size=3)
    | st.sampled_from([[True, 2], [1, False], [1.0, 2], [1, Fraction(2)], [Odd(1), 2], [1, HUGE],
                       ["1", "2"], None, 3, "12", [[1], 2], {1: 2}])
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-1, 6), st.lists(EDGE_ITEMS, max_size=6))
@example(4, [[1, 2], [1, 2], [2, 4]])  # a duplicate edge
@example(3, [[2, 1]])
@example(3, [(1, 2), [1, 3]])
def test_graph_make_matches_the_old_reader(ell, edges):
    assert outcome(Graph.make, ell, edges) == outcome(old_graph_make, ell, edges)


# -- the Fraction-entry nest: the differential oracle of the integer form --


@dataclass(frozen=True)
class FractionNestSpec:
    """Rational sets ``N_2, ..., N_ell`` driving the nested-Ish family.

    ``NestSpec`` as it stood before the integer form, with one ``Fraction``
    per entry; the builders below read it the way the package did then.
    """

    ell: int
    sets: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def make(sets: Sequence[Sequence[Scalar | str]]) -> "FractionNestSpec":
        """Read the sets from a list of lists of rationals (see ``parse_rational``)."""
        if not isinstance(sets, (list, tuple)) or not all(isinstance(s, (list, tuple)) for s in sets):
            raise ValueError("'N' must be a list of lists of rationals")
        cleaned = tuple(tuple(sorted({parse_rational(a) for a in s})) for s in sets)
        ell = len(cleaned) + 1
        if ell < 2:
            raise ValueError("a nest spec needs at least the set N_2")
        return FractionNestSpec(ell, cleaned)

    def set_at(self, j: int) -> tuple[Fraction, ...]:
        """The set N_j for an index 2 <= j <= ell."""
        if not 2 <= j <= self.ell:
            raise ValueError(f"index {j} out of range 2..{self.ell}")
        return self.sets[j - 2]

    def reordered(self, order: Sequence[int]) -> "FractionNestSpec":
        """Relabel: position k takes the original set N_{order[k]}."""
        if sorted(order) != list(range(2, self.ell + 1)):
            raise ValueError("order must be a permutation of 2..ell")
        return FractionNestSpec(self.ell, tuple(self.set_at(j) for j in order))

    def is_descending(self) -> bool:
        return all(
            set(self.sets[i + 1]) <= set(self.sets[i]) for i in range(len(self.sets) - 1)
        )

    def is_ascending(self) -> bool:
        return all(
            set(self.sets[i]) <= set(self.sets[i + 1]) for i in range(len(self.sets) - 1)
        )

    def to_json(self) -> list[list[str]]:
        return [[f"{a.numerator}/{a.denominator}" for a in s] for s in self.sets]

    def __str__(self) -> str:
        body = ", ".join("{" + ", ".join(str(a) for a in s) + "}" for s in self.sets)
        return f"({body})"


def fraction_diff(ell: int, i: int, j: int, const: Scalar = 0) -> Hyperplane:
    coeffs = [0] * ell
    coeffs[i - 1] = 1
    coeffs[j - 1] = -1
    return make_hyperplane(coeffs, const)


def fraction_build_n_ish(nest: FractionNestSpec) -> Arrangement:
    """``build_n_ish`` normalizing every hyperplane through ``make_hyperplane``,
    read back into gain edges (``with_edges``) for the commands."""
    ell = nest.ell
    planes = []
    for j in range(2, ell + 1):
        for a in nest.set_at(j):
            planes.append(fraction_diff(ell, 1, j, a))
    for i in range(2, ell + 1):
        for j in range(i + 1, ell + 1):
            planes.append(fraction_diff(ell, i, j))
    return with_edges(ell, planes)


def fraction_cone(arr: Arrangement) -> Arrangement:
    """``cone`` normalizing every hyperplane again through ``make_hyperplane``,
    read back into gain edges (``with_edges``) for the commands."""
    if arr.coned:
        raise ValueError("arrangement is already coned")
    n = arr.dim + 1
    planes = [make_hyperplane([0] * arr.dim + [1], 0)]
    for hp in arr.hyperplanes:
        planes.append(make_hyperplane(list(hp.coeffs) + [-hp.const], 0))
    return with_edges(n, planes, coned=True)


def fraction_ish_nest(ell: int) -> FractionNestSpec:
    if ell < 2:
        raise ValueError("need ell >= 2")
    return FractionNestSpec.make([list(range(j)) for j in range(2, ell + 1)])


def fraction_n_from_graph(graph: Graph) -> FractionNestSpec:
    sets: list[list[int]] = [[0] for _ in range(graph.ell - 1)]
    for i, j in graph.edges:
        sets[j - 2].append(i)
    return FractionNestSpec(graph.ell, tuple(tuple(map(Fraction, sorted(s))) for s in sets))


# entries over the denominators 1, 2, 3, 4 and 6, as ints and as strings
ENTRIES = st.integers(-3, 3) | st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-13, 13), st.sampled_from([1, 2, 3, 4, 6])
)
MIXED_SETS = st.lists(st.lists(ENTRIES, max_size=4), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(MIXED_SETS, st.permutations(range(2, 6)))
@example([["-5/6", "7/4", "1/3"], ["1/3"], []], [4, 3, 2, 5])
@example([["2/4", "-3/6", "0/5", "+6/4"]], [2, 3, 4, 5])
def test_nest_spec_matches_the_fraction_oracle(sets, shuffled):
    nest, oracle = NestSpec.make(sets), FractionNestSpec.make(sets)
    assert nest.ell == oracle.ell
    assert nest.den == lcm(*(a.denominator for s in oracle.sets for a in s))
    assert rational_sets(nest) == oracle.sets
    assert all(type(a) is int for s in nest.nums for a in s)
    assert nest_to_json(nest) == oracle.to_json() and str(nest) == str(oracle)
    assert (nest.is_ascending(), nest.is_descending()) == (oracle.is_ascending(), oracle.is_descending())
    drawn = [j for j in shuffled if j <= nest.ell]  # a permutation of 2..ell
    assert nest.chained(drawn) == oracle.reordered(drawn).is_ascending()
    order = list(range(nest.ell, 1, -1))
    assert rational_sets(nest.reordered(order)) == oracle.reordered(order).sets
    assert NestSpec.make(oracle.sets) == nest  # one form, whatever the input spelling
    arr, old = build_n_ish(nest), fraction_build_n_ish(oracle)
    assert arr.hyperplanes == old.hyperplanes
    assert cone(arr).hyperplanes == fraction_cone(old).hyperplanes


def test_nest_denominator_is_the_lcm_of_the_reduced_ones():
    assert NestSpec.make([["1/2", "-5/6"], ["7/4", "1/3"]]).den == 12
    assert NestSpec.make([["2/4", "3/3"], [4]]) == NestSpec(3, 2, ((1, 2), (8,)))
    assert NestSpec.make([[], []]).den == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(MIXED_SETS, st.booleans())
def test_gain_edges_of_a_nest_are_its_numerators(sets, coned):
    # a nest's arrangement reads back over the nest's denominator, graph and
    # named specs over 1
    nest = NestSpec.make(sets)
    arr = build_n_ish(nest)
    den, edges = (cone(arr) if coned else arr).gain_edges()
    assert den == nest.den
    assert {e[1:] for e in edges if e is not None and e[0] == 0} == {
        (j - 1, a) for j in range(2, nest.ell + 1) for a in nest.set_at(j)
    }
    for other in (build_named("shi", 3), build_deleted("ish", Graph.make(3, [(1, 3)]))):
        assert other.gain_edges()[0] == cone(other).gain_edges()[0] == 1


@pytest.mark.parametrize("sets", [[[True]], [[1.5]], [["1/0"]], 5, [["1e3"]], [[" 1"]], [[None]], []])
def test_nest_spec_rejects_what_the_fraction_oracle_rejects(sets):
    with pytest.raises(ValueError) as new:
        NestSpec.make(sets)
    with pytest.raises(ValueError) as old:
        FractionNestSpec.make(sets)
    assert str(new.value) == str(old.value)


def test_difference_hyperplanes_are_built_normalized():
    nests = [NestSpec.make([["-5/6", "7/4"], ["1/3", 2, "-4/6"]]), ish_nest(4)]
    arrs = [build_n_ish(nest) for nest in nests]
    arrs += [build_named(kind, 4) for kind in ("coxeter", "shi", "ish")]
    arrs += [build_deleted(kind, Graph.make(4, [(1, 3), (2, 4)])) for kind in ("shi", "ish")]
    for arr in arrs + [cone(arr) for arr in arrs]:
        for hp in arr.hyperplanes:
            assert hp == make_hyperplane(hp.coeffs, hp.const)
            assert all(type(v) is int for v in hp.coeffs + (hp.const,))


# -- the hyperplane builders: the oracle of the gain-edge builders --------


def oracle_diff(ell: int, i: int, j: int, num: int = 0, den: int = 1) -> Hyperplane:
    """``x_i - x_j = num/den`` for ``i < j`` and ``den > 0``, built normalized."""
    form = _diff_form(ell, i, j, num, den)
    return Hyperplane(form[:ell], -form[ell])


def oracle_build_n_ish(nest: NestSpec) -> PlaneArrangement:
    """``build_n_ish`` as it built hyperplanes, before the builders made gain edges."""
    ell, den = nest.ell, nest.den
    planes = []
    for j, entries in enumerate(nest.nums, start=2):
        for a in entries:
            planes.append(oracle_diff(ell, 1, j, a, den))
    for i in range(2, ell + 1):
        for j in range(i + 1, ell + 1):
            planes.append(oracle_diff(ell, i, j))
    return PlaneArrangement(ell, planes)


def oracle_build_deleted(kind: str, graph: Graph) -> PlaneArrangement:
    """``build_deleted`` as it built hyperplanes."""
    if kind not in ("shi", "ish"):
        raise ValueError(f"deleted arrangements exist for 'shi' and 'ish', not {kind!r}")
    ell = graph.ell
    planes = [oracle_diff(ell, i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    for i, j in sorted(graph.edges):
        if kind == "shi":
            planes.append(oracle_diff(ell, i, j, 1))
        else:
            planes.append(oracle_diff(ell, 1, j, i))
    return PlaneArrangement(ell, planes)


def oracle_cone(arr: Arrangement | PlaneArrangement) -> PlaneArrangement:
    """``cone`` as it mapped every hyperplane."""
    if arr.coned:
        raise ValueError("arrangement is already coned")
    planes = [Hyperplane((0,) * arr.dim + (1,), 0)]
    planes += [Hyperplane(h.coeffs + (-h.const,), 0) for h in arr.hyperplanes]
    return PlaneArrangement(arr.dim + 1, planes, coned=True)


def oracle_arrangement(parsed: ParsedSpec) -> PlaneArrangement:
    """``ParsedSpec.arrangement`` through the hyperplane builders."""
    if parsed.kind == "n_ish":
        arr = oracle_build_n_ish(parsed.nest)
    elif parsed.graph is not None:
        arr = oracle_build_deleted(parsed.kind.split("_")[1], parsed.graph)
    elif parsed.kind == "coxeter":
        arr = oracle_build_deleted("shi", Graph.make(parsed.ell, []))
    else:
        arr = oracle_build_deleted(parsed.kind, Graph.complete(parsed.ell))
    return oracle_cone(arr) if parsed.coned else arr


@st.composite
def parsed_specs(draw) -> ParsedSpec:
    """A spec of any kind with ell <= 6, or a hand-built nest: its ``den``
    need not be minimal, and its numerators may repeat, come unsorted or be none."""
    coned, ell = draw(st.booleans()), draw(st.integers(2, 6))
    kind = draw(st.sampled_from(SPEC_KINDS + ("hand-built",)))
    if kind == "hand-built":
        sets = st.lists(st.lists(st.integers(-12, 12), max_size=4).map(tuple), min_size=ell - 1, max_size=ell - 1)
        nest = NestSpec(ell, draw(st.integers(1, 12)), tuple(draw(sets)))
        return ParsedSpec("n_ish", ell, nest, None, coned)
    if kind == "n_ish":
        sets = st.lists(st.lists(ENTRIES, max_size=4), min_size=1, max_size=5)
        return from_spec({"type": kind, "N": draw(sets), "cone": coned})
    spec = {"type": kind, "ell": ell, "cone": coned}
    if kind.startswith("deleted"):
        spec["edges"] = draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, ell + 1), 2)))))
    return from_spec(spec)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parsed_specs())
@example(ParsedSpec("n_ish", 3, NestSpec(3, 4, ((6, 2, 2), ())), None, False))
@example(ParsedSpec("n_ish", 3, NestSpec(3, 4, ((6, 2, 2), ())), None, True))
@example(ParsedSpec("n_ish", 4, NestSpec(4, 6, ((9, -3, 0), (3, 9), (12,))), None, True))
@example(ParsedSpec("n_ish", 3, NestSpec(3, 5, ((), ())), None, False))
@example(ParsedSpec("n_ish", 2, NestSpec(2, 3, ((),)), None, True))
def test_the_edge_builders_make_the_hyperplanes_of_the_hyperplane_builders(parsed):
    old = oracle_arrangement(parsed)
    arr = parsed.arrangement
    assert len(arr) == len(old)  # read off the edges: no hyperplane is derived yet
    den, edges = arr.gain_edges()
    assert arr.hyperplanes == old.hyperplanes
    assert (arr.is_central, arr.dim, arr.coned) == (old.is_central, old.dim, old.coned)
    # the edges as built are the read-back of the hyperplanes, den included
    assert (den, edges) == read_back(arr.hyperplanes, arr.coned) == read_back(old.hyperplanes, old.coned)


def underived(arr: Arrangement):
    raise AssertionError("a hyperplane was derived")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parsed_specs())
@example(from_spec({"type": "n_ish", "N": [[0], [], [0]]}))  # every gain 0
@example(from_spec({"type": "n_ish", "N": [[0, "1/2"], ["-3/2"]]}))  # half-integer gains
@example(from_spec({"type": "n_ish", "N": [["1/2"], ["1/2"]], "cone": True}))
@example(from_spec({"type": "deleted_ish", "ell": 4}))  # no edges: N_j = {0}
@example(from_spec({"type": "deleted_ish", "ell": 4, "cone": True}))
@example(ParsedSpec("n_ish", 3, NestSpec(3, 5, ((), ())), None, False))  # no hyperplane
def test_centrality_read_off_the_edges_is_that_of_the_hyperplanes(parsed):
    arr = parsed.arrangement
    with mock.patch.object(Arrangement, "hyperplanes", property(underived)):
        central = arr.is_central  # read off the edges
    assert central == PlaneArrangement(arr.dim, arr.hyperplanes, arr.coned).is_central


def test_gain_edges_is_a_fresh_list():
    shi = build_named("shi", 3)
    for make in (
        lambda: build_named("shi", 3),
        lambda: cone(build_named("shi", 3)),
        lambda: with_edges(3, shi.hyperplanes),  # read back
        lambda: with_edges(4, oracle_cone(shi).hyperplanes, coned=True),
    ):
        want = (make().gain_edges(), enumerate_chambers(make()))
        arr = make()
        edges = arr.gain_edges()[1]
        edges.reverse()
        edges[1:] = [(0, 1, 7)]
        assert (arr.gain_edges(), enumerate_chambers(arr)) == want
