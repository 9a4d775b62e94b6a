from itertools import combinations
from math import comb, factorial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ishkit.arrangement import SPEC_KINDS, Graph, NestSpec, from_spec, ish_nest, n_from_graph
from ishkit.chambers import enumerate_chambers
from ishkit.exactmath import UniPoly
from ishkit.lattice import char_poly
from ishkit.rooks import (
    _chi,
    add_column,
    board_columns,
    every_column_counts,
    graph_char_poly,
    nest_char_poly,
    rook_numbers,
    spec_char_poly,
)
from test_arrangement import MIXED_SETS, FractionNestSpec


def brute_rook_numbers(rows: int, columns: list[int]) -> list[int]:
    """Count the non-attacking subsets of the board's cells directly."""
    cells = [(r, c) for c, col in enumerate(columns) for r in range(rows) if col >> r & 1]
    out = [0] * (rows + 1)
    for k in range(rows + 1):
        for chosen in combinations(cells, k):
            if len({r for r, _ in chosen}) == k and len({c for _, c in chosen}) == k:
                out[k] += 1
    return out


def test_rook_numbers_of_a_full_square():
    for n in range(5):
        assert rook_numbers(n, [(1 << n) - 1] * n) == [
            comb(n, k) ** 2 * factorial(k) for k in range(n + 1)
        ]


def test_rook_numbers_of_an_empty_board():
    assert rook_numbers(3, []) == [1, 0, 0, 0]
    assert rook_numbers(0, [0, 0]) == [1]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 4).flatmap(
    lambda rows: st.tuples(st.just(rows), st.lists(st.integers(0, (1 << rows) - 1), max_size=5))
))
def test_rook_numbers_match_brute_force(board):
    rows, columns = board
    assert rook_numbers(rows, columns) == brute_rook_numbers(rows, columns)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 5).flatmap(
    lambda rows: st.tuples(st.just(rows), st.lists(st.integers(0, (1 << rows) - 1), max_size=6))
))
def test_every_column_counts_reads_each_next_column(board):
    rows, columns = board
    ways = [1] + [0] * ((1 << rows) - 1)
    for col in columns:
        ways = add_column(ways, col)
    assert every_column_counts(ways) == [tuple(rook_numbers(rows, [*columns, c])) for c in range(1 << rows)]


def test_closed_forms():
    for ell in range(2, 7):
        shi_ish = UniPoly.from_roots([0] + [ell] * (ell - 1))
        assert graph_char_poly(Graph.complete(ell)) == shi_ish
        assert nest_char_poly(ish_nest(ell)) == shi_ish
        assert graph_char_poly(Graph.make(ell, [])) == UniPoly.from_roots(range(ell))
        # no sets: the braid arrangement on x2..x_ell, with x1 free
        empty = NestSpec.make([[]] * (ell - 1))
        assert nest_char_poly(empty) == UniPoly.from_roots([0, *range(ell - 1)])
        assert nest_char_poly(empty, coned=True) == UniPoly.from_roots([0, 1, *range(ell - 1)])


def all_columns_char_poly(graph: Graph, coned: bool) -> UniPoly:
    """The deleted-Shi chi from the board's ell + 1 columns, the empty ones included."""
    columns = [0] * (graph.ell + 1)
    for i, j in graph.edges:
        columns[j] |= 1 << (i - 1)
    return _chi(rook_numbers(graph.ell - 1, columns), graph.ell, 1, coned)


def test_empty_columns_change_no_deleted_shi_chi():
    for ell in range(2, 6):
        pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        for r in range(len(pairs) + 1):
            for edges in combinations(pairs, r):
                graph = Graph.make(ell, edges)
                for coned in (False, True):
                    assert graph_char_poly(graph, coned) == all_columns_char_poly(graph, coned)


def test_board_columns_count_the_non_empty_columns():
    for ell in (2, 5, 16):
        assert board_columns(from_spec({"type": "shi", "ell": ell})) == ell - 1
        assert board_columns(from_spec({"type": "coxeter", "ell": ell, "cone": True})) == 0
    edges = [[1, 3], [2, 3], [1, 5]]  # columns 3 and 5
    assert board_columns(from_spec({"type": "deleted_shi", "ell": 5, "edges": edges})) == 2
    assert board_columns(from_spec({"type": "n_ish", "N": [[0, "1/2"], ["1/2", 2], []]})) == 3


def test_every_named_kind_matches_the_moebius_sum():
    for kind in ("coxeter", "shi", "ish"):
        for ell in range(2, 6):
            for coned in (False, True):
                parsed = from_spec({"type": kind, "ell": ell, "cone": coned})
                assert spec_char_poly(parsed) == char_poly(parsed.arrangement)


# -- differential test against the Moebius route ---------------------------

ENTRIES = st.integers(-6, 6).map(lambda n: f"{n}/2")  # integers, halves, negatives


@st.composite
def board_specs(draw, kinds=SPEC_KINDS, max_ell=5):
    """A spec document of any of ``kinds`` with ell <= max_ell, affine or coned."""
    ell = draw(st.integers(2, max_ell))
    kind = draw(st.sampled_from(kinds))
    doc = {"type": kind, "cone": draw(st.booleans())}
    if kind == "n_ish":
        one_set = st.lists(ENTRIES, max_size=3 if ell < 5 else 2)
        doc["N"] = draw(st.lists(one_set, min_size=ell - 1, max_size=ell - 1))
    else:
        doc["ell"] = ell
    if kind.startswith("deleted"):
        pairs = [[i, j] for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        doc["edges"] = draw(st.lists(st.sampled_from(pairs), unique_by=tuple))
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(board_specs())
@example({"type": "n_ish", "N": [[], [], [], []], "cone": False})
@example({"type": "n_ish", "N": [["1/2", "-3/2", 2], ["-3/2"], [0, 1], []], "cone": True})
@example({"type": "deleted_shi", "ell": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]], "cone": True})
def test_rook_route_matches_the_moebius_sum(doc):
    parsed = from_spec(doc)
    assert spec_char_poly(parsed) == char_poly(parsed.arrangement)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(board_specs(kinds=["deleted_shi"]))
def test_both_boards_of_a_graph_match_the_moebius_sum(doc):
    shi = from_spec(doc)
    ish = from_spec(dict(doc, type="deleted_ish"))
    assert graph_char_poly(shi.graph, shi.coned) == char_poly(shi.arrangement)
    assert nest_char_poly(n_from_graph(shi.graph), shi.coned) == char_poly(ish.arrangement)


# -- Zaslavsky: |chi(-1)| counts the chambers -------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(board_specs(kinds=["n_ish", "deleted_shi", "deleted_ish"], max_ell=4))
@example({"type": "n_ish", "N": [[0, "1/2"], []], "cone": True})
def test_rook_chi_counts_the_chambers(doc):
    parsed = from_spec(doc)
    assert abs(spec_char_poly(parsed).evaluate(-1)) == len(enumerate_chambers(parsed.arrangement))


# -- the nest board on Fraction entries: the oracle of the integer form ------


def fraction_nest_char_poly(nest: FractionNestSpec, coned: bool = False) -> UniPoly:
    """``nest_char_poly`` keying each column by the entry's reduced fraction."""
    columns: dict[tuple[int, int], int] = {}
    for row, entries in enumerate(nest.sets):
        for a in entries:
            key = a.numerator, a.denominator
            columns[key] = columns.get(key, 0) | 1 << row
    return _chi(rook_numbers(nest.ell - 1, columns.values()), nest.ell, 0, coned)


def fraction_board_columns(parsed) -> int:
    if parsed.nest is not None:
        return len({a for entries in parsed.nest.sets for a in entries})
    if parsed.graph is not None:
        return len({j for _, j in parsed.graph.edges})
    return parsed.ell - 1 if parsed.kind == "shi" else 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(MIXED_SETS, st.booleans())
@example([["-5/6", "7/4"], ["1/3", "-5/6"], ["7/4", "2/6"]], True)
def test_nest_board_matches_the_fraction_oracle(sets, coned):
    nest, oracle = NestSpec.make(sets), FractionNestSpec.make(sets)
    assert nest_char_poly(nest, coned) == fraction_nest_char_poly(oracle, coned)
    parsed = from_spec({"type": "n_ish", "N": sets, "cone": coned})
    assert board_columns(parsed) == len({a for s in oracle.sets for a in s})
