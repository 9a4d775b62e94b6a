import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ishkit.arrangement import (
    Arrangement,
    Graph,
    NestSpec,
    build_deleted,
    build_n_ish,
    build_named,
    cone,
)
from ishkit.chambers import (
    Chamber,
    _chamber_at,
    _regions,
    _tighten,
    _witness,
    canonical_chamber,
    chamber_rows,
    distance_poly,
    enumerate_chambers,
    ish_base_chamber,
    wallcross_expected,
)
from ishkit.exactmath import Scalar, UniPoly, clear_denominators, format_rational
from ishkit.lattice import char_poly
from test_arrangement import hyperplane_str, make_hyperplane, rational_set, read_back, with_edges


def chamber_signs(c: Chamber) -> str:
    """The sign vector of a ``Chamber`` as a string of ``+`` and ``-``, hyperplane 0 first."""
    return "".join("+" if c.bits >> (c.size - 1 - i) & 1 else "-" for i in range(c.size))


def witness(c: Chamber) -> tuple[Fraction, ...]:
    """The witness of a ``Chamber`` as ``Fraction``s: its point over its scale."""
    return tuple(Fraction(x, c.den) for x in c.point)


def witness_text(c: Chamber) -> str:
    """The witness coordinates as ``str`` writes each ``Fraction``, comma-separated."""
    return ", ".join(str(Fraction(x, c.den)) for x in c.point)


def chamber_of_point(arr: Arrangement, point: Sequence[Scalar | str]) -> Chamber:
    """The chamber containing the point, its coordinates read by ``clear_denominators``."""
    return _chamber_at(arr, *clear_denominators(point))


# -- the breadth-first region list: the oracle of the depth-first walk ----


def breadth_first_regions(arr: Arrangement):
    """The regions as one list, each hyperplane inserted into all of them,
    and the scale of their bounds: ``_regions`` before its walk, with every
    region's matrix closed over every hyperplane."""
    den, edges = arr.gain_edges()
    if arr.coned and None not in edges:
        raise ValueError("a coned arrangement needs the hyperplane z = 0")
    n = arr.dim - 1 if arr.coned else arr.dim
    unit = 1 << (n - 1)
    big = n * (max((abs(e[2]) for e in edges if e is not None), default=0) + 1) * unit
    box = tuple(tuple(0 if u == v else big for v in range(n)) for u in range(n))
    cuts = [None if e is None else (e[0], e[1], e[2] * unit) for e in edges]
    regions = [(0, box)]
    for cut in cuts:
        if cut is None:  # z = 0: the slice z = 1 lies on its positive side
            regions = [(bits << 1 | 1, d) for bits, d in regions]
            continue
        a, b, c = cut
        updated = []
        for bits, d in regions:
            below = d[b][a] + c > 0  # x_a - x_b < c meets the region
            above = d[a][b] > c  # x_a - x_b > c meets the region
            if below and above:
                updated.append((bits << 1, _tighten(d, a, b, c)))
                updated.append((bits << 1 | 1, _tighten(d, b, a, -c)))
            else:
                updated.append((bits << 1 | above, d))
        regions = updated
    return regions, den * unit


def closed_regions(arr: Arrangement):
    """The walk's regions as a list of ``(bits, d)``, and the scale."""
    walk, den = _regions(arr)
    return list(walk), den


# -- Fourier-Motzkin enumeration: the oracle of the matrix enumerator ----


def _insert(system: dict, row) -> bool:
    """Add ``row > 0`` to ``system``, keeping the tightest row per direction.

    ``row`` is ``(a..., c)`` and ``system`` maps each primitive direction
    ``a / gcd(a)`` to ``(gcd(a), row)``.  Of two rows with one direction
    the tighter has the smaller ``c / gcd(a)`` (compared by
    cross-multiplying); the looser is implied by it, and so is every row
    later combined from the looser one, so dropping both changes no
    stage's largest lower or smallest upper bound.  A row with zero
    coefficients is dropped when ``c > 0``; when ``c <= 0`` the system is
    infeasible and the answer is False.
    """
    c = row[-1]
    ga = gcd(*row[:-1])
    if not ga:
        return c > 0
    g = gcd(ga, c)
    if g > 1:
        row = [v // g for v in row]
        c //= g
        ga //= g
    key = tuple(v // ga for v in row[:-1]) if ga > 1 else tuple(row[:-1])
    old = system.get(key)
    if old is None or c * old[0] < old[1][-1] * ga:
        system[key] = (ga, row)
    return True


def find_interior_point(rows, nvars):
    """A rational solution of the strict system, or None if there is none.

    Each row ``(a_1, ..., a_n, c)`` of integers encodes
    ``sum(a_i x_i) + c > 0``.  Fourier-Motzkin elimination projects the
    variables out one by one (strict inequalities combine to strict
    inequalities, exactly), in integer arithmetic, keeping after each
    step only the tightest row of each direction; back-substitution then
    picks interval midpoints, or a unit past the single bound when the
    interval is unbounded.
    """
    for row in rows:
        if len(row) != nvars + 1:
            raise ValueError("row length must be the variable count plus one")
    system = {}
    for row in rows:
        if not _insert(system, row):
            return None

    # Stage v holds the rows bounding x_v as (head, tail): head is the
    # coefficient of x_v, tail the coefficients of x_{v+1}, ... and c.
    stages = []
    for _ in range(nvars):
        lowers, uppers, rest = [], [], {}
        for key, (ga, row) in system.items():
            head, tail = row[0], row[1:]
            if head > 0:
                lowers.append((head, tail))
            elif head < 0:
                uppers.append((head, tail))
            else:
                rest[key[1:]] = (ga, tail)
        for lh, lt in lowers:
            for uh, ut in uppers:
                if not _insert(rest, [lh * b - uh * a for a, b in zip(lt, ut)]):
                    return None
        stages.append((lowers, uppers))
        system = rest

    # Back-substitution in homogeneous integer coordinates: ``point`` is
    # (x_{v+1}, ..., x_{n-1}) times its last entry, a positive common
    # denominator ``den``.  A row bounds x_v by -(tail . point) / (head * den);
    # a bound is kept as ``(num, pos)``, meaning num / (pos * den), pos > 0.
    point = [1]
    for lowers, uppers in reversed(stages):
        lo = hi = None
        for head, tail in lowers:
            num = -sum(map(mul, tail, point))
            if lo is None or num * lo[1] > lo[0] * head:
                lo = (num, head)
        for head, tail in uppers:
            num = sum(map(mul, tail, point))
            if hi is None or num * hi[1] < hi[0] * -head:
                hi = (num, -head)
        den = point[-1]
        if lo is not None and hi is not None:
            if lo[0] * hi[1] >= hi[0] * lo[1]:
                return None
            num, pos = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        elif lo is not None:
            num, pos = lo[0] + lo[1] * den, lo[1]
        elif hi is not None:
            num, pos = hi[0] - hi[1] * den, hi[1]
        else:
            num, pos = 0, 1
        g = gcd(num, pos)
        num //= g
        pos //= g
        if pos > 1:
            point = [v * pos for v in point]
        point.insert(0, num)
    den = point.pop()
    return tuple(Fraction(n, den) for n in point)


def fm_enumerate_chambers(arr):
    """Sign vectors of all chambers, sorted, by incremental splitting with
    a Fourier-Motzkin feasibility test for every side a witness misses.

    Works for any rational arrangement, not only difference ones.
    """
    sides = [
        {s: tuple(s * c for c in h.coeffs) + (-s * h.const,) for s in (1, -1)}
        for h in arr.hyperplanes
    ]
    regions = [([], (0,) * arr.dim + (1,))]
    for new in sides:
        updated = []
        for signs, scaled in regions:
            value = sum(map(mul, new[1], scaled))
            base_rows = [sides[i][s] for i, s in enumerate(signs)]
            keep = [1] if value > 0 else [-1] if value < 0 else []
            for side in keep:
                updated.append((signs + [side], scaled))
            for side in (1, -1):
                if side in keep:
                    continue
                point = find_interior_point(base_rows + [new[side]], arr.dim)
                if point is not None:
                    ints, den = clear_denominators(point)
                    updated.append((signs + [side], (*ints, den)))
        regions = updated
    return sorted(tuple(signs) for signs, _ in regions)


# -- Fraction records: the oracle of the integer chambers ----------------


@dataclass(frozen=True)
class SignVector:
    """Strict signs (+1 or -1), indexed by the arrangement's hyperplane order."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("sign vectors hold only +1 and -1")

    def __len__(self) -> int:
        return len(self.signs)

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


def sign_vector(c: Chamber) -> SignVector:
    """The sign vector of a ``Chamber``, read off its ``signs`` string."""
    return SignVector(tuple(1 if s == "+" else -1 for s in chamber_signs(c)))


@dataclass(frozen=True)
class FractionChamber:
    """A chamber: sign vector plus a rational interior point realizing it."""

    sign_vector: SignVector
    witness: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "signs": str(self.sign_vector),
            "witness": [format_rational(v) for v in self.witness],
        }


class _Over(dict):
    """The map ``x -> Fraction(x, den)``, building each value once."""

    def __init__(self, den: int) -> None:
        super().__init__()
        self.den = den

    def __missing__(self, x: int) -> Fraction:
        value = self[x] = Fraction(x, self.den)
        return value


_SIGN = {"0": -1, "1": 1}


def oracle_enumerate_chambers(arr: Arrangement) -> list[FractionChamber]:
    """The matrix enumeration's regions, each made a ``SignVector`` and a
    ``Fraction`` witness as soon as it is found."""
    regions, den = closed_regions(arr)
    frac = _Over(den).__getitem__
    found: list[tuple[int, tuple[Fraction, ...]]] = []
    full = (1 << len(arr)) - 1
    for bits, d in regions:
        point = _witness(d)
        if arr.coned:  # the point at z = 1 and its antipode
            found.append((bits, (*map(frac, point), frac(den))))
            found.append((bits ^ full, (*map(frac, map(neg, point)), frac(-den))))
        else:
            found.append((bits, tuple(map(frac, point))))
    found.sort(key=lambda item: item[0])
    top = full + 1  # a leading 1 keeps the leading "-" signs in bin()
    return [
        FractionChamber(SignVector(tuple(map(_SIGN.__getitem__, bin(bits | top)[3:]))), witness)
        for bits, witness in found
    ]


def oracle_chamber_of_point(arr: Arrangement, point: Sequence[Scalar]) -> FractionChamber:
    """The chamber containing the point; errors if the point lies on a wall."""
    pt = tuple(Fraction(v) for v in point)
    scaled, den = clear_denominators(pt)
    signs = []
    for h in arr.hyperplanes:
        value = h.eval_at(scaled, den)
        if value == 0:
            raise ValueError(f"point lies on the hyperplane {hyperplane_str(h, arr.var_names())}")
        signs.append(1 if value > 0 else -1)
    return FractionChamber(SignVector(tuple(signs)), pt)


def chamber_to_json(c: Chamber) -> dict:
    """The oracle of the JSON writer of a ``Chamber``: signs and witness,
    each coordinate as ``format_rational`` writes it."""
    den = c.den
    return {
        "signs": chamber_signs(c),
        "witness": [f"{x // (g := gcd(x, den))}/{den // g}" for x in c.point],
    }


def assert_same_chamber(got: Chamber, want: FractionChamber) -> None:
    assert sign_vector(got) == want.sign_vector
    assert witness(got) == want.witness
    assert chamber_to_json(got) == want.to_json()
    assert chamber_signs(got) == str(want.sign_vector)
    assert witness_text(got) == ", ".join(str(v) for v in want.witness)


# -- feasibility oracle --------------------------------------------------


def _canon_row(row):
    # positive scaling only; the inequality direction must survive
    den = lcm(*(f.denominator for f in row)) if row else 1
    ints = [int(f * den) for f in row]
    g = gcd(*(abs(v) for v in ints))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def reference_interior_point(rows, nvars):
    """Plain Fourier-Motzkin over Fraction, with no pruning of parallel
    rows: every combined row is carried to the end."""
    system = {_canon_row([Fraction(v) for v in row]) for row in rows}
    stages = []
    for v in range(nvars):
        lowers = [r for r in system if r[v] > 0]
        uppers = [r for r in system if r[v] < 0]
        rest = {r for r in system if r[v] == 0}
        for lo in lowers:
            for up in uppers:
                combined = [
                    Fraction(-up[v] * lo[k] + lo[v] * up[k]) for k in range(nvars + 1)
                ]
                rest.add(_canon_row(combined))
        stages.append((lowers, uppers))
        system = rest
    if any(r[nvars] <= 0 for r in system):
        return None
    point = [Fraction(0)] * nvars
    for v in reversed(range(nvars)):
        lowers, uppers = stages[v]
        lo_bound = hi_bound = None
        for r in lowers:
            rest_val = Fraction(r[nvars]) + sum(r[k] * point[k] for k in range(v + 1, nvars))
            bound = -rest_val / r[v]
            if lo_bound is None or bound > lo_bound:
                lo_bound = bound
        for r in uppers:
            rest_val = Fraction(r[nvars]) + sum(r[k] * point[k] for k in range(v + 1, nvars))
            bound = rest_val / (-r[v])
            if hi_bound is None or bound < hi_bound:
                hi_bound = bound
        if lo_bound is not None and hi_bound is not None:
            if lo_bound >= hi_bound:
                return None
            point[v] = (lo_bound + hi_bound) / 2
        elif lo_bound is not None:
            point[v] = lo_bound + 1
        elif hi_bound is not None:
            point[v] = hi_bound - 1
    return tuple(point)


ENTRY = st.one_of(st.integers(-3, 3), st.integers(-7, 7).map(lambda n: Fraction(n, 2)))


@st.composite
def strict_systems(draw):
    """Up to ten rows in at most four variables: random rows, rows parallel
    to them with another constant, and rows with zero coefficients."""
    nvars = draw(st.integers(1, 4))
    row = st.lists(ENTRY, min_size=nvars + 1, max_size=nvars + 1)
    rows = draw(st.lists(row, max_size=6))
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            base = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from([1, 2, 3, Fraction(1, 2)]))
            rows.append([scale * a for a in base[:-1]] + [draw(ENTRY)])
    if draw(st.booleans()):
        rows.append([0] * nvars + [draw(ENTRY)])
    return draw(st.permutations(rows)), nvars


@settings(max_examples=250, deadline=None, derandomize=True)
@given(strict_systems())
@example(([[2, 2, 3], [1, 1, 2], [-1, -1, -1]], 2))  # tighter row has the larger raw constant
@example(([[1, 0, 0], [1, 0, 5], [-1, 0, 1]], 2))
@example(([[1, 2], [0, 0]], 1))
def test_interior_point_matches_reference(system):
    rows, nvars = system
    got = find_interior_point([clear_denominators(row)[0] for row in rows], nvars)
    assert got == reference_interior_point(rows, nvars)
    if got is not None:
        for row in rows:
            assert sum(a * x for a, x in zip(row, got)) + row[-1] > 0


def test_interior_point_simple_box():
    # 0 < x < 1, 0 < y < 1
    rows = [(1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 1)]
    p = find_interior_point(rows, 2)
    assert p is not None
    assert 0 < p[0] < 1 and 0 < p[1] < 1


def test_interior_point_infeasible():
    assert find_interior_point([(1, 0), (-1, -1)], 1) is None  # x > 0, x < -1
    assert find_interior_point([(0, -1)], 1) is None  # 0 > 1
    assert find_interior_point([(1, 0), (-1, 0)], 1) is None  # x > 0, x < 0


def test_interior_point_unbounded():
    p = find_interior_point([(1, -10)], 1)  # x > 10
    assert p is not None and p[0] > 10
    p = find_interior_point([(-1, -10)], 1)  # x < -10
    assert p is not None and p[0] < -10
    assert find_interior_point([], 2) == (Fraction(0), Fraction(0))


def test_interior_point_needs_substitution():
    # x > 0, y > x, y < x + 1/3, the last row scaled by 3
    rows = [(1, 0, 0), (-1, 1, 0), (3, -3, 1)]
    p = find_interior_point(rows, 2)
    assert p is not None
    x, y = p
    assert x > 0 and y > x and y < x + Fraction(1, 3)


def test_interior_point_rejects_bad_rows():
    with pytest.raises(ValueError):
        find_interior_point([(1, 2)], 2)


# -- sign vectors --------------------------------------------------------


def negated(v: SignVector) -> SignVector:
    return SignVector(tuple(-s for s in v.signs))


def test_sign_vector_basics():
    v = SignVector((1, -1, 1))
    assert len(v) == 3
    assert str(v) == "+-+"
    assert negated(v) == SignVector((-1, 1, -1))
    assert sum(a != b for a, b in zip(v.signs, negated(v).signs)) == 3
    with pytest.raises(ValueError):
        SignVector((1, 0, -1))


# -- enumeration ---------------------------------------------------------


def test_chamber_counts_small():
    assert len(enumerate_chambers(build_named("ish", 2))) == 3
    assert len(enumerate_chambers(build_named("ish", 3))) == 16
    assert len(enumerate_chambers(cone(build_named("ish", 2)))) == 6


HALF = st.integers(-4, 4).map(lambda n: Fraction(n, 2))


@st.composite
def difference_arrangements(draw):
    """N-Ish nests with half-integer entries, deleted Shi and Ish graphs,
    and Coxeter, Shi and Ish, with ell <= 4, each coned or not."""
    ell = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["nest", "deleted_shi", "deleted_ish", "coxeter", "shi", "ish"]))
    if kind == "nest":
        sets = draw(st.lists(st.lists(HALF, max_size=3), min_size=ell - 1, max_size=ell - 1))
        arr = build_n_ish(NestSpec.make(sets))
    elif kind.startswith("deleted"):
        pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
        arr = build_deleted(kind.split("_")[1], Graph.make(ell, edges))
    else:
        arr = build_named(kind, ell)
    return cone(arr) if draw(st.booleans()) else arr


# a spec with no hyperplane at all, and its cone, whose one hyperplane is z = 0
NO_HYPERPLANES = build_n_ish(NestSpec.make([[]]))
ONLY_Z_0 = cone(NO_HYPERPLANES)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(difference_arrangements())
@example(build_n_ish(NestSpec.make([[Fraction(1, 2), 2], [Fraction(-3, 2)], [0, 1]])))
@example(cone(build_named("shi", 4)))
@example(NO_HYPERPLANES)
@example(ONLY_Z_0)
def test_matrix_enumeration_matches_fourier_motzkin(arr):
    chambers = enumerate_chambers(arr)
    assert [sign_vector(c).signs for c in chambers] == fm_enumerate_chambers(arr)
    for c in chambers:
        assert chamber_of_point(arr, witness(c)).bits == c.bits
    assert len(chambers) == abs(char_poly(arr).evaluate(-1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(difference_arrangements())
@example(build_n_ish(NestSpec.make([[Fraction(1, 2), 2], [Fraction(-3, 2)], [0, 1]])))
@example(cone(build_named("shi", 4)))
@example(cone(build_n_ish(NestSpec.make([[Fraction(-1, 2), 1], [0], [Fraction(3, 2)]]))))
@example(NO_HYPERPLANES)
@example(ONLY_Z_0)
def test_integer_chambers_match_the_fraction_oracle(arr):
    chambers = enumerate_chambers(arr)
    oracle = oracle_enumerate_chambers(arr)
    assert len(chambers) == len(oracle)
    for got, want in zip(chambers, oracle):
        assert_same_chamber(got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(difference_arrangements())
@example(build_n_ish(NestSpec.make([[Fraction(1, 2), 2], [Fraction(-3, 2)], [0, 1]])))
@example(cone(build_named("shi", 4)))
@example(cone(build_n_ish(NestSpec.make([[Fraction(-1, 2), 1], [0], [Fraction(3, 2)]]))))
@example(build_named("ish", 4))
@example(NO_HYPERPLANES)
@example(ONLY_Z_0)
def test_walk_gives_the_breadth_first_regions_in_order(arr):
    assert closed_regions(arr) == breadth_first_regions(arr)


def transposing_witness(d) -> list[int]:
    """``_witness`` reading each column from the transposed matrix."""
    point = [0]
    for row, col in zip(d[1:], list(zip(*d))[1:]):
        point.append((max(map(sub, point, col)) + min(map(add, point, row))) >> 1)
    return point


@settings(max_examples=60, deadline=None, derandomize=True)
@given(difference_arrangements())
@example(cone(build_n_ish(NestSpec.make([["-5/6", "7/4"], ["1/3"], ["7/4", "2/3"]]))))
def test_witness_reads_only_the_column_entries_it_needs(arr):
    regions = closed_regions(arr)[0]
    assert [_witness(d) for _, d in regions] == [transposing_witness(d) for _, d in regions]


@st.composite
def descending_nests(draw):
    """Descending nests with ell <= 5 and half-integer entries."""
    ell = draw(st.integers(2, 5))
    sets = [draw(st.lists(HALF, max_size=4, unique=True))]
    for _ in range(ell - 2):
        sets.append(draw(st.lists(st.sampled_from(sets[-1]), unique=True)) if sets[-1] else [])
    return NestSpec.make(sets)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(descending_nests(), st.lists(st.lists(HALF, min_size=6, max_size=6), max_size=4))
def test_points_and_base_chambers_match_the_fraction_oracle(nest, points):
    arr = cone(build_n_ish(nest))
    n2 = rational_set(nest, 2)
    witness = [1 + min(n2) if n2 else 1, *range(2, nest.ell + 1), 1]
    assert_same_chamber(canonical_chamber(nest, arr), oracle_chamber_of_point(arr, witness))
    for point in points:
        point = point[: arr.dim]
        try:
            want = oracle_chamber_of_point(arr, point)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                chamber_of_point(arr, point)
        else:
            assert_same_chamber(chamber_of_point(arr, point), want)


def test_enumeration_rejects_non_difference_hyperplanes():
    # the walk reads gain edges, so hyperplanes reach it only read back as
    # edges (``with_edges``), which refuses any that is not a difference
    for coeffs in ([1, 1], [2, -1]):  # x1 + x2 = 0, 2*x1 - x2 = 0
        with pytest.raises(ValueError, match="not of the form"):
            read_back([make_hyperplane(coeffs)])
    assert len(enumerate_chambers(with_edges(2, [make_hyperplane([1, -1])]))) == 2


def sorted_enumerate_chambers(arr: Arrangement) -> list[Chamber]:
    """The chambers as they were enumerated before the rows: a ``Chamber`` per
    region, a ``Chamber`` per antipode, then a sort."""
    walk, den = _regions(arr)
    size = len(arr)
    z = (den,) if arr.coned else ()
    chambers = [Chamber(bits, size, tuple(_witness(d)) + z, den) for bits, d in walk]
    if arr.coned:
        full = (1 << size) - 1
        chambers += [Chamber(c.bits ^ full, size, tuple(map(neg, c.point)), den) for c in chambers]
        chambers.sort()
    return chambers


@settings(max_examples=80, deadline=None, derandomize=True)
@given(difference_arrangements())
@example(cone(build_named("ish", 3)))
@example(cone(build_n_ish(NestSpec.make([[Fraction(-1, 2), 1], [0], [Fraction(3, 2)]]))))
@example(NO_HYPERPLANES)
@example(ONLY_Z_0)
def test_the_rows_merge_the_antipodes_as_the_sort_did(arr):
    rows, den = chamber_rows(arr)
    assert [Chamber(bits, len(arr), point, den) for bits, point in rows] == sorted_enumerate_chambers(arr)
    assert enumerate_chambers(arr) == sorted_enumerate_chambers(arr)


def test_a_cone_enumerates_the_antipodes_then_its_slice():
    # z = 0 is hyperplane 0, the top bit: the chambers at z < 0, the antipodes
    # of the slice z = 1 in reverse, all come before those at z > 0
    arr = cone(build_named("ish", 3))
    rows, den = chamber_rows(arr)
    walk, _ = _regions(arr)
    forward = [(bits, (*_witness(d), den)) for bits, d in walk]
    full = (1 << len(arr)) - 1
    back = [(bits ^ full, tuple(-x for x in point)) for bits, point in reversed(forward)]
    assert rows == back + forward
    assert len(rows) == 2 * len(enumerate_chambers(build_named("ish", 3))) == 32
    top = 1 << (len(arr) - 1)  # the bit of z = 0
    assert all(bits < top for bits, _ in back) and all(bits >= top for bits, _ in forward)
    chambers = enumerate_chambers(arr)
    assert [c.bits for c in chambers] == sorted({c.bits for c in chambers})
    assert [sign_vector(c).signs for c in chambers] == fm_enumerate_chambers(arr)
    for c in chambers:
        assert chamber_of_point(arr, witness(c)).bits == c.bits


def test_chamber_witnesses_realize_signs():
    arr = build_named("ish", 3)
    for ch in enumerate_chambers(arr):
        again = chamber_of_point(arr, witness(ch))
        assert chamber_signs(again) == chamber_signs(ch)


def test_enumeration_is_deterministic():
    arr = build_named("shi", 3)
    first = enumerate_chambers(arr)
    second = enumerate_chambers(arr)
    assert [(c.bits, witness(c)) for c in first] == [(c.bits, witness(c)) for c in second]
    signs = [sign_vector(c).signs for c in first]
    assert signs == sorted(signs)


def test_zaslavsky_consistency():
    cases = [
        build_named("ish", 2),
        build_named("ish", 3),
        build_named("shi", 2),
        build_named("shi", 3),
        build_named("coxeter", 3),
        cone(build_named("ish", 2)),
        build_deleted("ish", Graph.make(3, [(1, 2), (2, 3)])),
        build_n_ish(NestSpec.make([[0, Fraction(1, 2)], []])),
    ]
    for arr in cases:
        count = len(enumerate_chambers(arr))
        assert count == abs(char_poly(arr).evaluate(-1))


def test_antipodal_pairing_on_central():
    for arr in (cone(build_named("ish", 2)), build_named("coxeter", 3)):
        chambers = enumerate_chambers(arr)
        vectors = {sign_vector(c) for c in chambers}
        for v in vectors:
            assert negated(v) in vectors
            assert negated(v) != v


def test_chamber_of_point_on_wall_fails():
    arr = build_named("ish", 2)
    with pytest.raises(ValueError):
        chamber_of_point(arr, (0, 0))


def test_chamber_of_point_reads_exact_coordinates_only():
    arr = build_named("ish", 2)
    with pytest.raises(ValueError, match="cannot read a rational from 0.1"):
        chamber_of_point(arr, [0.1, 2.5])
    read = chamber_of_point(arr, ["1/10", "5/2"])
    assert (chamber_signs(read), witness(read)) == ("--", (Fraction(1, 10), Fraction(5, 2)))


def test_chamber_json():
    arr = cone(build_named("ish", 2))
    ch = canonical_chamber(NestSpec.make([[0, 1]]), arr)
    assert chamber_to_json(ch) == {"signs": "+--", "witness": ["1/1", "2/1", "1/1"]}


def test_chamber_json_on_zero_negative_and_half_coordinates():
    # the slice z = 1 splits at x1 - x2 = 0 and 1; its witnesses take x1 = 0 and
    # midpoints, and the antipodes negate every coordinate
    arr = cone(build_n_ish(NestSpec.make([[0, 1]])))
    chambers = enumerate_chambers(arr)
    assert [chamber_to_json(c) for c in chambers] == [
        {"signs": "---", "witness": ["0/1", "5/2", "-1/1"]},
        {"signs": "--+", "witness": ["0/1", "1/2", "-1/1"]},
        {"signs": "-++", "witness": ["0/1", "-2/1", "-1/1"]},
        {"signs": "+--", "witness": ["0/1", "2/1", "1/1"]},
        {"signs": "++-", "witness": ["0/1", "-1/2", "1/1"]},
        {"signs": "+++", "witness": ["0/1", "-5/2", "1/1"]},
    ]
    assert [witness_text(c) for c in chambers[2:5]] == ["0, -2, -1", "0, 2, 1", "0, -1/2, 1"]
    for got, want in zip(chambers, oracle_enumerate_chambers(arr)):
        assert_same_chamber(got, want)


# -- distinguished chambers ----------------------------------------------


def test_canonical_chamber_witness_matches_formula():
    ch = canonical_chamber(NestSpec.make([[0, 1]]))
    assert witness(ch) == (Fraction(1), Fraction(2), Fraction(1))


def test_canonical_chamber_signs():
    # z positive, every other wall negative
    nest = NestSpec.make([[0, 1, 2], [0, 1]])
    arr = cone(build_n_ish(nest))
    ch = canonical_chamber(nest, arr)
    z_index = next(i for i, h in enumerate(arr.hyperplanes) if h.coeffs[-1] == 1)
    for i, s in enumerate(sign_vector(ch).signs):
        assert s == (1 if i == z_index else -1)


def test_canonical_chamber_requires_descending():
    with pytest.raises(ValueError):
        canonical_chamber(NestSpec.make([[0], [0, 1]]))


def test_canonical_chamber_empty_nest():
    nest = NestSpec.make([[], []])
    ch = canonical_chamber(nest)
    assert witness(ch) == (Fraction(1), Fraction(2), Fraction(3), Fraction(1))


def test_canonical_chamber_without_zero_offsets():
    # the witness can collide with x2 in value; no wall passes through it
    nest = NestSpec.make([[1, 2], [1]])
    ch = canonical_chamber(nest)
    assert witness(ch)[0] == Fraction(2)


def test_deconed_canonical_is_the_affine_base():
    # Relabeling x_j -> x_{l+2-j} turns the descending staircase into the
    # plain arrangement with all offsets 0..j-1, and carries the deconed
    # canonical witness into the chamber x1 < xl < ... < x2.
    for ell in (3, 4):
        sets = [list(range(ell + 1 - j + 1)) for j in range(2, ell + 1)]
        nest = NestSpec.make(sets)
        assert nest.is_descending()
        point = witness(canonical_chamber(nest))
        assert point == tuple(Fraction(v) for v in [1, *range(2, ell + 1), 1])
        arr, base = ish_base_chamber(ell)
        carried = (point[0],) + tuple(reversed(point[1:-1]))
        assert chamber_signs(chamber_of_point(arr, carried)) == chamber_signs(base)


# -- wall-crossing polynomials -------------------------------------------


def test_distance_poly_small_line():
    arr, base = ish_base_chamber(2)
    assert distance_poly(arr, base) == UniPoly([1, 1, 1])


def test_distance_poly_rank_three_affine():
    arr, base = ish_base_chamber(3)
    assert distance_poly(arr, base) == UniPoly.geometric(3) * UniPoly.geometric(3)


def test_distance_poly_coned_rank_two():
    nest = NestSpec.make([[0, 1]])
    arr = cone(build_named("ish", 2))
    poly = distance_poly(arr, canonical_chamber(nest, arr))
    assert poly == UniPoly([1, 2, 2, 1])
    assert poly == UniPoly.geometric(1) * UniPoly.geometric(2)


def test_distance_poly_rejects_foreign_base():
    arr = build_named("ish", 2)
    # "-+" has the right size and is no chamber, "-++" has the wrong size, and
    # 0b100 has a bit past the two hyperplanes
    for fake in (Chamber(0b01, 2, (0, 0), 1), Chamber(0b011, 3, (0, 0), 1),
                 Chamber(0b100, 2, (0, 0), 1)):
        with pytest.raises(ValueError, match="does not belong"):
            distance_poly(arr, fake)
    # on a cone, the two sign vectors of the right size that neither a region
    # of the slice nor an antipode has
    arr = cone(arr)
    chambers = {c.bits for c in enumerate_chambers(arr)}
    missing = sorted(set(range(1 << len(arr))) - chambers)
    assert len(missing) == 2
    for bits in missing:
        with pytest.raises(ValueError, match="does not belong"):
            distance_poly(arr, Chamber(bits, len(arr), (0, 0, 0), 1))


def test_distance_poly_endpoints():
    arr = build_named("shi", 2)
    chambers = enumerate_chambers(arr)
    for base in chambers:
        poly = distance_poly(arr, base)
        assert poly.evaluate(0) == 1
        assert poly.evaluate(1) == len(chambers)


def test_wallcross_product_form_for_descending_nests():
    cases = [
        [[0, 1], [0]],
        [[1, 2], [1]],
        [[], []],
        [[Fraction(1, 2), 3], [3]],
    ]
    for sets in cases:
        nest = NestSpec.make(sets)
        arr = cone(build_n_ish(nest))
        got = distance_poly(arr, canonical_chamber(nest, arr))
        assert got == wallcross_expected(nest)


def test_wallcross_expected_guards():
    with pytest.raises(ValueError):
        wallcross_expected(NestSpec.make([[0], [0, 1]]))


def test_random_bases_keep_zaslavsky_program(  # witness reuse across bases
):
    rng = random.Random(3317)
    arr = build_named("ish", 3)
    chambers = enumerate_chambers(arr)
    for _ in range(5):
        base = rng.choice(chambers)
        poly = distance_poly(arr, base)
        assert poly.evaluate(1) == 16
