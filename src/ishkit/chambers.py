"""Chambers of difference arrangements, base chambers, wall-crossing counts.

The complement of an arrangement falls apart into open chambers, each
recorded here by its sign vector (one strict sign per hyperplane, in the
arrangement's hyperplane order) together with a rational witness point.

Enumeration takes the difference arrangements that every spec builds:
``x_i - x_j = c``, and when coned ``x_i - x_j = c*z`` plus ``z = 0``,
read as gain-graph edges by ``Arrangement.gain_edges``.  A region is a
conjunction of strict bounds ``x_u - x_v < D[u][v]``, kept as a closed
difference-bound matrix (Dill 1989; strict bounds as in Bengtsson-Yi
2004): every entry is the tightest bound the others imply.  The entries
are the bounds times the gains' one denominator, so the side
``x_a - x_b < c`` of a new hyperplane, ``c`` its integer gain, meets the
region exactly when ``D[b][a] + c > 0``, a side the region already
implies leaves its matrix as it is, and a split tightens each side by an
O(n^2) incremental closure.  The regions are walked depth first, so at
most one matrix per hyperplane is pending.  Every matrix starts from the
box ``|x_u - x_v| < n (M + 1)``, ``M`` the largest constant in absolute
value, so all entries are finite integers.  The box loses no chamber:
closing every gap wider than ``M + 1`` between consecutive sorted
coordinates down to ``M + 1`` keeps each difference on the same side of
every constant, so each chamber has a point with all differences at most
``(n - 1)(M + 1)``.

Witnesses are built once, after the last hyperplane: ``x1 = 0``, and each
later coordinate is the midpoint of the interval the fixed ones allow,
which a closed matrix never leaves empty (Dechter-Meiri-Pearl 1991), in
integer homogeneous coordinates over one scale for the whole enumeration.
``chamber_rows`` is the one producer of an answer's chambers: a row
``(bits, point)`` per chamber, the region's sign bits and its scaled
witness, in increasing ``bits``.  A coned arrangement is enumerated on
its slice ``z = 1``, whose regions are the chambers on the side
``z > 0``; their antipodes, bits complemented and points negated, taken
in reverse are the chambers on the side ``z < 0``, in increasing order.
``cone`` puts ``z = 0`` first, the top bit, so the antipodes come first.
The command line writes its answer straight from the rows;
``enumerate_chambers`` makes each row a ``Chamber``, a record of the same
integers.

The canonical chamber of a coned arrangement built from descending sets
is cut out by ``x1 - xj < a z`` for every ``a`` in ``N_j``, the order
``x2 < x3 < ... < xl``, and ``z > 0``.  The cone of a chained nest is
supersolvable, so its chambers counted by the number of hyperplanes that
separate them from that chamber give ``geometric_product`` of the cone's
exponents (Bjoerner-Edelman-Ziegler, DCG 1990): ``(1+t)`` times one
geometric factor per exponent past 1.  The command line answers
``wallcross`` from that product; ``distance_poly``, which walks every
region, is the oracle the tests hold it to.
"""

from __future__ import annotations

from itertools import accumulate
from operator import neg
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arrangement import Arrangement, NestSpec, build_n_ish, build_named, cone
from .exactmath import UniPoly, equation_str
from .freeness import decide_free


class Chamber(NamedTuple):
    """A chamber: sign vector plus a rational interior point realizing it.

    A record of integers, equal and hashed by value.  ``bits`` is the
    sign vector on ``size`` hyperplanes, hyperplane 0 the most significant
    bit and a set bit for the side ``+``; ``point`` is the witness times
    the positive scale ``den``.
    """

    bits: int
    size: int
    point: tuple[int, ...]
    den: int


# -- enumeration by difference-bound matrices ---------------------------

Matrix = tuple[tuple[int, ...], ...]  # D[u][v] bounds x_u - x_v strictly


def _tighten(d: Matrix, a: int, b: int, c: int) -> Matrix:
    """The closed matrix ``d`` with the bound ``x_a - x_b < c`` added.

    The only new paths run through the new edge.  Row ``u`` can improve
    only if ``d[u][a] + c < d[u][b]``: otherwise closure gives
    ``d[u][a] + c + d[b][v] >= d[u][b] + d[b][v] >= d[u][v]`` for every
    ``v``.  Rows that do not improve are shared with ``d``.
    """
    row_b = d[b]
    out = []
    for row in d:
        via = row[a] + c
        if via < row[b]:
            row = tuple([x if x <= via + y else via + y for x, y in zip(row, row_b)])
        out.append(row)
    return tuple(out)


def _witness(d: Matrix) -> list[int]:
    """A point strictly inside the closed matrix ``d``, with ``x_0 = 0``.

    Each later coordinate is the midpoint of the open interval that the
    fixed ones allow, which is never empty on a closed matrix.  With
    every entry of ``d`` a multiple of ``2**(n-1)`` the midpoints stay
    integers: coordinate ``k`` is a multiple of ``2**(n-1-k)``.
    """
    point = [0]
    for k in range(1, len(d)):
        # x_u - d[u][k] < x_k < x_u + d[k][u] for each fixed u < k, starting at x_0 = 0
        row = d[k]
        low, high = -d[0][k], row[0]
        for u in range(1, k):
            x = point[u]
            bound = x - d[u][k]
            if bound > low:
                low = bound
            bound = x + row[u]
            if bound < high:
                high = bound
        point.append((low + high) >> 1)
    return point


def _regions(arr: Arrangement) -> tuple[Iterator[tuple[int, Matrix]], int]:
    """A walk over the regions of a difference arrangement, and the scale of their bounds.

    Each region is ``(bits, d)``: its sign vector, hyperplane 0 the top
    bit and a set bit for ``+``, and its matrix of bounds times the scale,
    closed over every hyperplane; a coned arrangement gives those of its
    slice ``z = 1``.  At each split the walk sets the ``+`` side aside,
    tightened, and goes down the ``-`` side: regions come out in increasing
    ``bits``, and at most one matrix per hyperplane is pending.
    """
    den, edges = arr.gain_edges()
    n = arr.dim - 1 if arr.coned else arr.dim
    unit = 1 << (n - 1)  # keeps the witness midpoints integral
    big = n * (max((abs(e[2]) for e in edges if e is not None), default=0) + 1) * unit
    box = tuple(tuple(0 if u == v else big for v in range(n)) for u in range(n))
    # z = 0 becomes x_0 - x_0 < -1, which no region meets: the slice z = 1 is on its + side
    cuts = [(0, 0, -1) if e is None else (e[0], e[1], e[2] * unit) for e in edges]

    def walk() -> Iterator[tuple[int, Matrix]]:
        stack = [(0, 0, box)]  # (next hyperplane, bits so far, matrix)
        while stack:
            start, bits, d = stack.pop()
            for k in range(start, len(cuts)):
                a, b, c = cuts[k]
                if d[b][a] + c <= 0:  # x_a - x_b < c misses the region
                    bits = bits << 1 | 1
                elif d[a][b] <= c:  # x_a - x_b > c misses the region
                    bits <<= 1
                else:
                    stack.append((k + 1, bits << 1 | 1, _tighten(d, b, a, -c)))
                    bits, d = bits << 1, _tighten(d, a, b, c)
            yield bits, d

    return walk(), den * unit


def chamber_rows(arr: Arrangement) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """Every chamber as a row ``(bits, point)``, in increasing ``bits``, and the
    positive scale ``den`` that every ``point`` is the witness times.

    A coned arrangement's walk gives the forward run, its regions at
    ``z = 1``, all on the ``+`` side of ``z = 0``; their antipodes, reversed,
    are on its ``-`` side.  ``cone`` puts ``z = 0`` first, as the top bit, so
    the answer is the antipodes then the forward run.
    """
    walk, den = _regions(arr)
    if not arr.coned:
        return [(bits, tuple(_witness(d))) for bits, d in walk], den
    forward = [(bits, (*_witness(d), den)) for bits, d in walk]  # a point at z = 1
    full = (1 << len(arr)) - 1
    back = [(bits ^ full, tuple(map(neg, point))) for bits, point in reversed(forward)]
    return back + forward, den


def enumerate_chambers(arr: Arrangement) -> list[Chamber]:
    """All chambers, in increasing sign-vector order: the ``Chamber`` of each
    row of ``chamber_rows``."""
    rows, den = chamber_rows(arr)
    size = len(arr)
    return [Chamber(bits, size, point, den) for bits, point in rows]


def _chamber_at(arr: Arrangement, point: Sequence[int], den: int) -> Chamber:
    """The chamber containing ``point / den``, for integer coordinates and ``den > 0``."""
    bits = 0
    for h in arr.hyperplanes:
        value = h.eval_at(point, den)
        if value == 0:
            raise ValueError(f"point lies on the hyperplane {equation_str(h.coeffs, h.const, arr.var_names())}")
        bits = bits << 1 | (value > 0)
    return Chamber(bits, len(arr), tuple(point), den)


# -- distinguished chambers ---------------------------------------------


def canonical_chamber(nest: NestSpec, arr: Arrangement | None = None) -> Chamber:
    """Base chamber of the coned arrangement of a descending nest.

    The chamber satisfying ``x1 - xj < a z`` for every ``a`` in ``N_j``,
    ``x2 < x3 < ... < xl`` and ``z > 0``; its witness is
    ``(1 + min N_2, 2, ..., l, 1)``, taken over the nest's denominator.
    When every set is empty the first group of conditions is vacuous and
    the witness takes ``x1 = 1``.
    """
    if not nest.is_descending():
        raise ValueError("the canonical chamber needs a descending nest")
    if arr is None:
        arr = cone(build_n_ish(nest))
    den, n2 = nest.den, nest.nums[0]
    x1 = den + min(n2) if n2 else den
    return _chamber_at(arr, (x1, *(j * den for j in range(2, nest.ell + 1)), den), den)


def ish_base_chamber(ell: int) -> tuple[Arrangement, Chamber]:
    """The affine arrangement with all walls ``x1 - xj = 0..j-1`` plus the
    Coxeter walls, and its base chamber ``x1 < xl < ... < x2``."""
    arr = build_named("ish", ell)
    return arr, _chamber_at(arr, (0, *(ell + 1 - j for j in range(2, ell + 1))), 1)


def distance_poly(arr: Arrangement, base: Chamber) -> UniPoly:
    """Chambers counted by the number of hyperplanes separating them from base,
    by walking every region: the oracle of ``geometric_product``."""
    size = len(arr)
    counts = [0] * (size + 1)
    if base.size == size and not base.bits >> size:
        for bits, _ in _regions(arr)[0]:
            k = (bits ^ base.bits).bit_count()
            counts[k] += 1
            counts[size - k] += arr.coned  # the antipode is across every hyperplane
    if counts[0] != 1:  # sign vectors are distinct: base is a chamber at most once
        raise ValueError("the base chamber does not belong to this arrangement")
    return UniPoly(counts)


def geometric_product(tops: Iterable[int]) -> UniPoly:
    """``prod (1 + t + ... + t**e)`` over the nonnegative ``e`` in ``tops``.

    Each factor turns the coefficients so far into their sums over windows
    of ``e + 1``, read off one list of prefix sums.
    """
    coeffs = [1]
    for e in tops:
        sums, n = list(accumulate(coeffs, initial=0)), len(coeffs)
        coeffs = [sums[min(k + 1, n)] - sums[max(k - e, 0)] for k in range(n + e)]
    return UniPoly(coeffs)


def wallcross_expected(nest: NestSpec) -> UniPoly:
    """``geometric_product`` of the exponents of the cone of a descending nest.

    The exponents ``{0, 1} | {|N_w(k)| + l - k}`` come from the chain
    order, sets ascending (``freeness.decide_free``), so the product is
    ``(1+t)`` times one geometric factor per nonunit exponent.  (Feeding
    the descending sizes into the same slots would overshoot the chamber
    count.)
    """
    if not nest.is_descending():
        raise ValueError("the product form is stated for descending nests")
    return geometric_product(decide_free(nest).exponents)
