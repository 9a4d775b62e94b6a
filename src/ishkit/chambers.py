"""Chambers of rational arrangements, base chambers, wall-crossing counts.

The complement of an arrangement falls apart into open chambers, each
recorded here by its sign vector (one strict sign per hyperplane, in the
arrangement's hyperplane order) together with a rational witness point.
Enumeration inserts hyperplanes one at a time and splits every chamber
the new hyperplane actually cuts; the cut test is exact Fourier-Motzkin
elimination on strict inequalities, which also produces the witness for
each fresh piece.

The canonical chamber of a coned arrangement built from descending sets
is cut out by ``x1 - xj < a z`` for every ``a`` in ``N_j``, the order
``x2 < x3 < ... < xl``, and ``z > 0``; its wall-crossing polynomial
(chambers counted by the number of separating hyperplanes) factors as
``(1+t)`` times one geometric factor per exponent of the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .arrangement import Arrangement, Hyperplane, NestSpec, build_n_ish, build_named, cone
from .exactmath import Scalar, UniPoly, clear_denominators, format_rational


@dataclass(frozen=True)
class SignVector:
    """Strict signs (+1 or -1), indexed by the arrangement's hyperplane order."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("sign vectors hold only +1 and -1")

    def __len__(self) -> int:
        return len(self.signs)

    def distance(self, other: "SignVector") -> int:
        """Number of separating hyperplanes: positions where signs differ."""
        if len(other) != len(self):
            raise ValueError("sign vectors have different lengths")
        return sum(a != b for a, b in zip(self.signs, other.signs))

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


@dataclass(frozen=True)
class Chamber:
    """A chamber: sign vector plus a rational interior point realizing it."""

    sign_vector: SignVector
    witness: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "signs": str(self.sign_vector),
            "witness": [format_rational(v) for v in self.witness],
        }


# -- exact feasibility of strict inequality systems ---------------------


def _insert(system: dict, row: Sequence[int]) -> bool:
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


def find_interior_point(
    rows: Sequence[Sequence[int]], nvars: int
) -> tuple[Fraction, ...] | None:
    """A rational solution of the strict system, or None if there is none.

    Each row ``(a_1, ..., a_n, c)`` of integers encodes
    ``sum(a_i x_i) + c > 0``; a rational row is first scaled to integers
    by a positive factor, which keeps its inequality.
    Fourier-Motzkin elimination projects the variables out one by one
    (strict inequalities combine to strict inequalities, exactly), in
    integer arithmetic, keeping after each step only the tightest row of
    each direction; back-substitution then picks interval midpoints, or
    a unit past the single bound when the interval is unbounded.
    """
    for row in rows:
        if len(row) != nvars + 1:
            raise ValueError("row length must be the variable count plus one")
    system: dict[tuple[int, ...], tuple[int, Sequence[int]]] = {}
    for row in rows:
        if not _insert(system, row):
            return None

    # Stage v holds the rows bounding x_v as (head, tail): head is the
    # coefficient of x_v, tail the coefficients of x_{v+1}, ... and c.
    stages: list[tuple[list, list]] = []
    for _ in range(nvars):
        lowers: list[tuple[int, Sequence[int]]] = []
        uppers: list[tuple[int, Sequence[int]]] = []
        rest: dict[tuple[int, ...], tuple[int, Sequence[int]]] = {}
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


def _side_row(h: Hyperplane, side: int) -> tuple[int, ...]:
    """The row of ``side * (h(x)) > 0``."""
    return tuple(side * c for c in h.coeffs) + (-side * h.const,)


def _scaled(point: Sequence[Fraction]) -> tuple[int, ...]:
    """The point times a positive common denominator, followed by it: its
    dot product with a row has the sign the row takes at the point."""
    ints, den = clear_denominators(point)
    return (*ints, den)


def enumerate_chambers(arr: Arrangement) -> list[Chamber]:
    """All chambers, in increasing sign-vector order.

    Hyperplanes are inserted one at a time.  A chamber whose witness
    lies strictly on one side only needs a feasibility test for the
    opposite side; a witness landing exactly on the new hyperplane
    forces a retest of both sides.
    """
    sides = [{s: _side_row(h, s) for s in (1, -1)} for h in arr.hyperplanes]
    regions: list[tuple[list[int], tuple[Fraction, ...], tuple[int, ...]]] = [
        ([], (Fraction(0),) * arr.dim, (0,) * arr.dim + (1,))
    ]
    for new in sides:
        updated: list[tuple[list[int], tuple[Fraction, ...], tuple[int, ...]]] = []
        for signs, witness, scaled in regions:
            value = sum(map(mul, new[1], scaled))
            base_rows = [sides[i][s] for i, s in enumerate(signs)]
            keep: list[int] = []
            if value > 0:
                keep.append(1)
            elif value < 0:
                keep.append(-1)
            candidates = [s for s in (1, -1) if s not in keep]
            for side in keep:
                updated.append((signs + [side], witness, scaled))
            for side in candidates:
                point = find_interior_point(base_rows + [new[side]], arr.dim)
                if point is not None:
                    updated.append((signs + [side], point, _scaled(point)))
        regions = updated
    chambers = [Chamber(SignVector(tuple(signs)), witness) for signs, witness, _ in regions]
    chambers.sort(key=lambda c: c.sign_vector.signs)
    return chambers


def chamber_of_point(arr: Arrangement, point: Sequence[Scalar]) -> Chamber:
    """The chamber containing the point; errors if the point lies on a wall."""
    pt = tuple(Fraction(v) for v in point)
    signs = []
    for h in arr.hyperplanes:
        value = h.eval_at(pt)
        if value == 0:
            raise ValueError(f"point lies on the hyperplane {h.render(arr.var_names())}")
        signs.append(1 if value > 0 else -1)
    return Chamber(SignVector(tuple(signs)), pt)


# -- distinguished chambers ---------------------------------------------


def canonical_chamber(nest: NestSpec, arr: Arrangement | None = None) -> Chamber:
    """Base chamber of the coned arrangement of a descending nest.

    The chamber satisfying ``x1 - xj < a z`` for every ``a`` in ``N_j``,
    ``x2 < x3 < ... < xl`` and ``z > 0``; its witness is
    ``(1 + min N_2, 2, ..., l, 1)``.  When every set is empty the first
    group of conditions is vacuous and the witness takes ``x1 = 1``.
    """
    if not nest.is_descending():
        raise ValueError("the canonical chamber needs a descending nest")
    if arr is None:
        arr = cone(build_n_ish(nest))
    n2 = nest.set_at(2)
    x1 = 1 + min(n2) if n2 else Fraction(1)
    witness = (Fraction(x1),) + tuple(Fraction(j) for j in range(2, nest.ell + 1)) + (
        Fraction(1),
    )
    return chamber_of_point(arr, witness)


def ish_base_chamber(ell: int) -> tuple[Arrangement, Chamber]:
    """The affine arrangement with all walls ``x1 - xj = 0..j-1`` plus the
    Coxeter walls, and its base chamber ``x1 < xl < ... < x2``."""
    arr = build_named("ish", ell)
    witness = (Fraction(0),) + tuple(Fraction(ell + 1 - j) for j in range(2, ell + 1))
    return arr, chamber_of_point(arr, witness)


def distance_poly(arr: Arrangement, base: Chamber) -> UniPoly:
    """Chambers counted by the number of hyperplanes separating them from base."""
    chambers = enumerate_chambers(arr)
    if all(c.sign_vector != base.sign_vector for c in chambers):
        raise ValueError("the base chamber does not belong to this arrangement")
    counts: dict[int, int] = {}
    for c in chambers:
        d = base.sign_vector.distance(c.sign_vector)
        counts[d] = counts.get(d, 0) + 1
    top = max(counts)
    return UniPoly([counts.get(d, 0) for d in range(top + 1)])


def wallcross_expected(nest: NestSpec) -> UniPoly:
    """The product ``(1+t) * prod geometric(e)`` over the nonunit exponents.

    The exponents of the cone come from the chain sorted ascending by
    inclusion: position k contributes ``|N| + l - k`` where the sizes
    increase with k.  (Feeding the descending sizes into the same slots
    would overshoot the chamber count.)
    """
    if not nest.is_descending():
        raise ValueError("the product form is stated for descending nests")
    ell = nest.ell
    sizes = sorted(len(nest.set_at(j)) for j in range(2, ell + 1))
    out = UniPoly.geometric(1)
    for k in range(2, ell + 1):
        out = out * UniPoly.geometric(sizes[k - 2] + ell - k)
    return out
