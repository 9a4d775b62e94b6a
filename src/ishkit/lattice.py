"""Intersection posets, Moebius values, characteristic polynomials.

A flat is a nonempty intersection of hyperplanes.  It is stored as an
integer echelon form of its augmented linear system: row k is row k of
the rational reduced row echelon form, scaled to coprime integers with
a positive pivot.  Scaling a row by a positive number keeps its pivot
and its zeros in the other rows' pivot columns, so this form is as
canonical as the RREF, and flats compare and hash by their rows.
Intersecting a flat with a hyperplane is one fraction-free elimination
plus a gcd per row it touches.  Rows come in as integers
(``Hyperplane.row``, ``Flat.from_rows``, ``Flat.implies``), and
``Fraction`` appears only where the RREF goes out (``Flat.rref`` and
the JSON and text built on it).

The poset orders flats by reverse inclusion; the whole space is the
bottom element.  The closure that generates it records, for every flat
and hyperplane, the flat their intersection gives (``None`` when it is
empty) in a step table, and the hyperplanes containing the flat in its
bitmask.  A flat equals the intersection of the hyperplanes through
it, so masks are a faithful encoding: mask containment decides the
order, the meet of two flats is the walk from the bottom through the
hyperplanes of both masks, and their join is the walk from one flat
through the other's mask.

On top of the poset sit the classical tools: Moebius values by the
recursive sum over lower flats, the characteristic polynomial
``sum mu(X) t^dim(X)``, localization, modular flats, supersolvability
via a maximal chain of modular flats, and the rank-by-rank filtration
certificate for coned nested arrangements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .arrangement import Arrangement, Hyperplane, NestSpec, build_n_ish, cone
from .exactmath import UniPoly, equation_str, format_rational

Row = tuple[int, ...]


def _pivot(row: Sequence[int]) -> int:
    """Column of the first nonzero entry."""
    return row.index(next(filter(None, row)))


def _reduce(row: Sequence[int], rows: Sequence[Row]) -> Sequence[int]:
    """Clear ``row`` in the pivot column of each echelon row, fraction-free.

    The result is a positive multiple of the rational reduction.
    """
    for rr in rows:
        p = _pivot(rr)
        f = row[p]
        if f:
            a = rr[p]
            row = [a * x - f * y for x, y in zip(row, rr)]
    return row


def _primitive(row: Sequence[int]) -> Row:
    """Divide out the content; the first nonzero entry becomes positive."""
    g = gcd(*row)
    if next(filter(None, row)) < 0:
        g = -g
    return tuple(v // g for v in row)


def _adjoin(rows: tuple[Row, ...], red: list[int]) -> tuple[Row, ...]:
    """Echelon form of ``rows`` plus a reduced row with a nonzero coefficient.

    ``red`` is already zero in every pivot column of ``rows``, so only
    the rows that are nonzero in its pivot column need one elimination.
    """
    new = _primitive(red)
    q = _pivot(new)
    b = new[q]
    out = [
        _primitive([b * x - rr[q] * y for x, y in zip(rr, new)]) if rr[q] else rr
        for rr in rows
    ]
    out.append(new)
    out.sort(key=_pivot)
    return tuple(out)


@dataclass(frozen=True)
class Flat:
    """A nonempty affine subspace arising as an intersection of hyperplanes.

    ``rows`` is the canonical integer echelon form described in the
    module docstring; the last column holds the constant.
    """

    rows: tuple[Row, ...]
    ambient_dim: int

    @staticmethod
    def ambient(dim: int) -> "Flat":
        return Flat((), dim)

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], ambient_dim: int) -> "Flat | None":
        """The solution set of integer augmented rows; ``None`` if empty."""
        echelon: tuple[Row, ...] = ()
        for row in rows:
            red = _reduce(row, echelon)
            if any(red[:-1]):
                echelon = _adjoin(echelon, red)
            elif red[-1]:
                return None
        return Flat(echelon, ambient_dim)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    def implies(self, row: Sequence[int]) -> bool:
        """Does every point of the flat satisfy the integer row ``coeffs . x = const``?"""
        return not any(_reduce(row, self.rows))

    def intersect_hyperplane(self, h: Hyperplane) -> "Flat | None | str":
        """Intersect with a hyperplane.

        Returns ``"same"`` when the hyperplane already contains the
        flat, ``None`` when the intersection is empty, and the new
        ``Flat`` otherwise.
        """
        red = _reduce([*h.coeffs, h.const], self.rows)
        if any(red[:-1]):
            return Flat(_adjoin(self.rows, red), self.ambient_dim)
        return None if red[-1] else "same"

    def rref(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational reduced row echelon form: each row over its pivot."""
        return tuple(tuple(Fraction(v, row[_pivot(row)]) for v in row) for row in self.rows)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "dim": self.dim,
            "rref": [[format_rational(v) for v in row] for row in self.rref()],
        }

    def render(self, names: Sequence[str]) -> str:
        if not self.rows:
            return "ambient space"
        return "; ".join(equation_str(row[:-1], row[-1], names) for row in self.rref())


class IntersectionPoset:
    """All flats of an arrangement, ordered by reverse inclusion.

    Flats are sorted by ``(rank, rows)``, so index 0 is the ambient
    space.  ``masks[i]`` has bit ``b`` set when hyperplane ``b``
    contains flat ``i``; ``steps[i][b]`` is the index of the flat
    ``i`` meets hyperplane ``b`` in (``i`` itself when the hyperplane
    contains it, ``None`` when they do not meet).
    """

    def __init__(
        self,
        arrangement: Arrangement,
        flats: Sequence[Flat],
        masks: Sequence[int],
        steps: Sequence[Sequence[int | None]],
    ) -> None:
        order = sorted(range(len(flats)), key=lambda i: (flats[i].rank, flats[i].rows))
        new_index = [0] * len(order)
        for pos, old in enumerate(order):
            new_index[old] = pos
        self.arrangement = arrangement
        self.flats: tuple[Flat, ...] = tuple(flats[i] for i in order)
        self.masks: tuple[int, ...] = tuple(masks[i] for i in order)
        self.ranks: tuple[int, ...] = tuple(f.rank for f in self.flats)
        self.steps: tuple[tuple[int | None, ...], ...] = tuple(
            tuple(None if k is None else new_index[k] for k in steps[i]) for i in order
        )
        self._index = {f.rows: i for i, f in enumerate(self.flats)}
        self.mobius: tuple[int, ...] = self._compute_mobius()

    def _compute_mobius(self) -> tuple[int, ...]:
        mob = [0] * len(self.flats)
        for i, rank in enumerate(self.ranks):
            if rank == 0:
                mob[i] = 1
                continue
            mask = self.masks[i]
            total = 0
            for j in range(i):
                if self.ranks[j] >= rank:
                    break
                if self.masks[j] & ~mask == 0:
                    total += mob[j]
            mob[i] = -total
        return tuple(mob)

    def __len__(self) -> int:
        return len(self.flats)

    def index_of(self, flat: Flat) -> int:
        try:
            return self._index[flat.rows]
        except KeyError:
            raise ValueError("flat does not belong to this poset") from None

    def leq(self, i: int, j: int) -> bool:
        """Order by reverse inclusion: bottom is the ambient space."""
        return self.masks[i] & ~self.masks[j] == 0

    @property
    def rank(self) -> int:
        return max(self.ranks)

    def top_index(self) -> int:
        """Index of the center flat; only central arrangements have one."""
        if not self.arrangement.is_central:
            raise ValueError("only central arrangements have a top flat")
        full = (1 << len(self.arrangement)) - 1
        for i, m in enumerate(self.masks):
            if m == full:
                return i
        raise RuntimeError("central arrangement is missing its center flat")

    def char_poly(self) -> UniPoly:
        coeffs = [0] * (self.arrangement.dim + 1)
        for flat, mu in zip(self.flats, self.mobius):
            coeffs[flat.dim] += mu
        return UniPoly(coeffs)

    def _walk(self, start: int, mask: int) -> int | None:
        """Intersect flat ``start`` with the hyperplanes in ``mask``.

        Each step intersects with the lowest hyperplane of ``mask``
        that does not yet contain the current flat; ``None`` when the
        intersection is empty.
        """
        masks, steps = self.masks, self.steps
        cur: int | None = start
        mask &= ~masks[start]
        while mask:
            cur = steps[cur][(mask & -mask).bit_length() - 1]
            if cur is None:
                return None
            mask &= ~masks[cur]
        return cur

    def join_index(self, i: int, j: int) -> int:
        """Smallest flat above both: the subspace intersection.

        Raises ``ValueError`` when the two flats do not meet (possible
        only for non-central arrangements).
        """
        k = self._walk(i, self.masks[j])
        if k is None:
            raise ValueError("flats do not intersect")
        return k

    def meet_index(self, i: int, j: int) -> int:
        """Largest flat below both: the hyperplanes common to both masks."""
        k = self._walk(0, self.masks[i] & self.masks[j])
        assert k is not None  # both flats lie in that intersection
        return k


def intersection_poset(arr: Arrangement) -> IntersectionPoset:
    """Generate every flat by closing the ambient space under intersection.

    The ``"same"`` answers of the closure give each flat's mask, and all
    answers give its row of the step table, in the same pass.
    """
    ambient = Flat.ambient(arr.dim)
    index: dict[tuple[Row, ...], int] = {ambient.rows: 0}
    flats = [ambient]
    masks: list[int] = []
    steps: list[list[int | None]] = []
    for i, flat in enumerate(flats):  # grows while it is walked
        mask = 0
        step: list[int | None] = []
        for bit, h in enumerate(arr.hyperplanes):
            res = flat.intersect_hyperplane(h)
            if isinstance(res, Flat):
                k = index.get(res.rows)
                if k is None:
                    k = index[res.rows] = len(flats)
                    flats.append(res)
                step.append(k)
            elif res is None:
                step.append(None)
            else:
                mask |= 1 << bit
                step.append(i)
        masks.append(mask)
        steps.append(step)
    return IntersectionPoset(arr, flats, masks, steps)


def char_poly(arr: Arrangement) -> UniPoly:
    """Characteristic polynomial via the Moebius sum over all flats."""
    return intersection_poset(arr).char_poly()


def localization(arr: Arrangement, flat: Flat) -> Arrangement:
    """The sub-arrangement of hyperplanes containing the flat.

    The flat must belong to the intersection poset: it has to equal the
    intersection of the hyperplanes through it.
    """
    if flat.ambient_dim != arr.dim:
        raise ValueError("flat lives in the wrong ambient space")
    chosen = [h for h in arr.hyperplanes if flat.implies(h.row())]
    check = Flat.from_rows([h.row() for h in chosen], arr.dim)
    if check is None or check.rows != flat.rows:
        raise ValueError("flat is not an intersection of arrangement hyperplanes")
    return Arrangement(arr.dim, chosen, coned=arr.coned)


def is_modular(poset: IntersectionPoset, flat: Flat) -> bool:
    """Modularity test: rank adds along meet and join against every flat."""
    if not poset.arrangement.is_central:
        raise ValueError("modularity is defined here for central arrangements only")
    i = poset.index_of(flat)
    return _is_modular_index(poset, i)


def _is_modular_index(poset: IntersectionPoset, i: int) -> bool:
    ranks = poset.ranks
    ri = ranks[i]
    for j, rj in enumerate(ranks):
        if ri + rj != ranks[poset.meet_index(i, j)] + ranks[poset.join_index(i, j)]:
            return False
    return True


def is_supersolvable(arr: Arrangement) -> list[Flat] | None:
    """Search for a maximal chain of modular flats, bottom to top.

    Returns the chain when the arrangement is supersolvable, otherwise
    ``None``.  Central arrangements only.
    """
    if not arr.is_central:
        raise ValueError("supersolvability test needs a central arrangement")
    poset = intersection_poset(arr)
    top_rank = poset.ranks[poset.top_index()]
    modular_cache: dict[int, bool] = {}

    def modular(i: int) -> bool:
        if i not in modular_cache:
            modular_cache[i] = _is_modular_index(poset, i)
        return modular_cache[i]

    by_rank: dict[int, list[int]] = {}
    for i, r in enumerate(poset.ranks):
        by_rank.setdefault(r, []).append(i)

    def extend(chain: list[int]) -> list[int] | None:
        current = chain[-1]
        r = poset.ranks[current]
        if r == top_rank:
            return chain
        for j in by_rank.get(r + 1, []):
            if poset.leq(current, j) and modular(j):
                res = extend(chain + [j])
                if res is not None:
                    return res
        return None

    chain = extend([0])
    if chain is None:
        return None
    return [poset.flats[i] for i in chain]


@dataclass(frozen=True)
class FiltrationReport:
    """Verification record for a rank-by-rank filtration."""

    ranks: tuple[int, ...]
    ranks_ok: bool
    pairs_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.ranks_ok and self.pairs_ok


def _arrangement_rank(arr: Arrangement) -> int:
    flat = Flat.from_rows([h.row() for h in arr.hyperplanes], arr.dim)
    if flat is None:
        raise ValueError("central arrangement expected")
    return flat.rank


def nest_filtration(nest: NestSpec) -> tuple[list[Arrangement], FiltrationReport]:
    """Filtration of the coned nested arrangement along its natural flats.

    Requires a descending tuple ``N_2 >= N_3 >= ... >= N_ell``.  The
    i-th stage localizes at the flat ``{z = 0, x1 = x2 = ... = xi}``;
    when every set is empty the first coordinate drops out and the
    stages localize at ``{z = 0, x2 = ... = x_{i+1}}`` instead.  The
    report confirms that stage i has rank i and that any two distinct
    hyperplanes of a stage meet inside some hyperplane of the previous
    stage (checked by brute force).
    """
    if not nest.is_descending():
        raise ValueError("nest filtration needs a descending tuple of sets")
    arr = cone(build_n_ish(nest))
    ell = nest.ell
    n = arr.dim
    z_row = [0] * (n + 1)
    z_row[ell] = 1

    def diff_row(i: int, j: int) -> list[int]:
        row = [0] * (n + 1)
        row[i - 1] = 1
        row[j - 1] = -1
        return row

    stages: list[Arrangement] = []
    degenerate = not nest.set_at(2)  # every set empty: x1 is unconstrained
    total_rank = _arrangement_rank(arr)
    for i in range(1, total_rank + 1):
        rows = [z_row]
        if degenerate:
            rows += [diff_row(j, k) for j in range(2, i + 2) for k in range(j + 1, i + 2)]
        else:
            rows += [diff_row(1, j) for j in range(2, i + 1)]
            rows += [diff_row(j, k) for j in range(2, i + 1) for k in range(j + 1, i + 1)]
        flat = Flat.from_rows(rows, n)
        assert flat is not None
        stages.append(localization(arr, flat))

    failures: list[str] = []
    ranks = tuple(_arrangement_rank(a) for a in stages)
    ranks_ok = ranks == tuple(range(1, total_rank + 1))
    if not ranks_ok:
        failures.append(f"stage ranks {ranks} are not 1..{total_rank}")
    pairs_ok = True
    for idx in range(1, len(stages)):
        current, previous = stages[idx], stages[idx - 1]
        for a_i, ha in enumerate(current.hyperplanes):
            for hb in current.hyperplanes[a_i + 1 :]:
                meet = Flat.from_rows([ha.row(), hb.row()], n)
                assert meet is not None  # central hyperplanes always intersect
                if not any(meet.implies(hc.row()) for hc in previous.hyperplanes):
                    pairs_ok = False
                    failures.append(
                        f"stage {idx + 1}: pair does not meet inside the previous stage"
                    )
    report = FiltrationReport(ranks, ranks_ok, pairs_ok, tuple(failures))
    return stages, report
