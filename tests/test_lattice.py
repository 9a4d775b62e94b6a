import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Iterable, Sequence
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ishkit import exactmath, lattice
from ishkit.arrangement import (
    Arrangement,
    GainEdge,
    Graph,
    NestSpec,
    build_deleted,
    build_n_ish,
    build_named,
    cone,
    from_spec,
    ish_nest,
)
from ishkit.cli import _chain_lines, _flat_records, _render, request_from_doc, run
from ishkit.exactmath import Scalar, UniPoly, equation_str, format_rational, nonnegative_int_roots
from ishkit.freeness import decide_free, is_nest, verify_nonfree_witness
from ishkit.lattice import (
    Flat,
    _IntGains,
    _meet,
    _meets_inside,
    _unmodular_pair,
    char_poly,
    is_supersolvable,
    nest_modular_chain,
)
from ishkit.rooks import graph_char_poly, spec_char_poly
from test_arrangement import make_hyperplane, with_edges

T_MINUS_ONE = UniPoly([-1, 1])

Row = tuple[Fraction, ...]


# -- Fraction offsets and lcm-scaled gains: the oracle of the integer form --


@dataclass(frozen=True)
class FractionFlat:
    """A flat with rational offsets, ``x_v = x_root + offset[v]``.

    The form of ``Flat`` before its offsets became integers over the
    arrangement's denominator: its reduced row echelon form, JSON record
    and text are the oracle of ``flat_to_json`` and ``flat_render``.
    """

    root: tuple[int, ...]
    offset: tuple[Scalar, ...]
    zero: bool
    coned: bool

    @property
    def rank(self) -> int:
        return sum(r != v for v, r in enumerate(self.root)) + self.zero

    @property
    def dim(self) -> int:
        return len(self.root) + self.coned - self.rank

    def rref(self) -> tuple[tuple[Scalar, ...], ...]:
        """``x_v - x_root = offset[v]`` (coned: ``x_v - x_root - offset[v]*z = 0``)
        per coordinate off its root, then ``z = 0``, in pivot order."""
        n = len(self.root)
        out = []
        for v, (r, o) in enumerate(zip(self.root, self.offset)):
            if r != v:
                row: list[Scalar] = [0] * (n + 1 + self.coned)
                row[v], row[r], row[n] = 1, -1, -o if self.coned else o
                out.append(tuple(row))
        if self.zero:
            out.append((0,) * n + (1, 0))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "dim": self.dim,
            "rref": [[format_rational(v) for v in row] for row in self.rref()],
        }

    def render(self, names: Sequence[str]) -> str:
        if not self.rank:
            return "ambient space"
        return "; ".join(equation_str(row[:-1], row[-1], names) for row in self.rref())


def fraction_flat(flat: Flat) -> FractionFlat:
    """The flat with each offset divided by ``den``: an ``int`` when integral."""
    den = flat.den
    offset = tuple(o // den if o % den == 0 else Fraction(o, den) for o in flat.offset)
    return FractionFlat(flat.root, offset, flat.zero, flat.coned)


def fraction_gain_edges(arr: Arrangement) -> list:
    """The gain edges of a difference arrangement with each gain a ``Fraction``,
    read back from the normalized form: ``2*x1 - 2*x2 = 1`` gives 1/2."""
    n = arr.dim - arr.coned
    edges = []
    for h in arr.hyperplanes:
        support = [k for k, v in enumerate(h.coeffs[:n]) if v]
        if not support:
            edges.append(None)  # z = 0
            continue
        i, j = support
        edges.append((i, j, Fraction(-h.coeffs[n] if arr.coned else h.const, h.coeffs[i])))
    return edges


def lcm_scaled(edges: Sequence) -> tuple[int, list]:
    """``(scale, edges)``: the gains times the lcm ``scale`` of their denominators."""
    scale = lcm(*(e[2].denominator for e in edges if e is not None))
    return scale, [e if e is None else (e[0], e[1], int(e[2] * scale)) for e in edges]


def flat_rank(flat: Flat) -> int:
    """The number of a flat's equations: one per coordinate off its root, and ``z = 0``."""
    return sum(r != v for v, r in enumerate(flat.root)) + flat.zero


def flat_ambient_dim(flat: Flat) -> int:
    return len(flat.root) + flat.coned


def flat_dim(flat: Flat) -> int:
    return flat_ambient_dim(flat) - flat_rank(flat)


def flat_rows(flat: Flat) -> list[tuple[int, int, int]]:
    """``(v, r, o)`` per coordinate ``v`` off its root ``r``, in pivot order,
    with ``o`` its offset over ``den``."""
    return [(v, r, o) for v, (r, o) in enumerate(zip(flat.root, flat.offset)) if r != v]


def flat_to_json(flat: Flat) -> dict:
    """A flat's JSON record: rank, dimension, and the reduced row echelon form,
    each entry as ``"num/den"``.  The oracle of the chain writer ``cli._flat_records``."""
    n, den, coned = len(flat.root), flat.den, flat.coned
    rref = []
    for v, r, o in flat_rows(flat):
        row = ["0/1"] * (n + 1 + coned)
        row[v], row[r], row[n] = "1/1", "-1/1", format_rational(-o if coned else o, den)
        rref.append(row)
    if flat.zero:
        rref.append(["0/1"] * n + ["1/1", "0/1"])
    return {"rank": flat_rank(flat), "dim": flat_dim(flat), "rref": rref}


def flat_render(flat: Flat, names: Sequence[str]) -> str:
    """The rows of a flat's reduced row echelon form as equations, ``; ``-separated.
    The oracle of the text chain writer ``cli._chain_lines``."""
    if not flat_rank(flat):
        return "ambient space"
    n, den = len(flat.root), flat.den
    if flat.coned:  # x_v - x_r - (o/den)*z = 0
        z = names[n]
        out = [equation_str((den, -den, -o), 0, (names[v], names[r], z), den) for v, r, o in flat_rows(flat)]
    else:  # x_v - x_r = o/den
        out = [equation_str((den, -den), o, (names[v], names[r]), den) for v, r, o in flat_rows(flat)]
    if flat.zero:
        out.append(equation_str((1,), 0, (z,)))
    return "; ".join(out)


def integer_render(flat: Flat, names: Sequence[str]) -> str:
    """``flat_render`` written by hand from the integers, one gcd per row: the
    oracle of the rows that ``equation_str`` writes."""
    if not flat_rank(flat):
        return "ambient space"
    z = names[len(flat.root)] if flat.coned else ""
    out = []
    for v, (r, o) in enumerate(zip(flat.root, flat.offset)):
        if r == v:
            continue
        g = gcd(o, flat.den)
        p, q = o // g, flat.den // g
        lhs = f"{names[v]} - {names[r]}"
        if not flat.coned:
            out.append(f"{lhs} = {p}" if q == 1 else f"{lhs} = {p}/{q}")
        elif not p:
            out.append(f"{lhs} = 0")
        else:
            mag = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
            term = z if mag == "1" else f"{mag}*{z}"
            out.append(f"{lhs} {'+' if p < 0 else '-'} {term} = 0")
    if flat.zero:
        out.append(f"{z} = 0")
    return "; ".join(out)


def assert_written_as_the_oracle(flat: Flat, names: Sequence[str]) -> None:
    oracle = fraction_flat(flat)
    assert flat_to_json(flat) == oracle.to_json()
    assert flat_render(flat, names) == oracle.render(names) == integer_render(flat, names)


# -- rational reference closure ----------------------------------------


def _rref(rows: Iterable[Sequence[Fraction]], width: int) -> tuple[tuple[Row, ...], bool]:
    """Reduced row echelon form of an augmented system.

    The last column is the constant; it is never chosen as a pivot.
    Returns ``(rows, consistent)`` with zero rows dropped.
    """
    mat = [list(map(Fraction, r)) for r in rows]
    lead = 0
    for col in range(width - 1):
        pivot = next((i for i in range(lead, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[lead], mat[pivot] = mat[pivot], mat[lead]
        inv = 1 / mat[lead][col]
        mat[lead] = [v * inv for v in mat[lead]]
        for i in range(len(mat)):
            if i != lead and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[lead])]
        lead += 1
    consistent = all(mat[i][width - 1] == 0 for i in range(lead, len(mat)))
    return tuple(tuple(r) for r in mat[:lead]), consistent


def _reduce_row(row: Sequence[Fraction], rref_rows: Sequence[Row]) -> list[Fraction]:
    out = list(map(Fraction, row))
    for rr in rref_rows:
        pivot = next(i for i, v in enumerate(rr) if v != 0)
        f = out[pivot]
        if f != 0:
            out = [a - f * b for a, b in zip(out, rr)]
    return out


def reference_poset(arr):
    """Flats as rational RREF rows, their masks and Moebius values.

    The closure intersects every flat with every hyperplane in
    ``Fraction`` arithmetic, and the masks come from brute-force
    reduction of each hyperplane row.
    """
    width = arr.dim + 1
    hrows = [(*h.coeffs, h.const) for h in arr.hyperplanes]
    found: set[tuple[Row, ...]] = {()}
    queue: list[tuple[Row, ...]] = [()]
    while queue:
        rows = queue.pop()
        for hrow in hrows:
            red = _reduce_row(hrow, rows)
            if any(red[:-1]):
                new, ok = _rref(rows + (tuple(red),), width)
                assert ok
                if new not in found:
                    found.add(new)
                    queue.append(new)
    flats = sorted(found, key=lambda rows: (len(rows), rows))
    masks = [
        sum(1 << b for b, hrow in enumerate(hrows) if not any(_reduce_row(hrow, rows)))
        for rows in flats
    ]
    return flats, masks, scan_mobius(masks, [len(rows) for rows in flats])


def chi_of(dim: int, ranks: Sequence[int], mobius: Sequence[int]) -> UniPoly:
    """``sum mu(X) t^dim(X)`` from the ranks and Moebius values of every flat
    (a flat of ``reference_poset`` has rank its number of RREF rows)."""
    coeffs = [0] * (dim + 1)
    for rank, mu in zip(ranks, mobius):
        coeffs[dim - rank] += mu
    return UniPoly(coeffs)


def scan_mobius(masks: Sequence[int], ranks: Sequence[int]) -> list[int]:
    """Moebius values by the recursive sum over every lower flat, O(F^2).

    The flats must come in order of rank; flat j lies below flat i when
    its rank is lower and its mask is a subset of the mask of i.
    """
    mobius: list[int] = []
    for i, (mask, rank) in enumerate(zip(masks, ranks)):
        below = sum(mobius[j] for j in range(i) if ranks[j] < rank and masks[j] & ~mask == 0)
        mobius.append(-below if rank else 1)
    return mobius


# -- the full closure: flats, steps and sort order, the oracle of ``char_poly`` --


class IntersectionPoset:
    """All flats of an arrangement, ordered by reverse inclusion.

    Flats are sorted by ``(rank, rows)``, with the integer rows of the
    ``ishkit.lattice`` docstring (``rows`` below), so index 0 is the
    ambient space.  ``masks[i]`` has bit ``b`` set when hyperplane ``b``
    contains flat ``i``; ``steps[i][b]`` is the index of the flat
    ``i`` meets hyperplane ``b`` in (``i`` itself when the hyperplane
    contains it, ``None`` when they do not meet), so flat ``j`` lies
    above flat ``i`` when ``masks[i]`` is a subset of ``masks[j]``, and
    the other entries of ``steps[i]`` are the upper covers of flat ``i``.
    ``mobius[i]`` is ``mu(ambient, flat i)``.  The closure of ``intersection_poset``
    hands every field over in the order it found the flats, with sort
    keys ``(rank, ...)`` that order like ``(rank, rows)``, and Moebius
    values from the lower covers by Weisner's theorem.
    """

    def __init__(
        self,
        arrangement: Arrangement,
        flats: Sequence[Flat],
        masks: Sequence[int],
        steps: Sequence[Sequence[int | None]],
        keys: Sequence[tuple],
        mobius: Sequence[int],
    ) -> None:
        order = sorted(range(len(flats)), key=keys.__getitem__)
        new_index = [0] * len(order)
        for pos, old in enumerate(order):
            new_index[old] = pos
        self.arrangement = arrangement
        self.flats: tuple[Flat, ...] = tuple(flats[i] for i in order)
        self.masks: tuple[int, ...] = tuple(masks[i] for i in order)
        self.ranks: tuple[int, ...] = tuple(keys[i][0] for i in order)
        self.steps: tuple[tuple[int | None, ...], ...] = tuple(
            tuple([None if k is None else new_index[k] for k in steps[i]]) for i in order
        )
        self.mobius: tuple[int, ...] = tuple(mobius[i] for i in order)

    def __len__(self) -> int:
        return len(self.flats)

    @property
    def rank(self) -> int:
        return max(self.ranks)

    def char_poly(self) -> UniPoly:
        dim = self.arrangement.dim
        coeffs = [0] * (dim + 1)
        for rank, mu in zip(self.ranks, self.mobius):
            coeffs[dim - rank] += mu
        return UniPoly(coeffs)


def intersection_poset(arr: Arrangement) -> IntersectionPoset:
    """Generate every flat by closing the ambient space along its covers.

    The arrangement is read once as integer gain edges (``_IntGains``),
    and ``_meet`` makes each flat.  Its mask is computed once, when the
    closure first finds it.

    The flat Y in which a flat X meets a hyperplane off X covers X, and
    X meets every hyperplane of ``mask(Y)`` outside ``mask(X)`` in the
    same Y, so those entries of the step table need no meet: the
    closure meets once per cover pair.  It walks the flats breadth
    first, in ranks that never decrease, so it has found every lower
    cover of X when it reaches X.  The interval from the ambient space
    to X is a geometric lattice whose atoms are the hyperplanes through
    X, so Weisner's theorem gives ``mu(X) = -sum mu(Y)`` over the lower
    covers Y of X that some fixed hyperplane a through X does not
    contain (Stanley, *EC1*, Cor. 3.9.3).
    """
    gains = _IntGains(arr)
    edges = gains.edges
    flats = [Flat.ambient(arr.dim, arr.coned, gains.den)]
    index = {flats[0]: 0}
    masks, covers = [0], [[]]
    steps: list[list[int | None]] = []
    mobius: list[int] = []
    full = (1 << len(edges)) - 1
    for x, flat in enumerate(flats):  # grows while it is walked
        mask = masks[x]
        if mask:  # Weisner's theorem, with a the first hyperplane through x
            a = mask & -mask
            mobius.append(-sum([mobius[y] for y in covers[x] if not masks[y] & a]))
        else:
            mobius.append(1)
        step: list[int | None] = [x] * len(edges)
        todo = full & ~mask
        while todo:
            bit = (todo & -todo).bit_length() - 1
            meet = _meet(flat, edges[bit])
            if meet is None:
                step[bit] = None
                todo ^= 1 << bit
                continue
            y = index.get(meet)
            if y is None:
                y = index[meet] = len(flats)
                flats.append(meet)
                masks.append(gains.mask(meet))
                covers.append([])
            covers[y].append(x)
            fill = masks[y] & todo
            todo ^= fill
            while fill:
                low = fill & -fill
                step[low.bit_length() - 1] = y
                fill ^= low
        steps.append(step)
    keys = [flat.key() for flat in flats]
    return IntersectionPoset(arr, flats, masks, steps, keys, mobius)


# -- the rank-identity search: the oracle of ``is_supersolvable`` --------


def index_of(poset: IntersectionPoset, flat: Flat) -> int:
    return poset.flats.index(flat)


def leq(poset: IntersectionPoset, i: int, j: int) -> bool:
    """Order by reverse inclusion: bottom is the ambient space."""
    return poset.masks[i] & ~poset.masks[j] == 0


def top_index(poset: IntersectionPoset) -> int:
    """Index of the center flat, the one every hyperplane contains."""
    return poset.masks.index((1 << len(poset.arrangement)) - 1)


def walk(poset: IntersectionPoset, start: int, mask: int) -> int | None:
    """Intersect flat ``start`` with the hyperplanes in ``mask``.

    Each step intersects with the lowest hyperplane of ``mask`` that does
    not yet contain the current flat; ``None`` when the intersection is
    empty.
    """
    masks, steps = poset.masks, poset.steps
    cur: int | None = start
    mask &= ~masks[start]
    while mask:
        cur = steps[cur][(mask & -mask).bit_length() - 1]
        if cur is None:
            return None
        mask &= ~masks[cur]
    return cur


def join_index(poset: IntersectionPoset, i: int, j: int) -> int:
    """Smallest flat above both: the subspace intersection.

    Raises ``ValueError`` when the two flats do not meet (possible only
    for non-central arrangements).
    """
    k = walk(poset, i, poset.masks[j])
    if k is None:
        raise ValueError("flats do not intersect")
    return k


def meet_index(poset: IntersectionPoset, i: int, j: int) -> int:
    """Largest flat below both: the hyperplanes common to both masks."""
    k = walk(poset, 0, poset.masks[i] & poset.masks[j])
    assert k is not None  # both flats lie in that intersection
    return k


def is_modular(poset: IntersectionPoset, flat: Flat) -> bool:
    """Modularity test: rank adds along meet and join against every flat."""
    if not poset.arrangement.is_central:
        raise ValueError("modularity is defined here for central arrangements only")
    return is_modular_index(poset, index_of(poset, flat))


def is_modular_index(poset: IntersectionPoset, i: int) -> bool:
    ranks = poset.ranks
    ri = ranks[i]
    for j, rj in enumerate(ranks):
        if ri + rj != ranks[meet_index(poset, i, j)] + ranks[join_index(poset, i, j)]:
            return False
    return True


def oracle_supersolvable(arr: Arrangement) -> list[Flat] | None:
    """The first maximal chain of flats modular by the rank identity, in poset order."""
    if not arr.is_central:
        raise ValueError("supersolvability test needs a central arrangement")
    poset = intersection_poset(arr)
    top_rank = poset.ranks[top_index(poset)]
    modular_cache: dict[int, bool] = {}

    def modular(i: int) -> bool:
        if i not in modular_cache:
            modular_cache[i] = is_modular_index(poset, i)
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
            if leq(poset, current, j) and modular(j):
                res = extend(chain + [j])
                if res is not None:
                    return res
        return None

    chain = extend([0])
    if chain is None:
        return None
    return [poset.flats[i] for i in chain]


# -- the poset climb: the differential oracle of ``is_supersolvable`` ----


def poset_supersolvable(arr: Arrangement) -> list[Flat] | None:
    """The first maximal chain of modular flats in poset order, bottom to top.

    Returns the chain when the arrangement is supersolvable, otherwise
    ``None``.  Central arrangements only.

    The search climbs from the ambient space through upper covers, the
    distinct entries of each flat's step table, in poset order.  It takes
    the cover Y of X when X is a modular coatom of the interval below Y:
    every two hyperplanes through Y but not X meet inside a hyperplane
    through X (``_meets_inside``).  An element modular inside a modular
    element is modular in the whole lattice (Stanley, *Supersolvable
    lattices*, 1972), and the center is modular, so a chain that passes
    every step up to the center is a chain of modular flats, and every
    such chain passes every step.  Whether a cover completes does not
    depend on the flat below it, so a cover that passed a step and had no
    completion is never tried again.
    """
    if not arr.is_central:
        raise ValueError("supersolvability test needs a central arrangement")
    poset = intersection_poset(arr)
    _, edges = arr.gain_edges()
    masks, steps = poset.masks, poset.steps
    full = (1 << len(edges)) - 1
    dead: set[int] = set()

    def hyperplanes(mask: int) -> list[GainEdge]:
        return [edge for bit, edge in enumerate(edges) if mask >> bit & 1]

    def extend(x: int) -> list[int] | None:
        if masks[x] == full:
            return [x]
        earlier = set(hyperplanes(masks[x]))
        for y in sorted({y for y in steps[x] if y is not None and y != x}):
            if y in dead:
                continue
            new = hyperplanes(masks[y] & ~masks[x])
            if all(_meets_inside(a, b, earlier) for k, a in enumerate(new) for b in new[k + 1 :]):
                rest = extend(y)
                if rest is not None:
                    return [x] + rest
                dead.add(y)
        return None

    chain = extend(0)
    return None if chain is None else [poset.flats[i] for i in chain]


# -- the climb that sorts every cover: the oracle of the prefiltered climb --


def sort_every_cover_climb(arr: Arrangement, chi: UniPoly) -> list[Flat] | None:
    """``is_supersolvable`` as it sorted every cover of a flat by ``Flat.key``
    before it skipped those with a block size not among the roots left or
    found dead."""
    roots = nonnegative_int_roots(chi)
    if roots is None:
        return None
    left = Counter(roots)
    gains = _IntGains(arr)
    edges, full = gains.edges, gains.full
    dead: set[Flat] = set()

    def extend(x: Flat, mask: int) -> list[Flat] | None:
        if mask == full:
            return [x]
        covers: dict[Flat, int] = {}
        todo = full & ~mask
        while todo:
            y = _meet(x, edges[(todo & -todo).bit_length() - 1])
            covers[y] = gains.mask(y)
            todo &= ~covers[y]
        earlier = set(gains.hyperplanes(mask))
        for y in sorted(covers, key=Flat.key):
            block = covers[y] & ~mask
            size = block.bit_count()
            if not left[size] or y in dead:
                continue
            if _unmodular_pair(gains.hyperplanes(block), earlier) is None:
                left[size] -= 1
                rest = extend(y, covers[y])
                if rest is not None:
                    return [x] + rest
                left[size] += 1
                dead.add(y)
        return None

    return extend(Flat.ambient(arr.dim, arr.coned, gains.den), 0)


def rows(flat: Flat) -> tuple[tuple[int, ...], ...]:
    """The integer echelon rows that order the poset: the rref of ``fraction_flat``
    scaled to coprime integers."""
    n = len(flat.root)
    out = []
    for v, (r, o) in enumerate(zip(flat.root, flat.offset)):
        if r != v:
            o = Fraction(o, flat.den)
            row = [0] * (n + 1 + flat.coned)
            row[v], row[r] = o.denominator, -o.denominator
            row[n] = -o.numerator if flat.coned else o.numerator
            out.append(tuple(row))
    if flat.zero:
        out.append((0,) * n + (1, 0))
    return tuple(out)


def check_closure(poset, edges: Sequence) -> None:
    """The flats come in ``(rank, rows)`` order, their RREF is their rows
    over the pivots, and each step entry and mask bit is the answer of the
    meet it stands for."""
    keys = [(flat_rank(flat), rows(flat)) for flat in poset.flats]
    assert keys == sorted(keys) and list(poset.ranks) == [rank for rank, _ in keys]
    for flat, (_, integer_rows) in zip(poset.flats, keys):  # rref: each row over its pivot
        assert fraction_flat(flat).rref() == tuple(
            tuple(Fraction(v, next(filter(None, row))) for v in row) for row in integer_rows
        )
    index = {flat: i for i, flat in enumerate(poset.flats)}
    for i, flat in enumerate(poset.flats):
        for b, edge in enumerate(edges):
            res = flat.intersect_hyperplane(edge)
            assert (poset.masks[i] >> b & 1) == (res is flat)
            expected = i if res is flat else None if res is None else index[res]
            assert poset.steps[i][b] == expected


def reference_meet(masks: Sequence[int], ranks: Sequence[int], i: int, j: int) -> int:
    """Largest flat below both by a scan of all masks, checked for uniqueness."""
    both = masks[i] & masks[j]
    candidates = [k for k, m in enumerate(masks) if m & ~both == 0]
    best = max(candidates, key=lambda k: ranks[k])
    for k in candidates:
        if masks[k] & ~masks[best] != 0:
            raise RuntimeError("meet is not unique; poset is not a lattice here")
    return best


def flat_edges(flat: Flat) -> list:
    """The gain edges of a flat's own equations: ``x_v - x_root = offset``, then ``z = 0``."""
    edges = [(v, r, o) for v, (r, o) in enumerate(zip(flat.root, flat.offset)) if r != v]
    return edges + [None] * flat.zero


def test_flat_basics():
    amb = Flat.ambient(3)
    assert flat_rank(amb) == 0 and flat_dim(amb) == 3 and rows(amb) == ()
    f = Flat.through([(0, 1, 0), (1, 2, 0)], 3)
    assert f is not None and flat_rank(f) == 2 and flat_dim(f) == 1
    assert f.intersect_hyperplane((0, 2, 0)) is f  # x1 = x3 follows
    assert f.intersect_hyperplane((0, 2, 1)) is None  # x1 - x3 = 1 misses it
    # inconsistent system has no flat; coned, the same two meet inside z = 0
    assert Flat.through([(0, 1, 0), (0, 1, 1)], 2) is None
    meet = Flat.through([(0, 1, 0), (0, 1, 1)], 3, coned=True)
    assert meet == Flat.through([(0, 1, 0), None], 3, coned=True)
    # a merge shifts the offsets of the block that joins the larger root
    # gains over the denominator 2: x1 - x2 = 1/2, x2 - x3 = -2
    g = Flat.through([(0, 1, 1), (1, 2, -4)], 3, den=2)
    assert g.root == (2, 2, 2) and g.offset == (-3, -4, 0) and g.den == 2
    assert rows(g) == ((2, 0, -2, -3), (0, 1, -1, -2))  # 2*x1 - 2*x3 = -3, x2 - x3 = -2
    assert fraction_flat(g).rref() == ((1, 0, -1, Fraction(-3, 2)), (0, 1, -1, -2))
    assert flat_render(g, ["x1", "x2", "x3"]) == "x1 - x3 = -3/2; x2 - x3 = -2"
    assert flat_to_json(g)["rref"] == [["1/1", "0/1", "-1/1", "-3/2"], ["0/1", "1/1", "-1/1", "-2/1"]]
    # coned: offsets scale z, and z = 0 zeroes them and adds its own row
    c = Flat.through([(0, 1, 1)], 3, coned=True, den=2)
    assert flat_ambient_dim(c) == 3 and rows(c) == ((2, -2, -1, 0),)  # 2*x1 - 2*x2 - z = 0
    assert flat_render(c, ["x1", "x2", "z"]) == "x1 - x2 - 1/2*z = 0"
    collapsed = c.intersect_hyperplane(None)
    assert collapsed.zero and collapsed.offset == (0, 0) and flat_rank(collapsed) == 2
    assert rows(collapsed) == ((1, -1, 0, 0), (0, 0, 1, 0))
    assert flat_render(collapsed, ["x1", "x2", "z"]) == "x1 - x2 = 0; z = 0"
    assert collapsed.intersect_hyperplane((0, 1, 5)) is collapsed  # 5*z vanishes on z = 0
    for flat, names in ((g, ["x1", "x2", "x3"]), (c, ["x1", "x2", "z"]), (collapsed, ["x1", "x2", "z"])):
        assert_written_as_the_oracle(flat, names)


def test_flat_rref_is_canonical():
    a = Flat.through([(0, 1, 1), (1, 2, 2)], 3)
    b = Flat.through([(0, 2, 3), (1, 2, 2)], 3)
    c = Flat.through([(0, 2, 3), (0, 1, 1)], 3)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert fraction_flat(a).rref() == ((1, 0, -1, 3), (0, 1, -1, 2))
    coned = Flat.through([(1, 2, 0), None], 4, coned=True)
    assert rows(coned) == ((0, 1, -1, 0, 0), (0, 0, 0, 1, 0))
    for flat in (a, coned):  # a flat's own equations rebuild it
        assert Flat.through(flat_edges(flat), flat_ambient_dim(flat), flat.coned, flat.den) == flat
    # a flat is its five fields: a copy is equal and hashes alike, a change
    # of any one field, ``coned`` and ``den`` too, makes another flat
    for flat in (a, coned):
        assert Flat(*flat) == flat and hash(Flat(*flat)) == hash(flat)
        n = len(flat.root)
        changes = {"root": tuple(range(n)), "offset": (1,) * n, "zero": not flat.zero,
                   "coned": not flat.coned, "den": 2 * flat.den}
        assert all(flat._replace(**{field: v}) != flat for field, v in changes.items())
    # folding ``_meet`` over the edges gives the flat of ``Flat.through``, and
    # ``intersect_hyperplane`` answers the flat itself, None or a new ``Flat``
    rng = random.Random(4242)
    for _ in range(300):
        n, coned, den = rng.choice([2, 3, 4]), rng.random() < 0.5, rng.choice([1, 2, 3])
        edges = [
            None if coned and rng.random() < 0.15 else (*sorted(rng.sample(range(n), 2)), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 5))
        ]
        flat = Flat.ambient(n + coned, coned, den)
        for edge in edges:
            res = flat.intersect_hyperplane(edge)
            assert res is None or isinstance(res, Flat)
            if flat.contains(edge):
                assert res is flat
                continue
            flat = _meet(flat, edge)
            assert res == flat
            if flat is None:
                break
        assert flat == Flat.through(edges, n + coned, coned, den)


def test_poset_two_parallel_lines():
    # two parallel hyperplanes never meet: ambient + 2 flats
    arr = build_named("ish", 2)
    poset = intersection_poset(arr)
    assert len(poset) == 3
    assert poset.char_poly() == UniPoly([0, -2, 1])  # t^2 - 2t


def test_poset_coned_two_lines():
    poset = intersection_poset(cone(build_named("ish", 2)))
    assert len(poset) == 5
    top = top_index(poset)
    assert flat_rank(poset.flats[top]) == 2
    assert poset.mobius[top] == 2
    assert poset.char_poly() == UniPoly([0, 2, -3, 1])  # t(t-1)(t-2)


def test_char_poly_named_families():
    # chi = t(t - ell)^(ell-1) for both Shi and Ish
    for ell in (2, 3, 4):
        expected = UniPoly.from_roots([0] + [ell] * (ell - 1))
        assert char_poly(build_named("ish", ell)) == expected
        assert char_poly(build_named("shi", ell)) == expected
    assert char_poly(build_named("ish", 3)) == UniPoly([0, 9, -6, 1])


def test_char_poly_empty_and_coxeter():
    empty = with_edges(3, [])
    assert char_poly(empty) == UniPoly([0, 0, 0, 1])
    # braid arrangement: t(t-1)(t-2)
    assert char_poly(build_named("coxeter", 3)) == UniPoly([0, 2, -3, 1])


def test_cone_relation():
    samples = [
        build_named("ish", 2),
        build_named("ish", 3),
        build_named("shi", 3),
        build_n_ish(NestSpec.make([[0, 1], [0]])),
        build_deleted("shi", Graph.make(3, [(1, 2)])),
    ]
    for arr in samples:
        assert char_poly(cone(arr)) == char_poly(arr) * T_MINUS_ONE


def test_char_poly_at_one_vanishes_for_nonempty_central():
    for arr in (cone(build_named("ish", 3)), build_named("coxeter", 4)):
        assert char_poly(arr).evaluate(1) == 0


def test_mobius_alternates_in_sign():
    poset = intersection_poset(cone(build_named("ish", 3)))
    for flat, mu in zip(poset.flats, poset.mobius):
        assert mu != 0
        assert (mu > 0) == (flat_rank(flat) % 2 == 0)


def test_is_modular_rank_two_cone():
    # in a rank-2 lattice every flat is modular
    arr = cone(build_named("ish", 2))
    poset = intersection_poset(arr)
    for flat in poset.flats:
        assert is_modular(poset, flat)


def test_is_modular_rejects_affine():
    arr = build_named("ish", 2)
    poset = intersection_poset(arr)
    with pytest.raises(ValueError):
        is_modular(poset, poset.flats[0])


def test_modular_failure_exists_in_bad_nest():
    arr = cone(build_n_ish(NestSpec.make([[0], [1]])))
    poset = intersection_poset(arr)
    flags = [is_modular(poset, f) for f in poset.flats]
    assert not all(flags)


def test_supersolvable_examples():
    assert is_supersolvable(cone(build_named("ish", 2))) is not None
    chain = is_supersolvable(cone(build_named("ish", 3)))
    assert chain is not None
    assert [flat_rank(f) for f in chain] == [0, 1, 2, 3]
    assert is_supersolvable(cone(build_n_ish(NestSpec.make([[0], [1]])))) is None
    with pytest.raises(ValueError):
        is_supersolvable(build_named("ish", 2))


def test_supersolvable_chain_is_nested():
    chain = is_supersolvable(cone(build_named("ish", 3)))
    assert chain is not None
    for below, above in zip(chain, chain[1:]):
        # the higher flat satisfies every equation of the lower one
        for edge in flat_edges(below):
            assert above.intersect_hyperplane(edge) is above
        assert flat_rank(above) == flat_rank(below) + 1


def test_nest_modular_chain_ish():
    arr = cone(build_n_ish(NestSpec.make([[0, 1, 2], [0, 1]])))
    chain = nest_modular_chain(arr, (3, 2))
    assert [flat_rank(f) for f in chain] == [0, 1, 2, 3]
    _, edges = arr.gain_edges()
    assert [e for e in edges if chain[1].contains(e)] == [None]  # just z = 0
    assert all(chain[-1].contains(e) for e in edges) and len(edges) == 7


def test_nest_modular_chain_empty_nest():
    # x1 lies on no hyperplane, so the chain ties x2 = x3 after z = 0
    chain = nest_modular_chain(cone(build_n_ish(NestSpec.make([[], []]))), (2, 3))
    assert [flat_rank(f) for f in chain] == [0, 1, 2]
    assert chain[-1] == Flat.through([None, (1, 2, 0)], 4, coned=True)


def test_nest_modular_chain_rejects_an_order_that_is_not_descending():
    # N_3 <= N_2 only: the ascending order is (3, 2), and (2, 3) puts the
    # pair x1 - x3 = 0, x2 - x3 = 0 in one block while x1 - x2 = 1 comes first
    arr = cone(build_n_ish(NestSpec.make([[0, 1], [0]])))
    assert nest_modular_chain(arr, (3, 2))
    with pytest.raises(RuntimeError, match="meet inside no earlier"):
        nest_modular_chain(arr, (2, 3))
    # no order is a chain order of incomparable sets
    for order in ((2, 3), (3, 2)):
        with pytest.raises(RuntimeError):
            nest_modular_chain(cone(build_n_ish(NestSpec.make([[0], [1]]))), order)
    with pytest.raises(ValueError):
        nest_modular_chain(build_n_ish(NestSpec.make([[0], [0]])), (2, 3))


@pytest.mark.parametrize(
    "sets, order, message",
    [
        # the order names x2 twice, so the flat of rank 2 already ties x1 = x2
        ([[0], [0, 1]], (2, 2), "the filtration flat of rank 3 repeats the one below"),
        # x4 is never tied, so the top flat misses x1 - x4 = 0
        ([[0], [0, 1], [0, 1, 2]], (2, 3), "the top flat of the filtration misses a hyperplane"),
        # x1 - x3 = 0 is no hyperplane when N_3 is empty
        ([[0], []], (2, 3), "no hyperplane first contains the filtration flat of rank 2"),
        # N_2 and N_3 taken in the wrong order: x1 - x2 = 1 joins block 4 with x2 - x3 = 0
        ([[0, 1], [0], [0, 1, 2]], (2, 3, 4),
         r"the hyperplanes \(0, 1, 1\) and \(1, 2, 0\) of block 4 meet inside no earlier one"),
    ],
)
def test_nest_modular_chain_names_the_check_that_fails(sets, order, message):
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        nest_modular_chain(cone(build_n_ish(NestSpec.make(sets))), order)


def mask_modular_chain(arr: Arrangement, order: Sequence[int]) -> tuple[list[Flat], list[list[GainEdge]]]:
    """``nest_modular_chain`` as it stood, with its blocks: each flat's mask of
    the hyperplanes through it (``_IntGains.mask``), and each block read off
    the masks of two consecutive flats.  Raises as the chain did."""
    gains = _IntGains(arr)
    ties = [v - 1 for v in reversed(order)]
    if any(edge is not None and edge[0] == 0 for edge in gains.edges):
        ties.insert(0, 0)
    chain = [Flat.ambient(arr.dim, True, gains.den)]
    for edge in [None] + [(ties[0], v, 0) for v in ties[1:]]:
        flat = chain[-1].intersect_hyperplane(edge)
        if flat is None or flat is chain[-1]:
            raise RuntimeError(f"the filtration flat of rank {len(chain)} repeats the one below")
        chain.append(flat)
    masks = [gains.mask(flat) for flat in chain]
    if masks[-1] != gains.full:
        raise RuntimeError("the top flat of the filtration misses a hyperplane")
    blocks, earlier = [], set()
    for k in range(1, len(chain)):
        block = gains.hyperplanes(masks[k] & ~masks[k - 1])
        if not block:
            raise RuntimeError(f"no hyperplane first contains the filtration flat of rank {k}")
        pair = _unmodular_pair(block, earlier)
        if pair is not None:
            raise RuntimeError(f"the hyperplanes {pair[0]} and {pair[1]} of block {k} meet inside no earlier one")
        earlier.update(block)
        blocks.append(block)
    return chain, blocks


@st.composite
def chained_nests(draw, max_ell=6):
    """The sets of a nest that forms a chain, ell <= max_ell, in a shuffled
    order: prefixes of one list of integer and half entries, with equal
    and empty sets among them."""
    ell = draw(st.integers(2, max_ell))
    pool = draw(st.lists(st.integers(-4, 6).map(lambda n: f"{n}/2"), max_size=4, unique=True))
    return [pool[:k] for k in draw(st.lists(st.integers(0, len(pool)), min_size=ell - 1, max_size=ell - 1))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chained_nests(), st.randoms(use_true_random=False))
@example([[0, 1], [0], [0, 1, 2]], random.Random(0))
@example([[], [], [], [], []], random.Random(0))
@example([["1/2"], ["1/2", 3], ["1/2", 3, -1], ["1/2", 3, -1, "5/2"], ["1/2", 3, -1, "5/2"]], random.Random(1))
def test_nest_modular_chain_finds_the_blocks_of_the_mask_based_chain(sets, rng):
    nest = NestSpec.make(sets)
    arr, order = cone(build_n_ish(nest)), is_nest(nest)
    chain, blocks = mask_modular_chain(arr, order)
    with mock.patch.object(lattice, "_unmodular_pair", wraps=_unmodular_pair) as spy:
        assert nest_modular_chain(arr, order) == chain
    assert [call.args[0] for call in spy.call_args_list] == blocks
    # an order that is not a chain order raises, as the mask-based chain does
    shuffled = rng.sample(order, len(order))
    if not nest.chained(shuffled):
        with pytest.raises(RuntimeError) as new:
            nest_modular_chain(arr, shuffled)
        with pytest.raises(RuntimeError) as old:
            mask_modular_chain(arr, shuffled)
        assert str(new.value) == str(old.value)


def test_nest_modular_chain_random_descending():
    rng = random.Random(515253)
    universe = [Fraction(k) for k in range(-2, 4)]
    for _ in range(10):
        ell = rng.choice([2, 3, 4])
        base = {a for a in universe if rng.random() < 0.5}
        sets = []
        for _ in range(ell - 1):
            sets.append(sorted(base))
            base = {a for a in base if rng.random() < 0.7}
        nest = NestSpec.make(sets)
        arr = cone(build_n_ish(nest))
        chain = nest_modular_chain(arr, is_nest(nest))
        poset = intersection_poset(arr)
        assert [flat_rank(f) for f in chain] == list(range(poset.rank + 1))
        for below, above in zip(chain, chain[1:]):
            assert leq(poset, index_of(poset, below), index_of(poset, above))


def test_nest_modular_chain_certifies_the_cone_of_ish_at_ell_12():
    chain = nest_modular_chain(cone(build_named("ish", 12)), is_nest(ish_nest(12)))
    assert [flat_rank(f) for f in chain] == list(range(13))
    assert chain[-1].zero and len(set(chain[-1].root)) == 1


NEST_ENTRIES = st.integers(-4, 6).map(lambda n: f"{n}/2")  # integers and halves


@st.composite
def nest_backed_cones(draw, max_ell=5):
    """A coned ``n_ish``, ``deleted_ish`` or ``ish`` spec document with ell <= max_ell.

    Half of the ``n_ish`` nests are prefixes of one list of entries, so
    they form a chain in a shuffled order, with equal and empty sets among
    them; the other half are drawn set by set and rarely do.
    """
    ell = draw(st.integers(2, max_ell))
    kind = draw(st.sampled_from(("n_ish", "n_ish", "deleted_ish", "ish")))
    doc: dict = {"type": kind, "cone": True}
    if kind == "n_ish":
        size = 2 if ell == 5 else 3
        if draw(st.booleans()):
            pool = draw(st.lists(NEST_ENTRIES, max_size=size, unique_by=Fraction))
            cuts = st.integers(0, len(pool))
            doc["N"] = [pool[:k] for k in draw(st.lists(cuts, min_size=ell - 1, max_size=ell - 1))]
        else:
            one_set = st.lists(NEST_ENTRIES, max_size=size)
            doc["N"] = draw(st.lists(one_set, min_size=ell - 1, max_size=ell - 1))
    else:
        doc["ell"] = ell
        if kind == "deleted_ish":
            pairs = [[i, j] for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
            doc["edges"] = draw(st.lists(st.sampled_from(pairs), unique_by=tuple))
    return doc


@settings(max_examples=500, deadline=None, derandomize=True)
@given(nest_backed_cones())
@example({"type": "ish", "ell": 5, "cone": True})
@example({"type": "n_ish", "N": [[], [], []], "cone": True})
@example({"type": "n_ish", "N": [[0, "1/2"], [0, "1/2"], [0]], "cone": True})
@example({"type": "n_ish", "N": [[0], [1], [0, 1]], "cone": True})
def test_nest_modular_chain_matches_the_lattice_search(doc):
    parsed = from_spec(doc)
    oracle = is_supersolvable(parsed.arrangement)
    answer = json.loads(run(request_from_doc(dict(doc, command="supersolvable", format="json"))))
    assert answer["supersolvable"] == (oracle is not None)
    order = is_nest(parsed.nest)
    if order is None:
        assert verify_nonfree_witness(parsed.nest, decide_free(parsed.nest).witness)
        return
    chain = nest_modular_chain(parsed.arrangement, order)
    assert answer["chain"] == [flat_to_json(f) for f in chain]
    poset = intersection_poset(parsed.arrangement)
    assert [flat_rank(f) for f in chain] == list(range(poset.rank + 1))
    for flat in chain:
        assert is_modular(poset, flat)
    for below, above in zip(chain, chain[1:]):
        assert leq(poset, index_of(poset, below), index_of(poset, above))


def assert_search_matches_oracle(arr: Arrangement) -> None:
    """The cover search returns the oracle's chain, and each of its flats is modular."""
    chain = is_supersolvable(arr)
    assert chain == oracle_supersolvable(arr)
    if chain is not None:
        poset = intersection_poset(arr)
        assert all(is_modular(poset, flat) for flat in chain)


@pytest.mark.parametrize("kind", ["shi", "ish"])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_supersolvable_matches_the_oracle_on_every_deleted_cone(kind, ell):
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    for size in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, size):
            assert_search_matches_oracle(cone(build_deleted(kind, Graph.make(ell, list(edges)))))


@pytest.mark.parametrize("kind", ["shi", "ish", "coxeter"])
def test_supersolvable_matches_the_oracle_on_named_cones(kind):
    for ell in range(2, 6):
        assert_search_matches_oracle(cone(build_named(kind, ell)))
        if kind == "coxeter":  # central without a cone
            assert_search_matches_oracle(build_named(kind, ell))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 5).flatmap(
    lambda ell: st.lists(
        st.lists(NEST_ENTRIES.map(Fraction), max_size=2 if ell == 5 else 3),
        min_size=ell - 1,
        max_size=ell - 1,
    )
))
def test_supersolvable_matches_the_oracle_on_half_integer_nests(sets):
    assert_search_matches_oracle(cone(build_n_ish(NestSpec.make(sets))))


def block_sizes(arr: Arrangement, chain: Sequence[Flat]) -> list[int]:
    """How many hyperplanes first contain each flat of the chain above the ambient space."""
    firsts = [next(k for k, flat in enumerate(chain) if flat.contains(e)) for e in arr.gain_edges()[1]]
    return [firsts.count(k) for k in range(1, len(chain))]


def assert_climb_matches_the_poset_climb(arr: Arrangement, chi: UniPoly) -> None:
    """The same chain, or ``None``, as the poset climb; a chain's blocks are chi's roots."""
    chain = is_supersolvable(arr, chi)
    assert chain == poset_supersolvable(arr)
    if chain is not None:
        roots = nonnegative_int_roots(chi)
        assert sorted(block_sizes(arr, chain)) == [r for r in roots if r]


def deleted_shi_cone(ell: int, edges) -> tuple[Arrangement, UniPoly]:
    graph = Graph.make(ell, list(edges))
    return cone(build_deleted("shi", graph)), graph_char_poly(graph, coned=True)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_climb_matches_the_poset_climb_on_every_deleted_shi_cone(ell):
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    for size in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, size):
            assert_climb_matches_the_poset_climb(*deleted_shi_cone(ell, edges))


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_climb_matches_the_poset_climb_on_shi_and_coxeter(ell):
    for doc in (
        {"type": "shi", "ell": ell, "cone": True},
        {"type": "coxeter", "ell": ell, "cone": True},
        {"type": "coxeter", "ell": ell},  # central without a cone
    ):
        parsed = from_spec(doc)
        assert_climb_matches_the_poset_climb(parsed.arrangement, spec_char_poly(parsed))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sets(st.sampled_from([(i, j) for i in range(1, 6) for j in range(i + 1, 6)])))
@example({(1, 2), (2, 3), (3, 4), (4, 5)})
def test_climb_matches_the_poset_climb_on_deleted_shi_cones_at_ell_5(edges):
    assert_climb_matches_the_poset_climb(*deleted_shi_cone(5, sorted(edges)))


@st.composite
def graph_and_named_cones(draw, max_ell=6):
    """A spec document with ell <= max_ell: the cone of a deleted Shi or Ish
    arrangement of a random graph or of a named kind, or the braid
    arrangement without a cone."""
    ell = draw(st.integers(2, max_ell))
    kind = draw(st.sampled_from(("deleted_shi", "deleted_ish", "coxeter", "shi", "ish")))
    doc: dict = {"type": kind, "ell": ell, "cone": kind != "coxeter" or draw(st.booleans())}
    if kind.startswith("deleted"):
        pairs = [[i, j] for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        doc["edges"] = draw(st.lists(st.sampled_from(pairs), unique_by=tuple))
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph_and_named_cones())
@example({"type": "shi", "ell": 6, "cone": True})
@example({"type": "ish", "ell": 6, "cone": True})
@example({"type": "coxeter", "ell": 6, "cone": True})
@example({"type": "coxeter", "ell": 6, "cone": False})
@example({"type": "deleted_shi", "ell": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6]], "cone": True})
def test_the_climb_takes_the_chain_of_the_climb_that_sorts_every_cover(doc):
    # sorting only the covers the climb may take returns the same chain, or None
    parsed = from_spec(doc)
    arr, chi = parsed.arrangement, spec_char_poly(parsed)
    assert is_supersolvable(arr, chi) == sort_every_cover_climb(arr, chi)


def test_climb_takes_chi_from_the_poset_without_one():
    for arr, chi in (deleted_shi_cone(4, [(1, 2), (3, 4)]), deleted_shi_cone(3, [])):
        assert char_poly(arr) == chi
        assert is_supersolvable(arr) == is_supersolvable(arr, chi) == poset_supersolvable(arr)


def test_climb_answers_at_once_when_chi_does_not_split(monkeypatch):
    # the cone of Ish at ell = 2, with chi = t(t-1)(t-2), is supersolvable;
    # given a chi with a root that is not a nonnegative integer, the climb
    # answers None before it meets anything
    arr = cone(build_named("ish", 2))
    assert is_supersolvable(arr, UniPoly.from_roots([0, 1, 2])) is not None
    monkeypatch.setattr(lattice, "_meet", None)
    for chi in (UniPoly([0, 1, 0, 1]), UniPoly.from_roots([0, Fraction(1, 2), 1]),
                UniPoly.from_roots([0, -1, 3])):
        assert is_supersolvable(arr, chi) is None


def test_pair_rule_of_the_partition_test():
    meets = lattice._meets_inside
    parallel, edge, zero = (0, 1, 0), (0, 1, 1), None
    # a parallel pair, or an edge and z = 0, meets in {z = 0, x1 = x2}
    assert meets(parallel, edge, {zero})
    assert meets(parallel, edge, {(0, 1, 5)})
    assert meets(edge, zero, {parallel})
    assert not meets(parallel, edge, {(0, 2, 0), (1, 2, 0)})
    # two edges through x1 meet inside the third side, with its gain
    a, b = (0, 1, 1), (0, 2, 3)
    assert meets(a, b, {(1, 2, 2)})
    assert not meets(a, b, {(1, 2, 1), zero})
    # two disjoint edges meet inside no other hyperplane, z = 0 included
    assert not meets((0, 1, 0), (2, 3, 0), {zero, (0, 2, 0), (1, 3, 0)})


def test_an_edge_on_the_same_pair_is_the_only_cover_of_a_parallel_pair():
    # x1 - x2 = 0, z and 2z, coned without z = 0: any two meet in {z = 0,
    # x1 = x2}, which lies inside the third edge and no other hyperplane
    arr = with_edges(3, [make_hyperplane([1, -1, -c]) for c in (0, 1, 2)], coned=True)
    chain = is_supersolvable(arr)
    assert chain is not None and [flat_rank(f) for f in chain] == [0, 1, 2]
    assert not chain[1].zero and chain[2].zero
    assert_search_matches_oracle(arr)


def test_half_entry_chains_are_written_as_the_oracle_writes_them():
    # the supersolvable answer on a half-entry n_ish cone, in JSON and text
    doc = {"type": "n_ish", "N": [[0, "1/2"], ["-1/2", 0, "1/2"]], "cone": True}
    parsed = from_spec(doc)
    arr = parsed.arrangement
    assert arr.gain_edges()[0] == parsed.nest.den == 2
    oracle = [fraction_flat(f) for f in nest_modular_chain(arr, is_nest(parsed.nest))]
    answer = json.loads(run(request_from_doc(dict(doc, command="supersolvable", format="json"))))
    assert answer["chain"] == [f.to_json() for f in oracle]
    text = run(request_from_doc(dict(doc, command="supersolvable"))).splitlines()
    names = arr.var_names()
    assert text[1:] == [f"  rank {f.rank}: {f.render(names)}" for f in oracle]
    # without z = 0 the climb's chain passes through a flat with a half offset
    arr = with_edges(3, [make_hyperplane([2, -2, k]) for k in (1, 3, 5)], coned=True)  # x1 - x2 = -k/2 z
    chain, names = is_supersolvable(arr), arr.var_names()
    assert chain[1].offset == (-1, 0) and chain[1].den == 2
    assert flat_render(chain[1], names) == "x1 - x2 + 1/2*z = 0"
    for flat in chain:
        assert_written_as_the_oracle(flat, names)


def test_zaslavsky_count_matches_poset():
    # |chi(-1)| equals the chamber count; frozen expected values here
    assert abs(char_poly(build_named("ish", 3)).evaluate(-1)) == 16
    assert abs(char_poly(cone(build_named("ish", 2))).evaluate(-1)) == 6
    assert abs(char_poly(build_named("shi", 4)).evaluate(-1)) == 125


def test_poset_json_surface():
    poset = intersection_poset(cone(build_named("ish", 2)))
    data = [flat_to_json(flat) for flat in poset.flats]
    assert len(data) == 5
    ranks = [rec["rank"] for rec in data]
    assert ranks == sorted(ranks) == list(poset.ranks)
    assert poset.mobius[0] == 1
    covers = [
        (i, j)
        for j in range(len(poset))
        for i in range(j)
        if ranks[i] == ranks[j] - 1 and leq(poset, i, j)
    ]
    assert len(covers) == 3 + 3  # bottom->atoms, atoms->top


# -- differential test of the integer kernel ----------------------------

ENTRIES = [Fraction(k, 2) for k in range(-2, 5)]  # -1, -1/2, ..., 2


@st.composite
def small_arrangements(draw):
    """Nests with integer and half-integer entries, or deleted Shi/Ish
    graphs, with ell <= 4, affine or coned."""
    ell = draw(st.integers(2, 4))
    if draw(st.booleans()):
        size = 3 if ell < 4 else 2
        one_set = st.lists(st.sampled_from(ENTRIES), max_size=size)
        sets = draw(st.lists(one_set, min_size=ell - 1, max_size=ell - 1))
        arr = build_n_ish(NestSpec.make(sets))
    else:
        pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
        arr = build_deleted(draw(st.sampled_from(["shi", "ish"])), Graph.make(ell, edges))
    return cone(arr) if draw(st.booleans()) else arr


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_arrangements(), st.randoms(use_true_random=False))
# affine empty meet: x1 - x2 = 0 and x1 - x2 = 1
@example(with_edges(2, [make_hyperplane([1, -1]), make_hyperplane([1, -1], 1)]), random.Random(1))
# coned collapse: x1 - x2 = 0 and x1 - x2 = z meet in z = 0
@example(with_edges(3, [make_hyperplane([1, -1, 0]), make_hyperplane([1, -1, -1])], coned=True), random.Random(2))
# the collapse after a half-integer merge, with z = 0 last
@example(
    with_edges(
        4,
        [make_hyperplane([1, -1, 0, Fraction(-1, 2)]), make_hyperplane([0, 1, -1, 0]),
         make_hyperplane([1, 0, -1, 0]), make_hyperplane([0, 0, 0, 1])],
        coned=True,
    ),
    random.Random(3),
)
def test_integer_kernel_matches_rational_reference(arr, rng):
    assert arr.gain_edges() == lcm_scaled(fraction_gain_edges(arr))
    poset = intersection_poset(arr)
    check_closure(poset, arr.gain_edges()[1])
    names = arr.var_names()
    for flat in poset.flats:
        assert_written_as_the_oracle(flat, names)
    ref_flats, ref_masks, ref_mobius = reference_poset(arr)
    ref_chi = chi_of(arr.dim, [len(rows) for rows in ref_flats], ref_mobius)
    assert char_poly(arr) == poset.char_poly() == ref_chi  # the slim closure, the full one
    rref = [fraction_flat(flat).rref() for flat in poset.flats]
    assert sorted(rref, key=lambda rows: (len(rows), rows)) == ref_flats
    ref_of = {rows: k for k, rows in enumerate(ref_flats)}
    for i, rows in enumerate(rref):
        assert poset.masks[i] == ref_masks[ref_of[rows]]
        assert poset.mobius[i] == ref_mobius[ref_of[rows]]

    n = len(poset)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for i, j in rng.sample(pairs, min(len(pairs), 60)):
        union, ok = _rref(rref[i] + rref[j], arr.dim + 1)
        if ok:
            assert rref[join_index(poset, i, j)] == union
        else:
            with pytest.raises(ValueError):
                join_index(poset, i, j)
        assert meet_index(poset, i, j) == reference_meet(poset.masks, poset.ranks, i, j)


# -- the chain writer of the supersolvable answer ----------------------


@st.composite
def modular_chains(draw):
    """``(chain, names)``: a modular chain and the variable names of its arrangement.

    The chain comes from ``nest_modular_chain`` on the cone of a chained
    nest with integer and half entries, some or all of its sets empty, or
    from ``is_supersolvable`` on a Coxeter, Shi or deleted-Shi cone, on a
    central affine spec (no ``z`` column), or on a cone of gain edges over
    ``den`` 1 or 2 without ``z = 0``, whose chains can pass through a flat
    with offsets before ``z = 0`` zeroes them.
    """
    route = draw(st.sampled_from(("nest", "cone", "central affine", "no z = 0")))
    if route == "nest":
        ell = draw(st.integers(2, 5))
        pool = draw(st.lists(NEST_ENTRIES, max_size=2 if ell == 5 else 3, unique_by=Fraction))
        cuts = draw(st.lists(st.integers(0, len(pool)), min_size=ell - 1, max_size=ell - 1))
        nest = NestSpec.make([pool[:k] for k in cuts])
        arr = cone(build_n_ish(nest))
        return nest_modular_chain(arr, is_nest(nest)), arr.var_names()
    if route == "no z = 0":
        n, den = draw(st.integers(2, 3)), draw(st.sampled_from((1, 2)))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(-3, 3)), min_size=1, max_size=4))
        planes = []
        for (i, j), c in edges:
            form = [0] * (n + 1)
            form[i], form[j], form[n] = 1, -1, Fraction(-c, den)
            planes.append(make_hyperplane(form))
        arr = with_edges(n + 1, planes, coned=True)
        chain = is_supersolvable(arr)
    else:
        ell = draw(st.integers(2, 5))
        if route == "cone":
            kind = draw(st.sampled_from(("coxeter", "shi", "deleted_shi")))
            doc: dict = {"type": kind, "ell": ell, "cone": True}
            if kind == "deleted_shi":
                pairs = [[i, j] for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
                doc["edges"] = draw(st.lists(st.sampled_from(pairs), unique_by=tuple))
        else:
            kind = draw(st.sampled_from(("coxeter", "deleted_ish", "n_ish")))
            doc = {"type": kind, "ell": ell}
            if kind == "n_ish":  # every gain 0
                del doc["ell"]
                doc["N"] = draw(st.lists(st.sampled_from(([], [0])), min_size=ell - 1, max_size=ell - 1))
        parsed = from_spec(doc)
        arr = parsed.arrangement
        chain = is_supersolvable(arr, spec_char_poly(parsed))
    assume(chain is not None)
    return chain, arr.var_names()


def _chain_of(arr: Arrangement) -> tuple[list[Flat], list[str]]:
    return is_supersolvable(arr), arr.var_names()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(modular_chains())
@example(_chain_of(cone(build_n_ish(NestSpec.make([[], [], []])))))
@example(_chain_of(build_named("coxeter", 4)))
# x1 - x2 = -1/2 z, then z = 0: the one pair of coordinates with two offsets
@example(_chain_of(with_edges(3, [make_hyperplane([2, -2, k]) for k in (1, 3, 5)], coned=True)))
def test_the_chain_writer_writes_the_oracle_records_and_lines(case):
    chain, names = case
    records = [flat_to_json(flat) for flat in chain]
    assert _render(partial(_flat_records, chain)) == json.dumps(records, indent=2, sort_keys=True)
    answer = {"supersolvable": True, "chain": partial(_flat_records, chain)}
    assert _render({"answer": answer}) == json.dumps(
        {"answer": dict(answer, chain=records)}, indent=2, sort_keys=True
    )
    assert _chain_lines(chain, names) == [f"  rank {flat_rank(flat)}: {flat_render(flat, names)}" for flat in chain]


FIVE_CONES = [
    cone(build_named("shi", 5)),
    cone(build_named("ish", 5)),
    cone(build_named("coxeter", 5)),
    cone(build_n_ish(NestSpec.make(
        [[0, Fraction(1, 2)], [Fraction(-1, 2), 1, 2], [Fraction(3, 2)], [0, 1]]
    ))),
]


@pytest.mark.parametrize("arr", FIVE_CONES, ids=["shi", "ish", "coxeter", "half-nest"])
def test_steps_and_mobius_on_five_cones(arr):
    # beyond the ell <= 4 of the hypothesis strategy: the step entries the
    # closure fills from a cover, and Weisner's Moebius values, against
    # the meets and the sum over every lower flat; chi of the slim closure
    # against the full one and the rational reference
    assert arr.gain_edges() == lcm_scaled(fraction_gain_edges(arr))
    poset = intersection_poset(arr)
    check_closure(poset, arr.gain_edges()[1])
    names = arr.var_names()
    for flat in poset.flats:
        assert_written_as_the_oracle(flat, names)
    assert list(poset.mobius) == scan_mobius(poset.masks, poset.ranks)
    ref_flats, _, ref_mobius = reference_poset(arr)
    ref_chi = chi_of(arr.dim, [len(rows) for rows in ref_flats], ref_mobius)
    assert char_poly(arr) == poset.char_poly() == ref_chi


def test_traced_methods_are_defined_on_their_classes():
    # perfbench/tracing.py wraps these two methods where their classes
    # define them; without either, ``perfbench/run.py --trace 1`` breaks.
    assert "intersect_hyperplane" in vars(lattice.Flat)
    assert "__mul__" in vars(exactmath.MultiPoly)
