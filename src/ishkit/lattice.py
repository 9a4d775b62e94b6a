"""Flats, Moebius values, characteristic polynomials, modular chains.

Every arrangement here is a difference arrangement: its hyperplanes are
``x_i - x_j = c``, and when coned ``x_i - x_j = c*z`` plus ``z = 0``,
read as gain-graph edges by ``Arrangement.gain_edges``: an ``int`` gain
per edge over one denominator ``den`` for the arrangement.  A flat of
such an arrangement is a partition of the coordinates with one offset
per coordinate (Zaslavsky, *Biased graphs* I and II): ``x_v = x_root +
offset[v]/den``, times ``z`` when coned, where the root is the largest
coordinate of v's block and ``offset[v]`` an ``int``.  A coned flat may
also lie inside ``z = 0``, and then every offset is 0.  Meeting a
hyperplane (``_meet``) merges two blocks with an offset shift, changes
nothing, or meets a conflict: an empty intersection when affine, the
collapse to ``z = 0`` when coned.  No elimination and no gcd is needed,
and the fields are canonical, so a flat is one tuple, ``Flat``, that
the closure, the climb and the filtration hash and compare as it is.

A flat's reduced row echelon form comes in closed form:
``x_v - x_root = p/q`` (coned: ``x_v - x_root - (p/q)*z = 0``) for each
coordinate v off its root, with ``p/q`` the reduced ``offset[v]/den``,
then ``z = 0``.  The ``supersolvable`` answer writes these rows straight
from the integers of its chain's flats (``cli._chain_rows``), each
distinct row once per answer, and ``exactmath`` writes every rational
and equation in them (``format_rational``, ``equation_str``).  Scaled
to coprime integers, ``q*x_v - q*x_root = p``, the same rows make the
sort key (``Flat.key``) that orders the covers of the supersolvability
climb.

Flats are ordered by reverse inclusion, the whole space at the bottom.
A flat is the intersection of the hyperplanes through it, so its mask
of those hyperplanes (``_IntGains.mask``) encodes it faithfully, and
mask containment decides the order.  ``char_poly`` is the Moebius route
to the characteristic polynomial ``sum mu(X) t^dim(X)``, good for any
difference arrangement: one closure that meets a flat once per upper
cover and takes mu from the lower covers by Weisner's theorem.  The
``charpoly`` command and the subgraph survey take chi from rook numbers
instead (``ishkit.rooks``); this route is kept as the oracle they are
tested against.

Both routes to supersolvability rest on one block test
(``_unmodular_pair``), the partition test of Bjoerner-Edelman-Ziegler
read pair by pair (``_meets_inside``): two hyperplanes meet inside
``z = 0`` or an edge on their coordinate pair when they are parallel or
one is ``z = 0``, inside the third side of their triangle when they
share a vertex, and inside no other hyperplane when they are disjoint.
The cone of a nested arrangement needs no closure and no mask:
``nest_modular_chain`` builds the modular chain of the paper's
filtration from the chain order of its sets, puts each hyperplane in its
block in one pass over the gain edges, and certifies the chain by that
test.  The ``supersolvable`` command answers nest-backed cones that
way.  ``is_supersolvable`` serves Coxeter, Shi and deleted-Shi cones and
central specs that are not coned, and is the oracle the filtration is
tested against.  It needs no closure
either: it reads the roots of chi, which for a supersolvable arrangement
are the block sizes of every modular chain, answers at once when they
are not all nonnegative integers, and otherwise climbs by covers it
makes as it goes, keeping only those that pass the block test with a
block size among the roots left.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .arrangement import Arrangement, GainEdge
from .exactmath import UniPoly, nonnegative_int_roots, reduced


class Flat(NamedTuple):
    """A nonempty flat of a difference arrangement, as a gain-graph partition.

    ``root[v]`` is the largest coordinate of v's block and
    ``x_v = x_root + offset[v]/den`` (times ``z`` when ``coned``), with
    ``den`` the denominator of the arrangement's gain edges.  ``zero``
    marks a coned flat inside ``z = 0``, whose offsets are all 0.  Two
    flats are equal, and hash alike, when all five fields agree.
    """

    root: tuple[int, ...]
    offset: tuple[int, ...]
    zero: bool
    coned: bool
    den: int

    @staticmethod
    def ambient(dim: int, coned: bool = False, den: int = 1) -> "Flat":
        n = dim - coned
        return Flat(tuple(range(n)), (0,) * n, False, coned, den)

    @staticmethod
    def through(edges: Iterable[GainEdge], dim: int, coned: bool = False, den: int = 1) -> "Flat | None":
        """The intersection of the hyperplanes with these gain edges over ``den``; ``None`` if empty."""
        flat = Flat.ambient(dim, coned, den)
        for edge in edges:
            flat = flat.intersect_hyperplane(edge)
            if flat is None:
                return None
        return flat

    def contains(self, edge: GainEdge) -> bool:
        """Does the hyperplane of a gain edge (``None`` is ``z = 0``) contain the flat?"""
        if edge is None:
            return self.zero
        i, j, c = edge
        return self.root[i] == self.root[j] and (self.zero or self.offset[i] - self.offset[j] == c)

    def intersect_hyperplane(self, edge: GainEdge) -> "Flat | None":
        """Intersect with the hyperplane of a gain edge (``None`` is ``z = 0``).

        Returns the flat itself when the hyperplane already contains it,
        ``None`` when the intersection is empty, and the new ``Flat``
        otherwise: two blocks merged, or the collapse to ``z = 0``.
        """
        return self if self.contains(edge) else _meet(self, edge)

    def key(self) -> tuple:
        """``(rank, rows)``, each integer row ``q*x_v - q*x_r = +-p`` of the module
        docstring as ``(-v, q, r, +-p)``, which compare as the rows do (r > v); the
        ``z = 0`` row, zero before n, sorts below them all as ``(-n,)``."""
        den, sign = self.den, -1 if self.coned else 1
        rows = [(-v, q, r, sign * p) for v, (r, o) in enumerate(zip(self.root, self.offset)) if r != v
                for p, q in [reduced(o, den)]]
        if self.zero:
            rows.append((-len(self.root),))
        return len(rows), tuple(rows)


_new = tuple.__new__


def _meet(flat: Flat, edge: GainEdge) -> Flat | None:
    """``flat`` met with the hyperplane of a gain edge off it; ``None`` if they do not meet.

    The two blocks of the edge merge.  When the edge lies on one block,
    the flat collapses to ``z = 0`` (coned) or misses the hyperplane
    (affine); ``z = 0`` itself collapses any flat off it.  ``_new`` makes
    the flat without the Python-level call of ``Flat.__new__``.
    """
    root, offset, zero, coned, den = flat
    if edge is not None:
        i, j, c = edge
        ri, rj = root[i], root[j]
        if ri != rj:  # the block of the smaller root joins the other
            d = 0 if zero else c - offset[i] + offset[j]  # x_ri - x_rj = d
            if ri > rj:
                ri, rj, d = rj, ri, -d
            offset = tuple([o + d if r == ri else o for r, o in zip(root, offset)])
            root = tuple([rj if r == ri else r for r in root])
            return _new(Flat, (root, offset, zero, coned, den))
        if not coned:  # parallel to the flat
            return None
    return _new(Flat, (root, (0,) * len(root), True, coned, den))


class _IntGains:
    """What a ``Flat`` cannot know of its arrangement: the gain edges over
    the one denominator ``den``, their full mask, and which contain a flat."""

    def __init__(self, arr: Arrangement) -> None:
        self.den, self.edges = arr.gain_edges()
        self.full = (1 << len(self.edges)) - 1
        self._edge_bits = [(1 << bit, *edge) for bit, edge in enumerate(self.edges) if edge is not None]
        self._zero_bits = sum(1 << bit for bit, edge in enumerate(self.edges) if edge is None)

    def mask(self, flat: Flat) -> int:
        """Bit ``b`` is set when hyperplane ``b`` contains the flat."""
        root, offset, zero, _, _ = flat
        mask = self._zero_bits if zero else 0
        for bit, i, j, c in self._edge_bits:
            if root[i] == root[j] and (zero or offset[i] - offset[j] == c):
                mask |= bit
        return mask

    def hyperplanes(self, mask: int) -> list[GainEdge]:
        """The gain edges of the hyperplanes in ``mask``, in order."""
        return [edge for bit, edge in enumerate(self.edges) if mask >> bit & 1]


def char_poly(arr: Arrangement) -> UniPoly:
    """Characteristic polynomial via the Moebius sum over all flats.

    The oracle for ``rooks``, which gets the same polynomial of every
    spec kind from a rook board without generating a flat.

    The closure generates every flat from the ambient space along its
    covers by ``_meet``, and computes a flat's mask (``_IntGains.mask``)
    when it first finds the flat.  The flat Y in which a flat X meets a
    hyperplane off X covers X, and X meets every hyperplane of ``mask(Y)``
    outside ``mask(X)`` in the same Y, so the closure meets once per cover
    pair, and Y's rank is X's plus one.  It walks the flats breadth first,
    in ranks that never decrease, so it has found every lower cover of X
    when it reaches X.  The interval from the ambient space to X is a
    geometric lattice whose atoms are the hyperplanes through X, so
    Weisner's theorem gives ``mu(X) = -sum mu(Y)`` over the lower covers
    Y of X that some fixed hyperplane a through X does not contain
    (Stanley, *EC1*, Cor. 3.9.3), and ``mu(X)`` goes straight into the
    coefficient of ``t^dim(X)``.
    """
    gains = _IntGains(arr)
    edges = gains.edges
    flats = [Flat.ambient(arr.dim, arr.coned, gains.den)]
    index = {flats[0]: 0}
    masks, ranks, covers = [0], [0], [[]]
    mobius: list[int] = []
    coeffs = [0] * (arr.dim + 1)
    for x, flat in enumerate(flats):  # grows while it is walked
        mask = masks[x]
        if mask:  # Weisner's theorem, with a the first hyperplane through x
            a = mask & -mask
            mu = -sum([mobius[y] for y in covers[x] if not masks[y] & a])
        else:
            mu = 1
        mobius.append(mu)
        coeffs[arr.dim - ranks[x]] += mu
        todo = gains.full & ~mask
        while todo:
            bit = (todo & -todo).bit_length() - 1
            meet = _meet(flat, edges[bit])
            if meet is None:
                todo ^= 1 << bit
                continue
            y = index.get(meet)
            if y is None:
                y = index[meet] = len(flats)
                flats.append(meet)
                masks.append(gains.mask(meet))
                ranks.append(ranks[x] + 1)
                covers.append([])
            covers[y].append(x)
            todo &= ~masks[y]
    return UniPoly(coeffs)


def is_supersolvable(arr: Arrangement, chi: UniPoly | None = None) -> list[Flat] | None:
    """The first maximal chain of modular flats in sort-key order, bottom to top.

    Returns the chain when the arrangement is supersolvable, otherwise
    ``None``.  Central arrangements only.  ``chi`` is the characteristic
    polynomial of ``arr``; without it, ``char_poly`` computes it.

    A modular maximal chain splits the hyperplanes into blocks, each
    hyperplane in the block of the first flat of the chain that contains
    it, and the block sizes are the nonzero roots of chi (Stanley,
    *Supersolvable lattices*, 1972; Bjoerner-Edelman-Ziegler, DCG 1990,
    Thm 4.3).  So when chi has a root that is not a nonnegative integer,
    the answer is ``None`` at once.

    Otherwise the search climbs from the ambient space through upper
    covers, in sort-key order, making each flat's covers as it reaches the
    flat: it meets X with a hyperplane off X and drops the hyperplanes of
    the cover Y found from those still to meet.  It takes Y when X is a
    modular coatom of the interval below Y: every two hyperplanes through
    Y but not X meet inside a hyperplane through X (``_unmodular_pair``).
    An element modular inside a modular element is modular in the whole
    lattice (Stanley, 1972), and the center is modular, so a chain that
    passes every step up to the center is a chain of modular flats, and
    every such chain passes every step.  Each step's block size must also
    be one of the roots not yet used, which prunes the covers that no
    modular chain takes.  Below a cover Y that passed its steps, the
    chain is a modular chain of the interval below Y, so the roots used
    are the nonzero roots of chi of the localization at Y, and those left
    depend on Y alone.  Whether a cover completes then does not depend on
    the flat below it, so a cover that passed a step and had no
    completion is never tried again.

    Only the covers it may take are sorted: those whose block size is
    among the roots left and that are not dead.  The first chain found
    stays the same.  The kept covers keep their relative order, and a
    cover dropped up front would be skipped at its turn all the same:
    a failed attempt restores ``left``, and an attempt at Y adds to
    ``dead`` only flats of Y's rank or higher, Y among them, never
    another cover of X.
    """
    if not arr.is_central:
        raise ValueError("supersolvability test needs a central arrangement")
    roots = nonnegative_int_roots(char_poly(arr) if chi is None else chi)
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
        while todo:  # central, so every meet is a flat
            y = _meet(x, edges[(todo & -todo).bit_length() - 1])
            covers[y] = gains.mask(y)
            todo &= ~covers[y]
        takeable = [y for y, m in covers.items() if left[(m & ~mask).bit_count()] and y not in dead]
        earlier = set(gains.hyperplanes(mask))
        for y in sorted(takeable, key=Flat.key):
            block = covers[y] & ~mask
            size = block.bit_count()
            if _unmodular_pair(gains.hyperplanes(block), earlier) is None:
                left[size] -= 1
                rest = extend(y, covers[y])
                if rest is not None:
                    return [x] + rest
                left[size] += 1
                dead.add(y)
        return None

    return extend(Flat.ambient(arr.dim, arr.coned, gains.den), 0)


def nest_modular_chain(arr: Arrangement, order: Sequence[int]) -> list[Flat]:
    """The modular chain of the paper's filtration of a coned nested arrangement.

    ``arr`` is the cone of a nested arrangement (``ish``, ``n_ish`` or
    ``deleted_ish``) and ``order`` lists its sets ascending,
    ``N_w(2) <= ... <= N_w(ell)``, the ``order`` of ``freeness.decide_free``.  The
    sets are taken descending, ``v = reversed(w)``, and the chain runs
    through the ambient space, ``z = 0`` and ``{z = 0, x1 = x_v(2) = ... =
    x_v(i)}``.  When every set is empty, ``x1`` lies on no hyperplane and
    the chain ties ``x_v(2) = ... = x_v(i)`` instead.  Each flat is built in
    closed form: above the ambient space it lies in ``z = 0`` with every
    offset 0, and the tied block's root is its largest coordinate.  A tie
    of a coordinate already in the block repeats the flat below.

    The chain is certified on every call by the partition test of
    Bjoerner-Edelman-Ziegler (DCG 1990, Thm 4.3): one pass over the gain
    edges puts each hyperplane in the block of the first flat of the chain
    that it contains (``Flat.contains``), and the top flat must lie in
    every hyperplane; every flat above the ambient space opens a nonempty
    block, and any two hyperplanes of one block meet inside a hyperplane
    of an earlier block (``_unmodular_pair``).  No mask of a flat is made.
    A chain that fails any check raises ``RuntimeError``: the order was
    not a chain order of these sets.
    """
    if not arr.coned:
        raise ValueError("the nest filtration is built for coned arrangements")
    den, edges = arr.gain_edges()
    ties = [v - 1 for v in reversed(order)]  # 0-based coordinates, sets descending
    if any(edge is not None and edge[0] == 0 for edge in edges):  # some set is nonempty
        ties.insert(0, 0)
    n = arr.dim - 1
    root, zeros = list(range(n)), (0,) * n
    chain = [Flat.ambient(arr.dim, True, den), _new(Flat, (tuple(root), zeros, True, True, den))]
    tied = ties[:1]
    for v in ties[1:]:  # every member's root is the tied block's largest coordinate
        if v in tied:
            raise RuntimeError(f"the filtration flat of rank {len(chain)} repeats the one below")
        tied.append(v)
        top = max(tied)
        for u in tied:
            root[u] = top
        chain.append(_new(Flat, (tuple(root), zeros, True, True, den)))
    blocks = [(flat.contains, []) for flat in chain[1:]]  # the ambient space lies in no hyperplane
    for edge in edges:  # into the block of the first flat inside its hyperplane
        for contains, block in blocks:
            if contains(edge):
                block.append(edge)
                break
        else:
            raise RuntimeError("the top flat of the filtration misses a hyperplane")
    earlier: set[GainEdge] = set()
    for k, (_, block) in enumerate(blocks, start=1):
        if not block:
            raise RuntimeError(f"no hyperplane first contains the filtration flat of rank {k}")
        pair = _unmodular_pair(block, earlier)
        if pair is not None:
            raise RuntimeError(
                f"the hyperplanes {pair[0]} and {pair[1]} of block {k} meet inside no earlier one"
            )
        earlier.update(block)
    return chain


def _unmodular_pair(block: list[GainEdge], earlier: set[GainEdge]) -> tuple[GainEdge, GainEdge] | None:
    """The first two hyperplanes of ``block`` that meet inside none of ``earlier``, or ``None``:
    one step of the partition test, ``earlier`` being the hyperplanes through the lower flat."""
    for k, a in enumerate(block):
        for b in block[k + 1 :]:
            if not _meets_inside(a, b, earlier):
                return a, b
    return None


def _meets_inside(a: GainEdge, b: GainEdge, earlier: set[GainEdge]) -> bool:
    """Do two distinct hyperplanes of a difference arrangement meet inside one of ``earlier``?

    ``earlier`` holds neither ``a`` nor ``b``.  A parallel pair, or an
    edge and ``z = 0``, meets in ``{z = 0, x_i = x_j}``, which lies inside
    ``z = 0`` and inside every edge on the coordinate pair ``(i, j)``.  Two
    edges through one vertex meet inside the third side of their triangle
    and no other hyperplane; two disjoint edges meet inside none.
    """
    if a is None or b is None or a[:2] == b[:2]:
        pair = (b if a is None else a)[:2]
        return None in earlier or any(e is not None and e[:2] == pair for e in earlier)
    third = _third_side(a, b)
    return third is not None and third in earlier


def _third_side(a: tuple[int, int, int], b: tuple[int, int, int]) -> GainEdge:
    """The gain edge closing the triangle of two edges through one vertex.

    With the shared vertex ``s``, ``x_s - x_u = g`` and ``x_s - x_w = h``
    give ``x_u - x_w = h - g``, the one difference hyperplane other than
    ``a`` and ``b`` that contains their meet.  ``None`` when the edges share
    no vertex.
    """
    (i, j, c), (p, q, d) = a, b
    if i == p:
        u, g, w, h = j, c, q, d
    elif i == q:
        u, g, w, h = j, c, p, -d
    elif j == p:
        u, g, w, h = i, -c, q, d
    elif j == q:
        u, g, w, h = i, -c, p, -d
    else:
        return None
    return (u, w, h - g) if u < w else (w, u, g - h)
