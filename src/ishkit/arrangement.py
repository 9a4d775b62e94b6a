"""Hyperplane arrangements: construction, coning, JSON specs.

A hyperplane is stored in a normalized integer form: the equation
``sum(c_i * x_i) = const`` is scaled so that the coefficients and the
constant are coprime integers and the first nonzero coefficient is
positive.  Two hyperplanes are equal exactly when they are the same
point set, so arrangements deduplicate silently while preserving the
order of first appearance.  The hyperplane order of an ``Arrangement``
is part of its contract: chamber sign vectors index into it.

Builders cover the named families (braid/Coxeter, Shi, Ish), the
nested family driven by a tuple of rational sets, the graph-deleted
Shi and Ish variants, and the cone construction.  Coning prepends the
new hyperplane ``z = 0`` and homogenizes every ``alpha = c`` to
``alpha - c*z = 0``; the extra variable ``z`` is always last.

A nest is held in integers from parsing on: one positive denominator
``den``, the lcm of the entries' reduced denominators, and per set the
sorted tuple of numerators over it (``NestSpec``).  A graph is held the
same way: ``Graph.make`` sorts its edges once, into a duplicate-free tuple
that every reader takes as it is, and ``Graph.in_masks`` derives its
in-neighbour table.

Every spec is a difference arrangement, and an ``Arrangement`` is its
gain-graph edges (Zaslavsky, Biased graphs I-II): ``(den, edges)``, an
``int`` gain ``c`` per hyperplane ``x_i - x_j = c/den``, in the order
README states.  ``den`` is the nest's ``den`` divided by its gcd with
every numerator (the lcm of the entries' reduced denominators), and 1
for graph and named specs; ``cone`` puts ``None``, the edge of ``z = 0``,
first, and ``deletion`` drops one edge.  ``is_central`` reads the edges,
so ``supersolvable`` derives no hyperplane.  The hyperplanes are derived
on each read, from ``_diff_form``, ``q x_i - q x_j - p z`` with ``p/q``
the reduced ``c/den``, already normalized; only the chamber of a point
and the general Saito route read them.  ``freeness``'s derivation bases
hold the gain edges themselves as their factors.

``from_spec`` reads a JSON spec into a ``ParsedSpec``, a record of the
spec's fields and its nest or graph, and raises every spec error while
parsing.  Nothing is cached: the arrangement is built on each read.
Nothing here writes JSON: ``cli._request_echo``, the inverse of
``from_spec``, writes the canonical spec from the record's integers, and
``cli._json_sets`` and ``cli._json_edges`` write a nest's sets and a
graph's edges wherever an answer holds them.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import CapacityError
from .exactmath import (
    Scalar,
    _shown,
    default_names,
    parse_rational_pair,
    rational_str,
    reduced,
)


class Hyperplane(NamedTuple):
    """The affine hyperplane ``sum(coeffs[i] * x_{i+1}) = const``."""

    coeffs: tuple[int, ...]
    const: int

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def eval_at(self, point: Sequence[int], den: int = 1) -> int:
        """The form ``sum(c_i x_i) - const`` at ``point / den``, times ``den``.

        ``point`` holds integers (homogeneous coordinates with the positive
        common denominator ``den``), so the value is one integer dot
        product and its sign is the side of the hyperplane.
        """
        if len(point) != self.dim:
            raise ValueError("point has wrong dimension")
        return sum(map(mul, self.coeffs, point)) - self.const * den


GainEdge = tuple[int, int, int] | None  # see Arrangement.gain_edges


class Arrangement:
    """An ordered, duplicate-free arrangement of difference hyperplanes in
    R^dim: its gain edges ``edges`` over ``den`` (see ``gain_edges``).  A
    repeated edge keeps its first place."""

    __slots__ = ("dim", "coned", "den", "edges")

    def __init__(self, dim: int, den: int, edges: Iterable[GainEdge], coned: bool = False) -> None:
        self.dim = dim
        self.coned = coned
        self.den = den
        self.edges: tuple[GainEdge, ...] = tuple(dict.fromkeys(edges))

    @property
    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """The hyperplanes in order, derived on each read: each edge's
        normalized form (``_diff_form``), and the unit form for ``z = 0``."""
        ell = self.dim - self.coned
        forms = [_diff_form(ell, e[0] + 1, e[1] + 1, e[2], self.den) if e else (0,) * ell + (1,) for e in self.edges]
        # a coned form keeps its column z; an affine one moves it to the constant
        return tuple(Hyperplane(f[:self.dim], 0 if self.coned else -f[ell]) for f in forms)

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_central(self) -> bool:
        """True when every hyperplane passes through the origin: when the
        arrangement is coned or every gain is 0."""
        return self.coned or not any(c for _, _, c in self.edges)

    def var_names(self) -> list[str]:
        return default_names(self.dim, coned=self.coned)

    def gain_edges(self) -> tuple[int, list[GainEdge]]:
        """The hyperplanes as gain-graph edges over one denominator, in hyperplane order.

        Returns ``(den, edges)``, ``edges`` a fresh list.  The edge
        ``(i, j, c)``, with 0-based coordinates ``i < j``, is the hyperplane
        ``x_{i+1} - x_{j+1} = c/den``, or ``= (c/den)*z`` when the arrangement
        is coned; ``None`` marks ``z = 0``.  ``c`` is an ``int``, and the
        builders' ``den`` is the lcm of the leading coefficients of the
        normalized forms.
        """
        return self.den, list(self.edges)


class NestSpec(NamedTuple):
    """Rational sets ``N_2, ..., N_ell`` driving the nested-Ish family.

    The entries are held over one positive denominator ``den``, the lcm of
    their reduced denominators: ``nums[j - 2]`` is the sorted tuple of the
    numerators of ``N_j``, so an entry ``a`` is ``a / den``, and comparing
    or hashing entries is comparing ``int``s.
    """

    ell: int
    den: int
    nums: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(sets: Sequence[Sequence[Scalar | str]]) -> "NestSpec":
        """Read the sets from a list of lists of rationals (see ``parse_rational_pair``)."""
        if not isinstance(sets, (list, tuple)) or not all(isinstance(s, (list, tuple)) for s in sets):
            raise ValueError("'N' must be a list of lists of rationals")
        pairs = [[parse_rational_pair(a) for a in s] for s in sets]
        den = lcm(*(q for s in pairs for _, q in s))
        nums = tuple(tuple(sorted({p * (den // q) for p, q in s})) for s in pairs)
        ell = len(nums) + 1
        if ell < 2:
            raise ValueError("a nest spec needs at least the set N_2")
        return NestSpec(ell, den, nums)

    def set_at(self, j: int) -> tuple[int, ...]:
        """The numerators of N_j over ``den``, for an index 2 <= j <= ell."""
        if not 2 <= j <= self.ell:
            raise ValueError(f"index {j} out of range 2..{self.ell}")
        return self.nums[j - 2]

    def reordered(self, order: Sequence[int]) -> "NestSpec":
        """Relabel: position k takes the original set N_{order[k]}."""
        if sorted(order) != list(range(2, self.ell + 1)):
            raise ValueError("order must be a permutation of 2..ell")
        return NestSpec(self.ell, self.den, tuple(self.nums[j - 2] for j in order))

    def chained(self, order: Sequence[int]) -> bool:
        """True when ``N_{order[0]} <= N_{order[1]} <= ...``, for indices in 2..ell."""
        nums = self.nums
        return all(set(nums[a - 2]).issubset(nums[b - 2]) for a, b in zip(order, order[1:]))

    def is_descending(self) -> bool:
        return self.chained(range(self.ell, 1, -1))

    def is_ascending(self) -> bool:
        return self.chained(range(2, self.ell + 1))

    def __str__(self) -> str:
        den = self.den
        body = ", ".join("{" + ", ".join(rational_str(a, den) for a in s) + "}" for s in self.nums)
        return f"({body})"


class Graph(NamedTuple):
    """A simple graph on vertices 1..ell with edges (i, j), i < j.

    ``edges`` is the sorted, duplicate-free tuple that ``make`` builds once,
    as ``NestSpec.nums`` is built: every reader takes the edges in that
    order, and ``in_masks`` derives the in-neighbour table from them.
    """

    ell: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def make(ell: int, edges: Iterable[Sequence[int]]) -> "Graph":
        if ell < 2:
            raise ValueError("graphs need at least 2 vertices")
        cleaned = set()
        for e in edges:
            if not (
                isinstance(e, (list, tuple))
                and len(e) == 2
                and isinstance(e[0], int)
                and isinstance(e[1], int)
                and not isinstance(e[0], bool)
                and not isinstance(e[1], bool)
            ):
                raise ValueError(f"edge {_shown(e)} is not a pair of integers")
            i, j = e
            if not 1 <= i < j <= ell:
                raise ValueError(f"edge {_shown((i, j))} is not a pair 1 <= i < j <= {_shown(ell)}")
            cleaned.add((i, j))
        return Graph(ell, tuple(sorted(cleaned)))

    @staticmethod
    def complete(ell: int) -> "Graph":
        if ell < 2:
            raise ValueError("graphs need at least 2 vertices")
        return Graph(ell, tuple((i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(self.edges)

    def in_masks(self) -> list[int]:
        """The in-neighbour sets as masks: bit i of ``ins[j]`` for each edge (i, j)."""
        ins = [0] * (self.ell + 1)
        for i, j in self.edges:
            ins[j] |= 1 << i
        return ins


def _diff_form(ell: int, i: int, j: int, num: int = 0, den: int = 1) -> tuple[int, ...]:
    """The coned form of ``x_i - x_j = num/den`` (``i < j``, ``den > 0``), normalized.

    ``q x_i - q x_j - p z`` over ``x1..x_ell, z``, with ``p/q`` the reduced
    ``num/den``: the hyperplane of a gain edge.
    """
    p, q = reduced(num, den)
    form = [0] * (ell + 1)
    form[i - 1], form[j - 1], form[ell] = q, -q, -p
    return tuple(form)


NAMED_KINDS = ("coxeter", "shi", "ish")


def build_named(kind: str, ell: int) -> Arrangement:
    """The braid arrangement and its Shi and Ish extensions on 1..ell: the
    deleted Shi of the empty graph, and Shi and Ish of the complete graph."""
    if ell < 2:
        raise ValueError("named arrangements need ell >= 2")
    if kind not in NAMED_KINDS:
        raise ValueError(f"unknown arrangement kind {kind!r}")
    if kind == "coxeter":
        return build_deleted("shi", Graph(ell, ()))
    return build_deleted(kind, Graph.complete(ell))


def nest_gain_den(nest: NestSpec) -> int:
    """The denominator of the gains of ``build_n_ish(nest)`` and its cone:
    ``nest.den`` divided by its gcd with every numerator."""
    return nest.den // gcd(nest.den, *chain.from_iterable(nest.nums))


def build_n_ish(nest: NestSpec) -> Arrangement:
    """The nested family: ``x1 - xj = a`` for ``a in N_j``, plus the
    braid part ``xi - xj = 0`` on the vertices 2..ell, its gains over
    ``nest_gain_den``."""
    den = nest_gain_den(nest)
    g = nest.den // den
    edges = [(0, j, a // g) for j, entries in enumerate(nest.nums, start=1) for a in entries]
    edges += [(i, j, 0) for i in range(1, nest.ell) for j in range(i + 1, nest.ell)]
    return Arrangement(nest.ell, den, edges)


def build_deleted(kind: str, graph: Graph) -> Arrangement:
    """Shi or Ish with the non-braid part restricted to the graph's edges."""
    if kind not in ("shi", "ish"):
        raise ValueError(f"deleted arrangements exist for 'shi' and 'ish', not {kind!r}")
    edges = [(i, j, 0) for i in range(graph.ell) for j in range(i + 1, graph.ell)]
    edges += [(i - 1, j - 1, 1) if kind == "shi" else (0, j - 1, i) for i, j in graph.edges]
    return Arrangement(graph.ell, 1, edges)


def n_from_graph(graph: Graph) -> NestSpec:
    """The nest-style sets of a graph: ``N_j = {0} | {i : (i, j) in G}``.

    The deleted Ish arrangement of ``G`` and the nested arrangement of
    these sets contain exactly the same hyperplanes.  The edges come in
    sorted order, so each set is appended to in increasing order.
    """
    sets: list[list[int]] = [[0] for _ in range(graph.ell - 1)]
    for i, j in graph.edges:
        sets[j - 2].append(i)
    return NestSpec(graph.ell, 1, tuple(map(tuple, sets)))


def cone(arr: Arrangement) -> Arrangement:
    """Homogenize with a new last variable z and prepend ``z = 0``: the gain
    edges of ``arr`` after ``None``, so ``z = 0`` is hyperplane 0 of every
    coned arrangement."""
    if arr.coned:
        raise ValueError("arrangement is already coned")
    return Arrangement(arr.dim + 1, arr.den, (None, *arr.edges), coned=True)


def deletion(arr: Arrangement, edge: GainEdge) -> Arrangement:
    """``arr`` without the hyperplane of ``edge``: the other edges in their
    order, over the same ``den``.  An edge not in ``arr`` is a ``ValueError``."""
    den, edges = arr.gain_edges()
    edges.remove(edge)
    return Arrangement(arr.dim, den, edges, arr.coned)


# -- JSON arrangement specs -------------------------------------------


class ParsedSpec(NamedTuple):
    """An arrangement spec plus whatever side data the type carries.

    A record: every spec error is raised while parsing, and nothing is
    cached.  ``arrangement`` builds the arrangement's gain edges on each
    read, since several commands need only the nest or the graph.
    """

    kind: str
    ell: int
    nest: NestSpec | None
    graph: Graph | None
    coned: bool

    @property
    def arrangement(self) -> Arrangement:
        if self.kind == "n_ish":
            arr = build_n_ish(self.nest)
        elif self.graph is not None:
            arr = build_deleted(self.kind.split("_")[1], self.graph)
        else:
            arr = build_named(self.kind, self.ell)
        return cone(arr) if self.coned else arr


SPEC_KINDS = ("coxeter", "shi", "ish", "n_ish", "deleted_shi", "deleted_ish")
# The keys of a spec that only other types read; the named types refuse "N" and "edges".
_KEYS_READ_ELSEWHERE = {"n_ish": ("ell", "edges"), "deleted_shi": ("N",), "deleted_ish": ("N",)}
# Bounds the ell^2 work of an Ish-type graph: the staircase nest of an ish or
# deleted_ish spec, built while parsing, and the derived sets N_G that the
# graph command writes, up to ell^2 / 2 entries (its verdict, ell masks of ell bits, is less).
GRAPH_MAX_ELL = 1000


def ish_nest(ell: int) -> NestSpec:
    """The nest whose nested arrangement is exactly Ish: ``N_j = {0..j-1}``."""
    if ell < 2:
        raise ValueError("need ell >= 2")
    return NestSpec(ell, 1, tuple(tuple(range(j)) for j in range(2, ell + 1)))


def from_spec(spec: dict) -> ParsedSpec:
    """Build an arrangement from a JSON-style spec dictionary.

    Recognized shapes::

        {"type": "ish" | "shi" | "coxeter", "ell": 3}
        {"type": "n_ish", "N": [[0, 1], ["0", "1/2"]]}
        {"type": "deleted_ish" | "deleted_shi", "ell": 4, "edges": [[1, 2]]}

    plus an optional ``"cone": true`` on any of them.  A key that another
    type reads (``ell`` on ``n_ish``, ``N`` off it, ``edges`` off the
    deleted types) is a ``ValueError`` naming it, not dropped; a key that
    no type reads is ignored.  An ``ish`` or ``deleted_ish`` spec past
    ``GRAPH_MAX_ELL`` is a ``CapacityError``, raised after the other checks
    and before its nest is built.
    """
    if not isinstance(spec, dict):
        raise ValueError("arrangement spec must be a JSON object")
    kind = spec.get("type")
    if kind not in SPEC_KINDS:
        raise ValueError(f"unknown arrangement type {_shown(kind)}")
    for key in _KEYS_READ_ELSEWHERE.get(kind, ("N", "edges")):
        if key in spec:
            raise ValueError(f"{kind} spec takes no key {key!r}")
    nest: NestSpec | None = None
    graph: Graph | None = None
    if kind == "n_ish":
        if "N" not in spec:
            raise ValueError("n_ish spec needs the key 'N'")
        nest = NestSpec.make(spec["N"])
        ell = nest.ell
    else:
        ell = _read_ell(spec)
        if kind in ("deleted_shi", "deleted_ish"):
            edges = spec.get("edges", [])
            if not isinstance(edges, list):
                raise ValueError("'edges' must be a list of vertex pairs")
            graph = Graph.make(ell, edges)
    want_cone = spec.get("cone", False)
    if not isinstance(want_cone, bool):
        raise ValueError(f"'cone' must be true or false, not {_shown(want_cone)}")
    if kind in ("ish", "deleted_ish"):
        if ell > GRAPH_MAX_ELL:
            raise CapacityError(
                f"the {kind} nest of ell - 1 sets got ell = {_shown(ell)}, over the guard "
                f"ell <= {GRAPH_MAX_ELL}"
            )
        nest = ish_nest(ell) if graph is None else n_from_graph(graph)
    return ParsedSpec(kind, ell, nest, graph, want_cone)


def _read_ell(spec: dict) -> int:
    ell = spec.get("ell")
    if not isinstance(ell, int) or ell < 2:
        raise ValueError("spec needs an integer 'ell' >= 2")
    return ell
