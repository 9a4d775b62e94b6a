"""Freeness of coned nested arrangements: certificates both ways.

The decision itself is combinatorial: the arrangement built from the
sets ``N_2, ..., N_ell`` is free exactly when the sets form a chain
under inclusion after reordering (and then it is also supersolvable and
inductively free).  This module keeps the decision honest by producing
checkable certificates:

* in the free case, an explicit basis of logarithmic derivations,
  checked by Saito's criterion in its degree form: homogeneous
  logarithmic derivations whose degrees sum to the number of
  hyperplanes, with a coefficient determinant that is nonzero at one
  point off the arrangement;
* in the non-free case, a rank-3 restriction witness: localizing at the
  smallest incomparable pair ``(i, j)`` gives a deletion with exponents
  ``(1, |N_i|, |N_j|)`` whose restriction has exponent ``|N_i | N_j|``,
  which is never one of the deleted pair -- so addition-deletion rules
  out freeness.

A derivation is stored componentwise: entry ``k`` is the image of the
``k``-th coordinate.  Applying it to a linear form is a coefficient
combination, so no symbolic differentiation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .arrangement import Arrangement, Hyperplane, NestSpec, build_n_ish, cone
from .exactmath import MultiPoly, Scalar, _nonzero, int_det, poly_str, vanishes_on
from .lattice import Flat


class Derivation:
    """A polynomial vector field, one component per coordinate."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[MultiPoly]) -> None:
        comps = tuple(components)
        if not comps:
            raise ValueError("a derivation needs at least one component")
        n = comps[0].nvars
        if len(comps) != n or any(c.nvars != n for c in comps):
            raise ValueError("need exactly one component per variable")
        self.components = comps

    @property
    def nvars(self) -> int:
        return len(self.components)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def is_homogeneous(self) -> bool:
        degs = {c.total_degree() for c in self.components if not c.is_zero}
        return len(degs) <= 1 and all(c.is_homogeneous() for c in self.components)

    def degree(self) -> int:
        """Common total degree of the nonzero components."""
        if self.is_zero:
            raise ValueError("the zero derivation has no degree")
        if not self.is_homogeneous():
            raise ValueError("derivation is not homogeneous")
        return next(c.total_degree() for c in self.components if not c.is_zero)

    def apply_to(self, h: Hyperplane) -> MultiPoly:
        """Image of the defining form: a coefficient combination of components."""
        if h.dim != self.nvars:
            raise ValueError("hyperplane and derivation dimensions differ")
        acc: dict[int, Scalar] = {}
        for c, comp in zip(h.coeffs, self.components):
            if c:
                for key, v in comp.terms.items():
                    acc[key] = acc.get(key, 0) + c * v
        out = MultiPoly(self.nvars)
        out.terms = _nonzero(acc)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.components == other.components

    def render(self, names: Sequence[str]) -> str:
        parts = [
            f"({poly_str(comp, names)}) d/d{name}"
            for comp, name in zip(self.components, names)
            if not comp.is_zero
        ]
        return " + ".join(parts) if parts else "0"


def is_log_derivation(theta: Derivation, arr: Arrangement) -> bool:
    """Does the derivation preserve the ideal of every hyperplane?

    Central arrangements only: the test is that applying the derivation
    to each defining form ``alpha_H`` yields a multiple of that form.  The
    image is restricted to ``alpha_H = 0`` by solving for the first
    variable of ``alpha_H`` (``exactmath.vanishes_on``); it is a multiple
    exactly when the restriction is zero, so no polynomial is divided.
    """
    if not arr.is_central:
        raise ValueError("logarithmic derivations are tested on central arrangements")
    if arr.dim != theta.nvars:
        raise ValueError("derivation and arrangement dimensions differ")
    return all(vanishes_on(theta.apply_to(h), h.coeffs) for h in arr.hyperplanes)


def _off_point(arr: Arrangement) -> tuple[list[int], int]:
    """An integer point ``p`` off every hyperplane, and ``Q(p)``.

    ``p`` is the first point ``(1, k, k^2, ...)`` of the moment curve,
    ``k = 1, 2, ...``, on none of the hyperplanes.  A central hyperplane
    meets the curve in at most ``dim - 1`` values of ``k``, so one of the
    first ``|A| (dim - 1) + 1`` values is off them all.
    """
    k = 0
    while True:
        k += 1
        point = [k**i for i in range(arr.dim)]
        q = 1
        for h in arr.hyperplanes:
            q *= h.eval_at(point)
        if q:
            return point, q


def saito_constant(derivs: Sequence[Derivation], arr: Arrangement) -> Fraction | None:
    """The constant c with det = c * Q(A), or None when there is none.

    Checks Saito's criterion exactly, in its degree form (Orlik-Terao
    1992, section 4.2).  Each derivation is first scaled by the lcm of its
    coefficient denominators, so the coefficient matrix has integer
    entries at an integer point; that scale is divided back out of the
    returned constant.  The hypotheses are:

    * every derivation is logarithmic (else ``ValueError``), so ``Q(A)``
      divides the determinant of the coefficient matrix;
    * every derivation is nonzero and homogeneous (a zero one gives
      None, a non-homogeneous one ``ValueError``), so the determinant is
      zero or homogeneous of degree ``sum(deg)``;
    * ``sum(deg) == |A|`` (else None).

    Under them the determinant is ``c * Q(A)`` for a constant ``c``, so
    one point ``p`` with ``Q(p) != 0`` decides it exactly:
    ``c = det M(p) / Q(p)``, and the derivations form a basis exactly
    when ``c != 0``.
    """
    if len(derivs) != arr.dim:
        raise ValueError("need exactly ambient-dimension many derivations")
    scale = 1
    scaled = []
    for d in derivs:
        m = lcm(*(c.denominator for comp in d.components for c in comp.terms.values()))
        scaled.append(d if m == 1 else Derivation([comp * m for comp in d.components]))
        scale *= m
    for d in scaled:
        if not is_log_derivation(d, arr):
            raise ValueError("all derivations must be logarithmic for the arrangement")
    if any(d.is_zero for d in scaled):
        return None
    if sum(d.degree() for d in scaled) != len(arr):
        return None
    point, q = _off_point(arr)
    det = int_det([[comp.evaluate(point) for comp in d.components] for d in scaled])
    if det == 0:
        return None
    return Fraction(det, q) / scale


def saito_verify(derivs: Sequence[Derivation], arr: Arrangement) -> bool:
    """True when the derivations form a basis of the derivation module."""
    return saito_constant(derivs, arr) is not None


# -- the nest criterion ------------------------------------------------


def is_nest(nest: NestSpec) -> tuple[int, ...] | None:
    """Order the sets into a chain under inclusion, if possible.

    Returns indices ``(w(2), ..., w(ell))`` with ``N_{w(2)} <= ... <=
    N_{w(ell)}`` (sorted by cardinality, ties by the sorted elements),
    or ``None`` when no chain exists.
    """
    order = sorted(range(2, nest.ell + 1), key=lambda j: (len(nest.set_at(j)), nest.set_at(j)))
    for a, b in zip(order, order[1:]):
        if not set(nest.set_at(a)) <= set(nest.set_at(b)):
            return None
    return tuple(order)


def nest_exponents(nest: NestSpec, order: Sequence[int]) -> tuple[int, ...]:
    """Exponent multiset ``{0, 1} | {|N_{w(k)}| + ell - k}`` of the cone."""
    ell = nest.ell
    if sorted(order) != list(range(2, ell + 1)):
        raise ValueError("order must be a permutation of 2..ell")
    for a, b in zip(order, order[1:]):
        if not set(nest.set_at(a)) <= set(nest.set_at(b)):
            raise ValueError("order does not certify a chain")
    exps = [0, 1]
    for k in range(2, ell + 1):
        exps.append(len(nest.set_at(order[k - 2])) + ell - k)
    return tuple(sorted(exps))


def basis_derivations(nest: NestSpec) -> list[Derivation]:
    """The explicit derivation basis for the cone of an ascending nest.

    For ``N_2 <= ... <= N_ell`` over variables ``x1..xl, z`` the basis
    consists of the constant translation field, the Euler field, and for
    each ``k`` a field supported on ``x2..xk`` whose ``x_s`` component is
    ``prod_{a in N_k} (x1 - x_s - a z) * prod_{t > k} (x_s - x_t)``.
    """
    if not nest.is_ascending():
        raise ValueError("the derivation basis needs an ascending nest")
    ell = nest.ell
    n = ell + 1  # x1..xl and z
    zero = MultiPoly.zero(n)
    one = MultiPoly.const(n, 1)
    xs = [MultiPoly.variable(n, i) for i in range(ell)]
    z = MultiPoly.variable(n, ell)

    translations = Derivation([one] * ell + [zero])
    euler = Derivation(xs + [z])
    out = [translations, euler]
    for k in range(2, ell + 1):
        comps = [zero] * n
        for s in range(2, k + 1):
            poly = one
            for a in nest.set_at(k):
                poly = poly * (xs[0] - xs[s - 1] - a * z)
            for t in range(k + 1, ell + 1):
                poly = poly * (xs[s - 1] - xs[t - 1])
            comps[s - 1] = poly
        out.append(Derivation(comps))
    return out


@dataclass(frozen=True)
class NonFreeWitness:
    """Rank-3 obstruction at the smallest incomparable pair of sets."""

    i: int
    j: int
    localized_exponents: tuple[int, int, int]
    restriction_exponent: int

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "localized": list(self.localized_exponents),
            "restriction": self.restriction_exponent,
        }


@dataclass(frozen=True)
class FreenessVerdict:
    free: bool
    exponents: tuple[int, ...] | None
    witness: NonFreeWitness | None

    def to_json(self) -> dict:
        out: dict = {"free": self.free}
        out["exponents"] = list(self.exponents) if self.exponents is not None else None
        out["witness"] = self.witness.to_json() if self.witness is not None else None
        return out


def decide_free(nest: NestSpec) -> FreenessVerdict:
    """Freeness of the coned nested arrangement, with certificate data."""
    order = is_nest(nest)
    if order is not None:
        return FreenessVerdict(True, nest_exponents(nest, order), None)
    for i in range(2, nest.ell + 1):
        for j in range(i + 1, nest.ell + 1):
            a, b = set(nest.set_at(i)), set(nest.set_at(j))
            if not a <= b and not b <= a:
                witness = NonFreeWitness(
                    i,
                    j,
                    (1, len(a), len(b)),
                    len(a | b),
                )
                return FreenessVerdict(False, None, witness)
    raise RuntimeError("no chain order and no incomparable pair; unreachable")


def verify_nonfree_witness(nest: NestSpec, witness: NonFreeWitness) -> bool:
    """Re-derive the rank-3 obstruction from scratch.

    Localizing at ``{z = x1 - xi = x1 - xj = 0}`` reduces to the pair
    nest ``(N_i, N_j)`` in rank 3.  Deleting ``x_i = x_j`` from that cone
    leaves an arrangement with an explicit derivation basis of degrees
    ``(0, 1, |N_i|, |N_j|)`` -- verified here through Saito's criterion --
    and restricting to ``x_i = x_j`` leaves ``1 + |N_i | N_j|`` distinct
    hyperplanes.  Freeness would force the restriction exponent to occur
    among the deleted exponents; the union cardinality never does.
    """
    a_set, b_set = set(nest.set_at(witness.i)), set(nest.set_at(witness.j))
    a, b = len(a_set), len(b_set)
    c = len(a_set | b_set)
    if witness.localized_exponents != (1, a, b) or witness.restriction_exponent != c:
        return False
    if c in (a, b):  # comparable pair: no obstruction at all
        return False

    pair = NestSpec.make([sorted(a_set), sorted(b_set)])
    full = cone(build_n_ish(pair))
    h_coxeter = Hyperplane.make([0, 1, -1, 0], 0)
    deleted = Arrangement(4, [h for h in full.hyperplanes if h != h_coxeter], coned=True)
    if len(deleted) != len(full) - 1:
        return False

    n = 4
    zero, one = MultiPoly.zero(n), MultiPoly.const(n, 1)
    x1, x2, x3, z = (MultiPoly.variable(n, k) for k in range(4))
    translations = Derivation([one, one, one, zero])
    euler = Derivation([x1, x2, x3, z])
    prod2, prod3 = one, one
    for entry in sorted(a_set):
        prod2 = prod2 * (x1 - x2 - entry * z)
    for entry in sorted(b_set):
        prod3 = prod3 * (x1 - x3 - entry * z)
    phi2 = Derivation([zero, prod2, zero, zero])
    phi3 = Derivation([zero, zero, prod3, zero])
    derivs = [translations, euler, phi2, phi3]

    if sorted(d.degree() for d in derivs) != sorted((0,) + witness.localized_exponents):
        return False
    try:
        if saito_constant(derivs, deleted) is None:
            return False
    except ValueError:  # some derivation is not logarithmic for the deletion
        return False

    # restriction: distinct traces of the remaining hyperplanes on x2 = x3
    traces = {Flat.through([edge, (1, 2, 0)], n, True) for edge in deleted.gain_edges()}
    return len(traces) == 1 + c
