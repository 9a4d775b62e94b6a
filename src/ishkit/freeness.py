"""Freeness of coned nested arrangements: certificates both ways.

The decision itself is combinatorial: the arrangement built from the
sets ``N_2, ..., N_ell`` is free exactly when the sets form a chain
under inclusion after reordering (and then it is also supersolvable and
inductively free).  This module keeps the decision honest by producing
checkable certificates:

* in the free case, an explicit basis of logarithmic derivations,
  checked by Saito's criterion: homogeneous logarithmic derivations
  whose degrees sum to the number of hyperplanes, with a coefficient
  determinant that is a nonzero multiple of the defining polynomial;
* in the non-free case, a rank-3 restriction witness: localizing at the
  smallest incomparable pair ``(i, j)`` gives a deletion with exponents
  ``(1, |N_i|, |N_j|)`` whose restriction has exponent ``|N_i | N_j|``,
  which is never one of the deleted pair -- so addition-deletion rules
  out freeness.

A derivation is a plain tuple with one component per coordinate: entry
``k`` is the image of the ``k``-th coordinate.  Applying it to a linear
form is a coefficient combination, so no symbolic differentiation is
needed.  A ``Derivation`` holds its components multiplied out, as
``MultiPoly``s; a ``FactoredDerivation`` (below) holds each as factors.

Two chain tests run, one on a nest's sets and one on a graph's masks.
``decide_free`` tests every pair of a nest's sets for comparability at
once, in one pass each way over the size order: that gives its verdict,
with the chain order and the exponents when free and the first
incomparable pair when not.  Every nest request takes its answer from
it: ``freeness`` and ``charpoly`` the verdict, ``basis``, ``saito``,
``supersolvable`` and ``wallcross`` the order (``is_nest`` is that order
alone).  ``graphs._free_order``, for ``graph`` and ``survey``, tests a
graph's in-neighbour masks in (in-degree, label) order.

Every component of both certificates' bases is a product of linear
forms, so each basis is built in factored form: each component is zero
or a scalar times a tuple of factors, and a factor is the gain edge of
the form it stands for (Zaslavsky, *Biased graphs*), over the cone's
denominator ``den``.  The factor ``(i, j, c)``, with ``p/q`` the reduced
``c/den``, is the coned hyperplane's own form ``q x_i - q x_j - p z``
(``_coefficients``): an entry factor ``x1 - x_s - a z`` is ``(0, s-1, c)``
and a braid factor ``x_s - x_t`` is ``(s-1, t-1, 0)``.  The one other
kind, the Euler field's unit form ``x_k``, is ``(k, None, 0)``, with no
``x_j``; ``z``'s, ``(ell, None, 0)``, is also the factor of ``None``, the
edge of ``z = 0``.  Exchanging two variables
relabels each factor's two coordinates (``_exchanged``), and a form is
written out as its coefficients (``_dense``) only where it is multiplied
out: in ``basis_derivations`` and in the hand-off to ``saito_constant``.
``factored_basis`` is the one builder of the paper's basis: ``saito``
certifies it as it is, and ``basis_derivations`` multiplies it out for
display, one component per field by ``MultiPoly.product``, the one
constructor of a polynomial from linear forms, and the others by
exchanging two variables; no module but ``exactmath`` reads a packed
monomial key.  ``factored_saito_constant`` decides Saito's criterion on
the factors in one walk over the basis matrix, against one index of the
arrangement's forms made in one pass over its gain edges
(``_form_index``): each form is a bit keyed by its edge, each coordinate
the mask of the forms that use it, and the braid forms one mask.  The walk
reads each component once, for its held mask, its factor count and its
column bit.  A log check is shown in one of three ways (``_log_shown``):

* a multiple ``c`` of the Euler field by the identity ``theta(alpha) = c alpha``;
* by the index, when every component the form picks out holds the form
  among its factors (unique factorization in ``Q[x]``): a field's forms
  still to show are the OR, over its nonzero components ``k``, of the
  forms that use ``x_k`` less those among that component's factors, one
  lookup per factor, and a factor that is not A's edge holds no bit;
* inside an exchange group (``_exchange_group``), the one exchange
  rule: the components of a field that exchanging two variables swaps,
  found once per field.  A braid form ``x_s - x_t`` on two members needs
  no exchange of its own, and all of them are cleared with one mask; on a
  group of constants with no ``z`` component, so is every form on two
  members, as ``theta(alpha) = q (c - c) - p 0 = 0``.

The determinant is then read off the factors: both certificates' basis
matrices are triangular up to a permutation of the columns (``_peel``, on
the walk's column masks), so the determinant is a sign, a product of
scalars and a product of linear forms, and it is a constant times ``Q(A)``
when those forms are A's own, each once: each pivot factor takes its
form's bit in the index, and the constant is built from the scalars'
integer numerators and denominators.  Anything else -- a log check no way
shows, a matrix that does not peel, or forms that are not A's each once --
is handed to ``saito_constant`` on the derivations multiplied out.
Neither certificate's basis is handed on, and no form's coefficients are
read on the way.

``is_log_derivation`` and ``saito_constant`` on the expanded derivations
are the one general route and the oracle of the tests, in plain exact
arithmetic.  They form each image with ``MultiPoly``'s own ``*`` and
``+``, restrict it to the hyperplane by the rational substitution of
``exactmath.vanishes_on``, evaluate the derivations at one point off the
arrangement, and take ``exactmath.int_det`` of the rows of values, each
cleared of its denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Iterator, NamedTuple, Sequence

from .arrangement import Arrangement, NestSpec, build_n_ish, cone, deletion, nest_gain_den
from .exactmath import MultiPoly, Scalar, clear_denominators, int_det, poly_str, reduced, vanishes_on
from .lattice import Flat

Factor = tuple[int, int | None, int]  # a gain edge (i, j, c) over the cone's denominator; see _coefficients
Term = tuple[Scalar, tuple[Factor, ...]]  # scalar * product of the factors
FactoredDerivation = tuple[Term | None, ...]  # one component per coordinate; None is zero
Derivation = tuple[MultiPoly, ...]  # the same, multiplied out; a zero component is the zero polynomial
FormIndex = tuple[dict[Factor, int], list[int], int]  # (bits, touch, braid)


def _one_per_variable(theta: Derivation, n: int) -> bool:
    return len(theta) == n and all(comp.nvars == n for comp in theta)


def _degree(theta: Derivation) -> int:
    """The common total degree of the terms of a nonzero derivation."""
    degrees = {comp.total_degree() for comp in theta if not comp.is_zero}
    if len(degrees) != 1 or not all(comp.is_homogeneous() for comp in theta):
        raise ValueError("derivation is not homogeneous")
    return degrees.pop()


def derivation_str(theta: Derivation, names: Sequence[str]) -> str:
    """Render as ``(p_1) d/dx1 + (p_2) d/dx2 + ...``, leaving out zero components."""
    parts = [f"({poly_str(comp, names)}) d/d{name}" for comp, name in zip(theta, names) if not comp.is_zero]
    return " + ".join(parts) or "0"


def is_log_derivation(theta: Derivation, arr: Arrangement) -> bool:
    """Does the derivation preserve the ideal of every hyperplane?

    Central arrangements only: the test is that the image of each
    defining form ``alpha_H``, ``sum(alpha_H[k] * theta[k])``, is a
    multiple of it.  The image is restricted to ``alpha_H = 0`` by solving
    for the first variable of ``alpha_H`` (``exactmath.vanishes_on``); it
    is a multiple exactly when the restriction is zero.  It reads
    ``arr.is_central``, ``arr.dim`` and ``arr.hyperplanes``, which need not
    be differences.
    """
    if not arr.is_central:
        raise ValueError("logarithmic derivations are tested on central arrangements")
    n = arr.dim
    if not _one_per_variable(theta, n):
        raise ValueError("need exactly one component per variable")
    for h in arr.hyperplanes:
        first, *rest = [comp * a for a, comp in zip(h.coeffs, theta) if a]
        if not vanishes_on(sum(rest, first), h.coeffs):
            return False
    return True


def _off_point(arr: Arrangement) -> tuple[list[int], int]:
    """An integer point ``p`` off every hyperplane, and ``Q(p)``.

    ``p`` is the first point ``(1, k, k^2, ...)`` of the moment curve,
    ``k = 1, 2, ...``, on none of the hyperplanes.  A central hyperplane
    meets the curve in at most ``dim - 1`` values of ``k``, so one of the
    first ``|A| (dim - 1) + 1`` values is off them all.
    """
    planes = arr.hyperplanes
    k = 0
    while True:
        k += 1
        point = [k**i for i in range(arr.dim)]
        q = 1
        for h in planes:
            q *= h.eval_at(point)
        if q:
            return point, q


def saito_constant(derivs: Sequence[Derivation], arr: Arrangement) -> Fraction | None:
    """The constant c with det = c * Q(A), or None when there is none.

    Checks Saito's criterion exactly, in its degree form (Orlik-Terao
    1992, section 4.2).  The hypotheses are:

    * every derivation is logarithmic (else ``ValueError``), so ``Q(A)``
      divides the determinant of the coefficient matrix;
    * every derivation is nonzero and homogeneous (a zero one gives
      None, a non-homogeneous one ``ValueError``), so the determinant is
      zero or homogeneous of degree ``sum(deg)``;
    * ``sum(deg) == |A|`` (else None).

    Under them the determinant is ``c * Q(A)`` for a constant ``c``, so
    one point ``p`` with ``Q(p) != 0`` decides it exactly:
    ``c = det M(p) / Q(p)``, and the derivations form a basis exactly
    when ``c != 0``.  Each row of ``M(p)`` is cleared of its denominators
    for ``int_det``, and their product is divided back out of ``c``.
    It reads ``arr.dim``, ``len(arr)`` and, through ``is_log_derivation``
    and ``_off_point``, ``arr.is_central`` and ``arr.hyperplanes``, which
    need not be differences.
    """
    n = arr.dim
    if len(derivs) != n:
        raise ValueError("need exactly ambient-dimension many derivations")
    if not all(_one_per_variable(theta, n) for theta in derivs):
        raise ValueError("need exactly one component per variable")
    for theta in derivs:
        if not is_log_derivation(theta, arr):
            raise ValueError("all derivations must be logarithmic for the arrangement")
    if any(all(comp.is_zero for comp in theta) for theta in derivs):
        return None
    if sum(map(_degree, derivs)) != len(arr):
        return None
    point, q = _off_point(arr)
    rows, dens = zip(*(clear_denominators([comp.evaluate(point) for comp in theta]) for theta in derivs))
    det = int_det(rows)
    if det == 0:
        return None
    return Fraction(det, q * prod(dens))


def saito_verify(derivs: Sequence[Derivation], arr: Arrangement) -> bool:
    """True when the derivations form a basis of the derivation module."""
    return saito_constant(derivs, arr) is not None


# -- the nest criterion ------------------------------------------------


def is_nest(nest: NestSpec) -> tuple[int, ...] | None:
    """Order the sets into a chain under inclusion, if possible: ``decide_free``'s ``order``."""
    return decide_free(nest).order


def _translation_and_euler(ell: int) -> list[FactoredDerivation]:
    """``d/dx1 + ... + d/dxl`` and the Euler field, of degrees 0 and 1 on a cone over ``x1..xl, z``."""
    return [((1, ()),) * ell + (None,), tuple((1, ((k, None, 0),)) for k in range(ell + 1))]


def _nest_fields(nest: NestSpec, den: int) -> Iterator[tuple[int, Term]]:
    """The fields ``theta_k`` of ``factored_basis`` past the translation and
    Euler fields, each as ``(k, term)``: ``term`` is its ``x2`` component,
    its edges over ``den = nest_gain_den(nest)``, and the field is nonzero
    exactly at ``x2..xk``."""
    if not nest.is_ascending():
        raise ValueError("the derivation basis needs an ascending nest")
    ell, g = nest.ell, nest.den // den
    braids = [(1, t, 0) for t in range(2, ell)]
    for k, entries in enumerate(nest.nums, start=2):
        gains = [a // g for a in entries]
        scale = prod(den // gcd(c, den) for c in gains)  # the q of each x1 - x2 - a z
        yield k, (1 if scale == 1 else Fraction(1, scale), tuple([(0, 1, c) for c in gains] + braids[k - 2:]))


def factored_basis(nest: NestSpec) -> list[FactoredDerivation]:
    """The explicit derivation basis for the cone of an ascending nest, factored.

    The one builder of the paper's basis: ``basis_derivations`` multiplies
    out its fields' first components (``_nest_fields``), and
    ``factored_saito_constant`` certifies it.  For ``N_2 <= ...
    <= N_ell`` over variables ``x1..xl, z`` the basis consists of the
    constant translation field, the Euler field, and for each ``k`` a field
    supported on ``x2..xk`` whose ``x_s`` component is
    ``prod_{a in N_k} (x1 - x_s - a z) * prod_{t > k} (x_s - x_t)``.
    Each factor is the cone's own gain edge: ``(0, s-1, c)`` for the entry
    ``a = c/den`` over the cone's denominator (``nest_gain_den``), and
    ``(s-1, t-1, 0)`` for the braid form.  With ``p/q`` the reduced ``a``,
    the edge stands for ``q x1 - q x_s - p z``, so the components of one
    field share the scalar ``1 / prod q``, an ``int`` when every entry of
    ``N_k`` is integral.  Only the ``x2`` factors are built; the ``x_s``
    factors are the same edges with ``x2`` and ``x_s`` exchanged
    (``_exchanged``).  So in every field, the translation and Euler fields
    too, each nonzero component is the first one with the two variables
    exchanged, and the first one has no ``x_s``: each field with two or
    more of them is one exchange group (``_exchange_group``).
    """
    ell = nest.ell
    out = _translation_and_euler(ell)
    for k, (scalar, first) in _nest_fields(nest, nest_gain_den(nest)):
        comps = [first] + [_exchanged(first, 1, s) for s in range(2, k)]
        out.append((None, *((scalar, c) for c in comps), *(None,) * (ell + 1 - k)))
    return out


def _exchanged(factors: Sequence[Factor], r: int, s: int) -> tuple[Factor, ...]:
    """The factors with coordinates ``r`` and ``s`` exchanged in each, in their
    order.  When ``s`` is ``z`` no factor may have a nonzero gain, as a gain is
    the coefficient of ``z``; ``_exchange_group`` asks exactly that."""
    return tuple([(s if i == r else r if i == s else i, s if j == r else r if j == s else j, c)
                  for i, j, c in factors])


def _coefficients(f: Factor, den: int, z: int) -> list[tuple[int, int]]:
    """The nonzero coefficients ``(k, f[k])`` of a factor's form, ``x_i`` first:
    ``q x_i - q x_j - p z`` with ``p/q`` the reduced ``c/den``."""
    i, j, c = f
    p, q = reduced(c, den)
    out = [(i, q)] if j is None else [(i, q), (j, -q)]
    return out + [(z, -p)] if p else out


def _dense(f: Factor, n: int, den: int) -> list[int]:
    """The form of a factor (``_coefficients``) as ``n`` coefficients, the last one ``z``'s."""
    form = [0] * n
    for k, v in _coefficients(f, den, n - 1):
        form[k] += v
    return form


def _expanded(theta: FactoredDerivation, n: int, den: int) -> Derivation:
    """The derivation with every component multiplied out (``MultiPoly.product``),
    a term whose scalar is 0 read as a zero component."""
    return tuple(MultiPoly.product(n, comp[0], [_dense(f, n, den) for f in comp[1]]) if comp and comp[0] else
                 MultiPoly.zero(n) for comp in theta)


def basis_derivations(nest: NestSpec) -> list[Derivation]:
    """The basis of ``factored_basis`` with every component multiplied out.

    Each field is read as ``(r, stop, term)``: it is nonzero exactly at
    ``x_r..x_{stop-1}``, and ``term`` is its component at ``x_r`` (``x1``
    for the translation and Euler fields, ``x2`` for ``theta_k``, from
    ``_nest_fields``).  Only that component is multiplied out, each
    distinct edge written as a form once.  Every other nonzero component,
    at ``x_s``, is its factors with ``x_r`` and ``x_s`` exchanged, and it
    has no ``x_s`` (``factored_basis``), so its expansion is the first
    one's with the two variables exchanged (``MultiPoly.swapped``), and the
    exchanged factors are never built.
    """
    n, den = nest.ell + 1, nest_gain_den(nest)
    translation, euler = _translation_and_euler(nest.ell)
    runs = [(0, n - 1, translation[0]), (0, n, euler[0])]
    runs += [(1, k, term) for k, term in _nest_fields(nest, den)]
    zero = MultiPoly.zero(n)
    forms: dict[Factor, list[int]] = {}
    out = []
    for r, stop, (scalar, factors) in runs:
        for f in factors:
            if f not in forms:
                forms[f] = _dense(f, n, den)
        first = MultiPoly.product(n, scalar, [forms[f] for f in factors])
        out.append((zero,) * r + (first, *(first.swapped(r, s) for s in range(r + 1, stop))) + (zero,) * (n - stop))
    return out


def _exchange_group(theta: FactoredDerivation, nonzero: Sequence[int]) -> set[int] | None:
    """The exchange group of a field: coordinates any two of whose components
    the exchange of their two variables swaps.  ``nonzero`` holds the
    coordinates of the field's nonzero components, in order; the group is
    None when there are fewer than two.

    With ``c * P`` the first nonzero component, at ``x_r``, the group holds
    ``r`` and each ``s`` whose component is ``c`` times ``P`` with ``x_r`` and
    ``x_s`` exchanged, where ``P`` has no ``x_s``: that component is ``P`` with
    ``x_r`` renamed ``x_s``, its edges relabelled (``_exchanged``).  Any two
    members ``s`` and ``t`` are then exchanged by swapping ``x_s`` and ``x_t``
    (the map ``sigma``), as neither appears in ``P``.  So for a braid form
    ``alpha = a (x_s - x_t)`` inside the group, with ``P_s`` the component at
    ``x_s`` over ``c``, ``theta(alpha) = a c (P_s - P_s o sigma)``, which
    vanishes on ``x_s = x_t``: the group shows every such log check with
    ``m - 1`` exchanges for a field of ``m`` members, none of them per braid
    form.  When ``P`` is 1, a field of constants, every member holds the
    constant ``c``, and when ``z``'s component is zero any form ``q x_s - q
    x_t - p z`` on two members has ``theta(alpha) = q (c - c) - p 0 = 0``.
    This is the one exchange rule; each field of ``factored_basis`` with two
    or more nonzero components is one group.
    """
    if len(nonzero) < 2:
        return None
    r, *rest = nonzero
    scalar, factors = theta[r]
    used = set()  # the coordinates of P, and z when a gain is nonzero
    if factors:
        firsts, seconds, gains = zip(*factors)
        used.update(firsts, seconds)
        if any(gains):
            used.add(len(theta) - 1)
    group = {r}
    for s in rest:
        comp = theta[s]
        if s not in used and comp[0] == scalar and comp[1] == _exchanged(factors, r, s):
            group.add(s)
    return group


def _peel(cols: Sequence[int]) -> list[int] | None:
    """The pivot column of each row of a square matrix, when it peels; else None.

    ``cols[c]`` is the mask of the rows with a nonzero entry in column
    ``c``.  Peeling takes the first column with exactly one nonzero entry
    among the rows left, and strikes out that entry's row, until no row is
    left.  Each step is a Laplace expansion down that column, so the
    determinant is ``sign(pivots)`` times the product of the pivot entries.
    A step is one AND with the mask of the rows left per column it reads.
    """
    left = (1 << len(cols)) - 1
    pivots = [0] * len(cols)
    while left:
        for c, col in enumerate(cols):
            hit = col & left
            if hit and not hit & (hit - 1):
                break
        else:
            return None
        pivots[hit.bit_length() - 1] = c
        left ^= hit
    return pivots


def _form_index(arr: Arrangement) -> FormIndex:
    """The forms of a central arrangement, indexed in one pass over its gain
    edges: hyperplane ``i`` is bit ``1 << i``.  Returns ``(bits, touch,
    braid)``: ``bits`` maps each form's factor to its bit, in bit order,
    ``touch[k]`` is the mask of the forms that use coordinate ``k``, and
    ``braid`` the mask of the braid forms ``a (x_s - x_t)``.

    The factor of the edge ``(i, j, c)`` is the edge itself, on ``x_i`` and
    ``x_j``, and on ``z`` when ``c`` is nonzero, a braid form when ``c`` is 0;
    the factor of ``None``, the edge of ``z = 0``, is the unit form of ``z``.
    An unconed central arrangement has every gain 0, so no form of it uses a
    column ``z``.
    """
    n = arr.dim
    bits, touch, braid = {}, [0] * n, 0
    for i, edge in enumerate(arr.gain_edges()[1]):
        bit = 1 << i
        if edge is None:
            edge = (n - 1, None, 0)
            touch[n - 1] |= bit
        else:
            a, b, c = edge
            touch[a] |= bit
            touch[b] |= bit
            if c:  # a nonzero gain of a central arrangement is coned
                touch[n - 1] |= bit
            else:
                braid |= bit
        bits[edge] = bit  # the edges are distinct
    return bits, touch, braid


def _log_shown(theta: FactoredDerivation, nonzero: Sequence[int], left: int, index: FormIndex) -> bool:
    """Do the factors show every log check of the field on the arrangement?

    ``factored_saito_constant`` reads ``nonzero`` and ``left`` off the
    field's components in its walk: the coordinates of the nonzero
    components, and the forms the index leaves, over those components ``k``
    the forms that use ``x_k`` and are not among that component's factors.
    A log check is shown in one of three ways:

    * by the index: a form no component leaves is shown, as every term it
      picks out holds it (unique factorization in ``Q[x]``).  A factor that
      is not A's edge holds no bit: at ell = 4, the ``x2`` factor
      ``x1 - x2 - 2 z`` of ``theta_3`` is no form of the cone of Ish;
    * by the identity ``theta(alpha) = c alpha``, on a multiple ``c`` of the
      Euler field, every component ``c x_k``;
    * by the field's exchange group (``_exchange_group``): the braid forms
      on two of its members, the forms that two members' coordinates
      touch, and on a group of constants with no ``z`` component every
      form on two members.

    A form left after these is not shown, whatever its terms: the factors
    alone cannot tell whether terms that do not hold ``alpha`` cancel, so
    ``factored_saito_constant`` hands the fields to ``saito_constant``.
    """
    if not left:
        return True
    first = theta[0]
    if first is not None and first[1] == ((0, None, 0),) and all(
            comp is not None and comp[0] == first[0] and comp[1] == ((k, None, 0),) for k, comp in enumerate(theta)):
        return True
    group = _exchange_group(theta, nonzero)
    if group is None:
        return False
    touch, braid = index[1], index[2]
    once = twice = 0
    for k in group:
        twice |= once & touch[k]
        once |= touch[k]
    constants = nonzero[-1] < len(theta) - 1 and not theta[nonzero[0]][1]  # no z component, and P = 1
    return not left & ~(twice if constants else braid & twice)


def factored_saito_constant(
    derivs: Sequence[FactoredDerivation], arr: Arrangement
) -> Fraction | None:
    """``saito_constant`` of the expanded derivations, proved on the factors.

    Each factor is a gain edge over ``arr``'s gain denominator (``Factor``).
    The hypotheses are those of ``saito_constant``, checked in the same
    order, with the same errors.  A term whose scalar is 0 is read as a zero
    component, as its expansion is.  The matrix is read in one walk over
    its components against one index of A's forms (``_form_index``), made
    in one pass over A's gain edges with no hyperplane derived: each form is
    a bit, each coordinate the mask of the forms that use it.  The walk
    takes from each nonzero component its held mask, one lookup per factor,
    its factor count and its column bit.  A log check is shown in one of
    three ways (``_log_shown``), with no per-form work: by those masks, when
    every component the form picks out holds the form; by the identity of a
    multiple of the Euler field; or by the field's exchange group.  A
    product of linear forms is homogeneous, so a derivation is homogeneous
    when its nonzero components have equally many factors.

    The determinant is then read off the matrix when it peels (``_peel``,
    on the column masks): it is ``sign * prod(scalars) * prod(factors)``
    over the pivots, and when the pivots' factors are A's forms, each once,
    that is ``c * Q(A)`` as a polynomial identity (Saito's criterion by
    unique factorization, Orlik-Terao 1992, Thm 4.19).  Each pivot factor
    takes its form's bit, and ``c`` is built from the scalars' integer
    numerators and denominators.  Whatever the factors do not show -- a log
    check they cannot settle, a matrix that does not peel, or pivot factors
    that are not A's forms each once, as when a factor is a form written
    negated -- is handed whole to ``saito_constant`` on the derivations
    multiplied out, the one general route.
    """
    n = arr.dim
    if len(derivs) != n:
        raise ValueError("need exactly ambient-dimension many derivations")
    if any(len(theta) != n for theta in derivs):
        raise ValueError("need exactly one component per variable")
    if not arr.is_central:
        raise ValueError("logarithmic derivations are tested on central arrangements")
    index = _form_index(arr)
    get, touch = index[0].get, index[1]
    sizes, cols = [], [0] * n
    for r, theta in enumerate(derivs):
        nonzero, counts, left, bit = [], set(), 0, 1 << r
        for k, comp in enumerate(theta):
            if comp and comp[0]:
                held = 0
                for f in comp[1]:
                    held |= get(f, 0)
                left |= touch[k] & ~held
                counts.add(len(comp[1]))
                cols[k] |= bit
                nonzero.append(k)
        if not _log_shown(theta, nonzero, left, index):
            return _deferred(derivs, arr)
        sizes.append(counts)
    if not all(sizes):
        return None
    degree = 0
    for counts in sizes:
        if len(counts) != 1:
            raise ValueError("derivation is not homogeneous")
        degree += counts.pop()
    if degree != len(arr):
        return None
    pivots = _peel(cols)
    if pivots is None:
        return _deferred(derivs, arr)
    # the pivots hold |A| factors (the degree check), so when each takes a
    # bit no other took, they take every bit: A's forms, each once
    taken, num, den = 0, 1, 1
    for theta, c in zip(derivs, pivots):
        scalar, factors = theta[c]
        for f in factors:
            bit = get(f, 0)
            if not bit or taken & bit:
                return _deferred(derivs, arr)
            taken |= bit
        num *= scalar.numerator
        den *= scalar.denominator
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return Fraction((-1) ** inversions * num, den)


def _deferred(derivs: Sequence[FactoredDerivation], arr: Arrangement) -> Fraction | None:
    """``saito_constant`` of the derivations multiplied out (``_expanded``)."""
    den = arr.gain_edges()[0]
    return saito_constant([_expanded(theta, arr.dim, den) for theta in derivs], arr)


class NonFreeWitness(NamedTuple):
    """Rank-3 obstruction at the smallest incomparable pair of sets."""

    i: int
    j: int
    localized_exponents: tuple[int, int, int]
    restriction_exponent: int


class FreenessVerdict(NamedTuple):
    free: bool
    exponents: tuple[int, ...] | None
    witness: NonFreeWitness | None
    order: tuple[int, ...] | None  # the chain order (w(2), ..., w(ell)) when free


def decide_free(nest: NestSpec) -> FreenessVerdict:
    """Freeness of the coned nested arrangement, with certificate data.

    In size order a set is comparable with every other exactly when it
    holds the union of the sets before it and lies inside the intersection
    of the sets after it, so after one sort a pass each way finds the sets
    incomparable with some other, in time linear in the entries.  With none
    the size order (ties in index order) is a chain order, the verdict's
    ``order``, and the exponents ``{0, 1} | {|N_w(k)| + ell - k}`` are read
    off it.  Otherwise the witness is the first pair i < j of
    incomparable sets: i is the first index found (an earlier partner would
    come first), and j the first later index incomparable with N_i.
    """
    sets = [set(entries) for entries in nest.nums]
    by_size = sorted(range(len(sets)), key=lambda k: len(sets[k]))
    tangled, bound = set(), set()  # tangled: the indices of sets incomparable with some other
    for k in by_size:  # bound: the union of N_k and the sets before it
        bound |= sets[k]
        if len(bound) > len(sets[k]):
            tangled.add(k)
    for k in reversed(by_size):  # bound: the intersection of the sets after N_k
        if not sets[k] <= bound:
            tangled.add(k)
        bound &= sets[k]
    if not tangled:
        tops = [len(sets[j]) + nest.ell - k for k, j in enumerate(by_size, start=2)]
        return FreenessVerdict(True, tuple(sorted([0, 1, *tops])), None, tuple(k + 2 for k in by_size))
    i = min(tangled)
    a = sets[i]
    j = next(k for k in range(i + 1, len(sets)) if not (a <= sets[k] or sets[k] <= a))
    b = sets[j]
    return FreenessVerdict(False, None, NonFreeWitness(i + 2, j + 2, (1, len(a), len(b)), len(a | b)), None)


def verify_nonfree_witness(nest: NestSpec, witness: NonFreeWitness) -> bool:
    """Re-derive the rank-3 obstruction from scratch.

    Localizing at ``{z = x1 - xi = x1 - xj = 0}`` reduces to the pair
    nest ``(N_i, N_j)`` in rank 3.  Deleting ``x_i = x_j`` from that cone
    leaves an arrangement with an explicit derivation basis of degrees
    ``(0, 1, |N_i|, |N_j|)`` -- verified here through Saito's criterion --
    and restricting to ``x_i = x_j`` leaves ``1 + |N_i | N_j|`` distinct
    hyperplanes.  Freeness would force the restriction exponent to occur
    among the deleted exponents; the union cardinality never does.  A
    pair outside ``2 <= i < j <= ell`` is no witness.
    """
    if not 2 <= witness.i < witness.j <= nest.ell:
        return False
    den, a_nums, b_nums = nest.den, nest.nums[witness.i - 2], nest.nums[witness.j - 2]
    a, b = len(a_nums), len(b_nums)
    c = len(set(a_nums) | set(b_nums))
    if witness.localized_exponents != (1, a, b) or witness.restriction_exponent != c:
        return False
    if c in (a, b):  # comparable pair: no obstruction at all
        return False

    # x2 = x3 is the braid edge build_n_ish always makes
    deleted = deletion(cone(build_n_ish(NestSpec(3, den, (a_nums, b_nums)))), (1, 2, 0))
    edges_den, edges = deleted.gain_edges()

    # translations, Euler, and the fields of degrees |N_i| and |N_j|:
    # prod_{a in N_i} (x1 - x2 - a z) d/dx2 and prod_{b in N_j} (x1 - x3 - b z) d/dx3,
    # each factor the deletion's own edge (a nonzero scalar per factor
    # changes neither log-ness nor degrees, and scales the determinant)
    phi2 = (None, (1, tuple(e for e in edges if e and e[:2] == (0, 1))), None, None)
    phi3 = (None, None, (1, tuple(e for e in edges if e and e[:2] == (0, 2))), None)
    try:
        if factored_saito_constant(_translation_and_euler(3) + [phi2, phi3], deleted) is None:
            return False
    except ValueError:  # some derivation is not logarithmic for the deletion
        return False

    # restriction: distinct traces of the remaining hyperplanes on x2 = x3
    traces = {Flat.through([edge, (1, 2, 0)], 4, True, edges_den) for edge in edges}
    return len(traces) == 1 + c
