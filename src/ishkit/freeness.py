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

``is_nest`` and ``nest_exponents`` decide by ``NestSpec.chained``, the one
chain test, on sets of numerators over one denominator, compared as ``int``s.
``nest_exponents`` tests an order it is given.  ``decide_free`` tests
every pair of sets for comparability at once, in one pass each way over
the size order: that gives its verdict, the chain order ``is_nest`` would
find when free, and the first incomparable pair when not.

Every component of both certificates' bases is a product of linear
forms, so each basis is built in factored form: each component is zero
or a scalar times a sorted tuple of the cone's own normalized integer
forms, read from ``arrangement._diff_form``.  ``factored_basis`` is the
one builder of the paper's basis: ``saito`` certifies it as it is, and
``basis_derivations`` multiplies it out for display, one component per
field by ``MultiPoly.product``, the one constructor of a polynomial from
linear forms, and the others by exchanging two variables; no module but
``exactmath`` reads a packed monomial key.  ``factored_saito_constant``
decides Saito's criterion on the factors, field by field, on one index of
the arrangement's forms made in one pass over its gain edges
(``_form_index``): each form is a bit, each coordinate the mask of the
forms that use it, and the braid forms one mask.  A log check is shown in
one of four ways (``_log_shown``):

* a multiple ``c`` of the Euler field by the identity ``theta(alpha) = c alpha``;
* by the index, when every component the form picks out holds the form
  among its factors (unique factorization in ``Q[x]``): a field's forms
  still to show are the OR, over its nonzero components ``k``, of the
  forms that use ``x_k`` less those among that component's factors;
* inside an exchange group (``_exchange_group``), the one exchange
  rule: the components of a field that exchanging two variables swaps,
  found once per field.  A braid form ``x_s - x_t`` on two members needs
  no exchange of its own, and all of them are cleared with one mask;
* by the factors and sums (``_factored_is_log``), on what is left, when
  every term picked out has ``alpha_H`` among its factors or is a constant
  or a linear form, and the constants sum to 0 and the linear forms to a
  multiple of ``alpha_H``.

The determinant is then read off the factors: both certificates' basis
matrices are triangular up to a permutation of the columns (``_peel``),
so the determinant is a sign, a product of scalars and a product of
linear forms, and it is a constant times ``Q(A)`` when those forms are
A's own, each once: each pivot factor takes its form's bit in the index,
and the constant is built from the scalars' integer numerators and
denominators.  Anything else -- a log check no way shows, a
matrix that does not peel, or forms that are not A's each once -- is
handed to ``saito_constant`` on the derivations multiplied out.
Neither certificate's basis is handed on, and of their fields only the
translation field's constants reach the sums.

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
from itertools import compress
from math import prod
from typing import NamedTuple, Sequence

from .arrangement import Arrangement, NestSpec, _diff_form, build_n_ish, cone
from .exactmath import MultiPoly, Scalar, clear_denominators, int_det, poly_str, vanishes_on
from .lattice import Flat

Factor = tuple[int, ...]  # a normalized integer linear form, as arrangement._diff_form builds it
Term = tuple[Scalar, tuple[Factor, ...]]  # scalar * product of the sorted factors
FactoredDerivation = tuple[Term | None, ...]  # one component per coordinate; None is zero
Derivation = tuple[MultiPoly, ...]  # the same, multiplied out; a zero component is the zero polynomial
FormIndex = tuple[dict[Factor, int], list[int], int, list[Factor]]  # the (bits, touch, braid, forms) of _form_index


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
    is a multiple exactly when the restriction is zero.
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
    """Order the sets into a chain under inclusion, if possible.

    Returns indices ``(w(2), ..., w(ell))`` with ``N_{w(2)} <= ... <=
    N_{w(ell)}`` (sorted by cardinality, ties by the sorted elements),
    or ``None`` when no chain exists.  The sets are compared as their
    integer numerators over the nest's one denominator.
    """
    nums = nest.nums
    order = tuple(sorted(range(2, nest.ell + 1), key=lambda j: (len(nums[j - 2]), nums[j - 2])))
    return order if nest.chained(order) else None


def nest_exponents(nest: NestSpec, order: Sequence[int]) -> tuple[int, ...]:
    """Exponent multiset ``{0, 1} | {|N_{w(k)}| + ell - k}`` of the cone."""
    if not nest.reordered(order).is_ascending():
        raise ValueError("order does not certify a chain")
    return _exponents(nest, order)


def _exponents(nest: NestSpec, order: Sequence[int]) -> tuple[int, ...]:
    """``nest_exponents`` of an order already known to be a chain order."""
    ell, nums = nest.ell, nest.nums
    return tuple(sorted([0, 1, *(len(nums[j - 2]) + ell - k for k, j in enumerate(order, start=2))]))


def _translation_and_euler(ell: int) -> list[FactoredDerivation]:
    """``d/dx1 + ... + d/dxl`` and the Euler field, of degrees 0 and 1 on a cone over ``x1..xl, z``."""
    zeros = (0,) * ell
    units = [zeros[:k] + (1,) + zeros[k:] for k in range(ell + 1)]
    return [((1, ()),) * ell + (None,), tuple((1, (u,)) for u in units)]


def factored_basis(nest: NestSpec) -> list[FactoredDerivation]:
    """The explicit derivation basis for the cone of an ascending nest, factored.

    The one builder of the paper's basis: ``basis_derivations`` multiplies
    it out, and ``factored_saito_constant`` certifies it.  For ``N_2 <= ...
    <= N_ell`` over variables ``x1..xl, z`` the basis consists of the
    constant translation field, the Euler field, and for each ``k`` a field
    supported on ``x2..xk`` whose ``x_s`` component is
    ``prod_{a in N_k} (x1 - x_s - a z) * prod_{t > k} (x_s - x_t)``.
    For ``a = num/den`` over the nest's denominator, reduced to ``p/q``,
    the factor is ``(q x1 - q x_s - p z) / q``: the coned hyperplane's own
    form (``_diff_form``).  The components of one field share the scalar
    ``1 / prod q``, an ``int`` when every entry of ``N_k`` is integral.
    Only the ``x2`` factors are built, each form once: the entries' from
    ``N_ell``, which holds every entry of an ascending nest, and each braid
    form ``x2 - x_t`` for every field.  The ``x_s`` factors are the same forms
    with ``x2`` and ``x_s`` exchanged (``_exchanged``).  So in every field,
    the translation and Euler fields too, each nonzero component is the
    first one with the two variables exchanged, and the first one has no
    ``x_s``: each field with two or more of them is one exchange group
    (``_exchange_group``).
    """
    if not nest.is_ascending():
        raise ValueError("the derivation basis needs an ascending nest")
    ell, den = nest.ell, nest.den
    out = _translation_and_euler(ell)
    entry_forms = {a: _diff_form(ell, 1, 2, a, den) for a in nest.nums[-1]}  # N_ell holds every entry
    braid_forms = [_diff_form(ell, 2, t) for t in range(3, ell + 1)]
    for k, entries in enumerate(nest.nums, start=2):
        first = tuple(sorted([entry_forms[a] for a in entries] + braid_forms[k - 2:]))
        scale = prod(f[0] for f in first if f[0])  # the q of each x1 - x2 - a z
        scalar = 1 if scale == 1 else Fraction(1, scale)
        comps = [first] + [_exchanged(first, 1, s - 1) for s in range(3, k + 1)]
        out.append((None, *((scalar, c) for c in comps), *(None,) * (ell + 1 - k)))
    return out


def _exchanged(factors: Sequence[Factor], s: int, t: int) -> tuple[Factor, ...]:
    """The factors with coordinates ``s`` and ``t`` exchanged in each, sorted."""
    out = []
    for f in factors:
        g = list(f)
        g[s], g[t] = f[t], f[s]
        out.append(tuple(g))
    out.sort()
    return tuple(out)


def _expanded(theta: FactoredDerivation, nvars: int) -> Derivation:
    """The derivation with every component multiplied out (``MultiPoly.product``)."""
    return tuple(MultiPoly.zero(nvars) if comp is None else MultiPoly.product(nvars, *comp) for comp in theta)


def basis_derivations(nest: NestSpec) -> list[Derivation]:
    """The basis of ``factored_basis`` with every component multiplied out.

    Only the first nonzero component of each field is multiplied out, at
    ``x_r``.  Every other nonzero component, at ``x_s``, is the first one's
    factors with ``x_r`` and ``x_s`` exchanged, and the first one has no
    ``x_s`` (``factored_basis``), so its expansion is the first one's with
    the two variables exchanged (``MultiPoly.swapped``).
    """
    n = nest.ell + 1
    zero = MultiPoly.zero(n)
    out = []
    for theta in factored_basis(nest):
        r = next(k for k, comp in enumerate(theta) if comp is not None)
        first = MultiPoly.product(n, *theta[r])
        out.append(tuple(zero if comp is None else first if s == r else first.swapped(r, s)
                         for s, comp in enumerate(theta)))
    return out


def _factored_is_log(theta: FactoredDerivation, alpha: Factor, support: Sequence[tuple[int, int]]) -> bool:
    """Do the factors and sums show that ``theta(alpha)`` is a multiple of ``alpha``?

    ``support`` lists the pairs ``(k, alpha[k])`` with ``alpha[k] != 0`` in
    increasing ``k``; only those components of ``theta`` enter the image
    ``sum alpha[k] theta[k]``.  The scalars are ``int``s or ``Fraction``s.
    A term ``c * prod f`` with ``alpha`` among its factors lies in
    ``(alpha)`` and is skipped.  The constant terms must sum to 0, and the
    terms with one factor, summed as form vectors into one linear form
    ``L``, to a multiple of ``alpha``: with ``x_p`` the first variable of
    ``alpha``, ``alpha_p L - L_p alpha`` must be zero.  ``(alpha)`` is a
    homogeneous ideal, so this decides the image degree by degree, and
    True is a proof.

    False means only "not shown": a term of two or more factors, none of
    them ``alpha``, may cancel against other terms, and the factors alone
    cannot tell.  ``_log_shown`` sends here only the forms its index and
    identity leave: never a braid form inside the field's exchange group
    (``_exchange_group``), a form that every component it picks out holds,
    or any form of a multiple of the Euler field.  Any check that is not
    shown is handed by ``factored_saito_constant`` to ``saito_constant``.
    """
    constant, linear = 0, None
    for k, a in support:
        comp = theta[k]
        if comp is None or alpha in comp[1]:
            continue
        scalar, factors = comp
        if not factors:
            constant += a * scalar
        elif len(factors) == 1:
            c, f = a * scalar, factors[0]
            linear = [c * v for v in f] if linear is None else [u + c * v for u, v in zip(linear, f)]
        else:
            return False
    if constant:
        return False
    if linear is None:
        return True
    p, ap = support[0]
    lp = linear[p]
    return all(ap * u == lp * v for u, v in zip(linear, alpha))


def _exchange_group(theta: FactoredDerivation) -> set[int] | None:
    """The exchange group of a field: coordinates any two of whose components
    the exchange of their two variables swaps.  None when the field has
    fewer than two nonzero components.

    With ``c * P`` the first nonzero component, at ``x_r``, the group holds
    ``r`` and each ``s`` whose component is ``c`` times ``P`` with ``x_r`` and
    ``x_s`` exchanged, where ``P`` has no ``x_s``: that component is ``P`` with
    ``x_r`` renamed ``x_s``.  Any two members ``s`` and ``t`` are then
    exchanged by swapping ``x_s`` and ``x_t`` (the map ``sigma``), as neither
    appears in ``P``.  So for a braid form ``alpha = a (x_s - x_t)`` inside
    the group, with ``P_s`` the component at ``x_s`` over ``c``,
    ``theta(alpha) = a c (P_s - P_s o sigma)``, which vanishes on
    ``x_s = x_t``: the group shows every such log check with ``m - 1``
    exchanges for a field of ``m`` members, none of them per braid form.
    This is the one exchange rule; each field of ``factored_basis`` with two
    or more nonzero components is one group.
    """
    nonzero = [k for k, comp in enumerate(theta) if comp is not None]
    if len(nonzero) < 2:
        return None
    r, *rest = nonzero
    scalar, factors = theta[r]
    group = {r}
    for s in rest:
        comp = theta[s]
        if comp[0] == scalar and not any(f[s] for f in factors) and comp[1] == _exchanged(factors, r, s):
            group.add(s)
    return group


def _peel(rows: Sequence[FactoredDerivation]) -> list[int] | None:
    """The pivot column of each row, when the matrix peels; else None.

    Peeling takes the first column with exactly one nonzero entry among
    the rows left, and strikes out that entry's row, until no row is left.
    Each step is a Laplace expansion down that column, so the determinant
    is ``sign(pivots)`` times the product of the pivot entries.  A column
    is the mask of its rows with a nonzero entry, so a step is one AND
    with the mask of the rows left per column it reads.
    """
    cols = [0] * len(rows)
    for r, theta in enumerate(rows):
        for c, comp in enumerate(theta):
            if comp is not None:
                cols[c] |= 1 << r
    left = (1 << len(rows)) - 1
    pivots = [0] * len(rows)
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
    """The forms of a central arrangement, indexed in one pass: hyperplane
    ``i`` is bit ``1 << i``.  Returns ``(bits, touch, braid, forms)``: ``bits``
    maps each form to its bit, ``touch[k]`` is the mask of the forms that use
    coordinate ``k``, ``braid`` the mask of the braid forms ``a (x_s - x_t)``,
    and ``forms`` the forms in bit order.

    Each form is read off its gain edge: ``(i, j, c)`` is ``_diff_form``'s form
    on ``x_i`` and ``x_j``, and on ``z`` when ``c`` is nonzero, a braid form
    when ``c`` is 0; ``None`` is ``z``.  An unconed central arrangement has
    every gain 0, and its forms have no column ``z``, as its hyperplanes do.
    An arrangement given as hyperplanes has no edges, and each of its forms
    is scanned for its coordinates.
    """
    n = arr.dim
    bits, touch, braid, forms = {}, [0] * n, 0, []
    try:
        den, edges = arr.gain_edges()
    except ValueError:  # given as hyperplanes
        for i, h in enumerate(arr.hyperplanes):
            bit = 1 << i
            alpha = h.coeffs
            bits[alpha] = bit  # a central arrangement holds each form once
            forms.append(alpha)
            for k in compress(range(n), alpha):
                touch[k] |= bit
            if alpha.count(0) == n - 2 and not sum(alpha):  # two entries, a and -a
                braid |= bit
        return bits, touch, braid, forms
    ell = n - arr.coned
    for i, edge in enumerate(edges):
        bit = 1 << i
        if edge is None:
            alpha = (0,) * ell + (1,)
            touch[ell] |= bit
        else:
            a, b, c = edge
            alpha = _diff_form(ell, a + 1, b + 1, c, den)[:n]
            touch[a] |= bit
            touch[b] |= bit
            if c:  # a nonzero gain of a central arrangement is coned
                touch[ell] |= bit
            else:
                braid |= bit
        bits[alpha] = bit  # the edges are distinct, and so are their forms
        forms.append(alpha)
    return bits, touch, braid, forms


def _log_shown(theta: FactoredDerivation, index: FormIndex) -> bool:
    """Do the factors show every log check of the field on the arrangement?

    A multiple ``c`` of the Euler field, every component ``c x_k``, is
    shown by the identity ``theta(alpha) = c alpha``.  Otherwise the forms
    still to show are, over the nonzero components ``k``, the forms that use
    ``x_k`` and are not among that component's factors: a form none of them
    leaves is shown, as every term it picks out holds it.  The braid forms
    on two members of the field's exchange group (``_exchange_group``), the
    braid forms that two members' coordinates touch, are shown by the group.
    Each form left is shown when the factors and sums show it
    (``_factored_is_log``): of a field of constants ``c_k``, when the number
    ``sum alpha[k] c_k`` is 0.
    """
    bits, touch, braid, forms = index
    n = len(theta)
    nonzero = [k for k, comp in enumerate(theta) if comp is not None]
    if len(nonzero) == n and all(comp[0] == theta[0][0] and len(comp[1]) == 1 and len(comp[1][0]) == n
                                 and comp[1][0][k] == 1 and comp[1][0].count(0) == n - 1
                                 for k, comp in enumerate(theta)):
        return True
    left = 0
    for k in nonzero:
        held = 0
        for f in theta[k][1]:
            held |= bits.get(f, 0)
        left |= touch[k] & ~held
    if left & braid:
        group = _exchange_group(theta)
        if group is not None:
            once = twice = 0
            for k in group:
                twice |= once & touch[k]
                once |= touch[k]
            left &= ~(braid & twice)
    while left:
        bit = left & -left
        left ^= bit
        alpha = forms[bit.bit_length() - 1]
        if not _factored_is_log(theta, alpha, [(k, alpha[k]) for k in compress(range(n), alpha)]):
            return False
    return True


def factored_saito_constant(
    derivs: Sequence[FactoredDerivation], arr: Arrangement
) -> Fraction | None:
    """``saito_constant`` of the expanded derivations, proved on the factors.

    The same hypotheses are checked in the same order, with the same
    errors.  A term whose scalar is 0 is read as a zero component, as its
    expansion is.  The log checks run field by field on one index of A's
    forms (``_form_index``), made in one pass over A's gain edges with no
    hyperplane derived: each form is a bit, each
    coordinate the mask of the forms that use it.  A field's checks that
    its factors settle -- every component the form picks out holds the
    form, or the form is a braid form inside the field's exchange group --
    are cleared by masks with no per-form work, a multiple of the Euler
    field by its identity, and only the forms left are summed
    (``_log_shown``).  A product of linear forms is homogeneous, so a
    derivation is homogeneous when its nonzero components have equally
    many factors.

    The determinant is then read off the matrix when it peels (``_peel``):
    it is ``sign * prod(scalars) * prod(factors)`` over the pivots, and when
    the pivots' factors are A's forms, each once, that is ``c * Q(A)`` as a
    polynomial identity (Saito's criterion by unique factorization,
    Orlik-Terao 1992, Thm 4.19).  Each pivot factor takes its form's bit,
    and ``c`` is built from the scalars' integer numerators and
    denominators.  Whatever the factors do not show -- a log check they
    cannot settle, a matrix that does not peel, or pivot factors that are
    not A's forms each once, as when a factor is a multiple of A's form --
    is handed whole to ``saito_constant`` on the derivations multiplied
    out, the one general route.
    """
    n = arr.dim
    if len(derivs) != n:
        raise ValueError("need exactly ambient-dimension many derivations")
    if any(len(theta) != n for theta in derivs):
        raise ValueError("need exactly one component per variable")
    if not arr.is_central:
        raise ValueError("logarithmic derivations are tested on central arrangements")
    derivs = [tuple(comp if comp and comp[0] else None for comp in theta) for theta in derivs]
    index = _form_index(arr)
    if not all(_log_shown(theta, index) for theta in derivs):
        return _deferred(derivs, arr)
    if any(all(comp is None for comp in theta) for theta in derivs):
        return None
    degree = 0
    for theta in derivs:
        counts = {len(comp[1]) for comp in theta if comp is not None}
        if len(counts) != 1:
            raise ValueError("derivation is not homogeneous")
        degree += counts.pop()
    if degree != len(arr):
        return None
    pivots = _peel(derivs)
    if pivots is None:
        return _deferred(derivs, arr)
    # the pivots hold |A| factors (the degree check), so when each takes a
    # bit no other took, they take every bit: A's forms, each once
    bits, taken, num, den = index[0], 0, 1, 1
    for theta, c in zip(derivs, pivots):
        scalar, factors = theta[c]
        for f in factors:
            bit = bits.get(f, 0)
            if not bit or taken & bit:
                return _deferred(derivs, arr)
            taken |= bit
        num *= scalar.numerator
        den *= scalar.denominator
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return Fraction((-1) ** inversions * num, den)


def _deferred(derivs: Sequence[FactoredDerivation], arr: Arrangement) -> Fraction | None:
    """``saito_constant`` of the derivations multiplied out (``_expanded``)."""
    return saito_constant([_expanded(theta, arr.dim) for theta in derivs], arr)


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


def decide_free(nest: NestSpec) -> FreenessVerdict:
    """Freeness of the coned nested arrangement, with certificate data.

    In size order a set is comparable with every other exactly when it
    holds the union of the sets before it and lies inside the intersection
    of the sets after it, so after one sort a pass each way finds the sets
    incomparable with some other, in time linear in the entries.  With none
    the size order (ties in index order) is a chain order, the one
    ``is_nest`` finds.  Otherwise the witness is the first pair i < j of
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
        return FreenessVerdict(True, _exponents(nest, [k + 2 for k in by_size]), None)
    i = min(tangled)
    a = sets[i]
    j = next(k for k in range(i + 1, len(sets)) if not (a <= sets[k] or sets[k] <= a))
    b = sets[j]
    return FreenessVerdict(False, None, NonFreeWitness(i + 2, j + 2, (1, len(a), len(b)), len(a | b)))


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

    edges_den, edges = cone(build_n_ish(NestSpec(3, den, (a_nums, b_nums)))).gain_edges()
    edges.remove((1, 2, 0))  # x2 = x3, the braid edge build_n_ish always makes
    deleted = Arrangement._of_edges(4, edges_den, edges, coned=True)

    # translations, Euler, and the fields of degrees |N_i| and |N_j|:
    # prod_{a in N_i} (x1 - x2 - a z) d/dx2 and prod_{b in N_j} (x1 - x3 - b z) d/dx3,
    # each factor the deletion's own form (a nonzero scalar per factor
    # changes neither log-ness nor degrees, and scales the determinant)
    phi2 = (None, (1, tuple(sorted(_diff_form(3, 1, 2, e, den) for e in a_nums))), None, None)
    phi3 = (None, None, (1, tuple(sorted(_diff_form(3, 1, 3, e, den) for e in b_nums))), None)
    try:
        if factored_saito_constant(_translation_and_euler(3) + [phi2, phi3], deleted) is None:
            return False
    except ValueError:  # some derivation is not logarithmic for the deletion
        return False

    # restriction: distinct traces of the remaining hyperplanes on x2 = x3
    traces = {Flat.through([edge, (1, 2, 0)], 4, True, edges_den) for edge in edges}
    return len(traces) == 1 + c
