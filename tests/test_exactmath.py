import heapq
import json
import random
from fractions import Fraction
from functools import partial
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ishkit.cli import _derivation_records, _json_unipoly, _render
from ishkit.exactmath import (
    _FIELD,
    _MASK,
    MultiPoly,
    UniPoly,
    clear_denominators,
    equation_str,
    format_rational,
    int_det,
    nonnegative_int_roots,
    parse_rational_pair,
    poly_json_str,
    poly_str,
    rational_str,
    reduced,
    unipoly_factored_str,
    unipoly_str,
    vanishes_on,
)
from test_arrangement import parse_rational


def _det_cofactor(m):
    """Plain first-row cofactor expansion: the reference determinant."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * entry * _det_cofactor([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, entry in enumerate(m[0])
    )


# -- tuple-keyed reference arithmetic -----------------------------------
#
# The arithmetic as it stood with exponent tuples as term keys: the
# oracle for the packed-integer keys of MultiPoly.  Polynomials here are
# dicts from exponent tuples to nonzero coefficients, integral ones as int.


def _exact(c):
    return c.numerator if c.denominator == 1 else c


def _grlex(exp):
    # Graded lex: total degree first, ties broken so that the earlier
    # variable counts as larger.
    return (sum(exp), exp)


def ref_terms(terms):
    return {e: _exact(Fraction(c)) for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s == 0:
            del out[e]
        else:
            out[e] = _exact(s)
    return out


def ref_scale(a, q):
    return {e: _exact(c * q) for e, c in a.items()} if q else {}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: _exact(c) for e, c in out.items() if c}


def ref_div(f, g):
    """(quotient, remainder) of single-divisor division in graded-lex order."""
    g_exp = max(g, key=_grlex)
    g_coef = g[g_exp]
    work = dict(f)
    heap = [(-sum(e), tuple(-x for x in e)) for e in work]
    heapq.heapify(heap)
    quotient, remainder = {}, {}
    while heap:
        _, neg = heapq.heappop(heap)
        exp = tuple(-x for x in neg)
        coef = work.pop(exp, None)
        if coef is None or coef == 0:
            continue
        if all(a <= b for a, b in zip(g_exp, exp)):
            q_exp = tuple(a - b for a, b in zip(exp, g_exp))
            q_coef = _exact(Fraction(coef) / g_coef)
            quotient[q_exp] = quotient.get(q_exp, 0) + q_coef
            for e2, c2 in g.items():
                if e2 == g_exp:
                    continue
                ne = tuple(map(add, q_exp, e2))
                prev = work.get(ne)
                s = (prev if prev is not None else 0) - q_coef * c2
                if s == 0:
                    work.pop(ne, None)
                else:
                    work[ne] = _exact(s)
                    if prev is None:
                        heapq.heappush(heap, (-sum(ne), tuple(-x for x in ne)))
        else:
            remainder[exp] = coef
    return {e: _exact(c) for e, c in quotient.items() if c}, remainder


def in_order(p):
    """A MultiPoly's terms in its own order, with each coefficient's type."""
    return [(e, c, type(c)) for e, c in p.sorted_terms()]


def ref_in_order(terms):
    """Reference terms in graded-lex order of their tuples, with coefficient types."""
    ordered = sorted(terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True)
    return [(e, c, type(c)) for e, c in ordered]


COEF = st.sampled_from([1, -1, 2, -3, 5]) | st.builds(
    Fraction, st.integers(-7, 7).filter(lambda k: k % 2), st.just(2)
)


@st.composite
def poly_terms(draw, nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return draw(st.dictionaries(exps, COEF, max_size=6))


@st.composite
def poly_pairs(draw):
    nvars = draw(st.integers(1, 6))
    return nvars, draw(poly_terms(nvars)), draw(poly_terms(nvars)), draw(COEF | st.just(0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(poly_pairs())
def test_packed_arithmetic_matches_tuple_reference(case):
    nvars, a_terms, b_terms, q = case
    a, b = from_terms(nvars, a_terms), from_terms(nvars, b_terms)
    ra, rb = ref_terms(a_terms), ref_terms(b_terms)
    assert in_order(a) == ref_in_order(ra)
    assert in_order(a + b) == ref_in_order(ref_add(ra, rb))
    assert in_order(sub(a, b)) == ref_in_order(ref_add(ra, ref_scale(rb, -1)))
    assert in_order(a * q) == ref_in_order(ref_scale(ra, q))
    product = a * b
    assert in_order(product) == ref_in_order(ref_mul(ra, rb))
    assert product.total_degree() == max((sum(e) for e in ref_mul(ra, rb)), default=0)
    if ra:
        assert a.sorted_terms()[0] == (max(ra, key=_grlex), ra[max(ra, key=_grlex)])
        assert a.is_homogeneous() == (len({sum(e) for e in ra}) == 1)


@st.composite
def linear_form_cases(draw):
    """A polynomial, a linear form and whether to multiply the two.

    The pivot (first nonzero coefficient) sits at any variable, the last
    one (``z`` of a cone) included, and every coefficient may be a
    non-unit or a half-integer.
    """
    nvars = draw(st.integers(1, 5))
    lead = draw(st.integers(0, nvars - 1))
    tail = st.lists(COEF | st.just(0), min_size=nvars - 1 - lead, max_size=nvars - 1 - lead)
    coeffs = [0] * lead + [draw(COEF)] + draw(tail)
    return nvars, coeffs, draw(poly_terms(nvars)), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linear_form_cases())
@example((2, [1, 1], {(2, 0): 1, (0, 2): -1}, False))  # x1^2 - z^2 by x1 + z divides
@example((2, [1, -1], {(1, 0): 1}, False))  # x1 by x1 - x2 leaves x2
@example((3, [0, 0, 1], {(1, 0, 1): 1, (2, 0, 0): -1}, False))  # z = 0
@example((3, [0, 2, Fraction(-3, 2)], {(0, 2, 0): 1, (1, 1, 1): 2}, True))
@example((4, [0, -3, 0, 5], {(1, 1, 0, 2): Fraction(1, 2), (0, 0, 3, 0): 1}, False))
def test_vanishes_on_matches_division_remainder(case):
    nvars, coeffs, f_terms, multiply = case
    alpha = {tuple(int(i == k) for i in range(nvars)): a for k, a in enumerate(coeffs) if a}
    rf = ref_terms(f_terms)
    if multiply:
        rf = ref_mul(rf, alpha)
    _, remainder = ref_div(rf, alpha)
    verdict = vanishes_on(from_terms(nvars, rf), coeffs)
    assert verdict == (not remainder)
    assert verdict or not multiply


def _tuple_terms(p):
    return dict(p.sorted_terms())


def test_exact_div_examples():
    # The reference division that judges vanishes_on, checked against
    # known quotients, and the restriction check on the same divisions.
    x1, z = var(2, 0), var(2, 1)
    f = sub(x1 * x1, z * z)
    q, r = ref_div(_tuple_terms(f), _tuple_terms(x1 + z))
    assert as_terms(from_terms(2, q)) == as_terms(sub(x1, z)) and not r
    assert vanishes_on(f, [1, 1])
    # not divisible: x1 = (x1 - x2) * 1 + x2
    x2 = var(2, 1)
    q, r = ref_div(_tuple_terms(x1), _tuple_terms(sub(x1, x2)))
    assert as_terms(from_terms(2, q)) == as_terms(MultiPoly.const(2, 1))
    assert as_terms(from_terms(2, r)) == as_terms(x2)
    assert not vanishes_on(x1, [1, -1])
    with pytest.raises(ValueError):
        vanishes_on(x1, [0, 0])


def test_exact_div_identity_random():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.choice([2, 3])

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exp = tuple(rng.randint(0, 2) for _ in range(n))
                terms[exp] = terms.get(exp, 0) + Fraction(rng.randint(-4, 4))
            return from_terms(n, terms)

        f, g = rand_poly(), rand_poly()
        if g.is_zero:
            continue
        # exact division of a product
        q, r = ref_div(_tuple_terms(f * g), _tuple_terms(g))
        assert not r and as_terms(from_terms(n, q)) == as_terms(f)
        # general division identity, in MultiPoly arithmetic
        q, r = ref_div(_tuple_terms(f), _tuple_terms(g))
        assert as_terms(g * from_terms(n, q) + from_terms(n, r)) == as_terms(f)
        # a product with a linear form vanishes on its hyperplane
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        if not any(coeffs):
            continue
        alpha = sum((var(n, k) * a for k, a in enumerate(coeffs)), MultiPoly.zero(n))
        assert vanishes_on(f * alpha, coeffs)
        _, r = ref_div(_tuple_terms(f), _tuple_terms(alpha))
        assert vanishes_on(f, coeffs) == (not r)


def test_vanishes_on_rejects_bad_forms():
    x1 = var(2, 0)
    with pytest.raises(ValueError):
        vanishes_on(x1, [0, 0])
    with pytest.raises(ValueError):
        vanishes_on(x1, [1, 0, 0])


def ref_evaluate(terms, point):
    """The value at ``point`` term by term over exponent tuples, as ``_exact``."""
    total = 0
    for exp, coef in terms.items():
        for v, e in zip(point, exp):
            coef *= v**e
        total += coef
    return _exact(Fraction(total))


POINT_ENTRY = st.integers(-4, 4) | st.builds(Fraction, st.integers(-7, 7), st.just(2))


@st.composite
def evaluation_cases(draw):
    nvars = draw(st.integers(0, 6))
    terms = draw(poly_terms(nvars))
    return nvars, terms, draw(st.lists(POINT_ENTRY, min_size=nvars, max_size=nvars))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(evaluation_cases())
def test_evaluate_matches_tuple_reference(case):
    nvars, terms, point = case
    value = from_terms(nvars, terms).evaluate(point)
    expected = ref_evaluate(ref_terms(terms), point)
    assert value == expected and type(value) is type(expected)
    if all(type(c) is int for c in ref_terms(terms).values()) and all(
        Fraction(v).denominator == 1 for v in point
    ):
        assert type(value) is int


def test_degree_past_the_field_limit_raises():
    limit = 2**15 - 1
    top = from_terms(2, {(limit, 0): 1})
    assert top.total_degree() == limit
    with pytest.raises(ValueError):
        from_terms(2, {(limit, 1): 1})
    with pytest.raises(ValueError):
        from_terms(2, {(2**16, 0): 1})
    half = from_terms(2, {(2**13, 2**13): 1, (0, 1): 3})
    assert (half * from_terms(2, {(limit - 2**14, 0): 1})).total_degree() == limit
    with pytest.raises(ValueError):
        half * half
    with pytest.raises(ValueError):
        top * var(2, 1)


# -- the one constructor from linear forms against its replaced bodies ----
#
# ``MultiPoly.const``, ``variable`` and ``linear`` as they stood before each
# became one call of ``MultiPoly.product``: the oracles of that constructor.


def const_by_key(nvars, value):
    res = MultiPoly(nvars)
    if value:
        res.terms = {0: _exact(value)}  # the constant monomial packs to the key 0
    return res


def variable_by_key(nvars, index):
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} out of range")
    res = MultiPoly(nvars)
    res.terms = {1 << (_FIELD * nvars) | 1 << (_FIELD * (nvars - 1 - index)): 1}
    return res


def linear_by_key(coeffs):
    n = len(coeffs)
    res = MultiPoly(n)
    res.terms = {
        1 << (_FIELD * n) | 1 << (_FIELD * (n - 1 - k)): _exact(c)
        for k, c in enumerate(coeffs)
        if c
    }
    return res


SCALAR = st.just(0) | st.integers(-5, 5) | st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def product_cases(draw):
    """``(nvars, scalar, factors)``: a scalar (0, an int or a Fraction) and up
    to four linear forms whose entries are 0, ints or Fractions, some of
    them forms with no nonzero entry."""
    nvars = draw(st.integers(0, 4))
    form = st.lists(SCALAR, min_size=nvars, max_size=nvars)
    return nvars, draw(SCALAR), draw(st.lists(form, max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(product_cases())
@example((2, 1, [[1, -1], [1, 1]]))  # (x1 - x2)(x1 + x2): the x1 x2 terms cancel
@example((2, Fraction(1, 2), [[0, 2]]))  # an integral product of a Fraction scalar
@example((2, 2, [[Fraction(1, 2), Fraction(-3, 2)]]))  # int scalar, Fraction form, int product
@example((3, Fraction(-5, 3), []))  # no factor: the scalar itself
@example((2, 0, [[1, 1]]))
@example((2, 3, [[1, 1], [0, 0]]))  # a zero form
@example((0, 7, [[]]))  # the empty form in no variables is zero
def test_product_matches_the_key_oracles_and_the_products_of_linears(case):
    nvars, scalar, factors = case
    got = MultiPoly.product(nvars, scalar, factors)
    by_key, by_linear = const_by_key(nvars, scalar), MultiPoly.const(nvars, scalar)
    for f in factors:
        by_key, by_linear = by_key * linear_by_key(f), by_linear * MultiPoly.linear(f)
    assert in_order(got) == in_order(by_key) == in_order(by_linear)
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.terms.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n), SCALAR, st.lists(SCALAR, min_size=n, max_size=n), st.integers(-1, n))))
@example((0, 0, [], 0))
def test_const_linear_and_variable_match_their_key_oracles(case):
    nvars, value, coeffs, index = case
    assert in_order(MultiPoly.const(nvars, value)) == in_order(const_by_key(nvars, value))
    assert in_order(MultiPoly.linear(coeffs)) == in_order(linear_by_key(coeffs))
    if 0 <= index < nvars:
        assert in_order(var(nvars, index)) == in_order(variable_by_key(nvars, index))
    else:
        for make in (var, variable_by_key):
            with pytest.raises(ValueError, match=f"variable index {index} out of range"):
                make(nvars, index)
    for make in (MultiPoly.const, const_by_key):
        with pytest.raises(ValueError, match="nvars must be nonnegative"):
            make(-1, value)


def test_product_at_the_degree_limit():
    unit = (1, 0)
    top = from_terms(2, {(2**15 - 1, 0): 1})
    assert as_terms(MultiPoly.product(2, 1, [unit] * (2**15 - 1))) == as_terms(top)
    assert MultiPoly.product(2, 0, [unit] * (2**15 - 1)).is_zero
    for scalar in (1, 0, Fraction(1, 2)):  # refused before the scalar is read
        with pytest.raises(ValueError, match="total degree 32768 exceeds the limit 32767"):
            MultiPoly.product(2, scalar, [unit] * 2**15)


def product_by_fraction_arithmetic(nvars, scalar, factors):
    """``MultiPoly.product`` as it scaled each term by ``_exact(c * scalar)``,
    in ``Fraction`` arithmetic, before it cut ``c p / q`` by a gcd."""
    res = MultiPoly.product(nvars, 1, factors)
    res.terms = {k: _exact(c * scalar) for k, c in res.terms.items()} if scalar else {}
    return res


SCALED = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)) | st.integers(-6, 6)


@st.composite
def scaled_product_cases(draw):
    """``(nvars, scalar, factors)``: a scalar ``p/q`` with any ``p`` (0, 1,
    negative or not), and up to four forms of ``int`` or ``Fraction`` entries,
    some of them zero forms."""
    nvars = draw(st.integers(0, 5))
    form = st.lists(SCALAR, min_size=nvars, max_size=nvars)
    return nvars, draw(SCALED), draw(st.lists(form, max_size=4))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scaled_product_cases())
# the x2 and x3 components of theta_3 for the half-integer nest ({1/2}, {1/2, 3/2}),
# and of theta_4 for ({1/2}, {-3/2, 1/2}, {-3/2, 1/2, 2})
@example((4, Fraction(1, 4), [(2, -2, 0, -1), (2, -2, 0, -3)]))
@example((4, Fraction(1, 4), [(2, 0, -2, -3), (2, 0, -2, -1)]))
@example((5, Fraction(1, 4), [(1, -1, 0, 0, -2), (2, -2, 0, 0, -1), (2, -2, 0, 0, 3)]))
@example((3, Fraction(-3, 4), [(2, -2, 1), (2, -2, -1)]))  # p != 1, negative
@example((3, Fraction(5, 6), [(3, 0, 2), (2, 0, 0)]))  # terms that 6 divides, and some that it does not
@example((2, Fraction(7, 2), [(1, 1), (0, 0)]))  # a zero form
@example((2, -4, [(Fraction(1, 2), 3)]))  # an int scalar with Fraction terms
def test_product_scales_int_terms_as_fraction_arithmetic_does(case):
    nvars, scalar, factors = case
    got = MultiPoly.product(nvars, scalar, factors)
    assert in_order(got) == in_order(product_by_fraction_arithmetic(nvars, scalar, factors))
    assert all(c and type(c) is (int if c.denominator == 1 else Fraction) for c in got.terms.values())


# -- the arithmetic that only the tests use ------------------------------


def from_terms(nvars: int, terms: dict) -> MultiPoly:
    """The polynomial of ``terms``, a map from exponent tuples to rationals
    (``Fraction`` reads each), with no packed key read: each term is its
    coefficient times powers of the unit forms (``var``, one
    ``MultiPoly.product`` each), and the terms are summed by ``+``.  A power
    is taken by squaring, so a degree near the key's limit costs few
    products, and a degree past it is ``__mul__``'s ``ValueError``."""
    total = MultiPoly.zero(nvars)
    for exp, coef in terms.items():
        term = MultiPoly.const(nvars, Fraction(coef))
        for k, e in enumerate(exp):
            unit = var(nvars, k)
            while e:
                if e & 1:
                    term = term * unit
                e >>= 1
                if e:
                    unit = unit * unit
        total = total + term
    return total


def var(nvars: int, index: int) -> MultiPoly:
    """The variable of ``index`` among ``nvars``: one call of ``MultiPoly.product``."""
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} out of range")
    return MultiPoly.product(nvars, 1, [[int(i == index) for i in range(nvars)]])


def neg(p: MultiPoly) -> MultiPoly:
    res = MultiPoly(p.nvars)
    res.terms = {k: -c for k, c in p.terms.items()}
    return res


def sub(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    return p + neg(q)


def as_terms(value):
    """A polynomial as ``(nvars, terms)``, and a sequence of them, nested, as a
    list of those: what equality of polynomials compares."""
    if isinstance(value, MultiPoly):
        return value.nvars, value.terms
    return [as_terms(v) for v in value]


def unipoly_add(p: UniPoly, q: UniPoly) -> UniPoly:
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return UniPoly(out)


def test_parse_and_format_rational():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("+6/4") == Fraction(3, 2)
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(3) == "3/1"
    for bad in (1.5, True, "1/0", None, [1], "1e3", "0.5", " 1/2 ", "1/-2", "", "1_0", "\u0663"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_pair_reduces():
    cases = {"5/2": (5, 2), 7: (7, 1), "-3": (-3, 1), "+6/4": (3, 2), "-10/4": (-5, 2),
             "0/7": (0, 1), "007/014": (1, 2), Fraction(-6, 4): (-3, 2)}
    for value, pair in cases.items():
        assert parse_rational_pair(value) == pair
        assert Fraction(*pair) == parse_rational(value)


NUMERATORS = st.one_of(st.integers(-12, 12), st.integers())
DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(min_value=1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(NUMERATORS, DENOMINATORS)
@example(0, 7)
@example(-(10**40), 6 * 10**39)
@example(-4, 1)
def test_reduced_and_rational_str_write_what_fraction_writes(num, den):
    f = Fraction(num, den)
    assert reduced(num, den) == (f.numerator, f.denominator)
    assert rational_str(num, den) == str(f)
    assert format_rational(num, den) == "%d/%d" % reduced(num, den) == format_rational(f)
    assert rational_str(f, 1) == str(f)  # over 1, any rational is written as it is


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(NUMERATORS, min_size=1, max_size=4), NUMERATORS, DENOMINATORS)
@example([6, -6, 3], 0, 6)
@example([0, 2], -4, 2)
def test_equation_str_over_a_denominator_is_the_fraction_equation(coeffs, const, den):
    names = [f"x{i}" for i in range(1, len(coeffs) + 1)]
    as_fractions = [Fraction(c, den) for c in coeffs]
    assert equation_str(coeffs, const, names, den) == equation_str(as_fractions, Fraction(const, den), names)


def test_clear_denominators():
    assert clear_denominators([3, -4, 0]) == ([3, -4, 0], 1)
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 5]) == ([3, -4, 30], 6)
    assert clear_denominators([Fraction(4), Fraction(-2, 1)]) == ([4, -2], 1)
    assert clear_denominators([]) == ([], 1)
    ints, _ = clear_denominators([Fraction(6), Fraction(1, 3)])
    assert all(type(v) is int for v in ints)
    assert clear_denominators(["1/2", True, "-4/6"]) == ([3, 6, -4], 6)


def test_floats_do_not_get_into_the_polynomials():
    for make in (lambda: UniPoly([0.1, 1]), lambda: UniPoly(["0.5"]), lambda: clear_denominators([1, 0.5])):
        with pytest.raises(ValueError, match="cannot read a rational"):
            make()
    coeffs = UniPoly(["6/3", Fraction(1, 2), True]).coeffs
    assert coeffs == (2, Fraction(1, 2), 1) and type(coeffs[0]) is type(coeffs[2]) is int


def test_multipoly_basics():
    x1, x2 = var(2, 0), var(2, 1)
    p = sub(x1, x2) * (x1 + x2)
    assert as_terms(p) == as_terms(sub(x1 * x1, x2 * x2))
    assert p.total_degree() == 2
    assert not p.is_zero
    assert sub(p, p).is_zero
    assert p.evaluate([3, 2]) == 5 and type(p.evaluate([3, 2])) is int
    assert p.evaluate([Fraction(1, 2), 0]) == Fraction(1, 4)


def test_multipoly_cancellation_drops_terms():
    x1, x2 = var(2, 0), var(2, 1)
    p = x1 * x2 + 1
    q = sub(p, x1 * x2)
    assert q.sorted_terms() == [((0, 0), 1)]


def test_integral_coefficients_are_stored_as_int():
    x1, x2 = var(2, 0), var(2, 1)
    half = x1 * Fraction(1, 2)
    assert type(half.sorted_terms()[0][1]) is Fraction
    integral = [
        half * 2,
        half + half,
        (half * x2) * (x1 * 2),
        sub(sub(x1, half), half),
        from_terms(2, {(0, 0): Fraction(4, 2), (1, 1): "6/3"}),
    ]
    for p in integral:
        assert all(type(c) is int for c in p.terms.values()), p


def test_leading_term_graded_lex():
    # x1 > x2: among equal-degree terms the earlier variable wins.
    p = from_terms(2, {(1, 0): 1, (0, 1): 5})
    assert p.sorted_terms()[0] == ((1, 0), Fraction(1))
    q = from_terms(2, {(0, 3): 1, (2, 0): 1})  # degree decides first
    assert q.sorted_terms()[0] == ((0, 3), Fraction(1))
    assert MultiPoly.zero(2).sorted_terms() == []


def test_poly_str_ordering():
    x1, x2 = var(2, 0), var(2, 1)
    p = sub(x2 * x2, 2 * x1) + 1
    assert poly_str(p) == "x2^2 - 2*x1 + 1"
    assert poly_str(MultiPoly.zero(2)) == "0"


def test_det_triangular():
    assert int_det([[3, 0, 0], [7, -2, 0], [1, 5, 4]]) == -24
    assert int_det([[5]]) == 5


def test_det_saito_matrix_rank_two_cone():
    # Coefficient matrix of the degree-(0,1,2) derivation triple for the
    # coned two-line arrangement; its determinant is
    # -z*(x1-x2)*(x1-x2-z), so at every integer point the determinant of
    # the evaluated matrix is that product's value.
    n = 3
    x1, x2, z = var(n, 0), var(n, 1), var(n, 2)
    zero, one = MultiPoly.zero(n), MultiPoly.const(n, 1)
    prod = sub(x1, x2) * sub(sub(x1, x2), z)
    m = [[one, x1, zero], [one, x2, prod], [zero, z, zero]]
    for point in ([1, 2, 4], [5, -3, 2], [1, 1, 1], [0, 0, 0]):
        value = int_det([[entry.evaluate(point) for entry in row] for row in m])
        assert value == (-1 * z * prod).evaluate(point)


def test_det_matches_plain_cofactor():
    # Bareiss elimination divides and swaps rows; plain first-row
    # cofactor expansion is the independent oracle.
    rng = random.Random(99173)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
        assert int_det(m) == _det_cofactor(m)


def test_det_rejects_bad_shapes():
    with pytest.raises(ValueError):
        int_det([])
    with pytest.raises(ValueError):
        int_det([[1, 1]])


def test_det_refuses_entries_that_are_not_ints():
    # Bareiss' floor division would take these without an error: the first
    # two have determinants 1/4 and 11/4, not the 0 and 2 it would give
    for m in ([[Fraction(1, 2), 0], [0, Fraction(1, 2)]],
              [[Fraction(3, 2), 1], [1, Fraction(5, 2)]],
              [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError, match="determinant entries must be ints"):
            int_det(m)


def test_det_singular_matrix_is_zero():
    row = [1, 2, 3, 4, 5]
    m = [row, [2, 0, 1, 0, 7], row, [0, 1, 1, 1, 1], [3, 3, 3, 3, 2]]
    assert int_det(m) == 0
    assert int_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0


def test_unipoly_from_roots():
    assert UniPoly.from_roots([]) == UniPoly.one()
    # t*(t-3)^2 = t^3 - 6t^2 + 9t
    p = UniPoly.from_roots([0, 3, 3])
    assert p == UniPoly([0, 9, -6, 1])
    # multiplying in the extra root 1 gives t^4 - 7t^3 + 15t^2 - 9t
    q = p * UniPoly([-1, 1])
    assert q == UniPoly.from_roots([0, 1, 3, 3])
    assert q == UniPoly([0, -9, 15, -7, 1])


def test_unipoly_eval():
    p = UniPoly.from_roots([0, 3, 3])
    assert p.evaluate(0) == 0
    assert p.evaluate(3) == 0
    assert p.evaluate(-1) == -16
    assert UniPoly().evaluate(5) == 0


def test_unipoly_eval_at_roots_random():
    rng = random.Random(4242)
    for _ in range(25):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        p = UniPoly.from_roots(roots)
        assert p.degree() == len(roots)
        for r in roots:
            assert p.evaluate(r) == 0


def test_unipoly_keeps_integral_coefficients_as_int():
    p = UniPoly([Fraction(4, 2), 0, Fraction(-3), 1])
    assert [type(c) for c in p.coeffs] == [int] * 4
    products = [UniPoly.from_roots([0, 3, 3]), p * UniPoly([-1, 1]), p * Fraction(2), unipoly_add(p, p)]
    for q in products:
        assert all(type(c) is int for c in q.coeffs)
    assert type(p.evaluate(2)) is int and p.evaluate(2) == -2
    assert p.evaluate(Fraction(1, 2)) == Fraction(11, 8)
    assert type(p.evaluate(Fraction(2))) is int
    assert UniPoly.from_roots([Fraction(1, 2)]).coeffs == (Fraction(-1, 2), 1)
    half = UniPoly([Fraction(1, 2)])
    assert half.coeffs == (Fraction(1, 2),) and type(half.coeffs[0]) is Fraction
    assert (half * 2).coeffs == (1,) and type((half * 2).coeffs[0]) is int


def unipoly_to_json(p: UniPoly) -> list[str]:
    """The ascending coefficients as ``"num/den"`` strings: the oracle of the
    writer ``cli._json_unipoly``, as ``exactmath.unipoly_to_json`` stood."""
    return [format_rational(c) for c in p.coeffs]


def test_unipoly_text_and_json_do_not_depend_on_the_coefficient_type():
    p = UniPoly([0, 9, -6, 1])
    as_fractions = UniPoly([0])
    as_fractions.coeffs = tuple(map(Fraction, p.coeffs))
    assert unipoly_str(p) == unipoly_str(as_fractions) == "t^3 - 6t^2 + 9t"
    assert unipoly_to_json(p) == unipoly_to_json(as_fractions) == ["0/1", "9/1", "-6/1", "1/1"]
    for pad in ("\n", "\n    "):
        assert _json_unipoly(p, pad) == _json_unipoly(as_fractions, pad) == _render(unipoly_to_json(p), pad)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 12), max_size=9))
@example([])
@example([0, 0, 0])
@example([4, 4, 4, 4, 1])
def test_nonnegative_int_roots_inverts_from_roots(roots):
    assert nonnegative_int_roots(UniPoly.from_roots(roots)) == sorted(roots)


@pytest.mark.parametrize(
    "p",
    [
        UniPoly([1, 0, 1]),  # t^2 + 1
        UniPoly([Fraction(-1, 2), 1]),  # t - 1/2
        UniPoly([1, 1]),  # t + 1
        UniPoly.from_roots([0, 2, -1, 3]),
        UniPoly.from_roots([2, 3]) * 2,  # not monic
        unipoly_add(UniPoly([0, 0, 6, -5, 1]), UniPoly([1])),  # t^2(t-2)(t-3) + 1
        UniPoly(),
    ],
)
def test_nonnegative_int_roots_refuses_what_does_not_split_so(p):
    assert nonnegative_int_roots(p) is None


def test_unipoly_str():
    assert unipoly_str(UniPoly.from_roots([0, 3, 3])) == "t^3 - 6t^2 + 9t"
    assert unipoly_str(UniPoly([1, 1, 1])) == "t^2 + t + 1"
    assert unipoly_str(UniPoly([-2])) == "-2"
    assert unipoly_str(UniPoly()) == "0"
    assert unipoly_factored_str([0, 3, 3]) == "t (t-3)^2"
    assert unipoly_factored_str([-1, 0]) == "(t+1) t"
    assert unipoly_factored_str([]) == "1"
    assert unipoly_factored_str([3, Fraction(3), Fraction(-1, 2)]) == "(t+1/2) (t-3)^2"


def test_geometric():
    assert UniPoly.geometric(3) == UniPoly([1, 1, 1, 1])
    assert UniPoly.geometric(0) == UniPoly.one()
    with pytest.raises(ValueError):
        UniPoly.geometric(-1)


def test_unipoly_json_round_trip():
    p = UniPoly([0, Fraction(9, 2), -6, 1])
    data = unipoly_to_json(p)
    assert data == ["0/1", "9/2", "-6/1", "1/1"]
    assert UniPoly([parse_rational(c) for c in data]) == p
    assert unipoly_to_json(UniPoly()) == []
    for q in (p, UniPoly()):
        assert json.loads(_render({"chi": partial(_json_unipoly, q)})) == {"chi": unipoly_to_json(q)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), poly_terms(n), st.integers(0, n - 1), st.integers(0, n - 1))))
def test_swapped_exchanges_two_variables(case):
    nvars, terms, i, j = case
    p = from_terms(nvars, terms)

    def exchange(e):
        e = list(e)
        e[i], e[j] = e[j], e[i]
        return tuple(e)

    assert as_terms(p.swapped(i, j)) == as_terms(from_terms(nvars, {exchange(e): c for e, c in terms.items()}))
    assert as_terms(p.swapped(i, j).swapped(j, i)) == as_terms(p) == as_terms(p.swapped(i, i))
    with pytest.raises(ValueError):
        p.swapped(i, nvars)


def poly_to_json(p: MultiPoly) -> list[dict]:
    """The oracle of the JSON writer of a ``MultiPoly``: the term records in
    descending graded-lex order, each exponent list read off its packed key."""
    terms = p.terms
    shifts = range(_FIELD * (p.nvars - 1), -1, -_FIELD)
    return [
        {"exp": [key >> s & _MASK for s in shifts], "coef": format_rational(terms[key])}
        for key in sorted(terms, reverse=True)
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), poly_terms(n))))
def test_poly_to_json_reads_the_sorted_terms(case):
    nvars, terms = case
    p = from_terms(nvars, terms)
    assert poly_to_json(p) == [
        {"exp": list(exp), "coef": format_rational(coef)} for exp, coef in p.sorted_terms()
    ]


def poly_json_str_by_shift_and_mask(p: MultiPoly, pad: str, memo: dict) -> str:
    """``poly_json_str`` as it read each exponent off the key by shift and mask,
    and wrote each exponent list field by field with ``str``."""
    terms = p.terms
    if not terms:
        return "[]"
    inner = pad + "  "
    field = inner + "  "
    sep = "," + field + "  "
    shifts = range(_FIELD * (p.nvars - 1), -1, -_FIELD)
    exps = memo.setdefault((p.nvars, pad), {})
    records = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        exp = exps.get(key)
        if exp is None:
            written = sep.join([str(key >> s & _MASK) for s in shifts])
            exp = exps[key] = f"[{field}  {written}{field}]" if shifts else "[]"
        records.append(f'{{{field}"coef": "{c.numerator}/{c.denominator}",{field}"exp": {exp}{inner}}}')
    return "[" + inner + ("," + inner).join(records) + pad + "]"


TOP = 2**15 - 1  # the largest total degree a key holds


@st.composite
def monomials(draw, nvars):
    """An exponent tuple of total degree up to ``TOP``, often ``TOP`` itself."""
    if not nvars:
        return ()
    degree = draw(st.sampled_from([0, 1, TOP]) | st.integers(0, TOP))
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=nvars - 1, max_size=nvars - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@st.composite
def json_written_polys(draw):
    """Up to three polynomials in one ``nvars`` of 0..8, some sharing monomials."""
    nvars = draw(st.integers(0, 8))
    shared = draw(st.lists(monomials(nvars), min_size=1, max_size=4))
    exps = st.sampled_from(shared) | monomials(nvars)
    coef = COEF | st.integers(-10**20, 10**20).filter(bool) | st.fractions().filter(bool)
    return nvars, draw(st.lists(st.dictionaries(exps, coef, max_size=5), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_written_polys(), st.sampled_from(["\n", "\n  ", "\n      "]))
@example((0, [{(): 3}, {(): Fraction(-1, 2)}, {}]), "\n")
@example((2, [{(TOP, 0): 1, (0, TOP): Fraction(1, 3)}, {(TOP, 0): -2}]), "\n    ")
@example((8, [{(TOP - 7, 1, 1, 1, 1, 1, 1, 1): 5, (0,) * 8: -1}]), "\n  ")
def test_poly_json_str_writes_what_shift_and_mask_wrote(case, pad):
    # one memo for every polynomial, at two indents and, with a last
    # exponent 0 appended, in one more variable
    nvars, polys = case
    memo, oracle_memo = {}, {}
    for terms in polys:
        for p in (from_terms(nvars, terms), from_terms(nvars + 1, {e + (0,): c for e, c in terms.items()})):
            for indent in (pad, pad + "  "):
                got = poly_json_str(p, indent, memo)
                assert got == poly_json_str_by_shift_and_mask(p, indent, oracle_memo)
                assert json.loads(got) == poly_to_json(p)


def test_multipoly_json_round_trip():
    x1, x2 = var(2, 0), var(2, 1)
    p = sub(x1 * x1, Fraction(1, 2) * x2) + 3
    [[data]] = json.loads(_render(partial(_derivation_records, [[p]])))
    assert data == poly_to_json(p)
    assert data[0] == {"exp": [2, 0], "coef": "1/1"}
    terms = {tuple(rec["exp"]): parse_rational(rec["coef"]) for rec in data}
    assert as_terms(from_terms(2, terms)) == as_terms(p)
