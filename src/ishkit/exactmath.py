"""Exact polynomial arithmetic over the rationals.

Every coefficient in this package is an exact rational; no floating
point is used anywhere: a value handed in that is not an ``int`` is read
by ``parse_rational_pair``.  Two polynomial representations cover all needs:

* ``MultiPoly`` -- a sparse multivariate polynomial stored as a map
  ``terms`` from monomial keys to nonzero rational coefficients.  A
  coefficient is held as a Python ``int`` when it is integral and as a
  ``fractions.Fraction`` only when it is not, so products, sums and
  integer-point values of integer polynomials never leave ``int``
  arithmetic.  The canonical term order is graded lexicographic with
  earlier variables larger (for coned arrangements the variables read
  ``x1 > x2 > ... > xl > z``); it drives printing, so all output is
  deterministic.

  A monomial key is one ``int`` that packs the total degree and the
  exponents into 16-bit fields, degree first:
  ``key = d << 16n | e_1 << 16(n-1) | ... | e_n`` for ``n`` variables.
  Plain ``int`` order is then the graded-lex order, and the key of a
  product of monomials is the sum of their keys.  The top bit of each
  field is a guard bit that no exponent reaches: the total degree, and
  so every exponent, stays below ``2**15``, so no field of a sum of
  keys carries into the next.  A polynomial or product of degree
  ``2**15`` or more is a ``ValueError``.  For ``x1, x2, x3`` the term
  ``5/2 * x1^2 * x3`` is the entry ``3 << 48 | 2 << 32 | 1 ->
  Fraction(5, 2)``.  Exponent tuples appear only at the edges: the
  constructors read them, and ``sorted_terms`` and ``poly_str`` write
  them; the JSON writer ``poly_json_str`` reads a key's exponents in
  one ``struct`` unpack of its bytes.  ``MultiPoly.product`` is the one
  constructor from linear forms: ``const`` and ``linear`` are each one
  call of it.  No other module reads or writes a key.

* ``UniPoly`` -- a dense univariate polynomial as an ascending
  coefficient tuple, used for characteristic and wall-crossing
  polynomials.

``vanishes_on`` decides whether a polynomial lies in the ideal of a
linear form by restricting it to the hyperplane, and ``int_det`` is the
exact determinant of an integer matrix; it refuses any entry that is not
an ``int``.  Only ``freeness.saito_constant``, the general Saito route,
calls it: the components of each ``freeness.Derivation`` tuple are
evaluated at one integer point (``MultiPoly.evaluate``, by plain
powers), and each row of values is cleared of its denominators
(``clear_denominators``) after evaluation.  The request path's
``freeness.factored_saito_constant`` reads the determinant off the
factors of a matrix that peels, as both certificates' bases do.

JSON forms, written by ``cli`` but for the ``MultiPoly`` records, which
``poly_json_str`` writes here, as only this module reads a packed key:

* rational   -> ``"num/den"`` string, by ``format_rational``
* UniPoly    -> ascending list of rationals (``[]`` is the zero poly),
  by ``cli._json_unipoly``
* MultiPoly  -> list of ``{"coef": "num/den", "exp": [...]}`` records
  in descending graded-lex order, by ``poly_json_str``
"""

from __future__ import annotations

import re
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd, lcm, prod
from struct import Struct
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _shown(value: object) -> str:
    """``repr(value)``, cut to 60 characters and ``...`` when longer."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def reduced(num: int, den: int) -> tuple[int, int]:
    """``num/den`` (``den > 0``) in lowest terms, as ``(p, q)`` with ``q > 0``."""
    g = gcd(num, den)
    return num // g, den // g


def parse_rational_pair(value: Scalar | str) -> tuple[int, int]:
    """Read a rational as its reduced ``(numerator, denominator)`` pair of ints.

    The value is an int, a Fraction or a string: an optionally signed
    integer ``"-3"`` or ``"p/q"`` such as ``"5/2"``, in ASCII digits with no
    spaces.  Anything else -- a bool, a float, a decimal or exponent string,
    whitespace, a zero denominator -- is a ``ValueError``, which shows at
    most the first 60 characters of the value's repr.  No ``Fraction`` is
    built.  A plain ``int``, the common JSON entry, passes one type test.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, bool):
        raise ValueError(f"cannot read a rational from {value!r}")
    if isinstance(value, (int, Fraction)):
        return int(value.numerator), int(value.denominator)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"cannot read a rational from {_shown(value)}; expected 'p' or 'p/q'")
        num, _, den = value.partition("/")
        try:
            p, q = int(num), int(den or 1)
        except ValueError:  # the digits matched, so a part is past the interpreter's digit limit
            raise ValueError(
                f"cannot read a rational from {_shown(value)}; a part has more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if not q:
            raise ValueError(f"zero denominator in {_shown(value)}")
        return reduced(p, q)
    raise ValueError(f"cannot read a rational from {_shown(value)}")


def _rational(value: Scalar | str) -> Scalar:
    """An ``int`` (or bool) as an ``int``; anything else read by ``parse_rational_pair``."""
    if isinstance(value, int):
        return int(value)
    p, q = parse_rational_pair(value)
    return p if q == 1 else Fraction(p, q)


def clear_denominators(values: Iterable[Scalar | str]) -> tuple[list[int], int]:
    """The values (read as ``_rational`` reads them) times the lcm ``den``
    of their denominators, as ints, and ``den``; ``den == 1`` when all are integral."""
    values = [_rational(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def format_rational(value: Scalar, den: int = 1) -> str:
    """``value/den`` (``den > 0``) as the JSON forms write a rational: ``"p/q"``
    in lowest terms.  ``value`` is an ``int``, or any rational when ``den == 1``."""
    if den == 1:
        return f"{value.numerator}/{value.denominator}"
    g = gcd(value, den)
    return f"{value // g}/{den // g}"


def rational_str(num: Scalar, den: int) -> str:
    """``num/den`` (``den > 0``) as ``str(Fraction(num, den))`` writes it: ``p`` or
    ``p/q``.  ``num`` is an ``int``, or any rational when ``den == 1``."""
    if den == 1:
        return str(num)
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _exact(c: Scalar) -> Scalar:
    """The coefficient as an ``int`` when integral, else as a Fraction."""
    return c.numerator if c.denominator == 1 else c


_FIELD = 16  # bits per field of a monomial key; see the module docstring
_GUARD = 1 << (_FIELD - 1)  # the top bit of a field
_MASK = (1 << _FIELD) - 1
_FIELD_CODE = {16: "H", 32: "I"}[_FIELD]  # the struct code of an unsigned field, read big-endian


def _check_degree(key: int, nvars: int) -> None:
    degree = key >> (_FIELD * nvars)
    if degree >= _GUARD:
        raise ValueError(f"total degree {degree} exceeds the limit {_GUARD - 1}")


def _pack(exp: tuple[int, ...]) -> int:
    """The key of the monomial with exponent tuple ``exp``."""
    key = sum(exp)
    for e in exp:
        key = (key << _FIELD) | e
    _check_degree(key, len(exp))
    return key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a key."""
    return tuple((key >> (_FIELD * i)) & _MASK for i in range(nvars - 1, -1, -1))


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables with rational coefficients.

    ``terms`` maps packed monomial keys (see the module docstring) to
    nonzero coefficients.  Integral coefficients are stored as ``int``,
    the others as ``Fraction``; every constructor and operation keeps
    that form.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: object = None) -> None:
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        self.terms: dict[int, Scalar] = {}
        if terms:
            clean: dict[int, Scalar] = {}
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, coef in items:
                e = tuple(int(x) for x in exp)
                if len(e) != nvars or any(x < 0 for x in e):
                    raise ValueError(f"bad exponent tuple {e!r} for {nvars} variables")
                key = _pack(e)
                clean[key] = clean.get(key, 0) + _rational(coef)
            self.terms = {k: _exact(c) for k, c in clean.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "MultiPoly":
        return cls.product(nvars, value, ())

    @classmethod
    def linear(cls, coeffs: Sequence[Scalar]) -> "MultiPoly":
        """The linear form ``sum(coeffs[k] * x_k)`` in ``len(coeffs)`` variables."""
        return cls.product(len(coeffs), 1, [coeffs])

    @classmethod
    def product(cls, nvars: int, scalar: Scalar, factors: Sequence[Sequence[Scalar]]) -> "MultiPoly":
        """``scalar`` times the product of the linear forms ``factors``, each
        a sequence of ``nvars`` coefficients, multiplied out in one dict.

        The one constructor from linear forms.  Each factor multiplies the
        terms so far by its nonzero coordinates, a coordinate ``k`` moving
        each key by the key of ``x_k``, so no ``MultiPoly`` is built between
        factors.  A product of linear forms has degree its factor count, so
        the degree is checked once, first.  With ``int`` forms the terms stay
        ``int`` until the scalar ``p/q`` multiplies them, and then each ``int``
        term ``c`` is ``c p`` over ``q`` cut by one ``gcd(c, q)``: an ``int``
        when that gcd is ``q``, with no ``Fraction`` arithmetic.  A zero scalar
        or a zero form gives the zero polynomial.
        """
        res = cls(nvars)
        top = _FIELD * nvars
        _check_degree(len(factors) << top, nvars)
        if not scalar:
            return res
        terms: dict[int, Scalar] = {0: 1}
        for f in factors:
            steps = [(1 << top | 1 << (top - _FIELD * (k + 1)), a) for k, a in enumerate(f) if a]
            if not steps:
                return res
            (s0, a0), *rest = steps
            items = terms.items()
            out = {key + s0: c * a0 for key, c in items}
            get = out.get
            for step, a in rest:
                for key, c in items:
                    k = key + step
                    out[k] = get(k, 0) + c * a
            terms = out
        if scalar == 1:  # the terms of int forms are ints already
            res.terms = {k: c if type(c) is int else _exact(c) for k, c in terms.items() if c}
            return res
        p, q = scalar.numerator, scalar.denominator  # coprime, so c p / q is (c/g) p / (q/g)
        out = res.terms
        for k, c in terms.items():
            if not c:
                continue
            if type(c) is int:
                g = gcd(c, q)
                out[k] = c // g * p if g == q else Fraction(c // g * p, q // g)
            else:
                out[k] = _exact(c * scalar)
        return res

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a term; the zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(self.terms) >> (_FIELD * self.nvars)

    def is_homogeneous(self) -> bool:
        """Do all terms have the same total degree?  True for zero."""
        if not self.terms:
            return True
        shift = _FIELD * self.nvars
        return min(self.terms) >> shift == max(self.terms) >> shift

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """``(exponent tuple, coefficient)`` pairs in descending graded-lex order."""
        terms, n = self.terms, self.nvars
        return [(_unpack(k, n), terms[k]) for k in sorted(terms, reverse=True)]

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """The value at ``point``, an ``int`` when it is integral."""
        n = self.nvars
        if len(point) != n:
            raise ValueError("evaluation point has wrong length")
        return _exact(sum(c * prod(map(pow, point, _unpack(key, n))) for key, c in self.terms.items()))

    def swapped(self, i: int, j: int) -> "MultiPoly":
        """The polynomial with the variables of index ``i`` and ``j`` exchanged.

        With ``e_i`` and ``e_j`` read off a key and ``s_i``, ``s_j`` the
        shifts of their fields, the key moves by one addition:
        ``(e_i - e_j) * (2**s_j - 2**s_i)``.  The total degree is unchanged.
        """
        n = self.nvars
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("variable index out of range")
        si, sj = _FIELD * (n - 1 - i), _FIELD * (n - 1 - j)
        step = (1 << sj) - (1 << si)
        res = MultiPoly(n)
        res.terms = {
            key + ((key >> si & _MASK) - (key >> sj & _MASK)) * step: c
            for key, c in self.terms.items()
        }
        return res

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other: object) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials have different variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.nvars, other)
        return None

    def __add__(self, other: object) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            s = out.get(k, 0) + c
            if s == 0:
                del out[k]
            else:
                out[k] = _exact(s)
        res = MultiPoly(self.nvars)
        res.terms = out
        return res

    __radd__ = __add__

    def __mul__(self, other: object) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        res = MultiPoly(self.nvars)
        if self.terms and o.terms:
            # Every field of a sum of two keys is at most the sum of the
            # two degrees, so no field carries into the next; the sum of
            # the two largest keys holds the product's degree.
            _check_degree(max(self.terms) + max(o.terms), self.nvars)
            out: dict[int, Scalar] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in o.terms.items():
                    out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
            res.terms = {k: _exact(c) for k, c in out.items() if c}
        return res

    __rmul__ = __mul__


def default_names(nvars: int, coned: bool = False) -> list[str]:
    """Variable names ``x1..xn``, with the last one called ``z`` when coned."""
    names = [f"x{i}" for i in range(1, nvars + 1)]
    if coned and nvars >= 1:
        names[-1] = "z"
    return names


def _monomial_str(exp: tuple[int, ...], names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _render_sum(terms: Iterable[tuple[Scalar, str]], times: str, den: int = 1) -> str:
    """Render ``(coefficient, monomial)`` pairs as ``c1*m1 - c2*m2 + ...``.

    Each coefficient is ``coef/den``: an ``int`` numerator over ``den``,
    or, with ``den == 1``, an ``int`` or Fraction.  A unit coefficient is
    left out, an empty monomial is a constant term, and ``times`` joins a
    coefficient to its monomial.  No pairs render as ``0``.
    """
    chunks: list[str] = []
    for coef, mono in terms:
        mag = abs(coef)
        if not mono:
            body = rational_str(mag, den)
        elif mag == den:
            body = mono
        else:
            body = f"{rational_str(mag, den)}{times}{mono}"
        if not chunks:
            chunks.append(body if coef > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


def equation_str(coeffs: Sequence[Scalar], const: Scalar, names: Sequence[str], den: int = 1) -> str:
    """Render the equation ``sum(coeffs[i] * names[i]) = const``, each number
    over ``den`` as in ``_render_sum``, e.g. ``x1 - 2*x3 = 1/2``."""
    body = _render_sum(((c, n) for c, n in zip(coeffs, names) if c), "*", den)
    return f"{body} = {rational_str(const, den)}"


def poly_str(p: MultiPoly, names: Sequence[str] | None = None) -> str:
    """Render in descending graded-lex order, e.g. ``x1^2*z - 2*x1*x2*z``."""
    if names is None:
        names = default_names(p.nvars)
    return _render_sum(((c, _monomial_str(e, names)) for e, c in p.sorted_terms()), "*")


def poly_json_str(p: MultiPoly, pad: str, memo: dict) -> str:
    """``p`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes its term
    records at the indent ``pad``, the newline and indent of the enclosing line.

    A term is the record ``{"coef": "num/den", "exp": [e_1, ..., e_n]}``,
    the coefficient in ``format_rational``'s form but written inline, as a
    call per term costs a few percent of a ``basis`` answer.  The terms run
    in descending graded-lex order, that is descending packed key.  The
    polynomials of one answer repeat their monomials, so the part of a
    record after the coefficient, which holds the exponent list, is written
    once per key and read back from ``memo``.  ``memo`` holds, per ``nvars``
    and ``pad``, the two things besides the key that this part depends on:
    the parts written so far, a ``struct`` reader of the key's bytes that
    skips the degree field and returns the exponents, and the ``%``
    template that writes them.
    """
    terms = p.terms
    if not terms:
        return "[]"
    inner = pad + "  "
    writer = memo.get((p.nvars, pad))
    if writer is None:
        n, field = p.nvars, inner + "  "
        exp = f"[{field}  " + f",{field}  ".join(["%d"] * n) + f"{field}]" if n else "[]"
        fields = Struct(f">{_FIELD // 8}x{n}{_FIELD_CODE}")
        writer = memo[(n, pad)] = (
            {}, fields.unpack, fields.size, f'{{{field}"coef": "', f'",{field}"exp": {exp}{inner}}}'
        )
    tails, unpack, size, head, template = writer
    records = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = template % unpack(key.to_bytes(size, "big"))
        records.append(f"{head}{c}/1{tail}" if type(c) is int else f"{head}{c.numerator}/{c.denominator}{tail}")
    return "[" + inner + ("," + inner).join(records) + pad + "]"


# -- linear ideals and integer determinants ---------------------------


def vanishes_on(f: MultiPoly, coeffs: Sequence[Scalar]) -> bool:
    """Is ``f`` a multiple of the linear form ``alpha = sum(coeffs[k] * x_k)``?

    Let ``x_p`` be the first variable with a nonzero coefficient, the
    leading monomial of ``alpha`` in graded lex.  The remainder of ``f``
    modulo ``alpha`` is then its restriction to ``alpha = 0``: ``f`` with
    ``x_p := L``, where ``L = -sum_{k > p} (coeffs[k] / coeffs[p]) * x_k``.
    It is free of ``x_p``, so ``f`` is in the ideal ``(alpha)`` exactly
    when it is zero.  With ``f = sum_e g_e * x_p^e`` and no ``x_p`` in any
    ``g_e``, the restriction is summed by Horner from the top exponent
    down: ``r <- r * L + g_e``.
    """
    n = f.nvars
    if len(coeffs) != n:
        raise ValueError("linear form and polynomial dimensions differ")
    p = next((k for k, a in enumerate(coeffs) if a), None)
    if p is None:
        raise ValueError("a linear form needs a nonzero coefficient")
    subst = MultiPoly.linear([0] * (p + 1) + [Fraction(-a, coeffs[p]) for a in coeffs[p + 1:]])
    shift, degree_shift = _FIELD * (n - 1 - p), _FIELD * n
    groups: defaultdict[int, MultiPoly] = defaultdict(lambda: MultiPoly(n))
    for key, c in f.terms.items():
        e = key >> shift & _MASK  # the exponent of x_p, stripped from the key
        groups[e].terms[key - (e << shift) - (e << degree_shift)] = c
    rem = MultiPoly(n)
    for e in range(max(groups, default=0), -1, -1):
        rem = rem * subst + groups.get(e, 0)
    return rem.is_zero


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square matrix of ``int``s; any other entry is a ``ValueError``.

    Fraction-free (Bareiss) elimination: every division is exact, so the
    entries stay integers no larger than a minor of the input.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("determinant requires a nonempty square matrix")
    if any(type(x) is not int for row in m for x in row):
        raise ValueError("determinant entries must be ints")
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


# -- univariate polynomials -------------------------------------------


class UniPoly:
    """Dense univariate polynomial, ascending coefficients, no trailing zeros.

    As in ``MultiPoly``, integral coefficients are stored as ``int`` and
    the others as ``Fraction``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if type(c) is int else _rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> "UniPoly":
        """The monic polynomial with the given root multiset."""
        coeffs: list[Scalar] = [1]
        for r in roots:
            coeffs = times_linear(coeffs, r)
        return cls(coeffs)

    @classmethod
    def geometric(cls, top: int) -> "UniPoly":
        """``1 + t + ... + t**top``."""
        if top < 0:
            raise ValueError("geometric sum needs a nonnegative top degree")
        return cls([1] * (top + 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: object) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly()
        out: list[Scalar] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def evaluate(self, point: Scalar) -> Scalar:
        total: Scalar = 0
        for c in reversed(self.coeffs):
            total = total * point + c
        return _exact(total)


def times_linear(coeffs: Sequence[Scalar], r: Scalar) -> list[Scalar]:
    """The ascending coefficients of ``coeffs`` times ``t - r``."""
    out = [0, *coeffs]
    for i, c in enumerate(coeffs):
        out[i] -= r * c
    return out


def nonnegative_int_roots(p: UniPoly) -> list[int] | None:
    """The roots of ``p``, ascending, when ``p`` is a product of factors
    ``t - r`` with nonnegative ``int`` r; otherwise ``None``.

    The factor ``t^k`` comes off first.  Every other root divides the
    constant term of what is left and is at most the sum of the roots,
    which is minus the next-to-top coefficient, so synthetic division by
    each such candidate, as often as it divides, finds them all.
    """
    cs = list(p.coeffs)
    if not cs or cs[-1] != 1 or any(type(c) is not int for c in cs):
        return None
    k = next(i for i, c in enumerate(cs) if c)
    roots, cs = [0] * k, cs[k:]
    total = -cs[-2] if len(cs) > 1 else 0
    for r in range(1, total + 1):
        while len(cs) > 1 and cs[0] % r == 0:
            quotient = [0] * (len(cs) - 1)
            carry = 0
            for i in range(len(cs) - 1, 0, -1):  # descending, as by hand
                carry = quotient[i - 1] = cs[i] + r * carry
            if cs[0] + r * carry:
                break
            roots.append(r)
            cs = quotient
    return roots if len(cs) == 1 else None


def unipoly_str(p: UniPoly) -> str:
    """Render descending in ``t``, e.g. ``t^3 - 6t^2 + 9t``."""
    terms = []
    for k in range(p.degree(), -1, -1):
        c = p.coeffs[k]
        if c:
            terms.append((c, "" if k == 0 else "t" if k == 1 else f"t^{k}"))
    return _render_sum(terms, "")


def unipoly_factored_str(roots: Iterable[Scalar]) -> str:
    """Render a monic split polynomial in ``t`` from roots, e.g. ``t (t-3)^2``."""
    counts = Counter(roots)
    factors = []
    for root in sorted(counts):
        if root == 0:
            base = "t"
        elif root > 0:
            base = f"(t-{root})"
        else:
            base = f"(t+{-root})"
        mult = counts[root]
        factors.append(base if mult == 1 else f"{base}^{mult}")
    return " ".join(factors) if factors else "1"
