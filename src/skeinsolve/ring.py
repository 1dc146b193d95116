"""Exact Laurent-polynomial and rational-function arithmetic in s, a, aL, g.

The variable s stands in for the square root of q (so q = s^2 and every
half-integer power of q is a whole power of s); a and aL are the framing
variables of the ambient space and of the solid torus, and g is a formal
unit kept as its own variable so every result holds for any framing choice.
Coefficients are arbitrary-precision integers.  Denominators of rational
functions are restricted to Z[s]: any division that would force a, aL or g
into a denominator is an error, not a silent extension of the ring.
"""

from __future__ import annotations

from math import gcd as _int_gcd
from typing import TYPE_CHECKING, Mapping, NamedTuple, Union

if TYPE_CHECKING:
    from fractions import Fraction


class DenominatorNotSUnivariateError(ValueError):
    """A denominator would involve a variable other than s."""


class IllegalSubstitutionError(ValueError):
    """A substitution would make a denominator non-univariate in s."""


class Exponent(NamedTuple):
    """Integer exponent vector of a monomial s^s_exp a^a_exp aL^aL_exp g^g_exp."""

    s: int = 0
    a: int = 0
    aL: int = 0
    g: int = 0


ZERO_EXP = Exponent()

VARIABLES = ("s", "a", "aL", "g")


def _exp_add(x: Exponent, y: Exponent) -> Exponent:
    return Exponent(x.s + y.s, x.a + y.a, x.aL + y.aL, x.g + y.g)


def _exp_neg(x: Exponent) -> Exponent:
    return Exponent(-x.s, -x.a, -x.aL, -x.g)


def _exp_scale(x: Exponent, k: int) -> Exponent:
    return Exponent(k * x.s, k * x.a, k * x.aL, k * x.g)


class SignedMonomial(NamedTuple):
    """A single monomial with coefficient +1 or -1."""

    sign: int
    exponent: Exponent

    def to_polynomial(self) -> "LaurentPolynomial":
        return LaurentPolynomial({self.exponent: self.sign})

    def __str__(self) -> str:
        return str(self.to_polynomial())


def _power_str(base: str, e: int) -> str:
    # braces only around multi-character exponents, TeX style
    if e == 1:
        return base
    text = str(e)
    return f"{base}^{text}" if len(text) == 1 else f"{base}^{{{text}}}"


def _q_power_str(s_exp: int) -> str:
    # s^2 = q; odd s-powers render as half-integer q-powers.
    if s_exp % 2 == 0:
        return _power_str("q", s_exp // 2)
    return "q^{%d/2}" % s_exp


_VAR_STR = {"a": "a", "aL": "aL", "g": "γ"}


def _term_str(exp: Exponent, coeff: int) -> str:
    factors = []
    for name in ("g", "a", "aL"):
        e = getattr(exp, name)
        if e != 0:
            factors.append(_power_str(_VAR_STR[name], e))
    if exp.s != 0:
        factors.append(_q_power_str(exp.s))
    if not factors:
        return str(coeff)
    body = " ".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return str(coeff) + body


PolyLike = Union["LaurentPolynomial", "SignedMonomial", int]


class LaurentPolynomial:
    """Laurent polynomial in s, a, aL, g with integer coefficients.

    Stored as a canonical term map Exponent -> coefficient with no zero
    coefficients; two polynomials are equal iff their term maps are equal.
    Instances are immutable: all operations return new polynomials.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        clean: dict[Exponent, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    if not isinstance(exp, Exponent):
                        exp = Exponent(*exp)
                    clean[exp] = clean.get(exp, 0) + coeff
                    if clean[exp] == 0:
                        del clean[exp]
        self._terms = clean

    # -- basic views ---------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, int]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms sorted ascending by (s, a, aL, g) exponent order."""
        return sorted(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return self._terms == {ZERO_EXP: 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def is_s_univariate(self) -> bool:
        return all(e.a == 0 and e.aL == 0 and e.g == 0 for e in self._terms)

    def as_signed_monomial(self) -> SignedMonomial | None:
        """The term as a SignedMonomial, if the polynomial is one; else None."""
        if len(self._terms) != 1:
            return None
        (exp, coeff), = self._terms.items()
        if coeff not in (1, -1):
            return None
        return SignedMonomial(coeff, exp)

    def content(self) -> int:
        """Nonnegative gcd of all integer coefficients (0 for the zero polynomial)."""
        c = 0
        for v in self._terms.values():
            c = _int_gcd(c, v)
            if c == 1:
                return 1
        return c

    def s_range(self) -> tuple[int, int]:
        exps = [e.s for e in self._terms]
        return (min(exps), max(exps))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x: PolyLike) -> "LaurentPolynomial":
        if isinstance(x, LaurentPolynomial):
            return x
        if isinstance(x, SignedMonomial):
            return x.to_polynomial()
        if isinstance(x, int):
            return LaurentPolynomial({ZERO_EXP: x})
        return NotImplemented

    def __add__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            new = out.get(e, 0) + c
            if new:
                out[e] = new
            elif e in out:
                del out[e]
        result = LaurentPolynomial.__new__(LaurentPolynomial)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        result = LaurentPolynomial.__new__(LaurentPolynomial)
        result._terms = {e: -c for e, c in self._terms.items()}
        return result

    def __sub__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> "LaurentPolynomial":
        return (-self) + other

    def __mul__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        shorter, longer = self._terms, other._terms
        if len(shorter) > len(longer):
            shorter, longer = longer, shorter
        # sum on plain exponent tuples; each surviving key becomes an
        # Exponent once, not once per term product
        acc: dict[tuple[int, int, int, int], int] = {}
        get = acc.get
        rows = [(s, a, aL, g, c) for (s, a, aL, g), c in longer.items()]
        for (s1, a1, aL1, g1), c1 in shorter.items():
            for s2, a2, aL2, g2, c2 in rows:
                key = (s1 + s2, a1 + a2, aL1 + aL2, g1 + g2)
                acc[key] = get(key, 0) + c1 * c2
        make = tuple.__new__
        result = LaurentPolynomial.__new__(LaurentPolynomial)
        result._terms = {make(Exponent, key): c for key, c in acc.items() if c}
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            sm = self.as_signed_monomial()
            if sm is None:
                raise ValueError("negative powers require a monomial with coefficient +/-1")
            return LaurentPolynomial({_exp_scale(sm.exponent, n): sm.sign ** (n & 1)})
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial({ZERO_EXP: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- substitution and evaluation ------------------------------------

    def substitute(self, images: Mapping[str, PolyLike]) -> "LaurentPolynomial":
        """Ring endomorphism mapping each named variable to a signed monomial.

        Every image must be a single Laurent monomial with coefficient +1
        or -1, e.g. ``{"a": A**-1, "s": -S}``.
        """
        monomials: dict[str, SignedMonomial] = {}
        for name, img in images.items():
            if name not in VARIABLES:
                raise ValueError(f"unknown variable {name!r}")
            sm = self._coerce(img).as_signed_monomial()
            if sm is None:
                raise ValueError(f"image of {name} must be a signed monomial")
            monomials[name] = sm
        out: dict[Exponent, int] = {}
        for e, c in self._terms.items():
            exp = Exponent(
                s=0 if "s" in monomials else e.s,
                a=0 if "a" in monomials else e.a,
                aL=0 if "aL" in monomials else e.aL,
                g=0 if "g" in monomials else e.g,
            )
            coeff = c
            for name, sm in monomials.items():
                k = getattr(e, name)
                exp = _exp_add(exp, _exp_scale(sm.exponent, k))
                if sm.sign < 0 and k % 2:
                    coeff = -coeff
            new = out.get(exp, 0) + coeff
            if new:
                out[exp] = new
            elif exp in out:
                del out[exp]
        result = LaurentPolynomial.__new__(LaurentPolynomial)
        result._terms = out
        return result

    def evaluate(self, s: Fraction | int = 1, a: Fraction | int = 1,
                 aL: Fraction | int = 1, g: Fraction | int = 1) -> Fraction:
        """Exact evaluation at nonzero rational points."""
        # imported here: no command evaluates, and fractions loads decimal
        from fractions import Fraction
        vals = (Fraction(s), Fraction(a), Fraction(aL), Fraction(g))
        total = Fraction(0)
        for e, c in self._terms.items():
            term = Fraction(c)
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
        return total

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exp, coeff in self.sorted_terms():
            rendered = _term_str(exp, abs(coeff))
            if not pieces:
                pieces.append(_term_str(exp, coeff))
            elif coeff < 0:
                pieces.append("- " + rendered)
            else:
                pieces.append("+ " + rendered)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({str(self)!r})"


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({ZERO_EXP: 1})
S = LaurentPolynomial({Exponent(s=1): 1})
Q = LaurentPolynomial({Exponent(s=2): 1})
A = LaurentPolynomial({Exponent(a=1): 1})
AL = LaurentPolynomial({Exponent(aL=1): 1})
G = LaurentPolynomial({Exponent(g=1): 1})


def monomial(coeff: int, s: int = 0, a: int = 0, aL: int = 0, g: int = 0) -> LaurentPolynomial:
    return LaurentPolynomial({Exponent(s, a, aL, g): coeff})


def quantum_bracket(n: int) -> LaurentPolynomial:
    """The bracket {n} = q^{n/2} - q^{-n/2} = s^n - s^{-n}."""
    if n < 1:
        raise ValueError("quantum_bracket requires n >= 1")
    return LaurentPolynomial({Exponent(s=n): 1, Exponent(s=-n): -1})


def q_int(n: int) -> LaurentPolynomial:
    """The quantum integer [n]_q = 1 + q + ... + q^{n-1}."""
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    return LaurentPolynomial({Exponent(s=2 * k): 1 for k in range(n)})


# ---------------------------------------------------------------------------
# Univariate machinery in s: primitive-PRS gcd and exact division.
# ---------------------------------------------------------------------------


def _as_int_poly(f: LaurentPolynomial) -> tuple[int, list[int]]:
    """Shift an s-univariate Laurent polynomial into Z[s].

    Returns (shift, coeffs) with coeffs ascending, coeffs[0] != 0, such that
    f = s^shift * sum coeffs[i] s^i.  f must be nonzero and involve only s.
    """
    terms = f._terms
    if not terms:
        raise ValueError("zero polynomial")
    # exponents order by s first, so the least and greatest keys bound s
    lo = min(terms)[0]
    coeffs = [0] * (max(terms)[0] - lo + 1)
    for (s, a, aL, g), c in terms.items():
        if a or aL or g:
            raise ValueError("polynomial involves a, aL or g")
        coeffs[s - lo] = c
    return lo, coeffs


def _from_slices(slices: list[tuple[tuple[int, int, int], int, list[int]]]) -> LaurentPolynomial:
    """The polynomial whose (a, aL, g)-slice is s^lo * sum coeffs[i] s^i."""
    make = tuple.__new__
    out: dict[Exponent, int] = {}
    for (a, aL, g), lo, coeffs in slices:
        for i, c in enumerate(coeffs):
            if c:
                out[make(Exponent, (lo + i, a, aL, g))] = c
    result = LaurentPolynomial.__new__(LaurentPolynomial)
    result._terms = out
    return result


def _from_int_poly(coeffs: list[int]) -> LaurentPolynomial:
    return _from_slices([((0, 0, 0), 0, coeffs)])


def _s_slices(f: LaurentPolynomial) -> dict[tuple[int, int, int], dict[int, int]]:
    """Group the terms of f by their (a, aL, g) exponents into s-slices."""
    out: dict[tuple[int, int, int], dict[int, int]] = {}
    for (s, a, aL, g), c in f._terms.items():
        piece = out.get((a, aL, g))
        if piece is None:
            out[(a, aL, g)] = {s: c}
        else:
            piece[s] = c
    return out


def _dense(piece: dict[int, int]) -> tuple[int, list[int]]:
    """(lo, coeffs) with the slice equal to s^lo * sum coeffs[i] s^i."""
    lo = min(piece)
    coeffs = [0] * (max(piece) - lo + 1)
    for k, c in piece.items():
        coeffs[k - lo] = c
    return lo, coeffs


def _list_content(f: list[int]) -> int:
    c = 0
    for v in f:
        c = _int_gcd(c, v)
        if c == 1:
            return 1
    return c


def _list_primitive(f: list[int]) -> list[int]:
    c = _list_content(f)
    if c in (0, 1):
        return list(f)
    return [v // c for v in f]


def _list_trim(f: list[int]) -> list[int]:
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def _list_prem(f: list[int], g: list[int]) -> list[int]:
    """A pseudo-remainder of f by g over Z: c * f mod g for a nonzero integer
    c (both ascending, g without trailing zeros).

    Each step cancels the leading term of the remainder.  It subtracts
    (lead // lc(g)) * g * s^k when lc(g) divides the lead, and scales the
    remainder by lc(g) first only when it does not (Knuth, TAOCP 4.6.1).
    One copy of f is reduced in place below a moving end index.
    """
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    lower = [(i, gc) for i, gc in enumerate(g[:dg]) if gc]
    n = len(r)
    while n and r[n - 1] == 0:
        n -= 1
    while n > dg:
        n -= 1
        q, rem = divmod(r[n], lg)
        if rem:
            q = r[n]
            r[:n] = [lg * c for c in r[:n]]
        k = n - dg
        for i, gc in lower:
            r[k + i] -= q * gc
        while n and r[n - 1] == 0:
            n -= 1
    del r[n:]
    return r


def _list_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd in Z[s] via the primitive pseudo-remainder sequence
    (Brown, J. ACM 18, 1971)."""
    f = _list_primitive(_list_trim(f))
    g = _list_primitive(_list_trim(g))
    if len(f) < len(g):
        f, g = g, f
    while g:
        if len(g) == 1:
            return [1]
        r = _list_prem(f, g)
        f, g = g, _list_primitive(r)
    if f and f[-1] < 0:
        f = [-c for c in f]
    return f


def _list_exact_div(f: list[int], d: list[int]) -> list[int]:
    """Exact quotient f / d in Z[s]; raises if the division is not exact.

    f is ascending and may end in zeros; d has no trailing zeros.  Each
    step clears one coefficient of f from the top, so only the dd lowest
    coefficients can be left over.
    """
    dd = len(d) - 1
    ld = d[-1]
    r = list(f)
    lower = [(j, dc) for j, dc in enumerate(d[:dd]) if dc]
    out = [0] * max(len(r) - dd, 0)
    for i in range(len(out) - 1, -1, -1):
        c, rem = divmod(r[i + dd], ld)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if c:
            out[i] = c
            for j, dc in lower:
                r[i + j] -= c * dc
    if any(r[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return out


def _normalize_univariate(f: LaurentPolynomial) -> LaurentPolynomial:
    """Primitive part of an s-univariate polynomial, shifted to have a nonzero
    constant term and a positive leading coefficient."""
    if f.is_zero:
        return ZERO
    _, coeffs = _as_int_poly(f)
    coeffs = _list_primitive(coeffs)
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return _from_int_poly(coeffs)


def gcd_s(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """Gcd over the rationals of two s-univariate Laurent polynomials.

    The result is primitive with positive leading coefficient and nonzero
    constant term; the gcd of f with 0 is the normalized f.
    """
    for p in (f, g):
        if not p.is_s_univariate():
            raise ValueError("gcd_s inputs must involve only s")
    if f.is_zero:
        return _normalize_univariate(g)
    if g.is_zero:
        return _normalize_univariate(f)
    _, fc = _as_int_poly(f)
    _, gc = _as_int_poly(g)
    return _from_int_poly(_list_gcd(fc, gc))


def exact_div_s(f: LaurentPolynomial, d: LaurentPolynomial) -> LaurentPolynomial:
    """Exact division of f by an s-univariate d, slice by slice.

    d's power of s is a unit, so it only shifts the quotient.
    """
    if d.is_one:
        return f
    if f.is_zero:
        return ZERO
    shift, dc = _as_int_poly(d)
    quotients = []
    for key, piece in _s_slices(f).items():
        lo, coeffs = _dense(piece)
        quotients.append((key, lo - shift, _list_exact_div(coeffs, dc)))
    return _from_slices(quotients)


# ---------------------------------------------------------------------------
# Rational functions with s-univariate denominators.
# ---------------------------------------------------------------------------


RationalLike = Union["RationalFunction", LaurentPolynomial, SignedMonomial, int]


class RationalFunction:
    """Reduced quotient of Laurent polynomials whose denominator involves only s.

    On construction the denominator is normalized (unit monomial factors move
    into the numerator; no negative s-powers; nonzero constant term; positive
    leading coefficient) and the fraction is reduced: numerator and
    denominator are divided by the gcd of the denominator with all univariate
    s-slices of the numerator, and by the gcd of their integer contents.
    Arithmetic keeps this form: sums work over the lcm of the denominators,
    and products cancel each numerator against the other operand's
    denominator before multiplying.
    Equality compares the term maps of numerator and denominator.  That is
    sound because the reduced form is unique: two reduced fractions of the
    same value have denominators that divide each other in Q[s], so they
    differ by a rational constant, which the content reduction and the
    positive leading coefficient force to be 1.  ``__hash__`` relies on
    the same fact.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: RationalLike, denominator: RationalLike = 1):
        if isinstance(numerator, RationalFunction) or isinstance(denominator, RationalFunction):
            num_rf = _coerce_rf(numerator)
            den_rf = _coerce_rf(denominator)
            num = num_rf._num * den_rf._den
            den = num_rf._den * den_rf._num
        else:
            num = LaurentPolynomial._coerce(numerator)
            den = LaurentPolynomial._coerce(denominator)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self._num = ZERO
            self._den = ONE
            return
        num, den = _extract_denominator_unit(num, den)
        self._num, self._den = _remove_content(*_cancel_common(num, den))

    @property
    def numerator(self) -> LaurentPolynomial:
        return self._num

    @property
    def denominator(self) -> LaurentPolynomial:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_one(self) -> bool:
        return self._num.is_one and self._den.is_one

    def __bool__(self) -> bool:
        return not self._num.is_zero

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: RationalLike) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        b, d = self._den, other._den
        if b == d:
            return RationalFunction(self._num + other._num, b)
        # over the lcm b * (d/g); both quotients are exact in Z[s]
        g = gcd_s(b, d)
        d_g = exact_div_s(d, g)
        return RationalFunction(self._num * d_g + other._num * exact_div_s(b, g), b * d_g)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _new_rf(-self._num, self._den)

    def __sub__(self, other: RationalLike) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other: RationalLike) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _new_rf(ZERO, ONE)
        # cancel a with d and c with b before multiplying; the product of two
        # normalized denominators is normalized, so only content is left
        a, d = _cancel_common(self._num, other._den)
        c, b = _cancel_common(other._num, self._den)
        return _new_rf(*_remove_content(a * c, b * d))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("zero denominator")
        if self.is_zero:
            return self
        # the reciprocal of a reduced fraction is reduced once normalized
        return self * _new_rf(*_extract_denominator_unit(other._den, other._num))

    def __rtruediv__(self, other: RationalLike) -> "RationalFunction":
        return _coerce_rf(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self._den, self._num) ** (-n)
        result = RationalFunction(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPolynomial, SignedMonomial)):
            other = _coerce_rf(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- substitution and evaluation ------------------------------------

    def substitute(self, images: Mapping[str, PolyLike]) -> "RationalFunction":
        """Apply a signed-monomial substitution to numerator and denominator."""
        num = self._num.substitute(images)
        den = self._den.substitute(images)
        try:
            return RationalFunction(num, den)
        except DenominatorNotSUnivariateError as exc:
            raise IllegalSubstitutionError(str(exc)) from exc

    def evaluate(self, s: Fraction | int = 1, a: Fraction | int = 1,
                 aL: Fraction | int = 1, g: Fraction | int = 1) -> Fraction:
        den = self._den.evaluate(s, a, aL, g)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self._num.evaluate(s, a, aL, g) / den

    def __str__(self) -> str:
        if self._den.is_one:
            return str(self._num)
        num = str(self._num)
        if len(self._num) > 1:
            num = "(" + num + ")"
        return f"{num}/({self._den})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def _coerce_rf(x: RationalLike) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (LaurentPolynomial, SignedMonomial, int)):
        return _new_rf(LaurentPolynomial._coerce(x), ONE)
    return NotImplemented


def _new_rf(num: LaurentPolynomial, den: LaurentPolynomial) -> RationalFunction:
    """Wrap a numerator and denominator already in canonical form."""
    out = RationalFunction.__new__(RationalFunction)
    out._num = num
    out._den = den
    return out


def _extract_denominator_unit(num: LaurentPolynomial,
                              den: LaurentPolynomial) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Move the denominator's unit monomial factor into the numerator.

    After this the denominator lies in Z[s] with a nonzero constant term and
    a positive leading coefficient.  Raises DenominatorNotSUnivariateError if
    the denominator's terms do not share a single (a, aL, g) exponent.
    """
    non_s = {(e.a, e.aL, e.g) for e in den._terms}
    if len(non_s) != 1:
        raise DenominatorNotSUnivariateError(
            "denominator is not s-univariate up to a unit monomial")
    (ea, eaL, eg), = non_s
    lo = min(e.s for e in den._terms)
    unit_inv = LaurentPolynomial({Exponent(-lo, -ea, -eaL, -eg): 1})
    if (ea, eaL, eg) != (0, 0, 0) or lo != 0:
        den = den * unit_inv
        num = num * unit_inv
    _, coeffs = _as_int_poly(den)
    if coeffs[-1] < 0:
        num = -num
        den = -den
    return num, den


def _cancel_common(num: LaurentPolynomial,
                   den: LaurentPolynomial) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Divide num and a normalized den by their common s-univariate factor:
    the primitive gcd of den with every s-slice of num.

    The slices are taken first: they are short and their gcd is usually a
    constant after two or three of them, which spares a gcd with a long
    denominator.  Each slice is made dense only when the loop reaches it,
    and a common factor divides those same lists.
    """
    _, den_coeffs = _as_int_poly(den)
    if len(den_coeffs) == 1:
        return num, den
    slices = []
    common: list[int] | None = None
    for key, piece in _s_slices(num).items():
        lo, coeffs = _dense(piece)
        slices.append((key, lo, coeffs))
        common = coeffs if common is None else _list_gcd(common, coeffs)
        if len(common) == 1:
            return num, den
    common = _list_gcd(den_coeffs, common)
    if len(common) == 1:
        return num, den
    return (_from_slices([(key, lo, _list_exact_div(coeffs, common))
                          for key, lo, coeffs in slices]),
            _from_int_poly(_list_exact_div(den_coeffs, common)))


def _remove_content(num: LaurentPolynomial,
                    den: LaurentPolynomial) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Divide num and den by the gcd of their integer contents."""
    c = _int_gcd(num.content(), den.content())
    if c > 1:
        num = LaurentPolynomial({e: v // c for e, v in num._terms.items()})
        den = LaurentPolynomial({e: v // c for e, v in den._terms.items()})
    return num, den


def monomial_ratio(x: RationalLike, y: RationalLike) -> SignedMonomial | None:
    """The signed monomial m with x = m * y, if one exists, else None.

    Works by cross-multiplication, so it applies even when x / y itself would
    not have an s-univariate denominator.
    """
    x = _coerce_rf(x)
    y = _coerce_rf(y)
    if y.is_zero or x.is_zero:
        return None
    p = x.numerator * y.denominator
    r = y.numerator * x.denominator
    if len(p) != len(r):
        return None
    (pe, pc) = max(p._terms.items())
    (re, rc) = max(r._terms.items())
    if abs(pc) != abs(rc):
        return None
    m = SignedMonomial(1 if pc == rc else -1, _exp_add(pe, _exp_neg(re)))
    if p == r * m.to_polynomial():
        return m
    return None
