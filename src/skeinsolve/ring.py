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

from functools import cache, lru_cache
from itertools import accumulate
from math import gcd as _int_gcd
from operator import add as _add, index, sub as _sub
from typing import Iterable, Mapping, NamedTuple, Union


class DenominatorNotSUnivariateError(ValueError):
    """A denominator would involve a variable other than s."""


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


@cache
def _q_power_str(s_exp: int) -> str:
    # s^2 = q; odd s-powers render as half-integer q-powers.
    if s_exp % 2 == 0:
        return _power_str("q", s_exp // 2)
    return "q^{%d/2}" % s_exp


@cache
def _head_str(a: int, aL: int, g: int) -> str:
    # the factors before the q-power, in the order γ, a, aL
    return " ".join([_power_str(name, e) for name, e in (("γ", g), ("a", a), ("aL", aL)) if e])


def _term_str(s: int, a: int, aL: int, g: int, coeff: int) -> str:
    head = _head_str(a, aL, g)
    if s:
        body = f"{head} {_q_power_str(s)}" if head else _q_power_str(s)
    elif head:
        body = head
    else:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return str(coeff) + body


PolyLike = Union["LaurentPolynomial", int]
_Slice = tuple[int, list[int]]

_S_KEY = (0, 0, 0)  # the (a, aL, g) exponent of the slice of a polynomial in s alone


class LaurentPolynomial:
    """Laurent polynomial in s, a, aL, g with integer coefficients.

    Stored as s-slices: a map from each (a, aL, g) exponent that occurs to
    (lo, coeffs), the slice s^lo * sum coeffs[i] s^i, with coeffs a dense
    list whose first and last entries are nonzero.  No empty slice is
    stored, so two polynomials are equal iff their maps are equal.  The
    constructor takes a term map Exponent -> coefficient, reads every
    coefficient and exponent through operator.index, as monomial() does, so
    a float, a string or None raises TypeError, and drops zero
    coefficients.  Arithmetic accepts polynomials and ints.  Instances are
    immutable: all operations return new polynomials, which may share
    coefficient lists, so no list is changed once stored.
    """

    __slots__ = ("_slices",)

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        pieces: dict[tuple[int, int, int], dict[int, int]] = {}
        for (s, a, aL, g), c in terms.items() if terms else ():
            c, s, key = index(c), index(s), (index(a), index(aL), index(g))
            if c:
                piece = pieces.get(key)
                if piece is None:
                    pieces[key] = {s: c}
                else:
                    piece[s] = c
        slices = {}
        for key, piece in pieces.items():
            lo = min(piece)
            coeffs = [0] * (max(piece) - lo + 1)
            for s, c in piece.items():
                coeffs[s - lo] = c
            slices[key] = (lo, coeffs)
        self._slices: dict[tuple[int, int, int], _Slice] = slices

    # -- basic views ---------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms sorted ascending by (s, a, aL, g) exponent order."""
        make = tuple.__new__
        return [(make(Exponent, (s, a, aL, g)), c) for s, a, aL, g, c in _sorted_rows(self)]

    @property
    def is_zero(self) -> bool:
        return not self._slices

    @property
    def is_one(self) -> bool:
        return self._slices == ONE._slices

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return sum([len(coeffs) - coeffs.count(0) for _, coeffs in self._slices.values()])

    def as_signed_monomial(self) -> SignedMonomial | None:
        """The term as a SignedMonomial, if the polynomial is one; else None."""
        if len(self._slices) != 1:
            return None
        ((a, aL, g), (lo, coeffs)), = self._slices.items()
        if len(coeffs) != 1 or coeffs[0] not in (1, -1):
            return None
        return SignedMonomial(coeffs[0], Exponent(lo, a, aL, g))

    def content(self) -> int:
        """Nonnegative gcd of all integer coefficients (0 for the zero polynomial)."""
        c = 0
        for _, coeffs in self._slices.values():
            c = _int_gcd(c, *coeffs)
            if c == 1:
                break
        return c

    def s_range(self) -> tuple[int, int]:
        los = [lo for lo, _ in self._slices.values()]
        his = [lo + len(coeffs) - 1 for lo, coeffs in self._slices.values()]
        return (min(los), max(his))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x: PolyLike) -> "LaurentPolynomial":
        if isinstance(x, LaurentPolynomial):
            return x
        if isinstance(x, int):
            return _new_poly({_S_KEY: (0, [x])} if x else {})
        return NotImplemented

    def __add__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._slices)
        for key, (lo, coeffs) in other._slices.items():
            _add_slice(out, key, lo, coeffs)
        return _new_poly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return _new_poly({key: (lo, [-c for c in coeffs])
                          for key, (lo, coeffs) in self._slices.items()})

    def __sub__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> "LaurentPolynomial":
        return (-self).__add__(other)  # NotImplemented for an operand it cannot coerce

    def __mul__(self, other: PolyLike) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        short_poly, long_poly = self, other
        if len(self._slices) > len(other._slices):
            short_poly, long_poly = other, self
        shorter, longer = short_poly._slices, long_poly._slices
        if len(shorter) < 2:
            if not shorter:
                return ZERO
            if shorter == ONE._slices:
                return long_poly  # values are immutable
            # one slice: shifting keys is injective, so each pair of slices
            # is one slice of the product; one term shifts lo, and a
            # coefficient 1 shares the other's lists
            ((a1, aL1, g1), (lo1, f)), = shorter.items()
            return _new_poly({(a1 + a2, aL1 + aL2, g1 + g2): (lo1 + lo2, _list_mul(f, h))
                              for (a2, aL2, g2), (lo2, h) in longer.items()})
        acc: dict[tuple[int, int, int], _Slice] = {}
        for (a1, aL1, g1), (lo1, f) in shorter.items():
            for (a2, aL2, g2), (lo2, h) in longer.items():
                _add_slice(acc, (a1 + a2, aL1 + aL2, g1 + g2), lo1 + lo2, _list_mul(f, h))
        return _new_poly(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            sm = self.as_signed_monomial()
            if sm is None:
                raise ValueError("negative powers require a monomial with coefficient +/-1")
            return LaurentPolynomial({_exp_scale(sm.exponent, n): sm.sign ** (n & 1)})
        # square only while bits remain, and start from the first set bit
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return ONE if result is None else result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._slices == other._slices

    def __hash__(self) -> int:
        # a constant hashes like the int it equals
        slices = self._slices
        if not slices:
            return hash(0)
        constant = slices.get(_S_KEY)
        if len(slices) == 1 and constant is not None and constant[0] == 0 and len(constant[1]) == 1:
            return hash(constant[1][0])
        return hash(frozenset([(key, lo, tuple(coeffs)) for key, (lo, coeffs) in slices.items()]))

    # -- substitution ----------------------------------------------------

    def substitute(self, images: Mapping[str, PolyLike]) -> "LaurentPolynomial":
        """Ring endomorphism mapping each named variable to a signed monomial.

        Every image must be a single Laurent monomial with coefficient +1
        or -1, e.g. ``{"a": A**-1, "s": -S}``: ValueError if it is another
        polynomial or int, TypeError if it is neither.
        """
        monomials: dict[str, SignedMonomial] = {}
        for name, img in images.items():
            if name not in VARIABLES:
                raise ValueError(f"unknown variable {name!r}")
            poly = self._coerce(img)
            if poly is NotImplemented:
                raise TypeError(f"image of {name} must be a Laurent polynomial or int")
            sm = poly.as_signed_monomial()
            if sm is None:
                raise ValueError(f"image of {name} must be a signed monomial")
            monomials[name] = sm
        # column j of the matrix is the image exponent of variable j (its
        # unit vector if unmapped), and the sign flips with the parity of
        # the exponent sum over the negated variables; (ss, sa, sl, sg) is
        # the image of s, and so on
        columns = [Exponent(*(int(i == j) for i in range(4))) for j in range(4)]
        odd = [0, 0, 0, 0]
        for name, sm in monomials.items():
            j = VARIABLES.index(name)
            columns[j] = sm.exponent
            odd[j] = int(sm.sign < 0)
        (ss, sa, sl, sg), (as_, aa, al, ag), (ls, la, ll, lg), (gs, ga, gl, gg) = columns
        os_, oa, ol, og = odd
        acc: dict[tuple[int, int, int, int], int] = {}
        get = acc.get
        for (a, aL, g), (lo, coeffs) in self._slices.items():
            for s, c in enumerate(coeffs, lo):
                if not c:
                    continue
                key = (s * ss + a * as_ + aL * ls + g * gs, s * sa + a * aa + aL * la + g * ga,
                       s * sl + a * al + aL * ll + g * gl, s * sg + a * ag + aL * lg + g * gg)
                if (s * os_ + a * oa + aL * ol + g * og) & 1:
                    c = -c
                acc[key] = get(key, 0) + c
        return LaurentPolynomial(acc)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        rows = _sorted_rows(self)
        if not rows:
            return "0"
        pieces = [_term_str(*rows[0])]
        for s, a, aL, g, c in rows[1:]:
            pieces.append("- " + _term_str(s, a, aL, g, -c) if c < 0
                          else "+ " + _term_str(s, a, aL, g, c))
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({str(self)!r})"


def _new_poly(slices: dict[tuple[int, int, int], _Slice]) -> LaurentPolynomial:
    """Wrap a slice map already in canonical form."""
    out = LaurentPolynomial.__new__(LaurentPolynomial)
    out._slices = slices
    return out


def _sorted_rows(f: LaurentPolynomial) -> list[tuple[int, int, int, int, int]]:
    """The nonzero terms of f as (s, a, aL, g, coeff), ascending."""
    rows = [(s, a, aL, g, c) for (a, aL, g), (lo, coeffs) in f._slices.items()
            for s, c in enumerate(coeffs, lo) if c]
    rows.sort()
    return rows


def _add_slice(slices: dict[tuple[int, int, int], _Slice], key: tuple[int, int, int],
               lo: int, coeffs: list[int]) -> None:
    """Add s^lo * coeffs to the slice of key in a slice map being built: a
    new list at an offset, trimmed, and no entry if the sum is zero."""
    mine = slices.get(key)
    if mine is None:
        slices[key] = (lo, coeffs)
        return
    lo2, g = mine
    if lo > lo2:
        lo, coeffs, lo2, g = lo2, g, lo, coeffs
    k = lo2 - lo
    end = k + len(g)
    out = coeffs + [0] * (end - len(coeffs))
    out[k:end] = map(_add, out[k:end], g)
    if out[0] and out[-1]:
        slices[key] = (lo, out)
        return
    n = len(out)
    while n and not out[n - 1]:
        n -= 1
    if not n:
        del slices[key]
        return
    start = 0
    while not out[start]:
        start += 1
    slices[key] = (lo + start, out[start:n])


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({ZERO_EXP: 1})
S = LaurentPolynomial({Exponent(s=1): 1})
Q = LaurentPolynomial({Exponent(s=2): 1})
A = LaurentPolynomial({Exponent(a=1): 1})
AL = LaurentPolynomial({Exponent(aL=1): 1})
G = LaurentPolynomial({Exponent(g=1): 1})


def monomial(coeff: int, s: int = 0, a: int = 0, aL: int = 0, g: int = 0) -> LaurentPolynomial:
    """coeff s^s a^a aL^aL g^g; each argument is read through operator.index,
    so a float or a string raises TypeError."""
    coeff, s, key = index(coeff), index(s), (index(a), index(aL), index(g))
    return _new_poly({key: (s, [coeff])} if coeff else {})


@lru_cache(maxsize=None, typed=True)
def q_int(n: int) -> LaurentPolynomial:
    """The quantum integer [n]_q = 1 + q + ... + q^{n-1}; TypeError for a
    float or a string."""
    if index(n) < 0:
        raise ValueError("q_int requires n >= 0")
    return LaurentPolynomial({Exponent(s=2 * k): 1 for k in range(n)})


# ---------------------------------------------------------------------------
# Univariate machinery in s: primitive-PRS gcd and exact division.
# ---------------------------------------------------------------------------


def _as_int_poly(f: LaurentPolynomial) -> _Slice:
    """The one slice (lo, coeffs) of a nonzero polynomial in s alone:
    f = s^lo * sum coeffs[i] s^i with coeffs[0] and coeffs[-1] nonzero.
    ValueError if f is zero or involves a, aL or g."""
    if not f._slices:
        raise ValueError("zero polynomial")
    if len(f._slices) != 1 or _S_KEY not in f._slices:
        raise ValueError("polynomial involves a, aL or g")
    return f._slices[_S_KEY]


def _list_primitive(f: list[int]) -> list[int]:
    c = _int_gcd(*f)
    if c in (0, 1):
        return list(f)
    return [v // c for v in f]


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
    (Brown, J. ACM 18, 1971).  f and g are ascending and end in a nonzero
    coefficient: stored slices, or lists from _list_primitive or _list_prem."""
    f = _list_primitive(f)
    g = _list_primitive(g)
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


def _list_mul(f: list[int], g: list[int]) -> list[int]:
    """Product in Z[s] of two ascending coefficient lists.  A product by
    [1] is the other list itself, so the result is never to be changed."""
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        c = f[0]
        return g if c == 1 else [c * d for d in g]
    out = [0] * (len(f) + len(g) - 1) if f else []
    nonzero = [(j, d) for j, d in enumerate(g) if d]  # a polynomial in q = s^2 has zero odd slots
    for i, c in enumerate(f):
        if c:
            for j, d in nonzero:
                out[i + j] += c * d
    return out


def product_s(factors: Iterable[LaurentPolynomial]) -> LaurentPolynomial:
    """Product of s-univariate Laurent polynomials, on dense coefficient
    lists (1 for no factor); ValueError for a factor in a, aL or g."""
    lo, acc = 0, [1]
    for f in factors:
        shift, coeffs = (0, []) if f.is_zero else _as_int_poly(f)
        lo, acc = lo + shift, _list_mul(acc, coeffs)
    return _new_poly({_S_KEY: (lo, acc)} if acc else {})


def _mobius(n: int) -> int:
    """The Moebius function: 0 if a square divides n, else (-1)^(prime factors)."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@lru_cache(maxsize=None, typed=True)
def _phi_binomials(d: int) -> tuple[tuple[int, int], ...]:
    """The pairs (n, mu(d/n)) over the divisors n of d with mu(d/n) != 0,
    so that Phi_d(q) is the product of (q^n - 1)^mu(d/n)."""
    return tuple((n, m) for n in range(1, d + 1) if d % n == 0 and (m := _mobius(d // n)))


def _times_binomial(f: list[int], n: int) -> list[int]:
    """(q^n - 1) f on ascending coefficient lists."""
    out = [0] * n + f
    out[:len(f)] = map(_sub, out[:len(f)], f)
    return out


def _over_binomial(f: list[int], n: int) -> list[int]:
    """The exact quotient f / (q^n - 1) on ascending coefficient lists;
    ArithmeticError if it is not exact.

    f = (q^n - 1) g with g of length m = len(f) - n reads f[i] = g[i - n] - g[i]
    (g zero outside 0..m-1).  The m equations with i < m give g[i] = g[i - n] - f[i],
    so along each residue r mod n g is the negated running sum of f[r:m:n];
    the n equations with i >= m, f[i] = g[i - n], are what is left to check.
    """
    m = len(f) - n
    if m <= 0:  # a nonzero f of degree below n
        raise ArithmeticError("inexact polynomial division")
    g = [-c for c in f[:m]]
    for r in range(min(n, m)):
        g[r::n] = accumulate(g[r::n])
    if f[m:] != [0] * (n - m) + g[max(m - n, 0):]:
        raise ArithmeticError("inexact polynomial division")
    return g


def cyclotomic_product(exponents: Mapping[int, int]) -> LaurentPolynomial:
    """The product of Phi_d(q)^e over an exponent vector {d: e}; ValueError
    for a d below 1 or a negative e, TypeError for one that is not an int.

    q^n - 1 is the product of Phi_d over the divisors d of n, so by Moebius
    inversion Phi_d is the product of (q^n - 1)^mu(d/n) over the divisors n
    of d (the table _phi_binomials), and the whole product is that of
    (q^n - 1)^b_n with b_n = sum over the multiples d of n of e_d mu(d/n).
    It is formed on ascending coefficient lists in q: a product by each
    q^n - 1 with b_n > 0, then an exact division by each with b_n < 0,
    O(length) per step; an inexact division raises ArithmeticError.
    """
    if any(d < 1 or e < 0 for d, e in exponents.items()):
        raise ValueError(f"cyclotomic exponents need d >= 1 and e >= 0, got {dict(exponents)}")
    binomials: dict[int, int] = {}
    for d, e in exponents.items():
        e = index(e)
        if e:
            for n, mu in _phi_binomials(d):
                binomials[n] = binomials.get(n, 0) + e * mu
    f = [1]
    for n, b in binomials.items():
        for _ in range(b):
            f = _times_binomial(f, n)
    for n, b in binomials.items():
        for _ in range(-b):
            f = _over_binomial(f, n)
    coeffs = [0] * (2 * len(f) - 1)  # in s = q^{1/2}
    coeffs[::2] = f
    return _new_poly({_S_KEY: (0, coeffs)})


# ---------------------------------------------------------------------------
# Rational functions with s-univariate denominators.
# ---------------------------------------------------------------------------


RationalLike = Union["RationalFunction", LaurentPolynomial, int]


class RationalFunction:
    """Reduced quotient of Laurent polynomials whose denominator involves only s.

    Numerator and denominator are Laurent polynomials or ints, and so are
    the operands of the arithmetic besides rational functions.
    On construction the denominator is normalized (unit monomial factors move
    into the numerator; no negative s-powers; nonzero constant term; positive
    leading coefficient) and the fraction is reduced: numerator and
    denominator are divided by the gcd of the denominator with all univariate
    s-slices of the numerator, and by the gcd of their integer contents.
    Arithmetic keeps this form: sums work over the lcm of the denominators,
    and products cancel each numerator against the other operand's
    denominator before multiplying.
    Equality compares the slice maps of numerator and denominator.  That is
    sound because the reduced form is unique: two reduced fractions of the
    same value have denominators that divide each other in Q[s], so they
    differ by a rational constant, which the content reduction and the
    positive leading coefficient force to be 1.  ``__hash__`` relies on
    the same fact.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: PolyLike, denominator: PolyLike = 1):
        num = LaurentPolynomial._coerce(numerator)
        den = LaurentPolynomial._coerce(denominator)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("numerator and denominator must be Laurent "
                            "polynomials or ints")
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
        # over the lcm b * (d/g); both denominators are normalized, so they
        # lie in Z[s] with a nonzero constant term, and both quotients are exact
        _, bc = _as_int_poly(b)
        _, dc = _as_int_poly(d)
        g = _list_gcd(bc, dc)
        b_g, d_g = _list_exact_div(bc, g), _list_exact_div(dc, g)
        return RationalFunction(self._num * _new_poly({_S_KEY: (0, d_g)})
                                + other._num * _new_poly({_S_KEY: (0, b_g)}),
                                _new_poly({_S_KEY: (0, _list_mul(bc, d_g))}))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _new_rf(-self._num, self._den)

    def __sub__(self, other: RationalLike) -> "RationalFunction":
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "RationalFunction":
        return (-self).__add__(other)  # NotImplemented for an operand it cannot coerce

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
        other = _coerce_rf(other)
        return NotImplemented if other is NotImplemented else other / self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPolynomial)):
            other = _coerce_rf(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        # over 1 it hashes like its numerator, which it equals
        if self._den.is_one:
            return hash(self._num)
        return hash((self._num, self._den))

    # -- substitution ----------------------------------------------------

    def substitute(self, images: Mapping[str, PolyLike]) -> "RationalFunction":
        """Apply a signed-monomial substitution to numerator and denominator;
        DenominatorNotSUnivariateError if the denominator's image leaves s."""
        return RationalFunction(self._num.substitute(images), self._den.substitute(images))

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
    if isinstance(x, (LaurentPolynomial, int)):
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
    if len(den._slices) != 1:
        raise DenominatorNotSUnivariateError(
            "denominator is not s-univariate up to a unit monomial")
    ((ea, eaL, eg), (lo, coeffs)), = den._slices.items()
    if (ea, eaL, eg) != _S_KEY or lo != 0:
        num = num * _new_poly({(-ea, -eaL, -eg): (-lo, [1])})
        den = _new_poly({_S_KEY: (0, coeffs)})
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
    denominator.  A common factor divides those same stored lists.
    """
    _, den_coeffs = _as_int_poly(den)
    if len(den_coeffs) == 1:
        return num, den
    common: list[int] | None = None
    for _, coeffs in num._slices.values():
        common = coeffs if common is None else _list_gcd(common, coeffs)
        if len(common) == 1:
            return num, den
    common = _list_gcd(den_coeffs, common)
    if len(common) == 1:
        return num, den
    return (_new_poly({key: (lo, _list_exact_div(coeffs, common))
                       for key, (lo, coeffs) in num._slices.items()}),
            _new_poly({_S_KEY: (0, _list_exact_div(den_coeffs, common))}))


def _remove_content(num: LaurentPolynomial,
                    den: LaurentPolynomial) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Divide num and den by the gcd of their integer contents."""
    c = _int_gcd(num.content(), den.content())
    if c > 1:
        num, den = (_new_poly({key: (lo, [v // c for v in coeffs])
                               for key, (lo, coeffs) in f._slices.items()}) for f in (num, den))
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
    (pe, pc) = p.sorted_terms()[-1]
    (re, rc) = r.sorted_terms()[-1]
    if abs(pc) != abs(rc):
        return None
    m = SignedMonomial(1 if pc == rc else -1, _exp_add(pe, _exp_neg(re)))
    if p == r * m.to_polynomial():
        return m
    return None
