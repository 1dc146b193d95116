import json
import operator
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from skeinsolve import (
    A,
    AL,
    DenominatorNotSUnivariateError,
    G,
    LaurentPolynomial,
    ONE,
    Q,
    RationalFunction,
    S,
    ZERO,
    monomial,
    q_int,
)
from skeinsolve.partitions import EMPTY
from skeinsolve.ring import (
    Exponent,
    _as_int_poly,
    _list_exact_div,
    _list_gcd,
    _list_prem,
    cyclotomic_product,
    monomial_ratio,
    product_s,
)
from skeinsolve.serialize import dump_line, rf_from_record
from skeinsolve.skein import Generator, OperatorExpression, SkeinVector

import skeinsolve.ring as ring_mod

from strategies import exponents, laurent_polynomials, rational_functions

Z = S - S ** -1


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


def test_add_cancellation():
    assert (S - S ** -1) + S ** -1 == S


def test_add_identity():
    f = 3 * Q - A * S
    assert f + ZERO == f


def test_add_hand_sum():
    # (1+q) + (q^-1+1) = q^-1 + 2 + q
    assert (1 + Q) + (Q ** -1 + 1) == Q ** -1 + 2 + Q


def test_mul_difference_of_squares():
    assert (S - S ** -1) * (S + S ** -1) == Q - Q ** -1


def test_mul_identity():
    f = 2 * A - G * S ** 3
    assert f * ONE == f


def test_mul_hand_expansion():
    # (q^{1/2}-q^{-1/2})^2 (1+q) = q^2 - q - 1 + q^{-1}
    assert Z ** 2 * (1 + Q) == Q ** 2 - Q - 1 + Q ** -1


@given(laurent_polynomials(), laurent_polynomials(), laurent_polynomials())
def test_mul_distributes_over_add(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(laurent_polynomials(), laurent_polynomials())
def test_mul_commutes(f, g):
    assert f * g == g * f


def _product_by_single_terms(f, g):
    # a sum of one-term products, each built without __mul__
    total = ZERO
    for e1, c1 in f.sorted_terms():
        for e2, c2 in g.sorted_terms():
            total = total + monomial(c1 * c2, *(x + y for x, y in zip(e1, e2)))
    return total


def _assert_product_terms(f, g):
    got = dict((f * g).sorted_terms())
    # tuple and Exponent keys compare equal, so check the key type itself
    assert all(type(key) is Exponent for key in got)
    assert 0 not in got.values()
    assert got == dict(_product_by_single_terms(f, g).sorted_terms())


@given(laurent_polynomials(), laurent_polynomials())
def test_mul_term_map_matches_single_term_products(f, g):
    _assert_product_terms(f, g)


def test_mul_cross_terms_cancel():
    # (s + a)(s - a) = s^2 - a^2: both cross terms cancel to zero
    _assert_product_terms(S + A, S - A)
    assert ((S + A) * (S - A)).sorted_terms() == [(Exponent(a=2), -1), (Exponent(s=2), 1)]


def _assert_canonical(f):
    # Exponent keys and no zero coefficient, and the stored form is the one
    # the constructor builds from those terms: no empty or untrimmed slice
    terms = f.sorted_terms()
    assert all(type(e) is Exponent and c for e, c in terms)
    assert LaurentPolynomial(dict(terms)) == f


def _dict_product(f, g):
    out = {}
    for e1, c1 in f.sorted_terms():
        for e2, c2 in g.sorted_terms():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


_COEFFICIENTS = st.one_of(st.integers(min_value=-9, max_value=9),
                          st.sampled_from((10 ** 30, -10 ** 30 - 1)))
one_term_operands = st.one_of(
    _COEFFICIENTS,  # ints, 0 among them
    st.builds(lambda c: LaurentPolynomial({Exponent(): c}), _COEFFICIENTS),
    st.builds(lambda sign, e: LaurentPolynomial({e: sign}), st.sampled_from((1, -1)), exponents()),
    st.builds(lambda c, e: LaurentPolynomial({e: c}), _COEFFICIENTS, exponents()),
)


@given(one_term_operands, laurent_polynomials(), st.booleans())
def test_mul_by_a_one_term_operand_matches_a_dict_product(m, f, m_first):
    got = m * f if m_first else f * m
    poly = m if isinstance(m, LaurentPolynomial) else monomial(m)
    assert {tuple(e): c for e, c in got.sorted_terms()} == _dict_product(poly, f)
    _assert_canonical(got)


def test_mul_by_one_returns_the_other_operand():
    f = 3 * Q - A * S
    assert f * ONE is f and ONE * f is f and f * 1 is f and 1 * f is f
    assert -1 * f == -f and (f * ZERO).is_zero and (0 * f).is_zero


@pytest.mark.parametrize("n", range(10))
def test_power_matches_repeated_products(n):
    x = (S - 2 * A) * G + 10 ** 20
    expected = ONE
    for _ in range(n):
        expected = expected * x
    assert x ** n == expected


def test_power_squares_only_while_bits_remain(monkeypatch):
    # n ** k takes bit_length - 1 squarings and popcount - 1 products
    products = []
    mul = LaurentPolynomial.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counting)
    d = Q - 1
    counts = []
    for n in range(10):
        products.clear()
        d ** n
        counts.append(len(products))
    assert counts == [0, 0, 1, 2, 2, 3, 3, 4, 3, 4]


def test_negative_power_of_monomial_only():
    assert (A * S) ** -2 == monomial(1, s=-2, a=-2)
    assert (-A * G) ** -3 == -(A ** -3 * G ** -3)
    assert (-S) ** -2 == S ** -2
    with pytest.raises(ValueError):
        (S + 1) ** -1
    with pytest.raises(ValueError):
        (2 * S) ** -1


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("var", (S, A, AL, G), ids=("s", "a", "aL", "g"))
def test_negative_power_inverts_a_unit_monomial(var, sign, n):
    m = var if sign > 0 else -var
    inverse = m ** -n
    _assert_canonical(inverse)
    assert inverse * m ** n == ONE


@pytest.mark.parametrize("args, kwargs", (
    ((1,), {"s": 0.5}), ((1.5,), {}), ((1,), {"a": "2"}), ((Fraction(1),), {}),
    ((1,), {"g": 2.0}), ((1,), {"aL": Fraction(3)})))
def test_monomial_rejects_a_value_that_is_no_integer(args, kwargs):
    # int() would truncate 0.5 to 0 and print 1.5 as it is
    with pytest.raises(TypeError):
        monomial(*args, **kwargs)


@pytest.mark.parametrize("terms", (
    {Exponent(s=1): 1.5}, {Exponent(): Fraction(2)}, {Exponent(s=1): "1"},
    {Exponent(s=1): None}, {Exponent(s=0.5): 1}, {Exponent(a=1.0): 1},
    {Exponent(aL=Fraction(1), s=1): 2}, {Exponent(g=2.0): 0}))
def test_constructor_rejects_a_value_that_is_no_integer(terms):
    # unchecked, a float coefficient would print as 1.5 and a float
    # exponent would key a slice on a = 1.0
    with pytest.raises(TypeError):
        LaurentPolynomial(terms)


def test_constructor_reads_a_bool_as_the_int_it_is():
    assert str(LaurentPolynomial({Exponent(): True})) == "1"
    assert LaurentPolynomial({Exponent(s=True): 2}) == 2 * S


def _stored_coefficients(x) -> list:
    """Every entry of the coefficient lists that x stores."""
    if isinstance(x, LaurentPolynomial):
        return [c for _, coeffs in x._slices.values() for c in coeffs]
    if isinstance(x, RationalFunction):
        return _stored_coefficients(x.numerator) + _stored_coefficients(x.denominator)
    if isinstance(x, OperatorExpression):
        return [c for coeff, _ in x._terms for c in _stored_coefficients(coeff)]
    return [c for _, rf in x.items() for c in _stored_coefficients(rf)]


_BOOL_OPERANDS = {
    "poly-sum": lambda one: S + one,
    "poly-reflected-sum": lambda one: one + S,
    "rf": lambda one: RationalFunction(one),
    "rf-sum": lambda one: RationalFunction(S) + one,
    "operator": lambda one: OperatorExpression([(one, (Generator.P01,))]),
    "skein-vector": lambda one: SkeinVector({EMPTY: one}, 0),
}


@pytest.mark.parametrize("make", _BOOL_OPERANDS.values(), ids=_BOOL_OPERANDS)
def test_an_operand_true_is_stored_as_1(make):
    got, want = make(True), make(1)
    assert str(got) == str(want)
    assert repr(got) == repr(want)
    assert got == want
    assert all(type(c) is int for c in _stored_coefficients(got))


def test_an_operand_true_is_written_as_1():
    line = dump_line(RationalFunction(S + True))
    assert line == dump_line(RationalFunction(S + 1))
    assert rf_from_record(json.loads(line)) == RationalFunction(S + 1)


def test_monomial_examples():
    assert monomial(-3, s=1, g=-2) == -3 * S * G ** -2
    assert monomial(0, a=4).is_zero
    assert str(monomial(1, s=-1)) == "q^{-1/2}"


def test_canonical_form_drops_zeros():
    f = LaurentPolynomial({Exponent(s=1): 1, Exponent(s=2): 0})
    assert f.sorted_terms() == [(Exponent(s=1), 1)]
    assert (f - f).is_zero


def test_rendering():
    assert str(Q ** -1 + 2 + Q) == "q^{-1} + 2 + q"
    assert str(ZERO) == "0"
    assert str(-S) == "-q^{1/2}"
    assert str(G * A ** -1 * monomial(2)) == "2γ a^{-1}"
    assert str(monomial(-2, a=-1, g=1) + Q) == "-2γ a^{-1} + q"
    assert str(monomial(-2) - 3 * S) == "-2 - 3q^{1/2}"


def _reference_str(f):
    # the term loop of LaurentPolynomial.__str__ as it was written for the
    # term-dict form, one term at a time with no cached pieces
    def power(base, e):
        if e == 1:
            return base
        text = str(e)
        return f"{base}^{text}" if len(text) == 1 else f"{base}^{{{text}}}"

    def term(exp, coeff):
        s, a, aL, g = exp
        factors = [power(name, e) for name, e in (("γ", g), ("a", a), ("aL", aL)) if e != 0]
        if s != 0:
            factors.append(power("q", s // 2) if s % 2 == 0 else "q^{%d/2}" % s)
        if not factors:
            return str(coeff)
        body = " ".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return str(coeff) + body

    terms = f.sorted_terms()
    if not terms:
        return "0"
    (exp, coeff), *rest = terms
    pieces = [term(exp, coeff)]
    for exp, coeff in rest:
        pieces.append(("- " if coeff < 0 else "+ ") + term(exp, abs(coeff)))
    return " ".join(pieces)


_WIDE_EXPONENTS = st.builds(Exponent, *[st.integers(min_value=-30, max_value=30)] * 4)
_WIDE_COEFFICIENTS = st.one_of(
    st.sampled_from((1, -1, 0, 2 ** 64 + 1, -(2 ** 64) - 3, 3 ** 90)),
    st.integers(min_value=-20, max_value=20))
wide_polynomials = st.builds(
    LaurentPolynomial,
    st.dictionaries(st.one_of(_WIDE_EXPONENTS, exponents(span=12)), _WIDE_COEFFICIENTS,
                    max_size=8))


@given(wide_polynomials)
def test_rendering_matches_the_term_by_term_reference(f):
    assert str(f) == _reference_str(f)


@given(wide_polynomials, wide_polynomials, wide_polynomials)
def test_equal_values_built_in_different_orders_are_equal_and_hash_equal(f, g, h):
    pairs = [
        ((f + g) + h, f + (g + h)),
        ((f * g) * h, f * (h * g)),
        (f * (g + h), h * f + g * f),
        ((f - g) * (f + g), f * f - g * g),
        (sum((monomial(c, *e) for e, c in reversed(f.sorted_terms())), ZERO), f),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        _assert_canonical(x)


@given(wide_polynomials)
def test_stored_form_is_rebuilt_from_the_sorted_terms(f):
    assert LaurentPolynomial(dict(f.sorted_terms())) == f
    assert (f - f).sorted_terms() == [] and len(f - f) == 0 and (f - f).is_zero
    assert len(f) == len(f.sorted_terms())
    if not f.is_zero:
        assert f.s_range() == (f.sorted_terms()[0][0].s, f.sorted_terms()[-1][0].s)


# ---------------------------------------------------------------------------
# univariate gcd
# ---------------------------------------------------------------------------


def _s_poly(coeffs, lo=0):
    """s^lo * sum coeffs[i] s^i."""
    return LaurentPolynomial({Exponent(s=lo + i): c for i, c in enumerate(coeffs)})


def _gcd(f, g):
    """_list_gcd of two nonzero s-only polynomials shifted into Z[s]."""
    return _s_poly(_list_gcd(_as_int_poly(f)[1], _as_int_poly(g)[1]))


def _exact_div(f, d):
    """_list_exact_div of two nonzero s-only polynomials shifted into Z[s];
    the powers of s they were shifted by only shift the quotient."""
    f_lo, fc = _as_int_poly(f)
    d_lo, dc = _as_int_poly(d)
    return _s_poly(_list_exact_div(fc, dc), f_lo - d_lo)


def test_gcd_basic():
    assert _gcd(Q - 1, S - 1) == S - 1


def test_gcd_shared_factor():
    # division oracle: (1+s^2)(1-s^2+s^4) = 1+s^6, while 1+s^2+s^4 is
    # coprime to 1+s^2, so the shared-factor pair uses 1+s^6
    assert (1 + Q) * (1 - Q + Q ** 2) == 1 + Q ** 3
    assert _gcd(1 + Q ** 3, 1 + Q) == 1 + Q
    assert _gcd(1 + Q + Q ** 2, 1 + Q) == ONE
    assert _exact_div(1 + Q ** 3, 1 + Q) == 1 - Q + Q ** 2


def test_gcd_rejects_other_variables():
    with pytest.raises(ValueError):
        _as_int_poly(A - 1)


@pytest.mark.parametrize("f,g", [(ZERO, S - 1), (Q - 1, ZERO)], ids=["first", "second"])
def test_gcd_rejects_zero(f, g):
    with pytest.raises(ValueError):
        _gcd(f, g)


@given(laurent_polynomials(s_only=True, nonzero=True),
       laurent_polynomials(s_only=True, nonzero=True))
def test_gcd_divides_both(f, g):
    d = _gcd(f, g)
    assert _exact_div(f, d) * d == f
    assert _exact_div(g, d) * d == g


# ---------------------------------------------------------------------------
# the Z[s] kernels: pseudo-remainder and exact division
# ---------------------------------------------------------------------------


def _q_remainder(f, g):
    """f mod g over Q, on ascending lists, without trailing zeros."""
    r = [Fraction(c) for c in f]
    while r and r[-1] == 0:
        r.pop()
    while len(r) >= len(g):
        q = r[-1] / g[-1]
        k = len(r) - len(g)
        for i, gc in enumerate(g):
            r[k + i] -= q * gc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _proportional(r, ref):
    """Whether r = c * ref for a nonzero rational c."""
    if len(r) != len(ref):
        return False
    return not r or all(x * ref[-1] == y * r[-1] for x, y in zip(r, ref))


def test_prem_steps_by_the_quotient_when_the_lead_divides():
    # 4s^2 + 2s + 1 by 2s + 1: both steps are exact, so nothing is scaled
    assert _list_prem([1, 2, 4], [1, 2]) == [1]
    # 2s^3 + 3s^2 + 1 by 2s + 1: two exact steps, then the lead -1 forces
    # one scaled step, so the remainder is 2 * f(-1/2) = 3
    assert _list_prem([1, 0, 3, 2], [1, 2]) == [3]
    # 3s^2 + s + 1 by 2s + 1: two scaled steps, 4 * f(-1/2) = 5
    assert _list_prem([1, 1, 3], [1, 2]) == [5]


@pytest.mark.parametrize("g", [[1, 0, 2], [2, 1, 3], [-1, 4, -1], [5, 0, 0, -1],
                               [-1, 0, 0, 0, 0, 0, 1]],
                         ids=["lc2", "lc3", "lc-1", "sparse-lc-1", "s6-1"])
@pytest.mark.parametrize("f", [[7, -3, 5, 2, 9, -4, 1], [1, 2, 3, 4, 5, 6, 7, 8],
                               [0, 0, 0, 0, 0, 0, 6], [3, 1, 0, 0, 0]])
def test_prem_is_a_multiple_of_the_rational_remainder(f, g):
    assert _proportional(_list_prem(f, g), _q_remainder(f, g))


@pytest.mark.parametrize("h", [2 * Q + S + 1, 3 * S ** 3 - 2, 1 - Q, S ** 6 - 1],
                         ids=["lc2", "lc3", "lc-1", "s6-1"])
def test_gcd_with_non_monic_and_sparse_factors(h):
    f = 3 * S ** 3 - S + 2
    g = 2 * Q + 5
    assert _gcd(f, g) == ONE
    normalized = h if h.sorted_terms()[-1][1] > 0 else -h
    assert _gcd(f * h, g * h) == normalized
    assert _gcd(h * h * f, g * h * S ** -4) == normalized
    assert RationalFunction(f * h * A, h) == f * A


def test_exact_div_by_a_sparse_divisor():
    d = S ** 6 - 1
    f = A * (Q + S + 1) + G * monomial(-2, s=-3) + AL * S
    assert RationalFunction(f * d, d) == f
    assert _exact_div(d, S - 1) == 1 + S + Q + S ** 3 + Q ** 2 + S ** 5


def test_exact_div_honours_the_divisors_power_of_s():
    assert RationalFunction(S ** 3, S) == Q
    assert RationalFunction(A * S ** 2, S ** 2) == A
    f = A * (Q + 3) - G * S ** -1
    d = S ** -2 * (2 * Q + 1)
    assert RationalFunction(f * d, d) == f


def test_exact_div_rejects_a_remainder_in_the_low_coefficients():
    # every step from the top divides; only the constant term is left over
    with pytest.raises(ArithmeticError):
        _exact_div((Q + 1) * (S + 1) + 1, Q + 1)
    with pytest.raises(ArithmeticError):
        _exact_div((2 * Q + 1) * (S - 3) + S, 2 * Q + 1)
    with pytest.raises(ArithmeticError):
        _list_exact_div([1, 0, 2, 0], [1, 0, 1])


def test_exact_div_rejects_a_lead_that_does_not_divide():
    with pytest.raises(ArithmeticError):
        _exact_div(3 * Q + 1, 2 * S + 1)
    with pytest.raises(ArithmeticError):
        _exact_div(S + 1, Q + 1)


# The Z[s] kernels as they were before pseudo-division learnt to step by
# the quotient: every step scales the remainder by lc(g).  Kept here as a
# reference that does not share code with the package.

def _ref_trim(f):
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def _ref_primitive(f):
    c = 0
    for v in f:
        c = gcd(c, v)
    return list(f) if c in (0, 1) else [v // c for v in f]


def _ref_prem(f, g):
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        df = len(f) - 1
        lead = f[-1]
        f = [lg * c for c in f]
        for i, gc in enumerate(g):
            f[df - dg + i] -= lead * gc
        f = _ref_trim(f)
    return f


def _ref_gcd(f, g):
    f = _ref_primitive(_ref_trim(f))
    g = _ref_primitive(_ref_trim(g))
    if len(f) < len(g):
        f, g = g, f
    while g:
        if len(g) == 1:
            return [1]
        f, g = g, _ref_primitive(_ref_prem(f, g))
    return [-c for c in f] if f and f[-1] < 0 else f


def _ref_exact_div(f, d):
    f = list(f)
    dd = len(d) - 1
    ld = d[-1]
    if len(f) - 1 < dd:
        if not _ref_trim(f):
            return []
        raise ArithmeticError("inexact polynomial division")
    out = [0] * (len(f) - dd)
    for i in range(len(out) - 1, -1, -1):
        c, rem = divmod(f[i + dd], ld)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[i] = c
        if c:
            for j, dc in enumerate(d):
                f[i + j] -= c * dc
    if _ref_trim(f):
        raise ArithmeticError("inexact polynomial division")
    return out


def _dense_s(f):
    """(lo, ascending coefficients) of an s-only polynomial."""
    terms = {e.s: c for e, c in f.sorted_terms()}
    lo = min(terms)
    return lo, [terms.get(k, 0) for k in range(lo, max(terms) + 1)]


_s_polys = laurent_polynomials(max_terms=5, s_only=True, nonzero=True)


@given(_s_polys, _s_polys, _s_polys)
def test_gcd_matches_the_scaling_reference(f, g, h):
    for x, y in ((f, g), (f * h, g * h), (f * h * h, h)):
        _, xc = _dense_s(x)
        _, yc = _dense_s(y)
        ref = _ref_gcd(xc, yc)
        assert _gcd(x, y) == LaurentPolynomial(
            {Exponent(s=i): c for i, c in enumerate(ref)})


@given(_s_polys, _s_polys)
def test_prem_matches_the_scaling_reference_up_to_a_constant(f, g):
    # a dividend longer than the divisor, so that steps run
    longer = f * g + f
    assume(not longer.is_zero)
    _, fc = _dense_s(longer)
    _, gc = _dense_s(g)
    assert _proportional(_list_prem(fc, gc), _ref_prem(fc, gc))


@given(_s_polys, _s_polys, st.booleans())
def test_exact_div_matches_the_reference(f, d, exact):
    if exact:
        f = f * d
    _, fc = _dense_s(f)
    _, dc = _dense_s(d)
    try:
        expected = _ref_exact_div(fc, dc)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _list_exact_div(fc, dc)
    else:
        assert _list_exact_div(fc, dc) == expected


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_rf_add_inverse():
    x = RationalFunction(1, Z)
    assert (x + (-x)).is_zero


def test_rf_mul_identity():
    x = RationalFunction(G * A - 1, 1 + Q)
    assert x * RationalFunction(1) == x


def test_rf_unknot_box_coefficient():
    # gamma (a - a^{-1}) / (q^{1/2} - q^{-1/2})
    got = RationalFunction(G * (A - A ** -1)) / RationalFunction(Z)
    assert got == RationalFunction(G * (A - A ** -1), Z)


def test_rf_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(1, ZERO)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(1) / RationalFunction(0)


@pytest.mark.parametrize("args", [(1.5,), ("x",), (1, None),
                                  (RationalFunction(S),), (1, RationalFunction(S))],
                         ids=["float", "str", "none", "rf-numerator", "rf-denominator"])
def test_rf_rejects_arguments_that_are_not_polynomials(args):
    with pytest.raises(TypeError):
        RationalFunction(*args)


@pytest.mark.parametrize("left", [2.5, Fraction(1, 2), "x", None],
                         ids=["float", "fraction", "str", "none"])
@pytest.mark.parametrize("op, symbol, right", [
    (operator.truediv, "/", RationalFunction(S)),
    (operator.sub, "-", RationalFunction(S)),
    (operator.sub, "-", S + 1),
], ids=["rf-div", "rf-sub", "poly-sub"])
def test_reflected_operators_refuse_what_they_cannot_coerce(op, symbol, right, left):
    # a refused left operand hands NotImplemented back to the operator, whose
    # TypeError then names the operator written
    with pytest.raises(TypeError, match=f"for {re.escape(symbol)}: "):
        op(left, right)


def test_rf_denominator_must_be_s_univariate():
    with pytest.raises(DenominatorNotSUnivariateError):
        RationalFunction(1, A - A ** -1)
    with pytest.raises(DenominatorNotSUnivariateError):
        RationalFunction(1) / RationalFunction(A - A ** -1)


def test_rf_unit_denominators_are_folded():
    # monomial factors in the denominator move into the numerator
    x = RationalFunction(1, AL * Z)
    assert all(e.a == e.aL == e.g == 0 for e, _ in x.denominator.sorted_terms())
    assert x == RationalFunction(AL ** -1, Z)


def test_rf_equal_cross_multiplied():
    assert RationalFunction(Q - Q ** -1, (S - S ** -1) * (S + S ** -1)) == 1
    assert RationalFunction(0) == RationalFunction(0, 1 + Q)
    # the degree-2 coefficient identity, two ways of writing it
    lhs = RationalFunction(S ** -1, (Q - Q ** -1) * Z)
    rhs = RationalFunction(1, Z ** 2 * (1 + Q))
    assert lhs == rhs


@given(rational_functions(), rational_functions())
def test_rf_equal_iff_difference_is_zero(x, y):
    assert (x == y) == (x - y).is_zero
    if x == y:
        assert hash(x) == hash(y)


@given(rational_functions())
def test_rf_equal_to_itself_written_another_way(x):
    y = RationalFunction(x.numerator * (1 + Q) * 3, x.denominator * (3 + 3 * Q))
    assert x == y and hash(x) == hash(y)


def test_rf_equal_by_reduced_terms():
    # one value written over two different denominators normalizes to one form
    x = RationalFunction(2 * A * (S - 1), 6 * (S ** 2 - 1))
    y = RationalFunction(-A * S ** -3, 3 * S ** -3 * (-1 - S))
    assert _term_maps(x) == _term_maps(y) == (
        {Exponent(a=1): 1}, {Exponent(): 3, Exponent(s=1): 3})
    assert x == y and hash(x) == hash(y)
    assert x != RationalFunction(A, 3 + 2 * S)
    assert RationalFunction(A * S, 1) == A * S
    assert RationalFunction(2) == 2


def test_a_constant_or_a_fraction_over_one_hashes_like_what_it_equals():
    assert {2: "x"}[LaurentPolynomial({Exponent(): 2})] == "x"
    assert {A * S: 1}.get(RationalFunction(A * S)) == 1
    assert {0: "zero"}[ZERO] == {0: "zero"}[RationalFunction(0)] == "zero"


@given(st.one_of(st.integers(min_value=-3, max_value=3),
                 st.integers(min_value=10 ** 20),
                 laurent_polynomials(max_terms=2)))
def test_equal_values_hash_equal_across_int_polynomial_and_rational(value):
    poly = value if isinstance(value, LaurentPolynomial) else monomial(value)
    forms = [poly, RationalFunction(poly), RationalFunction(poly * (1 + Q), 1 + Q)]
    if isinstance(value, int):
        forms.append(value)
    for x in forms:
        for y in forms:
            assert x == y and hash(x) == hash(y)
            assert {x: "v"}[y] == "v"


@given(rational_functions(), rational_functions(), rational_functions())
def test_rf_equal_is_congruence(x, y, z):
    assert x == x
    if x == y:
        assert y == x
        assert x + z == y + z
        assert x * z == y * z


def test_rf_normalization_idempotent():
    x = RationalFunction(G * (A - A ** -1) * (1 + Q), Z * (1 + Q))
    again = RationalFunction(x.numerator, x.denominator)
    assert again.numerator == x.numerator
    assert again.denominator == x.denominator


@given(rational_functions())
def test_rf_normalization_idempotent_random(x):
    again = RationalFunction(x.numerator, x.denominator)
    assert again.numerator == x.numerator
    assert again.denominator == x.denominator


def test_rf_denominator_invariants():
    x = RationalFunction(2 * G * (1 + Q), 2 * Q - 2 * Q ** -1)
    den = x.denominator
    lo, hi = den.s_range()
    assert lo >= 0
    assert den.sorted_terms()[0][0] == Exponent()
    assert den.sorted_terms()[-1][1] > 0
    assert den.content() == 1
    assert x == RationalFunction(G * Q, Q - 1)


def test_rf_residual_integer_denominator():
    # an integer factor the numerator cannot absorb stays in the denominator;
    # equality is unaffected
    x = RationalFunction(G, 2)
    assert x.denominator == 2 * ONE
    assert x + x == RationalFunction(G)


def _term_maps(x):
    return dict(x.numerator.sorted_terms()), dict(x.denominator.sorted_terms())


def _assert_constructor_form(got, num, den):
    """got has exactly the term maps of RationalFunction(num, den)."""
    assert _term_maps(got) == _term_maps(RationalFunction(num, den))


@given(rational_functions(), rational_functions())
def test_rf_add_mul_give_the_constructor_form(x, y):
    # the full cross-multiplied fraction through the reducing constructor
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    _assert_constructor_form(x + y, a * d + c * b, b * d)
    _assert_constructor_form(x - y, a * d - c * b, b * d)
    _assert_constructor_form(x * y, a * c, b * d)


@given(rational_functions(), rational_functions())
def test_rf_div_gives_the_constructor_form_or_the_same_error(x, y):
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    try:
        want = RationalFunction(a * d, b * c)
    except DenominatorNotSUnivariateError:
        with pytest.raises(DenominatorNotSUnivariateError):
            x / y
    else:
        assert _term_maps(x / y) == _term_maps(want)


@given(rational_functions(),
       laurent_polynomials(max_terms=3, s_only=True, nonzero=True),
       laurent_polynomials(max_terms=3, s_only=True, nonzero=True),
       exponents())
def test_rf_div_by_unit_times_s_fraction_gives_the_constructor_form(x, p, r, unit):
    # a divisor whose numerator is s-univariate up to a unit, so the
    # quotient always exists
    y = RationalFunction(p * monomial(-1, *unit), r)
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    _assert_constructor_form(x / y, a * d, b * c)


def test_rf_cancellation_across_operands():
    # (s^2 - 1)/1 * 1/(s^4 - 1) = 1/(s^2 + 1): the factor sits in different
    # operands and cancels only across the product
    got = RationalFunction(S ** 2 - 1) * RationalFunction(1, S ** 4 - 1)
    assert _term_maps(got) == ({Exponent(): 1}, {Exponent(): 1, Exponent(s=2): 1})
    # s-factors and integer content cancel both ways
    x = RationalFunction(2 * (S - 1), 3 * (S + 1))
    y = RationalFunction(9 * (S + 1), 4 * (S - 1))
    assert _term_maps(x * y) == ({Exponent(): 3}, {Exponent(): 2})
    assert _term_maps(x / (1 / y)) == ({Exponent(): 3}, {Exponent(): 2})
    # a sum over the lcm whose numerator cancels the shared factor s - 1
    u = RationalFunction(2, (S - 1) * (S + 1))
    v = RationalFunction(-3, (S - 1) * (S + 2))
    assert _term_maps(u + v) == _term_maps(RationalFunction(-1, (S + 1) * (S + 2)))
    assert (u + v).denominator == (S + 1) * (S + 2)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_inverts_a():
    assert (A - A ** -1).substitute({"a": A ** -1}) == A ** -1 - A


def test_substitute_negates_bracket():
    assert Z.substitute({"s": -S}) == -Z


def test_substitute_fixes_unknot_coefficient():
    # a -> a^{-1}, q^{1/2} -> -q^{1/2} leaves gamma (a-a^{-1})/z unchanged
    x = RationalFunction(G * (A - A ** -1), Z)
    assert x.substitute({"a": A ** -1, "s": -S}) == x


def test_substitute_illegal_when_denominator_leaves_s():
    x = RationalFunction(1, Z)
    with pytest.raises(DenominatorNotSUnivariateError):
        x.substitute({"s": A})


@pytest.mark.parametrize("image", ["x", 1.5], ids=["str", "float"])
def test_substitute_rejects_an_image_that_is_no_polynomial(image):
    with pytest.raises(TypeError, match="image of s"):
        S.substitute({"s": image})
    with pytest.raises(TypeError, match="image of s"):
        RationalFunction(1, Z).substitute({"s": image})


def test_substitute_rejects_a_polynomial_image_that_is_no_signed_monomial():
    with pytest.raises(ValueError, match="signed monomial"):
        S.substitute({"s": 2 * S})


@given(laurent_polynomials(), laurent_polynomials())
def test_substitute_is_ring_homomorphism(f, g):
    images = {"a": A ** -1, "s": -S, "aL": AL * S ** 2}
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


_VARIABLES = ("s", "a", "aL", "g")
signed_monomial_images = st.one_of(
    st.sampled_from((1, -1)),
    st.builds(lambda sign, e: LaurentPolynomial({e: sign}), st.sampled_from((1, -1)), exponents()))


def _substitute_per_term(f, images):
    expected = ZERO
    for e, c in f.sorted_terms():
        term = monomial(c)
        for name, k in zip(_VARIABLES, e):
            image = images.get(name, monomial(1, **{name: 1}))
            term = term * (image if isinstance(image, LaurentPolynomial) else monomial(image)) ** k
        expected = expected + term
    return expected


@given(laurent_polynomials(), st.dictionaries(st.sampled_from(_VARIABLES), signed_monomial_images))
def test_substitute_matches_a_per_term_reference(f, images):
    got = f.substitute(images)
    assert got == _substitute_per_term(f, images)
    _assert_canonical(got)


@pytest.mark.parametrize("f, images, expected", [
    (G * S + S, {"g": 1}, 2 * S),
    (A * S - S, {"a": 1}, ZERO),
    (1 + S + S ** 2, {"s": 1}, 3),
    (1 - S + S ** 2, {"s": -1}, 3),
    (1 + 2 * S + 3 * S ** 3, {"s": -S ** -1}, 1 - 2 * S ** -1 - 3 * S ** -3),
    (1 + 2 * S - S ** 2, {"s": S ** 2}, 1 + 2 * S ** 2 - S ** 4),
    (S ** -1 + 2 * A * S ** 2, {"s": A}, A ** -1 + 2 * A ** 3),
    (S - A, {"s": A}, ZERO),
], ids=["slices-merge", "merge-cancels", "s-to-one", "s-to-minus-one", "s-reversed-negated",
        "s-stride-two", "s-leaves-s", "terms-cancel-across-slices"])
def test_substitute_maps_slices_as_the_per_term_reference_does(f, images, expected):
    # slices whose keys collide merge, a sum that cancels leaves no slice,
    # and s -> +-s^k maps each slice's list in one piece
    got = f.substitute(images)
    assert got == expected == _substitute_per_term(f, images)
    _assert_canonical(got)


# ---------------------------------------------------------------------------
# quantum integers
# ---------------------------------------------------------------------------


def test_q_int_matches_bracket_ratio():
    # {n} = q^{n/2} - q^{-n/2} = {1} [n]_q q^{-(n-1)/2}
    for n in range(1, 7):
        assert S ** n - S ** -n == Z * q_int(n) * monomial(1, s=-(n - 1))


@pytest.mark.parametrize("int_first", (False, True))
def test_memos_raise_for_a_float_whether_or_not_its_int_came_first(int_first):
    # 2.0 equals and hashes like 2, so a memo keyed on the argument as
    # given would answer for 2.0 once 2 had been asked for
    q_int.cache_clear()
    ring_mod._phi_binomials.cache_clear()
    if int_first:
        assert q_int(2) == 1 + Q
        assert cyclotomic_product({2: 1}) == Q + 1
    for x in (2.0, -1.0):
        with pytest.raises(TypeError):
            q_int(x)
    with pytest.raises(TypeError):
        cyclotomic_product({2.0: 1})
    with pytest.raises(TypeError):
        cyclotomic_product({2: 1.0})
    assert q_int(True) == ONE and cyclotomic_product({True: 1}) == Q - 1


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_monomial_ratio():
    u = RationalFunction(AL - AL ** -1, Z)
    assert monomial_ratio(-u, u) == -ONE
    x = RationalFunction(G * (A - A ** -1), Z)
    got = monomial_ratio(x * monomial(1, a=2, g=-1), x)
    assert isinstance(got, LaurentPolynomial)
    assert got == monomial(1, a=2, g=-1)
    assert monomial_ratio(x, u) is None


@given(st.sampled_from((1, -1)), exponents(), rational_functions())
def test_monomial_ratio_recovers_a_signed_monomial_factor(sign, e, y):
    assume(not y.is_zero)
    m = monomial(sign, *e)
    got = monomial_ratio(m * y, y)
    assert isinstance(got, LaurentPolynomial)
    assert got == m
    assert monomial_ratio(2 * m * y, y) is None


# ---------------------------------------------------------------------------
# cyclotomic factors
# ---------------------------------------------------------------------------


def test_cyclotomic_factors_multiply_to_q_power_minus_one():
    for n in range(1, 31):
        product = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_product({d: 1})
        assert product == Q ** n - 1, n


def test_cyclotomic_examples():
    assert cyclotomic_product({1: 1}) == Q - 1
    assert cyclotomic_product({2: 1}) == Q + 1
    assert cyclotomic_product({12: 1}) == Q ** 4 - Q ** 2 + 1
    with pytest.raises(ValueError):
        cyclotomic_product({0: 1})


_PHI = {}


def _phi_by_division(d):
    # Phi_d as q^d - 1 divided by Phi_e for each proper divisor e
    if d not in _PHI:
        out = Q ** d - 1
        for e in range(1, d):
            if d % e == 0:
                out = _exact_div(out, _phi_by_division(e))
        _PHI[d] = out
    return _PHI[d]


@given(st.dictionaries(st.integers(min_value=1, max_value=30),
                       st.integers(min_value=0, max_value=3), max_size=6))
def test_cyclotomic_product_matches_the_divisor_recursion(exponents):
    expected = ONE
    for d, e in exponents.items():
        for _ in range(e):
            expected = expected * _phi_by_division(d)
    got = cyclotomic_product(exponents)
    assert got == expected
    _assert_canonical(got)


@pytest.mark.parametrize("mobius, exponents", (
    (lambda n: -1, {2: 1}),  # more binomials to divide by than degree
    (lambda n: 1 if n == 1 else -1, {4: 1}),  # (q^4 - 1)/(q - 1) over q^2 - 1
))
def test_cyclotomic_product_raises_on_an_inexact_division(monkeypatch, mobius, exponents):
    # a wrong inversion leaves a binomial that does not divide: it raises
    # rather than return a wrong polynomial.  The pairs (n, mu(d/n)) come
    # from a memoised table, so the wrong Moebius function goes in there.
    def table(d):
        return tuple((n, mobius(d // n)) for n in range(1, d + 1) if d % n == 0)

    monkeypatch.setattr(ring_mod, "_phi_binomials", table)
    with pytest.raises(ArithmeticError, match="^inexact polynomial division$"):
        cyclotomic_product(exponents)


def _times_binomial_reference(f, n):
    return [x - y for x, y in zip([0] * n + f, f + [0] * n)]


def _over_binomial_reference(f, n):
    # the division cyclotomic_product made before the strided running sums:
    # the quotient from the bottom, then checked by multiplying it back
    quotient = []
    for i in range(len(f) - n):
        quotient.append((quotient[i - n] if i >= n else 0) - f[i])
    if _times_binomial_reference(quotient, n) != f:
        raise ArithmeticError("inexact polynomial division")
    return quotient


@pytest.mark.parametrize("m, n", ((1, 1), (2, 5), (1, 3), (3, 3), (4, 4), (7, 2), (9, 4)))
def test_division_by_a_binomial_matches_the_multiply_back_reference(m, n):
    # quotient length m below, at and above n; every single-coefficient
    # change of f, the top n equations included, is an inexact division
    g = [(-1) ** i * (i + 2) for i in range(m)]
    f = _times_binomial_reference(g, n)
    assert ring_mod._times_binomial(g, n) == f
    assert ring_mod._over_binomial(f, n) == _over_binomial_reference(f, n) == g
    for i in range(len(f)):
        bad = list(f)
        bad[i] += 1
        for divide in (ring_mod._over_binomial, _over_binomial_reference):
            with pytest.raises(ArithmeticError, match="^inexact polynomial division$"):
                divide(bad, n)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=12)
       .filter(lambda f: f[-1]), st.integers(min_value=1, max_value=6))
def test_division_by_a_binomial_agrees_with_the_reference_on_any_list(f, n):
    try:
        expected = _over_binomial_reference(f, n)
    except ArithmeticError:
        with pytest.raises(ArithmeticError, match="^inexact polynomial division$"):
            ring_mod._over_binomial(f, n)
    else:
        assert ring_mod._over_binomial(f, n) == expected


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=8)
       .filter(lambda g: g[-1]), st.integers(min_value=1, max_value=6))
def test_division_by_a_binomial_inverts_the_product(g, n):
    assert ring_mod._over_binomial(ring_mod._times_binomial(g, n), n) == g


def test_cyclotomic_product_of_powers():
    assert cyclotomic_product({}) == ONE
    assert cyclotomic_product({3: 2, 1: 1, 5: 0}) == (Q - 1) * (Q ** 2 + Q + 1) ** 2


@pytest.mark.parametrize("exponents", ({2: -1}, {0: 0}, {-3: 1, 2: 1}, {1: 1, 3: -2}))
def test_cyclotomic_product_rejects_a_bad_exponent_vector(exponents):
    with pytest.raises(ValueError) as info:
        cyclotomic_product(exponents)
    assert str(info.value) == (
        f"cyclotomic exponents need d >= 1 and e >= 0, got {exponents}")


# ---------------------------------------------------------------------------
# products of s-univariate factors on dense lists
# ---------------------------------------------------------------------------


@st.composite
def s_polynomials(draw):
    """s-univariate polynomials with negative exponents, zero, and huge or
    negative coefficients."""
    terms = draw(st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.one_of(st.integers(min_value=-9, max_value=9),
                  st.sampled_from((10 ** 30, -10 ** 30, 10 ** 30 + 1))),
        max_size=6))
    return LaurentPolynomial({Exponent(s=k): c for k, c in terms.items()})


@given(st.lists(s_polynomials(), max_size=5))
def test_product_s_is_the_fold_of_mul(factors):
    expected = ONE
    for f in factors:
        expected = expected * f
    got = product_s(factors)
    assert got == expected
    _assert_canonical(got)


def test_product_s_examples():
    assert product_s([]) == ONE
    assert product_s([S + 1, ZERO, S ** -2]) == ZERO
    assert product_s([S ** -1 - 2, -S ** 3 + 10 ** 30]) == (
        -S ** 2 + 2 * S ** 3 + 10 ** 30 * S ** -1 - 2 * 10 ** 30)
    assert product_s(iter([q_int(3), q_int(2)])) == q_int(3) * q_int(2)


@pytest.mark.parametrize("bad", (A, AL + S, G * S, ZERO + A * S ** -1))
def test_product_s_rejects_a_factor_in_other_variables(bad):
    with pytest.raises(ValueError, match="^polynomial involves a, aL or g$"):
        product_s([S + 1, bad])
    with pytest.raises(ValueError, match="^polynomial involves a, aL or g$"):
        product_s([ZERO, bad])
