"""Differential tests against sympy, an implementation that shares no code
with skeinsolve.ring.  The primitive gcd in Z[s], _list_gcd, is checked
against the gcd of sympy's sparse polynomial ring; the constructor, +, *
and / against sympy's rational function field, which keeps every element
cancelled.  The solved coefficients, the closed forms and the cable
invariant are checked against the paper's hook-content products, built in
that field from a table that does not read the operators.  Skipped when
sympy is not installed; sympy is never a runtime dependency."""

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402

from skeinsolve import (  # noqa: E402
    PRESETS,
    RationalFunction,
    closed_form,
    colored_unknot_invariant,
    monomial,
    solve_recursion,
)
from skeinsolve.partitions import partitions_through  # noqa: E402
from skeinsolve.ring import _as_int_poly, _list_gcd  # noqa: E402

from strategies import exponents, laurent_polynomials, rational_functions  # noqa: E402

FIELD, s, a, aL, g = sympy.field("s,a,aL,g", sympy.ZZ)
S_RING, s_poly = sympy.ring("s", sympy.ZZ)


def _frac(poly):
    """A Laurent polynomial as an element of sympy's field: a polynomial in
    nonnegative exponents over the monomial that shifts them back."""
    if poly.is_zero:
        return FIELD.zero
    lo = [min(e[i] for e, _ in poly.sorted_terms()) for i in range(4)]
    shifted = FIELD.ring.from_dict(
        {tuple(x - m for x, m in zip(e, lo)): c for e, c in poly.sorted_terms()})
    return FIELD(shifted) * s ** lo[0] * a ** lo[1] * aL ** lo[2] * g ** lo[3]


def _rf_frac(x):
    return _frac(x.numerator) / _frac(x.denominator)


def _is_unit(frac):
    """One term over one term: a rational times a Laurent monomial."""
    return len(frac.numer.terms()) == 1 and len(frac.denom.terms()) == 1


def _assert_reduced_value(x, want):
    """x equals want, and x's denominator is sympy's cancelled one up to a unit."""
    assert _rf_frac(x) == want
    assert _is_unit(want.denom / _frac(x.denominator))


# ---------------------------------------------------------------------------
# the primitive gcd in Z[s]
# ---------------------------------------------------------------------------


def _int_poly(poly):
    """A nonzero s-univariate Laurent polynomial shifted into Z[s]."""
    lo = poly.sorted_terms()[0][0].s
    return sum((c * s_poly ** (e.s - lo) for e, c in poly.sorted_terms()), S_RING.zero)


@given(laurent_polynomials(max_terms=4, s_only=True, nonzero=True),
       laurent_polynomials(max_terms=4, s_only=True, nonzero=True),
       laurent_polynomials(max_terms=3, s_only=True, nonzero=True))
def test_gcd_s_matches_sympy(f, h, common):
    # a planted common factor makes most gcds nontrivial
    f, h = f * common, h * common
    want = _int_poly(f).gcd(_int_poly(h))
    # the documented normalization: primitive with a positive leading
    # coefficient; the constant term is nonzero because both inputs were
    # shifted to have one
    _, want = want.primitive()
    if want.LC < 0:
        want = -want
    got = _list_gcd(_as_int_poly(f)[1], _as_int_poly(h)[1])
    assert got[0] != 0
    assert sum((c * s_poly ** i for i, c in enumerate(got)), S_RING.zero) == want


# ---------------------------------------------------------------------------
# constructor reduction and the field operations
# ---------------------------------------------------------------------------


@given(laurent_polynomials(),
       laurent_polynomials(max_terms=3, s_only=True, nonzero=True),
       laurent_polynomials(max_terms=2, s_only=True, nonzero=True))
def test_constructor_reduces_like_sympy(num, den, common):
    # a planted common factor gives the reduction something to remove
    num, den = num * common, den * common
    _assert_reduced_value(RationalFunction(num, den), _frac(num) / _frac(den))


@settings(max_examples=50)
@given(rational_functions(), rational_functions(),
       laurent_polynomials(max_terms=3, s_only=True, nonzero=True))
def test_add_and_mul_reduce_like_sympy(x, z, common):
    for y in (z, z - x):  # x + (z - x) must cancel down to z
        _assert_reduced_value(x + y, _rf_frac(x) + _rf_frac(y))
        _assert_reduced_value(x * y, _rf_frac(x) * _rf_frac(y))
    # factors planted to cancel only across the product, in both directions
    u = RationalFunction(x.numerator * common, x.denominator)
    v = RationalFunction(z.numerator * x.denominator, z.denominator * common)
    _assert_reduced_value(u * v, _rf_frac(u) * _rf_frac(v))


@settings(max_examples=50)
@given(rational_functions(),
       laurent_polynomials(max_terms=3, s_only=True, nonzero=True),
       laurent_polynomials(max_terms=3, s_only=True, nonzero=True),
       laurent_polynomials(max_terms=3, s_only=True, nonzero=True),
       exponents())
def test_div_reduces_like_sympy(x, p, r, common, unit):
    # divisors whose numerators are s-univariate up to a unit; the second
    # has factors planted to cancel across the quotient
    u = RationalFunction(x.numerator * common, x.denominator)
    for y in (RationalFunction(p * monomial(1, *unit), r),
              RationalFunction(p * common * monomial(1, *unit), r * x.denominator)):
        _assert_reduced_value(u / y, _rf_frac(u) / _rf_frac(y))


# ---------------------------------------------------------------------------
# the solved coefficients against hook-content products built in sympy
# ---------------------------------------------------------------------------


def _cells(parts):
    """(content, hook) of every cell, from the parts alone."""
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    return [(j - i, parts[i] - j + conj[j] - i - 1)
            for i in range(len(parts)) for j in range(parts[i])]


_CELL_NUMERATOR = {
    "c3": lambda c: s ** -c,
    "unknot": lambda c: a * s ** -c - s ** c / a,
    "unknot-prime": lambda c: a * s ** c - s ** -c / a,
}


def _assert_hook_content_product(geom, n, *values, gamma=g):
    """Each of values maps every partition p through degree n to gamma^{|p|}
    prod over cells of _CELL_NUMERATOR[geom](content) / {hook}, reduced."""
    for p in partitions_through(n):
        want = gamma ** p.size
        for content, hook in _cells(list(p)):
            want *= _CELL_NUMERATOR[geom](content) / (s ** hook - s ** -hook)
        for value in values:
            _assert_reduced_value(value(p), want)


@pytest.mark.parametrize("geom", sorted(_CELL_NUMERATOR))
def test_recursion_matches_sympy_hook_content_product(geom):
    # closed_form and the recursion both come from the operator; the table
    # above is the paper's formulas, written out without it
    psi = solve_recursion(geom, 8)
    _assert_hook_content_product(
        geom, 8, psi.coefficient, lambda p: closed_form(geom, p))
    if geom == "unknot-prime":
        _assert_hook_content_product(geom, 8, colored_unknot_invariant,
                                     gamma=FIELD.one)


def _sign_flips():
    """Each preset with its nonzero P01 or P11 coefficient, x or y, negated."""
    for name, geom in PRESETS.items():
        for field, word in (("x", "P01"), ("y", "P11")):
            coeff = getattr(geom, field)
            if not coeff.is_zero:
                yield pytest.param(name, geom._replace(**{field: -coeff}),
                                   id=f"{name}-{word}")


@pytest.mark.parametrize("geom,flipped", _sign_flips())
def test_sympy_hook_content_product_rejects_a_sign_flip(geom, flipped):
    psi = solve_recursion(flipped, 3)
    with pytest.raises(AssertionError):
        _assert_hook_content_product(geom, 3, psi.coefficient)
