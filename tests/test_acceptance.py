"""Acceptance suite: every criterion is an exact identity, checked at its
full stated degree bound with zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its runtime.
"""

import time

import pytest

from skeinsolve import (
    Generator,
    LaurentPolynomial,
    ONE,
    OperatorExpression,
    Partition,
    Q,
    RationalFunction,
    SkeinVector,
    TEMPLATES,
    Z_BRACKET,
    cells,
    closed_form,
    colored_unknot_invariant,
    content_polynomial,
    enumerate_partitions,
    hook_content_vector,
    hook_polynomial,
    hook_polynomial_qpower_form,
    monomial,
    parity_sum,
    partitions_through,
    solve_monomial_coefficients,
    solve_recursion,
    verify_annihilation,
    verify_branching,
)
from skeinsolve.ring import Exponent, S
from skeinsolve.verify import run_suite
from skeinsolve.skein import P01_OP, P10_OP, P11_OP


def _report(number: int, description: str, started: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {description}")


@pytest.fixture(scope="module")
def solved():
    return {tag: solve_recursion(tag, 8) for tag in ("c3", "unknot", "unknot-prime")}


def test_criterion_01_c3_recursion_equals_hook_content_form(solved):
    started = time.monotonic()
    checked = 0
    for p in partitions_through(8):
        assert solved["c3"].coefficient(p) == closed_form("c3", p), p
        checked += 1
    assert checked == 67
    _report(1, f"c3 solution matches hook-content form, {checked} partitions <= 8",
            started)


def test_criterion_02_unknot_recursions_equal_hook_content_forms(solved):
    started = time.monotonic()
    checked = 0
    for tag in ("unknot", "unknot-prime"):
        for p in partitions_through(8):
            assert solved[tag].coefficient(p) == closed_form(tag, p), (tag, p)
            checked += 1
    _report(2, f"both unknot solutions match their products, {checked} checks",
            started)


def test_criterion_03_contents_and_hooks_of_642():
    started = time.monotonic()
    p = Partition((6, 4, 2))
    expected_content = (monomial(1, s=-4) + 2 * monomial(1, s=-2) + 2
                        + 2 * Q + 2 * Q ** 2 + Q ** 3 + Q ** 4 + Q ** 5)
    assert content_polynomial(p) == expected_content
    hooks = sorted(c.hook for c in cells(p))
    assert hooks == sorted([8, 7, 5, 4, 2, 1, 5, 4, 2, 1, 2, 1])
    _report(3, "content polynomial and hook multiset of (6,4,2)", started)


def test_criterion_04_branching_rule_through_fourteen():
    started = time.monotonic()
    checked = 0
    for n in range(1, 15):
        for mu in enumerate_partitions(n):
            assert verify_branching(mu), mu
            checked += 1
    assert checked == 507
    _report(4, f"weighted hook-length branching rule, {checked} partitions <= 14",
            started)


def test_criterion_05_parity_through_fifteen():
    started = time.monotonic()
    checked = 0
    for n in range(16):
        for p in enumerate_partitions(n):
            assert parity_sum(p) % 2 == 0, p
            checked += 1
    _report(5, f"content+hook+1 parity even, {checked} partitions <= 15", started)


def test_criterion_06_commutator_identity_through_ten():
    started = time.monotonic()
    bracket = OperatorExpression.commutator(P10_OP, P01_OP)
    scaled = P11_OP.scale(Z_BRACKET)
    checked = 0
    for n in range(11):
        for p in enumerate_partitions(n):
            basis = SkeinVector.basis(p, max_degree=n + 1)
            assert scaled.apply(basis) == bracket.apply(basis), p
            checked += 1
    _report(6, f"z * P11 equals [P10, P01] on {checked} basis vectors <= 10",
            started)


def test_criterion_07_signed_monomial_coefficients():
    started = time.monotonic()
    [c3_solution] = solve_monomial_coefficients(TEMPLATES["c3"])
    assert all(isinstance(sm, LaurentPolynomial) for sm in c3_solution.values())
    assert c3_solution[Generator.P10] == -ONE
    assert c3_solution[Generator.P01] == monomial(1, aL=1, g=1)

    unknot_solutions = solve_monomial_coefficients(TEMPLATES["unknot"])
    found = {
        tuple(sorted((gen.value, c, e) for gen, sm in sol.items()
                     for e, c in sm.sorted_terms()))
        for sol in unknot_solutions
    }
    expected = {
        (("P01", 1, Exponent(a=1, aL=1, g=1)),
         ("P10", -1, Exponent()),
         ("P11", -1, Exponent(a=-1, g=1))),
        (("P01", -1, Exponent(a=-1, aL=1, g=1)),
         ("P10", -1, Exponent()),
         ("P11", 1, Exponent(a=1, g=1))),
    }
    assert found == expected
    _report(7, "operator coefficients: unique for c3, exactly two unknot branches",
            started)


def test_criterion_08_orientation_swap_symmetry():
    started = time.monotonic()
    report = run_suite("symmetry", 8)
    assert report.passed and report.checked == 67
    _report(8, "a -> a^{-1}, q^{1/2} -> -q^{1/2} swaps the two unknot forms <= 8",
            started)


def test_criterion_09_prime_form_equals_scaled_cable_invariant():
    started = time.monotonic()
    checked = 0
    for n in range(11):
        for p in enumerate_partitions(n):
            scaled = RationalFunction(
                monomial(1, g=p.size)) * colored_unknot_invariant(p)
            assert closed_form("unknot-prime", p) == scaled, p
            checked += 1
    _report(9, f"primed form = g^|p| * cable invariant, {checked} partitions <= 10",
            started)


def test_criterion_10_hook_polynomial_forms_and_palindromy():
    started = time.monotonic()
    s_inv = S ** -1
    checked = 0
    for n in range(13):
        for p in enumerate_partitions(n):
            product_form = hook_polynomial(p)
            assert product_form == hook_polynomial_qpower_form(p), p
            balanced = product_form * monomial(
                1, s=-sum(c.content for c in cells(p)))
            assert balanced == balanced.substitute({"s": s_inv}), p
            checked += 1
    _report(10, f"hook polynomial double formula and palindromicity, "
               f"{checked} partitions <= 12", started)


def test_criterion_11_operators_annihilate_psi_through_eight(solved):
    started = time.monotonic()
    for tag in ("c3", "unknot", "unknot-prime"):
        assert verify_annihilation(tag, hook_content_vector(tag, 8)), tag
        assert verify_annihilation(tag, solved[tag]), tag
    _report(11, "each operator kills its hook-content psi and its solved psi "
                "through degree 8", started)
