"""psi as the exponential of one disk and its multiple covers.

The source paper's psi is a Gromov-Witten partition function, so it should be
the exponential of an embedded disk and its multiple covers (Ooguri and Vafa,
"Knot invariants and topological strings", hep-th/9912123).  Read
psi = sum over lambda of psi_lambda W_lambda as a symmetric function with
W_lambda -> s_lambda, and write each Schur function in power sums,

    s_lambda = sum over rho of chi^lambda(rho) p_rho / z_rho,

so that psi = sum over rho of P(rho) p_rho / z_rho with

    P(rho) = sum over lambda of psi_lambda chi^lambda(rho),   c_k = P((k)).

Then psi = exp(sum over k of c_k p_k / k) says

    exponential form:  P(rho) = prod over i of c_{rho_i},

and the disk's multiple covers say

    multicover form:   c_k = eps^{k+1} Adams_k(c_1),

where Adams_k sends s, a, aL and g to their k-th powers and eps is +1 for
unknot-prime and -1 for c3 and unknot.  For c3 this is the quantum
dilogarithm.  The characters chi^lambda(rho) come from the
Murnaghan-Nakayama rule on beta-numbers, written here (Macdonald, I.7), so
the check shares no code with the package's partitions, closed forms or
recursion.
"""

from functools import cache
from math import factorial, prod

import pytest

from skeinsolve import (
    A,
    AL,
    G,
    Geometry,
    PRESETS,
    Partition,
    RationalFunction,
    S,
    SkeinVector,
    solve_recursion,
)

EPSILON = {"c3": -1, "unknot": -1, "unknot-prime": 1}
# an operator of the shape O - P10 + x P01 + y P11 that is no preset
NOT_A_PRESET = Geometry("not-a-preset", S ** 2 - 1 + A, 2 * G - S ** -3)


def _partitions(n: int, cap: int | None = None):
    """Partitions of n as tuples, largest parts first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _beta(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Beta-numbers lambda_i + len - i, one bead per part."""
    return tuple(sorted(part + len(lam) - 1 - i for i, part in enumerate(lam)))


@cache
def _character(beta: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """chi^lambda(rho) for lambda with beta-numbers beta: removing a rim hook
    of length k moves one bead k places down onto an empty position, with
    sign -1 to the number of beads it passes."""
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    total = 0
    for b in beta:
        if b - k >= 0 and b - k not in beta:
            passed = sum(1 for c in beta if b - k < c < b)
            moved = tuple(sorted({*beta} - {b} | {b - k}))
            total += (-1) ** passed * _character(moved, rest)
    return total


def _z(rho: tuple[int, ...]) -> int:
    return prod(part ** rho.count(part) * factorial(rho.count(part))
                for part in set(rho))


@pytest.mark.parametrize("n", range(1, 9))
def test_characters_are_orthonormal(n):
    rhos = list(_partitions(n))
    table = {lam: [_character(_beta(lam), rho) for rho in rhos]
             for lam in _partitions(n)}
    for lam, row in table.items():
        # the identity's column counts standard tableaux: n! / prod of hooks
        assert row[-1] == factorial(n) // prod(
            part - j + sum(1 for other in lam if other > j) - i - 1
            for i, part in enumerate(lam) for j in range(part))
        for mu, other in table.items():
            inner = sum(x * y * factorial(n) // _z(rho)
                        for x, y, rho in zip(row, other, rhos))
            assert inner == (factorial(n) if lam == mu else 0), (lam, mu)


def _power_sum_coefficients(psi: SkeinVector) -> dict[tuple[int, ...], RationalFunction]:
    """P(rho) for every rho of size 1 through psi's truncation."""
    out = {}
    for n in range(1, psi.max_degree + 1):
        lams = list(_partitions(n))
        for rho in _partitions(n):
            total = RationalFunction(0)
            for lam in lams:
                chi = _character(_beta(lam), rho)
                if chi:
                    total = total + psi.coefficient(Partition(lam)) * chi
            out[rho] = total
    return out


def _exponential_failure(psi: SkeinVector) -> tuple[int, ...] | None:
    """The first rho with P(rho) != prod of c_{rho_i}, or None."""
    power = _power_sum_coefficients(psi)
    for rho, value in power.items():
        if value != prod((power[(part,)] for part in rho), start=RationalFunction(1)):
            return rho
    return None


def _multicover_failure(psi: SkeinVector, eps: int) -> int | None:
    """The first k with c_k != eps^{k+1} Adams_k(c_1), or None."""
    power = _power_sum_coefficients(psi)
    c1 = power[(1,)]
    for k in range(2, psi.max_degree + 1):
        adams = c1.substitute({"s": S ** k, "a": A ** k, "aL": AL ** k, "g": G ** k})
        if power[(k,)] != adams * eps ** (k + 1):
            return k
    return None


@cache
def _solved(geom: Geometry, degree: int) -> SkeinVector:
    return solve_recursion(geom, degree)


@pytest.mark.parametrize("geom,degree",
                         [(geom, 8) for geom in PRESETS.values()] + [(NOT_A_PRESET, 5)],
                         ids=lambda x: x.tag if isinstance(x, Geometry) else str(x))
def test_psi_is_an_exponential_in_power_sums(geom, degree):
    assert _exponential_failure(_solved(geom, degree)) is None


@pytest.mark.parametrize("tag", EPSILON)
def test_power_sum_coefficients_are_multiple_covers_of_one_disk(tag):
    psi = _solved(PRESETS[tag], 8)
    assert _multicover_failure(psi, EPSILON[tag]) is None
    assert _multicover_failure(psi, -EPSILON[tag]) == 2


def test_unknot_with_p11_sign_flipped_fails_only_the_multicover_form():
    unknot = PRESETS["unknot"]
    psi = solve_recursion(unknot._replace(tag="flipped", y=-unknot.y), 5)
    assert _exponential_failure(psi) is None
    assert _multicover_failure(psi, 1) is not None
    assert _multicover_failure(psi, -1) is not None


@pytest.mark.parametrize("tag", ("unknot", "unknot-prime"))
def test_framing_factor_fails_both_forms(tag):
    # psi_lambda times q^{kappa/2}, kappa/2 the sum of the contents.  Not c3:
    # there the factor turns psi_lambda into psi of the conjugate partition,
    # which is again a multicover exponential, with eps = +1
    psi = _solved(PRESETS[tag], 5)
    framed = SkeinVector(
        {p: coeff * S ** (2 * sum(j - i for i, part in enumerate(p)
                                  for j in range(part)))
         for p, coeff in psi.items()}, psi.max_degree)
    assert _exponential_failure(framed) is not None
    assert _multicover_failure(framed, EPSILON[tag]) is not None
