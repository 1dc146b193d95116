"""Exhaustive verification suites over all partitions up to a degree bound.

SUITES is the one table of suites: each name maps to its default degree and
its checks, a generator over the degree bound that yields one item per
identity, None when it holds and the counterexample text when it fails, so
the text is built only on failure.  run_suite counts the items and returns
the counts and the first counterexample as one SuiteReport value.

Each suite imports the ring, skein and solver names it uses inside its own
body, so loading this module, as every CLI command does, loads partitions
and nothing heavier.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .partitions import (
    branching_difference,
    cells,
    enumerate_partitions,
    hook_polynomial,
    hook_polynomial_qpower_form,
    parity_sum,
    partitions_through,
    verify_branching,
)


class SuiteReport(NamedTuple):
    """Counts of one suite's identities checked and failed, and the first
    counterexample found."""

    suite: str
    max_degree: int
    checked: int
    failures: int
    first_counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def lines(self) -> list[str]:
        status = "pass" if self.passed else "FAIL"
        out = [f"suite={self.suite} max-degree={self.max_degree} "
               f"checked={self.checked} failures={self.failures} {status}"]
        if self.first_counterexample is not None:
            out.append(f"first counterexample: {self.first_counterexample}")
        return out


def run_suite(name: str, max_degree: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    default, checks = SUITES[name]
    n = default if max_degree is None else max_degree
    checked = failures = 0
    first = None
    for failure in checks(n):
        checked += 1
        if failure is not None:
            failures += 1
            if first is None:
                first = failure
    return SuiteReport(name, n, checked, failures, first)


def _recursion(n: int) -> Iterator[str | None]:
    from .solver import PRESETS, hook_content_vector, solve_recursion
    for geom in PRESETS.values():
        psi, grown = solve_recursion(geom, n), hook_content_vector(geom, n)
        for p in partitions_through(n):
            expected, solved = grown.coefficient(p), psi.coefficient(p)
            yield None if solved == expected else (
                f"geometry={geom.tag} partition=({p}) expected={expected} "
                f"solved={solved} difference={solved - expected}")


def _branching(n: int) -> Iterator[str | None]:
    for k in range(1, n + 1):
        for mu in enumerate_partitions(k):
            yield None if verify_branching(mu) else (
                f"partition=({mu}) difference={branching_difference(mu)}")


def _commutator(n: int) -> Iterator[str | None]:
    from .skein import OperatorExpression, P01_OP, P10_OP, P11_OP, SkeinVector, Z_BRACKET
    bracket = OperatorExpression.commutator(P10_OP, P01_OP)
    scaled = P11_OP.scale(Z_BRACKET)
    for p in partitions_through(n):
        basis = SkeinVector.basis(p, max_degree=p.size + 1)
        lhs, rhs = scaled.apply(basis), bracket.apply(basis)
        difference = lhs - rhs
        if difference.is_zero:
            yield None
        else:
            q = difference.partitions()[0]
            yield (f"partition=({p}) at=({q}) scaled={lhs.coefficient(q)} "
                   f"commutator={rhs.coefficient(q)}")


def _symmetry(n: int) -> Iterator[str | None]:
    from .ring import A, S
    from .solver import closed_form

    # the plain unknot under a -> a^{-1}, q^{1/2} -> -q^{1/2} is the primed one
    for p in partitions_through(n):
        swapped = closed_form("unknot", p).substitute({"a": A ** -1, "s": -S})
        primed = closed_form("unknot-prime", p)
        yield None if swapped == primed else (
            f"partition=({p}) swapped={swapped} primed={primed}")


def _annihilation(n: int) -> Iterator[str | None]:
    from .solver import PRESETS, hook_content_vector, verify_annihilation
    for geom in PRESETS.values():
        psi = hook_content_vector(geom, n)
        if verify_annihilation(geom, psi):
            yield None
        else:
            q, coeff = geom.operator.apply(psi).items()[0]
            yield (f"geometry={geom.tag} through degree {n} "
                   f"partition=({q}) coefficient={coeff}")


def _parity(n: int) -> Iterator[str | None]:
    for p in partitions_through(n):
        total = parity_sum(p)
        yield None if total % 2 == 0 else f"partition=({p}) sum={total}"


def _hookforms(n: int) -> Iterator[str | None]:
    from .ring import S, monomial
    s_inverse = S ** -1
    for p in partitions_through(n):
        product_form = hook_polynomial(p)
        qpower_form = hook_polynomial_qpower_form(p)
        yield None if product_form == qpower_form else (
            f"double formula, partition=({p}) product={product_form} "
            f"qpower={qpower_form}")
        total_content = sum(c.content for c in cells(p))
        balanced = product_form * monomial(1, s=-total_content)
        mirrored = balanced.substitute({"s": s_inverse})
        yield None if balanced == mirrored else (
            f"palindromicity, partition=({p}) balanced={balanced} "
            f"mirrored={mirrored}")


SUITES = {
    "recursion": (8, _recursion),
    "branching": (12, _branching),
    "commutator": (10, _commutator),
    "symmetry": (8, _symmetry),
    "annihilation": (8, _annihilation),
    "parity": (15, _parity),
    "hookforms": (12, _hookforms),
}
