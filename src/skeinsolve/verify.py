"""Exhaustive verification suites over all partitions up to a degree bound.

Each suite checks one family of exact identities and reports the number of
identities checked plus the first counterexample, if any.
"""

from __future__ import annotations

from typing import Callable

from .partitions import (
    Partition,
    branching_difference,
    cells,
    enumerate_partitions,
    hook_polynomial,
    hook_polynomial_qpower_form,
    parity_sum,
    partition_sort_key,
    partitions_through,
    verify_branching,
)
from .ring import S, monomial
from .skein import (
    OperatorExpression,
    P01_OP,
    P10_OP,
    P11_OP,
    SkeinVector,
    Z_BRACKET,
)
from .solver import (
    GeometryTag,
    closed_form,
    geometry,
    solve_recursion,
    swap_symmetry_sides,
    verify_annihilation,
)


class SuiteReport:
    """Counts of one suite's identities checked and failed, and the first
    counterexample found."""

    __slots__ = ("suite", "max_degree", "checked", "failures",
                 "first_counterexample")

    def __init__(self, suite: str, max_degree: int):
        self.suite = suite
        self.max_degree = max_degree
        self.checked = 0
        self.failures = 0
        self.first_counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, describe: Callable[[], str]) -> None:
        self.checked += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = describe()

    def lines(self) -> list[str]:
        status = "pass" if self.passed else "FAIL"
        out = [f"suite={self.suite} max-degree={self.max_degree} "
               f"checked={self.checked} failures={self.failures} {status}"]
        if self.first_counterexample is not None:
            out.append(f"first counterexample: {self.first_counterexample}")
        return out


DEFAULT_DEGREES = {
    "recursion": 8,
    "branching": 12,
    "commutator": 10,
    "symmetry": 8,
    "annihilation": 8,
    "parity": 15,
    "hookforms": 12,
}

SUITES = tuple(DEFAULT_DEGREES)


def run_suite(name: str, max_degree: int | None = None) -> SuiteReport:
    if name not in DEFAULT_DEGREES:
        raise ValueError(f"unknown suite {name!r}")
    n = DEFAULT_DEGREES[name] if max_degree is None else max_degree
    report = SuiteReport(suite=name, max_degree=n)
    _RUNNERS[name](report, n)
    return report


def _run_recursion(report: SuiteReport, n: int) -> None:
    for tag in GeometryTag:
        geom = geometry(tag)
        psi = solve_recursion(geom, n)
        for p in partitions_through(n):
            expected = closed_form(geom, p)
            solved = psi.coefficient(p)
            report.record(
                solved == expected,
                lambda tag=tag, p=p, expected=expected, solved=solved: (
                    f"geometry={tag.value} partition=({p}) expected={expected} "
                    f"solved={solved} difference={solved - expected}"),
            )


def _run_branching(report: SuiteReport, n: int) -> None:
    for k in range(1, n + 1):
        for mu in enumerate_partitions(k):
            report.record(
                verify_branching(mu),
                lambda mu=mu: (f"partition=({mu}) "
                               f"difference={branching_difference(mu)}"),
            )


def _first_difference(x: SkeinVector, y: SkeinVector) -> Partition:
    """The first partition, in output order, where x and y differ."""
    support = set(x.partitions()) | set(y.partitions())
    return next(q for q in sorted(support, key=partition_sort_key)
                if x.coefficient(q) != y.coefficient(q))


def _run_commutator(report: SuiteReport, n: int) -> None:
    bracket = OperatorExpression.commutator(P10_OP, P01_OP)
    scaled = P11_OP.scale(Z_BRACKET)

    def describe(p: Partition, lhs: SkeinVector, rhs: SkeinVector) -> str:
        q = _first_difference(lhs, rhs)
        return (f"partition=({p}) at=({q}) scaled={lhs.coefficient(q)} "
                f"commutator={rhs.coefficient(q)}")

    for k in range(n + 1):
        for p in enumerate_partitions(k):
            basis = SkeinVector.basis(p, max_degree=k + 1)
            lhs, rhs = scaled.apply(basis), bracket.apply(basis)
            report.record(lhs == rhs, lambda p=p, lhs=lhs, rhs=rhs: describe(p, lhs, rhs))


def _run_symmetry(report: SuiteReport, n: int) -> None:
    for k in range(n + 1):
        for p in enumerate_partitions(k):
            swapped, primed = swap_symmetry_sides(p)
            report.record(
                swapped == primed,
                lambda p=p, swapped=swapped, primed=primed: (
                    f"partition=({p}) swapped={swapped} primed={primed}"),
            )


def _run_annihilation(report: SuiteReport, n: int) -> None:
    def describe(tag: GeometryTag, psi: SkeinVector) -> str:
        q, coeff = geometry(tag).operator.apply(psi).items()[0]
        return (f"geometry={tag.value} through degree {n} "
                f"partition=({q}) coefficient={coeff}")

    for tag in GeometryTag:
        psi = solve_recursion(tag, n)
        report.record(
            verify_annihilation(tag, psi),
            lambda tag=tag, psi=psi: describe(tag, psi),
        )


def _run_parity(report: SuiteReport, n: int) -> None:
    for k in range(n + 1):
        for p in enumerate_partitions(k):
            total = parity_sum(p)
            report.record(total % 2 == 0,
                          lambda p=p, total=total: f"partition=({p}) sum={total}")


def _run_hookforms(report: SuiteReport, n: int) -> None:
    s_inverse = S ** -1
    for k in range(n + 1):
        for p in enumerate_partitions(k):
            product_form = hook_polynomial(p)
            qpower_form = hook_polynomial_qpower_form(p)
            report.record(
                product_form == qpower_form,
                lambda p=p, x=product_form, y=qpower_form: (
                    f"double formula, partition=({p}) product={x} qpower={y}"),
            )
            total_content = sum(c.content for c in cells(p))
            balanced = product_form * monomial(1, s=-total_content)
            mirrored = balanced.substitute({"s": s_inverse})
            report.record(
                balanced == mirrored,
                lambda p=p, x=balanced, y=mirrored: (
                    f"palindromicity, partition=({p}) balanced={x} mirrored={y}"),
            )


_RUNNERS = {
    "recursion": _run_recursion,
    "branching": _run_branching,
    "commutator": _run_commutator,
    "symmetry": _run_symmetry,
    "annihilation": _run_annihilation,
    "parity": _run_parity,
    "hookforms": _run_hookforms,
}
