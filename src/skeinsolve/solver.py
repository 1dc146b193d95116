"""Degree-by-degree solution of the annihilation equations and their
hook-content closed forms.

Each geometry fixes an operator A built from the torus-curve generators; the
equation A(psi) = 0 with psi normalized to start at 1 determines psi
uniquely, one degree at a time: the diagonal part P10 - unknot is invertible
on every nonempty partition because its eigenvalue is a nonzero multiple of
the content polynomial.  The closed forms are products over the cells of the
indexing partition with quantum-bracket denominators.
"""

from __future__ import annotations

from enum import Enum
from itertools import permutations as _permutations, product as _cartesian
from typing import Callable, Mapping, NamedTuple

from .partitions import (
    BOX,
    EMPTY,
    Cell,
    Partition,
    cells,
    content_polynomial,
    enumerate_partitions,
    removable_cells,
)
from .ring import (
    A,
    AL,
    Exponent,
    G,
    LaurentPolynomial,
    RationalFunction,
    S,
    SignedMonomial,
    ZERO,
    monomial,
    monomial_ratio,
    quantum_bracket,
)
from .skein import (
    Generator,
    OperatorExpression,
    P01_OP,
    P10_OP,
    P11_OP,
    SkeinVector,
    UNKNOT_OP,
    Z_BRACKET,
)


class NoSolutionError(Exception):
    """No signed-monomial assignment satisfies the constraints within bounds."""


class GeometryTag(Enum):
    C3 = "c3"
    UNKNOT = "unknot"
    UNKNOT_PRIME = "unknot-prime"


class UnknotBranch(Enum):
    PLAIN = "plain"
    PRIME = "prime"


_OPERATORS = {
    GeometryTag.C3: UNKNOT_OP - P10_OP + P01_OP.scale(AL * G),
    GeometryTag.UNKNOT: (UNKNOT_OP - P10_OP
                         + P01_OP.scale(G * AL * A)
                         - P11_OP.scale(G * A ** -1)),
    GeometryTag.UNKNOT_PRIME: (UNKNOT_OP - P10_OP
                               - P01_OP.scale(G * AL * A ** -1)
                               + P11_OP.scale(G * A)),
}


class Geometry:
    """A geometry tag together with its annihilation operator, which must
    have the shape  O - P10 + x P01 + y P11  (ValueError otherwise)."""

    __slots__ = ("tag", "operator", "_x", "_y")

    def __init__(self, tag: GeometryTag, operator: OperatorExpression):
        coeffs = {word: coeff for coeff, word in operator.terms}
        x = coeffs.pop((Generator.P01,), ZERO)
        y = coeffs.pop((Generator.P11,), ZERO)
        if coeffs != {(Generator.UNKNOT,): 1, (Generator.P10,): -1}:
            raise ValueError(f"operator {operator} is not of the form "
                             "O - P10 + x P01 + y P11")
        self.tag = tag
        self.operator = operator
        self._x = x
        self._y = y

    def __repr__(self) -> str:
        return f"Geometry(tag={self.tag!r}, operator={self.operator!r})"

    def raising_weight(self, cell: Cell) -> LaurentPolynomial:
        """Coefficient the operator's raising part attaches to an added box:
        x + y aL q^{content}, since P11 weights a box by aL q^{content}."""
        return self._x + self._y * monomial(1, s=2 * cell.content, aL=1)


def geometry(tag: GeometryTag | str) -> Geometry:
    if isinstance(tag, str):
        tag = GeometryTag(tag)
    return Geometry(tag, _OPERATORS[tag])


def solve_recursion(geom: Geometry | GeometryTag | str, max_degree: int) -> SkeinVector:
    """The unique solution of the geometry's annihilation equation with
    leading coefficient 1, computed through the given degree.

    Degree n + 1 coefficients come from degree n by inverting the diagonal
    part on each partition:

        psi_mu = sum over (lambda, box) with lambda + box = mu
                 of weight(box) psi_lambda / (aL (q^{1/2} - q^{-1/2}) c_mu(q))
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if not isinstance(geom, Geometry):
        geom = geometry(geom)
    coeffs: dict[Partition, RationalFunction] = {EMPTY: RationalFunction(1)}
    for degree in range(1, max_degree + 1):
        for mu in enumerate_partitions(degree):
            total = RationalFunction(0)
            for lam, cell in removable_cells(mu):
                psi_lam = coeffs.get(lam)
                if psi_lam is not None:
                    total = total + psi_lam * geom.raising_weight(cell)
            coeffs[mu] = total / (AL * Z_BRACKET * content_polynomial(mu))
    return SkeinVector(coeffs, max_degree)


def _hook_content_product(p: Partition, numerator: Callable[[int], LaurentPolynomial],
                          gamma: int = 1) -> RationalFunction:
    """g^{gamma |p|} * prod over cells of numerator(content) / {hook}."""
    out = RationalFunction(monomial(1, g=gamma * p.size))
    for c in cells(p):
        out = out * RationalFunction(numerator(c.content), quantum_bracket(c.hook))
    return out


def _a_bracket(c: int) -> LaurentPolynomial:
    """a q^{c/2} - a^{-1} q^{-c/2}"""
    return LaurentPolynomial({Exponent(s=c, a=1): 1, Exponent(s=-c, a=-1): -1})


def closed_form_c3(p: Partition) -> RationalFunction:
    """Hook-content product for the toric brane in C^3:

        g^{|p|} * prod over cells of q^{-content/2} / {hook}
    """
    return _hook_content_product(p, lambda c: monomial(1, s=-c))


def closed_form_unknot(p: Partition,
                       branch: UnknotBranch = UnknotBranch.PLAIN) -> RationalFunction:
    """Hook-content product for the unknot conormal, either branch:

        PLAIN: g^{|p|} * prod (a q^{-c/2} - a^{-1} q^{c/2}) / {hook}
        PRIME: g^{|p|} * prod (a q^{c/2} - a^{-1} q^{-c/2}) / {hook}
    """
    sign = -1 if branch is UnknotBranch.PLAIN else 1
    return _hook_content_product(p, lambda c: _a_bracket(sign * c))


def colored_unknot_invariant(p: Partition) -> RationalFunction:
    """Skein evaluation of the partition-cable of the standard unknot:

        prod over cells of (a q^{c/2} - a^{-1} q^{-c/2}) / {hook}
    """
    return _hook_content_product(p, _a_bracket, gamma=0)


def closed_form(tag: GeometryTag | str, p: Partition) -> RationalFunction:
    if isinstance(tag, str):
        tag = GeometryTag(tag)
    if tag is GeometryTag.C3:
        return closed_form_c3(p)
    if tag is GeometryTag.UNKNOT:
        return closed_form_unknot(p, UnknotBranch.PLAIN)
    return closed_form_unknot(p, UnknotBranch.PRIME)


def verify_annihilation(geom: Geometry | GeometryTag | str, psi: SkeinVector,
                        unknot_value: RationalFunction | None = None) -> bool:
    """True iff applying the geometry's operator to psi vanishes in every
    degree up to psi's truncation (terms the truncation cannot determine are
    excluded automatically)."""
    if not isinstance(geom, Geometry):
        geom = geometry(geom)
    return geom.operator.apply(psi, unknot_value).is_zero


def swap_symmetry_sides(p: Partition) -> tuple[RationalFunction, RationalFunction]:
    """The plain unknot closed form of p under a -> a^{-1}, q^{1/2} -> -q^{1/2},
    and the primed closed form of p."""
    plain = closed_form_unknot(p, UnknotBranch.PLAIN)
    return (plain.substitute({"a": A ** -1, "s": -S}),
            closed_form_unknot(p, UnknotBranch.PRIME))


def swap_symmetry_holds(p: Partition) -> bool:
    """True iff the swap carries the plain unknot closed form of p onto the
    primed one, with no leftover sign."""
    swapped, primed = swap_symmetry_sides(p)
    return swapped == primed


def swap_symmetry_check(max_degree: int) -> bool:
    """swap_symmetry_holds for every partition through the given degree."""
    return all(swap_symmetry_holds(p) for degree in range(max_degree + 1)
               for p in enumerate_partitions(degree))


# ---------------------------------------------------------------------------
# Solving for unknown signed-monomial operator coefficients.
# ---------------------------------------------------------------------------


class CoefficientTemplate(NamedTuple):
    """Ansatz  unknot + sum of fixed coefficients + sum of unknowns, with the
    low-degree coefficients of the solution as constraints.

    Unknown coefficients range over signed monomials in a, aL, g with each
    exponent bounded by exponent_bound in absolute value.
    """

    unknowns: tuple[Generator, ...]
    psi_box: RationalFunction
    psi_empty: RationalFunction = RationalFunction(1)
    fixed: tuple[tuple[Generator, LaurentPolynomial], ...] = ()
    exponent_bound: int = 2


def c3_template() -> CoefficientTemplate:
    """Unknown meridian and longitude coefficients, constrained by the start
    of the toric-brane solution 1 + g/(q^{1/2} - q^{-1/2}) W_box + ..."""
    return CoefficientTemplate(
        unknowns=(Generator.P10, Generator.P01),
        psi_box=RationalFunction(G, Z_BRACKET),
    )


def unknot_template() -> CoefficientTemplate:
    """Unknown meridian, longitude and diagonal-curve coefficients,
    constrained by 1 + g (a - a^{-1})/(q^{1/2} - q^{-1/2}) W_box + ..."""
    return CoefficientTemplate(
        unknowns=(Generator.P10, Generator.P01, Generator.P11),
        psi_box=RationalFunction(G * (A - A ** -1), Z_BRACKET),
    )


def _as_bounded_signed_monomial(value: RationalFunction,
                                bound: int) -> SignedMonomial | None:
    """The value as a signed monomial in a, aL, g within bounds, else None."""
    if not value.denominator.is_one:
        return None
    sm = value.numerator.as_signed_monomial()
    if sm is None or sm.exponent.s != 0:
        return None
    if max(abs(sm.exponent.a), abs(sm.exponent.aL), abs(sm.exponent.g)) > bound:
        return None
    return sm


def _candidate_monomials(bound: int) -> list[SignedMonomial]:
    out = []
    for sign in (1, -1):
        for ea, eaL, eg in _cartesian(range(-bound, bound + 1), repeat=3):
            out.append(SignedMonomial(sign, Exponent(0, ea, eaL, eg)))
    return out


def solve_monomial_coefficients(
        template: CoefficientTemplate) -> list[dict[Generator, SignedMonomial]]:
    """All signed-monomial assignments to the template's unknowns for which
    the assembled operator kills the constrained part of the solution.

    The degree-0 equation pins any diagonal unknown outright; the remaining
    identity in the W_box coefficient is split exactly into one signed
    monomial per unknown, with bounded enumeration as a fallback.  Raises
    NoSolutionError if nothing fits within the exponent bounds.
    """
    for gen in template.unknowns:
        if gen in (Generator.UNKNOT, Generator.IDENTITY):
            raise ValueError("the unknot coefficient is pinned to 1 by rescaling")
    phi = SkeinVector({EMPTY: template.psi_empty, BOX: template.psi_box}, 1)
    known_op = UNKNOT_OP + OperatorExpression(
        [(coeff, (gen,)) for gen, coeff in template.fixed])
    base = known_op.apply(phi)
    images = {gen: OperatorExpression.generator(gen).apply(phi)
              for gen in template.unknowns}

    # Degree 0: only diagonal generators contribute to the empty coefficient.
    base0 = base.coefficient(EMPTY)
    diagonal = [gen for gen in template.unknowns
                if not images[gen].coefficient(EMPTY).is_zero]
    pinned: dict[Generator, SignedMonomial] = {}
    if len(diagonal) == 1:
        gen = diagonal[0]
        sm = monomial_ratio(-base0, images[gen].coefficient(EMPTY))
        if sm is None or sm.exponent.s != 0 or max(
                abs(sm.exponent.a), abs(sm.exponent.aL),
                abs(sm.exponent.g)) > template.exponent_bound:
            raise NoSolutionError(
                f"degree-0 equation gives no signed-monomial value for {gen.value}")
        pinned[gen] = sm
    elif not diagonal and not base0.is_zero:
        raise NoSolutionError("degree-0 equation is inconsistent")

    remaining = [gen for gen in template.unknowns if gen not in pinned]
    residual = base.coefficient(BOX)
    for gen, sm in pinned.items():
        residual = residual + images[gen].coefficient(BOX) * sm.to_polynomial()

    solutions: list[dict[Generator, SignedMonomial]] = []
    if not remaining:
        if residual.is_zero:
            solutions.append(dict(pinned))
    else:
        factors = {gen: images[gen].coefficient(BOX) for gen in remaining}
        split = _split_into_monomials(-residual, factors, template.exponent_bound)
        if not split:  # non-monomial factors or no exact split: enumerate
            split = _enumerate_assignments(-residual, factors, template.exponent_bound)
        for assignment in split:
            solutions.append({**pinned, **assignment})

    # Confirm every candidate exactly on the constrained degrees.
    confirmed = []
    for assignment in solutions:
        op = known_op + OperatorExpression(
            [(sm.to_polynomial(), (gen,)) for gen, sm in assignment.items()])
        if op.apply(phi).is_zero:
            confirmed.append(assignment)
    confirmed.sort(key=lambda asg: sorted(
        (gen.value, sm.sign, sm.exponent) for gen, sm in asg.items()))
    deduped = []
    for assignment in confirmed:
        if assignment not in deduped:
            deduped.append(assignment)
    if not deduped:
        raise NoSolutionError("no signed-monomial assignment within bounds")
    return deduped


def _split_into_monomials(target: RationalFunction,
                          factors: Mapping[Generator, RationalFunction],
                          bound: int) -> list[dict[Generator, SignedMonomial]] | None:
    """Solve target = sum factor_g * x_g with each x_g one signed monomial.

    Only applicable when every factor is itself a monomial with unit
    coefficient; returns None to request enumeration otherwise.
    """
    gens = list(factors)
    factor_sm = {}
    for gen in gens:
        rf = factors[gen]
        if not rf.denominator.is_one:
            return None
        sm = rf.numerator.as_signed_monomial()
        if sm is None:
            return None
        factor_sm[gen] = sm
    if not target.denominator.is_one:
        return []
    terms = target.numerator.sorted_terms()
    if len(terms) != len(gens):
        return []
    out = []
    for ordering in _permutations(terms):
        assignment = {}
        for gen, (exp, coeff) in zip(gens, ordering):
            f = factor_sm[gen]
            if coeff * f.sign not in (1, -1):
                break
            sm = SignedMonomial(
                coeff * f.sign,
                Exponent(*(e - fe for e, fe in zip(exp, f.exponent))),
            )
            if _as_bounded_signed_monomial(
                    RationalFunction(sm.to_polynomial()), bound) is None:
                break
            assignment[gen] = sm
        else:
            out.append(assignment)
    return out


def _enumerate_assignments(target: RationalFunction,
                           factors: Mapping[Generator, RationalFunction],
                           bound: int) -> list[dict[Generator, SignedMonomial]]:
    """Exhaustive search over bounded signed monomials for each unknown."""
    gens = list(factors)
    candidates = _candidate_monomials(bound)
    out = []
    for choice in _cartesian(candidates, repeat=len(gens)):
        total = target
        for gen, sm in zip(gens, choice):
            total = total - factors[gen] * sm.to_polynomial()
        if total.is_zero:
            out.append(dict(zip(gens, choice)))
    return out
