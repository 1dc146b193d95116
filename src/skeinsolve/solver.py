"""Degree-by-degree solution of the annihilation equations and their
hook-content closed forms.

A geometry is a name and the two coefficients x, y of its annihilation
operator  A = O - P10 + x P01 + y P11,  a skein-valued quantization of its
mirror curve; PRESETS holds the three named ones.  The equation A(psi) = 0
with psi normalized to start at 1 determines psi uniquely, one degree at a
time: the diagonal part P10 - unknot is invertible on every nonempty
partition because skein's diagonal_part is a nonzero multiple of the
content polynomial.  solve_recursion solves it that way.  Its solution is
the hook-content product over the cells of the indexing partition: each
cell contributes the raising weight of x P01 + y P11 over {hook}, and the
common denominator prod {hook} comes from the cyclotomic hook vector.  The
raising weight is a function of a box's content alone, so solve_recursion
and the growth each compute it once per content, behind functools.cache.
One memoised growth step builds that product box by box; closed_form reads
it for one partition, and hook_content_vector, which psi prints, for every
partition through a degree.  The recursion is their check.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product as _cartesian
from typing import Callable, NamedTuple

from .partitions import (
    BOX,
    EMPTY,
    Partition,
    enumerate_partitions,
    hook_denominator,
    partitions_through,
    removable_cells,
)
from .ring import (
    A,
    AL,
    G,
    LaurentPolynomial,
    ONE,
    RationalFunction,
    ZERO,
    cyclotomic_product,
    monomial,
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
    box_weight,
    diagonal_part,
)


class NoSolutionError(Exception):
    """No signed-monomial assignment satisfies the constraints within bounds."""


class CoefficientTemplate(NamedTuple):
    """Ansatz  unknot + sum of unknowns, constrained by the solution's
    coefficients 1 at the empty partition and psi_box at the box.

    Unknown coefficients, one per distinct generator, range over signed
    monomials: one-term polynomials in a, aL, g (no s) with coefficient +1
    or -1 and each exponent bounded by exponent_bound in absolute value.
    With psi_empty = 1 each unknown enters one of the two equations: P10
    at the empty partition with factor UNKNOT_VALUE, P01 and P11 at the
    box with factors 1 and aL.  solve_monomial_coefficients enumerates all
    but the last unknown of each equation over these signed monomials and
    looks the last up in a table of the same ones.
    """

    unknowns: tuple[Generator, ...]
    psi_box: RationalFunction
    exponent_bound: int = 2


TEMPLATES = {
    # psi = 1 + g/(q^{1/2} - q^{-1/2}) W_box + ..., the toric brane
    "c3": CoefficientTemplate(
        unknowns=(Generator.P10, Generator.P01),
        psi_box=RationalFunction(G, Z_BRACKET),
    ),
    # psi = 1 + g (a - a^{-1})/(q^{1/2} - q^{-1/2}) W_box + ...
    "unknot": CoefficientTemplate(
        unknowns=(Generator.P10, Generator.P01, Generator.P11),
        psi_box=RationalFunction(G * (A - A ** -1), Z_BRACKET),
    ),
}


class Geometry(NamedTuple):
    """A geometry's name and the coefficients x, y of its annihilation
    operator  O - P10 + x P01 + y P11."""

    tag: str
    x: LaurentPolynomial
    y: LaurentPolynomial

    @property
    def operator(self) -> OperatorExpression:
        return UNKNOT_OP - P10_OP + P01_OP.scale(self.x) + P11_OP.scale(self.y)

    def raising_weight(self, content: int) -> LaurentPolynomial:
        """Coefficient the operator's raising part x P01 + y P11 attaches to
        an added box of this content, from skein's box weights."""
        return (self.x * box_weight(Generator.P01, content)
                + self.y * box_weight(Generator.P11, content))


PRESETS = {geom.tag: geom for geom in (
    Geometry("c3", AL * G, ZERO),
    Geometry("unknot", G * AL * A, -G * A ** -1),
    Geometry("unknot-prime", -G * AL * A ** -1, G * A),
)}


def geometry(g: Geometry | str) -> Geometry:
    """The preset geometry of a name; a Geometry is returned unchanged."""
    if isinstance(g, Geometry):
        return g
    if g not in PRESETS:
        raise ValueError(f"unknown geometry {g!r}")
    return PRESETS[g]


def solve_recursion(geom: Geometry | str, max_degree: int) -> SkeinVector:
    """The unique solution of the geometry's annihilation equation with
    leading coefficient 1, computed through the given degree.

    Degree n + 1 coefficients come from degree n by inverting the diagonal
    part on each partition:

        psi_mu = sum over (lambda, box) with lambda + box = mu
                 of raising_weight(box.content) psi_lambda / diagonal_part(mu)

    The weights are cached per call, so the recursion shares no state with
    the growth that closed_form reads.
    """
    geom = geometry(geom)
    weight = cache(geom.raising_weight)
    coeffs: dict[Partition, RationalFunction] = {EMPTY: RationalFunction(1)}
    for degree in range(1, max_degree + 1):
        for mu in enumerate_partitions(degree):
            total = RationalFunction(0)
            for lam, cell in removable_cells(mu):
                total = total + coeffs[lam] * weight(cell.content)
            coeffs[mu] = total / diagonal_part(mu)
    return SkeinVector(coeffs, max_degree)


@lru_cache(maxsize=3)  # annihilation and recursion grow all three presets
def _growth(geom: Geometry) -> tuple[Callable[[int], LaurentPolynomial],
                                     dict[Partition, LaurentPolynomial]]:
    """The geometry's raising weight, cached by content, and its grown tops,
    {EMPTY: 1} at first.  The tops are filled by hand: _grown walks a chain
    down to the first partition grown, which a functools cache cannot do."""
    return cache(geom.raising_weight), {EMPTY: ONE}


@cache
def _hook_product(multiset: frozenset) -> LaurentPolynomial:
    """H_p from the multiset frozenset(hook_denominator(p).items())."""
    return cyclotomic_product(dict(multiset))


def _grown(geom: Geometry, p: Partition) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """closed_form(geom, p) unreduced: top_p over H_p = prod (q^{hook} - 1).

    Each mu extends the first lambda of removable_cells(mu) by a box in row
    r, column c: hook 1, content c - r, and 1 more on the r - 1 hooks above
    and c - 1 to its left, so top's power of s, sum(hook - content), gains 2r - 1:

        top_mu = top_lambda raising_weight(c - r) s^{2r - 1} aL^{-1}.

    The chain is walked down to the first partition already grown and back
    up.  _growth is keyed by the Geometry value (x and y, not only tag), so a
    mutation test must build a fresh Geometry; it holds the tops of the
    three geometries used last, and a fourth evicts the one used least
    recently.  H_p depends only on the multiset of p's hooks, which
    E_p = hook_denominator(p) determines, so _hook_product keeps one H per
    multiset, shared by all geometries and by conjugates.
    """
    weight, grown = _growth(geom)
    chain, mu = [], p
    while mu not in grown:
        chain.append((mu, *removable_cells(mu)[0]))
        mu = chain[-1][1]
    for mu, lam, box in reversed(chain):
        grown[mu] = grown[lam] * (weight(box.content) * monomial(1, s=2 * box.row - 1, aL=-1))
    return grown[p], _hook_product(frozenset(hook_denominator(p).items()))


def closed_form(geom: Geometry | str, p: Partition) -> RationalFunction:
    """Hook-content product for the geometry's coefficient of p, read off
    the operator:

        prod over cells of raising_weight(c) aL^{-1} q^{-c/2} / {hook}

    It solves the recursion of solve_recursion: adding a box to lambda
    multiplies the product over lambda's cells by that box's weight, and the
    branching rule sums the remaining factors over the removable boxes.
    For the presets the cell factor is g q^{-c/2} (c3),
    g (a q^{-c/2} - a^{-1} q^{c/2}) (unknot) and g (a q^{c/2} - a^{-1} q^{-c/2})
    (unknot-prime).  {h} = s^{-h} (q^h - 1), so the product of the brackets
    is s^{-sum of hooks} times the hook denominator H_p.  _grown grows the
    pair box by box; it is reduced once, so a weight that shares a factor
    with H is still cancelled.  A p that is not a Partition raises
    TypeError: a plain tuple would find its Partition's top in _growth's
    plain dict once grown.
    """
    if not isinstance(p, Partition):
        raise TypeError(f"closed_form takes a Partition, got {type(p).__name__}")
    return RationalFunction(*_grown(geometry(geom), p))


def hook_content_vector(geom: Geometry | str, max_degree: int) -> SkeinVector:
    """closed_form of every partition through the given degree; it equals
    solve_recursion's solution.  The partitions come in degree order, so
    each costs one growth step from a memoised smaller one."""
    return SkeinVector({p: closed_form(geom, p) for p in partitions_through(max_degree)},
                       max_degree)


def colored_unknot_invariant(p: Partition) -> RationalFunction:
    """Skein evaluation of the partition-cable of the standard unknot, the
    closed form of the primed unknot with g = 1 in its x and y:

        prod over cells of (a q^{c/2} - a^{-1} q^{-c/2}) / {hook}
    """
    primed = PRESETS["unknot-prime"]
    at_g1 = Geometry("colored-unknot", primed.x.substitute({"g": 1}),
                     primed.y.substitute({"g": 1}))
    return closed_form(at_g1, p)


def verify_annihilation(geom: Geometry | str, psi: SkeinVector) -> bool:
    """True iff applying the geometry's operator to psi vanishes in every
    degree up to psi's truncation (terms the truncation cannot determine are
    excluded automatically)."""
    return geometry(geom).operator.apply(psi).is_zero


# ---------------------------------------------------------------------------
# Solving for unknown signed-monomial operator coefficients.
# ---------------------------------------------------------------------------


def _candidate_monomials(bound: int) -> list[LaurentPolynomial]:
    out = []
    for sign in (1, -1):
        for ea, eaL, eg in _cartesian(range(-bound, bound + 1), repeat=3):
            out.append(monomial(sign, 0, ea, eaL, eg))
    return out


def solve_monomial_coefficients(
        template: CoefficientTemplate) -> list[dict[Generator, LaurentPolynomial]]:
    """All signed-monomial assignments to the template's unknowns for which
    the assembled operator kills the constrained part of the solution.
    Each value is a one-term LaurentPolynomial with coefficient +1 or -1
    and no power of s.

    At truncation 1, A(phi) is its empty and box coefficients, and both are
    linear equations in the unknowns that enter them.  Every unknown enters
    one of them, because psi_empty = 1: P10 the empty coefficient with
    factor UNKNOT_VALUE, P01 and P11 the box coefficient with factors 1 and
    aL.  At each equation in turn, the still-unassigned unknowns that enter
    it are enumerated over the bounded signed monomials, all but the last,
    and the last is looked up: with f its nonzero factor, a table maps
    f.numerator m to m for each candidate m, and m is kept when minus the
    sum has that numerator over f's denominator.  That is f m exactly, as m
    has no s.  The kept assignments satisfy both equations, and the result
    is exactly what an exhaustive search over all bounded assignments finds,
    each assignment once, ordered by generator name, then sign, then
    exponent.
    Raises NoSolutionError if it is empty, and ValueError if an unknown is
    the unknot or is repeated.
    """
    unknowns = template.unknowns
    if Generator.UNKNOT in unknowns:
        raise ValueError("the unknot coefficient is pinned to 1 by rescaling")
    if len(set(unknowns)) != len(unknowns):
        raise ValueError("an unknown generator is listed twice")
    phi = SkeinVector({EMPTY: 1, BOX: template.psi_box}, 1)
    base = UNKNOT_OP.apply(phi)
    images = {gen: OperatorExpression.generator(gen).apply(phi) for gen in unknowns}
    candidates = _candidate_monomials(template.exponent_bound)

    solutions: list[dict[Generator, LaurentPolynomial]] = [{}]
    free = list(unknowns)
    for p in (EMPTY, BOX):
        factor = {gen: images[gen].coefficient(p) for gen in unknowns}
        entering = [gen for gen in free if not factor[gen].is_zero]
        free = [gen for gen in free if factor[gen].is_zero]
        if entering:
            *enumerated, last = entering
            f = factor[last]
            table = {f.numerator * m: m for m in candidates}
        extended = []
        for assignment in solutions:
            residual = base.coefficient(p)
            for gen, sm in assignment.items():
                residual = residual + factor[gen] * sm
            if not entering:
                if residual.is_zero:
                    extended.append(assignment)
                continue
            for choice in _cartesian(candidates, repeat=len(enumerated)):
                total = residual
                for gen, sm in zip(enumerated, choice):
                    total = total + factor[gen] * sm
                solved = table.get((-total).numerator)
                if solved is not None and total.denominator == f.denominator:
                    extended.append({**assignment, **dict(zip(enumerated, choice)),
                                     last: solved})
        solutions = extended

    if not solutions:
        raise NoSolutionError("no signed-monomial assignment within bounds")
    # a one-term sorted_terms() is [(exponent, sign)]: order by sign first
    solutions.sort(key=lambda asg: sorted(
        (gen.value, c, e) for gen, sm in asg.items() for e, c in sm.sorted_terms()))
    return solutions
