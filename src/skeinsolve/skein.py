"""The positive solid-torus skein in its partition basis and the torus-curve
operator actions on it.

A SkeinVector is a finite map from partitions to rational-function
coefficients, truncated at a fixed degree; the generators act by

    unknot:  scalar multiplication by (aL - aL^{-1}) / (q^{1/2} - q^{-1/2})
    P10:     diagonal, eigenvalue unknot + diagonal_part(mu), where
             diagonal_part(mu) = aL (q^{1/2} - q^{-1/2}) c_mu(q)
    P01:     mu -> sum over added boxes, each of box_weight 1
    P11:     mu -> sum over added boxes, each of box_weight aL q^{content}

This module is the one place those actions are written down: the solver
reads the diagonal part and the box weights, functions of a box's content
alone, from here.  P11's per-box form is the closed expression for
(q^{1/2} - q^{-1/2})^{-1} [P10, P01]; the raw commutator is kept available
through OperatorExpression composition as an independent cross-check.

The generator table's entries apply_unknot, apply_p10, apply_p01 and
apply_p11, internal to this module, act on one basis vector W_lambda
truncated at n and return {mu: (numerator, k)}, meaning numerator / D^k
with D = UNKNOT_VALUE.denominator.  OperatorExpression.apply composes each
word on W_lambda with Laurent products alone and builds one reduced
coefficient per partition mu of the image, which it multiplies by the
input's coefficient of lambda.

Each operation has one path: both constructors normalize what they are
handed, a difference is a sum with a scale by -1, and an operator's scale
is a composition with a scalar on the identity word.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import index
from typing import Iterable, Mapping

from .partitions import (
    Partition,
    addable_cells,
    content_polynomial,
    partition_sort_key,
)
from .ring import (
    AL,
    LaurentPolynomial,
    ONE,
    RationalFunction,
    RationalLike,
    S,
    ZERO,
    monomial,
)


class Generator(Enum):
    UNKNOT = "O"
    P10 = "P10"
    P01 = "P01"
    P11 = "P11"


Z_BRACKET = S - S ** -1

#: Standard framed-unknot scalar.
UNKNOT_VALUE = RationalFunction(AL - AL ** -1, Z_BRACKET)

_RF_ONE = RationalFunction(1)  # shared by every basis vector: values are immutable


class SkeinVector:
    """Finite graded vector: partition -> rational-function coefficient.

    The constructor is the one place coefficients are normalized: it makes
    each one a RationalFunction and drops the zeros, so operations hand it
    their raw sums.  Every stored partition has size at most max_degree,
    and all operations are pure.
    """

    __slots__ = ("_coeffs", "_max_degree")

    def __init__(self, coeffs: Mapping[Partition, RationalLike], max_degree: int):
        max_degree = index(max_degree)
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        clean: dict[Partition, RationalFunction] = {}
        for p, val in coeffs.items():
            if not isinstance(p, Partition):
                raise TypeError(f"SkeinVector keys must be Partitions, got {type(p).__name__}")
            if p.size > max_degree:
                raise ValueError(
                    f"partition {tuple(p)} exceeds max_degree {max_degree}")
            rf = val if isinstance(val, RationalFunction) else RationalFunction(val)
            if not rf.is_zero:
                clean[p] = rf
        self._coeffs = clean
        self._max_degree = max_degree

    @classmethod
    def basis(cls, p: Partition, max_degree: int | None = None) -> "SkeinVector":
        """The basis vector of the given partition."""
        if max_degree is None:
            max_degree = p.size
        return cls({p: _RF_ONE}, max_degree)

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, p: Partition) -> RationalFunction:
        return self._coeffs.get(p, RationalFunction(0))

    def partitions(self) -> list[Partition]:
        return sorted(self._coeffs, key=partition_sort_key)

    def items(self) -> list[tuple[Partition, RationalFunction]]:
        """Coefficients sorted by (degree, reverse-lexicographic partition)."""
        return [(p, self._coeffs[p]) for p in self.partitions()]

    def __add__(self, other: "SkeinVector") -> "SkeinVector":
        if not isinstance(other, SkeinVector):
            return NotImplemented
        if self._max_degree != other._max_degree:
            raise ValueError("cannot add skein vectors with different truncations")
        out = dict(self._coeffs)
        for p, v in other._coeffs.items():
            out[p] = out[p] + v if p in out else v
        return SkeinVector(out, self._max_degree)

    def __sub__(self, other: "SkeinVector") -> "SkeinVector":
        if not isinstance(other, SkeinVector):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c: RationalLike) -> "SkeinVector":
        rf = c if isinstance(c, RationalFunction) else RationalFunction(c)
        return SkeinVector({p: v * rf for p, v in self._coeffs.items()}, self._max_degree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkeinVector):
            return NotImplemented
        return (self._max_degree == other._max_degree
                and self._coeffs == other._coeffs)

    def __repr__(self) -> str:
        body = "; ".join(f"[{p}] {v}" for p, v in self.items()) or "0"
        return f"SkeinVector({body!r}, max_degree={self._max_degree})"


@lru_cache(maxsize=None, typed=True)
def diagonal_part(p: Partition) -> LaurentPolynomial:
    """P10 - unknot on the basis vector of p: aL (q^{1/2} - q^{-1/2}) c_p(q)."""
    return AL * Z_BRACKET * content_polynomial(p)


def box_weight(gen: Generator, content: int) -> LaurentPolynomial:
    """Coefficient a raising generator attaches to the box it adds, of
    content c: 1 for P01 and aL q^c for P11.  ValueError for a generator
    that adds no box."""
    if gen is Generator.P01:
        return ONE
    if gen is Generator.P11:
        return monomial(1, s=2 * content, aL=1)
    raise ValueError(f"{gen.value} adds no box")


_D = UNKNOT_VALUE.denominator  # each action is {mu: (numerator, k)}, over D^k


def apply_unknot(lam: Partition, n: int) -> dict[Partition, tuple[LaurentPolynomial, int]]:
    return {lam: (UNKNOT_VALUE.numerator, 1)}


def apply_p10(lam: Partition, n: int) -> dict[Partition, tuple[LaurentPolynomial, int]]:
    return {lam: (UNKNOT_VALUE.numerator + diagonal_part(lam) * _D, 1)}


def _apply_raising(lam: Partition, n: int,
                   gen: Generator) -> dict[Partition, tuple[LaurentPolynomial, int]]:
    if lam.size >= n:
        return {}  # truncated
    return {mu: (box_weight(gen, cell.content), 0) for mu, cell in addable_cells(lam)}


def apply_p01(lam: Partition, n: int) -> dict[Partition, tuple[LaurentPolynomial, int]]:
    return _apply_raising(lam, n, Generator.P01)


def apply_p11(lam: Partition, n: int) -> dict[Partition, tuple[LaurentPolynomial, int]]:
    return _apply_raising(lam, n, Generator.P11)


_APPLY = {
    Generator.UNKNOT: apply_unknot,
    Generator.P10: apply_p10,
    Generator.P01: apply_p01,
    Generator.P11: apply_p11,
}


class OperatorExpression:
    """Formal combination of generator words with Laurent-polynomial
    coefficients, closed under sum, scalar multiple and composition.

    A word (g1, g2, ..., gk) acts as g1 after g2 after ... after gk; the
    empty word acts as the identity.  The constructor is the one place a
    coefficient or a word is checked and like words are collected: sum,
    difference, scale and compose hand it their raw terms.  Text puts a
    one-term coefficient's sign in front of its term and prints the
    identity word as its coefficient.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[object, Iterable[Generator]]] = ()):
        collected: dict[tuple[Generator, ...], LaurentPolynomial] = {}
        for coeff, word in terms:
            coeff = LaurentPolynomial._coerce(coeff)
            if coeff is NotImplemented:
                raise TypeError("operator coefficients must be Laurent polynomials")
            word = tuple(word)
            for gen in word:
                if not isinstance(gen, Generator):
                    raise TypeError(
                        f"operator words must hold Generators, got {gen!r} in {word!r}")
            collected[word] = collected.get(word, ZERO) + coeff
        self._terms = tuple(
            sorted(
                ((c, w) for w, c in collected.items() if not c.is_zero),
                key=lambda t: (len(t[1]), tuple(g.value for g in t[1])),
            )
        )

    @classmethod
    def generator(cls, gen: Generator) -> "OperatorExpression":
        return cls([(1, (gen,))])

    def __add__(self, other: "OperatorExpression") -> "OperatorExpression":
        if not isinstance(other, OperatorExpression):
            return NotImplemented
        return OperatorExpression(self._terms + other._terms)

    def __sub__(self, other: "OperatorExpression") -> "OperatorExpression":
        if not isinstance(other, OperatorExpression):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c: object) -> "OperatorExpression":
        return OperatorExpression([(c, ())]).compose(self)

    def compose(self, other: "OperatorExpression") -> "OperatorExpression":
        """self after other: (A.compose(B)).apply(v) == A.apply(B.apply(v))."""
        return OperatorExpression(
            [(c1 * c2, w1 + w2) for c1, w1 in self._terms for c2, w2 in other._terms])

    @staticmethod
    def commutator(a: "OperatorExpression", b: "OperatorExpression") -> "OperatorExpression":
        return a.compose(b) - b.compose(a)

    def apply(self, v: SkeinVector) -> SkeinVector:
        """Linear extension of the generator actions, with the same truncation
        degree as the input (raised terms beyond it are dropped).

        It acts one basis vector at a time: each word runs on W_lambda as
        numerators over powers of D; the terms at mu are brought to their
        largest power of D, and that one RationalFunction is multiplied by
        v's coefficient of lambda and added at mu.
        """
        n = v.max_degree
        out: dict[Partition, RationalFunction] = {}
        for lam, coeff in v.items():
            image: dict[Partition, list[tuple[LaurentPolynomial, int]]] = {}
            for c, word in self._terms:
                cur = {lam: (c, 0)}
                for gen in reversed(word):
                    step = {}
                    for nu, (num, k) in cur.items():
                        for mu, (f, j) in _APPLY[gen](nu, n).items():
                            term = num * f
                            step[mu] = (step[mu][0] + term if mu in step else term, k + j)
                    cur = step
                for mu, pair in cur.items():
                    image.setdefault(mu, []).append(pair)
            for mu, pairs in image.items():
                top = max(k for _, k in pairs)
                num = sum((f if k == top else f * _D ** (top - k) for f, k in pairs), ZERO)
                term = RationalFunction(num, _D ** top)
                term = term if coeff == 1 else term * coeff  # a basis vector needs no product
                out[mu] = out[mu] + term if mu in out else term
        return SkeinVector(out, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorExpression):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __str__(self) -> str:
        text = ""
        for coeff, word in self._terms:
            negative = len(coeff) == 1 and coeff.sorted_terms()[0][1] < 0
            body = str(-coeff if negative else coeff)
            if word:
                gens = "∘".join(g.value for g in word)
                body = (gens if body == "1"
                        else f"({body}) {gens}" if " " in body else f"{body} {gens}")
            text = (f"{text} {'-' if negative else '+'} {body}" if text
                    else f"-{body}" if negative else body)
        return text or "0"

    def __repr__(self) -> str:
        return f"OperatorExpression({str(self)!r})"


UNKNOT_OP = OperatorExpression.generator(Generator.UNKNOT)
P10_OP = OperatorExpression.generator(Generator.P10)
P01_OP = OperatorExpression.generator(Generator.P01)
P11_OP = OperatorExpression.generator(Generator.P11)
