"""Young-diagram combinatorics: contents, hooks, cyclotomic hook factors,
hook polynomials, branching.

A Partition is the tuple of its parts, row 1 first.  Diagrams use the
English convention (rows left-justified, row 1 on top), so the content of
the cell in row i, column j is j - i and the hook of a cell is the cell
itself, its arm (cells to the right in the same row) and its leg (cells
below in the same column).

The product of (q^{hook} - 1) over the cells has one representation, the
cyclotomic exponent vector of hook_denominator: the branching check, the
closed forms and hook_polynomial all read it.  hook_polynomial_qpower_form
builds the hook polynomial from quantum integers instead, as an independent
check of that vector.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import index
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .ring import (
    Exponent,
    LaurentPolynomial,
    RationalFunction,
    cyclotomic_product,
    monomial,
    product_s,
    q_int,
)


class EmptyPartitionError(ValueError):
    """The operation needs at least one box."""


def _decimal(text: str, what: str) -> int:
    """The integer written in ASCII digits, with an optional leading "-" and
    spaces around.  A form int() cannot read keeps int's message; the other
    forms it reads (1_0, +3, non-ASCII digits) fail as not ASCII digits."""
    value = int(text)
    if not (text.isascii() and text.strip().lstrip("-").isdigit()):
        raise ValueError(f"{what} must be ASCII decimal digits, got {text!r}")
    return value


class Partition(tuple):
    """A finite nonincreasing sequence of positive integers: the tuple of its
    parts, row 1 first, which it equals and hashes like.  len(p) counts rows
    and p.size boxes.  Each part is read through operator.index, so a float
    or a string part raises TypeError.  The empty partition is falsy; it
    parses from "" or "0" and renders as "".
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(index(p) for p in parts)
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be nonincreasing, got {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Comma-separated parts, each read by _decimal, so "-3" fails as not
        positive."""
        if text.strip() in ("", "0"):
            return cls()
        return cls(_decimal(tok, "parts") for tok in text.split(","))

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


EMPTY = Partition()
BOX = Partition((1,))


def partition_sort_key(p: Partition) -> tuple[int, tuple[int, ...]]:
    """Sort key ordering by degree, then reverse-lexicographically within it."""
    return (p.size, tuple(-x for x in p))


class Cell(NamedTuple):
    """One box of a Young diagram: its row, column, arm and leg."""

    row: int
    col: int
    arm: int
    leg: int

    @property
    def content(self) -> int:
        return self.col - self.row

    @property
    def hook(self) -> int:
        return self.arm + self.leg + 1


@lru_cache(maxsize=None, typed=True)
def cells(p: Partition) -> tuple[Cell, ...]:
    """All cells of the diagram in row-major order."""
    if not isinstance(p, Partition):
        raise TypeError(f"cells takes a Partition, got {type(p).__name__}")
    conj = p.conjugate()
    return tuple(
        Cell(row, col, part - col, conj[col - 1] - row)
        for row, part in enumerate(p, start=1)
        for col in range(1, part + 1)
    )


@lru_cache(maxsize=None, typed=True)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if index(n) < 0:
        raise ValueError("n must be nonnegative")
    return tuple(Partition(parts) for parts in _descending(n, n))


def _descending(left: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Parts of the partitions of left with no part above cap, largest
    first part first."""
    if left == 0:
        yield ()
    for first in range(min(left, cap), 0, -1):
        for rest in _descending(left - first, first):
            yield (first, *rest)


def partitions_through(n: int) -> list[Partition]:
    """All partitions of size 0..n, by degree then reverse-lexicographically."""
    return [p for k in range(n + 1) for p in enumerate_partitions(k)]


def content_polynomial(p: Partition) -> LaurentPolynomial:
    """Sum of q^{content} over the cells; evaluates to |p| at q = 1."""
    return LaurentPolynomial(Counter(Exponent(s=2 * c.content) for c in cells(p)))


def hook_polynomial(p: Partition) -> LaurentPolynomial:
    """h_p = prod over cells of q^{-leg} [hook]_q (1 for the empty diagram).

    [h]_q = (q^h - 1)/(q - 1) is the product of Phi_d(q) over the divisors
    d > 1 of h, so h_p is q^{-sum of legs} times the hook denominator with
    its Phi_1 factors left out.
    """
    shift = -2 * sum(c.leg for c in cells(p))
    return monomial(1, s=shift) * cyclotomic_product(
        {d: e for d, e in hook_denominator(p).items() if d > 1})


def hook_polynomial_qpower_form(p: Partition) -> LaurentPolynomial:
    """Alternate form q^{-sum (i-1) p_i} * prod [hook]_q, kept as an
    independent cross-check of hook_polynomial."""
    shift = -2 * sum((i - 1) * part for i, part in enumerate(p, start=1))
    return product_s([monomial(1, s=shift), *(q_int(c.hook) for c in cells(p))])


@lru_cache(maxsize=None, typed=True)
def addable_cells(p: Partition) -> tuple[tuple[Partition, Cell], ...]:
    """All ways of adding one box: (enlarged partition, the added cell), a
    corner of the enlarged diagram, so its arm and leg are 0."""
    if not isinstance(p, Partition):
        raise TypeError(f"addable_cells takes a Partition, got {type(p).__name__}")
    out = []
    for row, cur in enumerate((*p, 0), start=1):
        if row > 1 and p[row - 2] == cur:
            continue  # adding here would break monotonicity
        grown = list(p)
        if cur:
            grown[row - 1] += 1
        else:
            grown.append(1)
        out.append((Partition(grown), Cell(row, cur + 1, 0, 0)))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def removable_cells(p: Partition) -> tuple[tuple[Partition, Cell], ...]:
    """All ways of removing one corner box: (shrunk partition, the removed
    cell), a corner of p, so its arm and leg are 0."""
    if not isinstance(p, Partition):
        raise TypeError(f"removable_cells takes a Partition, got {type(p).__name__}")
    if not p:
        raise EmptyPartitionError("the empty partition has no removable box")
    out = []
    for row in range(1, len(p) + 1):
        if row < len(p) and p[row] == p[row - 1]:
            continue  # not a corner
        shrunk = list(p)
        shrunk[row - 1] -= 1
        if shrunk[row - 1] == 0:
            shrunk.pop()
        out.append((Partition(shrunk), Cell(row, p[row - 1], 0, 0)))
    return tuple(out)


def parity_sum(p: Partition) -> int:
    """Sum of content + hook + 1 over all cells; always even."""
    return sum(c.content + c.hook + 1 for c in cells(p))


@lru_cache(maxsize=None, typed=True)
def hook_denominator(p: Partition) -> Mapping[int, int]:
    """The hook denominator H_p = prod over cells of (q^{hook} - 1) as
    cyclotomic exponents {d: e}, with H_p = prod over d of Phi_d(q)^e.

    A cell contributes one Phi_d for each divisor d of its hook, so e_1 = |p|,
    and h_p = q^{-sum of legs} H_p / (q - 1)^{|p|}.  The mapping is read-only.
    """
    out: dict[int, int] = {}
    for h, k in Counter([c.hook for c in cells(p)]).items():
        for d in range(1, h + 1):
            if h % d == 0:
                out[d] = out.get(d, 0) + k
    return MappingProxyType(out)


def _branching_sides(mu: Partition) -> tuple[LaurentPolynomial, LaurentPolynomial, dict[int, int]]:
    """The two sides of the polynomial identity that verify_branching
    compares, and the lcm M of the hook denominators as cyclotomic exponents."""
    if not mu:
        raise EmptyPartitionError("branching rule needs at least one box")
    own = hook_denominator(mu)
    removed = [(hook_denominator(lam), cell.row - 1) for lam, cell in removable_cells(mu)]
    lcm = dict(own)
    for exponents, _ in removed:
        for d, e in exponents.items():
            if e > lcm.get(d, 0):
                lcm[d] = e
    lhs_cofactor = {d: e - own.get(d, 0) for d, e in lcm.items()}
    lhs_cofactor[1] += 1  # the factor q - 1 = Phi_1
    lhs = content_polynomial(mu) * cyclotomic_product(lhs_cofactor)
    rhs = LaurentPolynomial()
    for exponents, above in removed:
        cofactor = {d: e - exponents.get(d, 0) for d, e in lcm.items()}
        rhs = rhs + monomial(1, s=-2 * above) * cyclotomic_product(cofactor)
    return lhs, rhs, lcm


def verify_branching(mu: Partition) -> bool:
    """Check the weighted hook-length branching rule for mu exactly:

        c_mu(q) / h_mu(q) == sum over lambda with lambda + box = mu
                             of 1 / h_lambda(q)

    With E_p = hook_denominator(p) and sigma_p = -(sum of legs), each
    h_p = q^{sigma_p} Phi^{E_p} / (q - 1)^{|p|}.  Multiplied through by
    q^{sigma_mu} / (q - 1)^{|mu| - 1}, the rule reads

        c_mu (q - 1) / Phi^{E_mu} == sum of q^{sigma_mu - sigma_lambda} / Phi^{E_lambda},

    and multiplied through by Phi^M, M the elementwise max of E_mu and every
    E_lambda (their lcm), it becomes the polynomial identity

        c_mu (q - 1) Phi^{M - E_mu} == sum of q^{sigma_mu - sigma_lambda} Phi^{M - E_lambda}.

    Every factor multiplied through is a nonzero polynomial, so this holds
    exactly when the rule does.  Removing the box in row r lowers the leg of
    the r - 1 cells above it by one, so sigma_mu - sigma_lambda = -(r - 1).
    branching_difference reads its value off the same two sides.
    """
    lhs, rhs, _ = _branching_sides(mu)
    return lhs == rhs


def branching_difference(mu: Partition) -> RationalFunction:
    """c_mu(q) / h_mu(q) minus the branching sum: zero iff the rule holds.

    The two sides of verify_branching's polynomial identity differ by the
    difference times q^{sigma_mu} Phi^M / (q - 1)^{|mu| - 1}, so dividing
    that factor back out gives it, in the unique reduced form.
    """
    lhs, rhs, lcm = _branching_sides(mu)
    lcm[1] -= mu.size - 1
    legs = sum(c.leg for c in cells(mu))
    return RationalFunction((lhs - rhs) * monomial(1, s=2 * legs), cyclotomic_product(lcm))
