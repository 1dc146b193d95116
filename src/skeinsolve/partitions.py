"""Young-diagram combinatorics: contents, hooks, hook polynomials, branching.

Diagrams use the English convention (rows left-justified, row 1 on top), so
the content of the cell in row i, column j is j - i and the hook of a cell
is the cell itself, its arm (cells to the right in the same row) and its leg
(cells below in the same column).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from typing import Iterable, Iterator

from .ring import (
    LaurentPolynomial,
    ONE,
    RationalFunction,
    monomial,
    q_int,
)


class CellNotInPartitionError(ValueError):
    """The addressed cell lies outside the Young diagram."""


class EmptyPartitionError(ValueError):
    """The operation needs at least one box."""


class Partition:
    """A finite nonincreasing sequence of positive integers.

    The empty sequence is the empty partition; it parses from "" or "0" and
    renders as "".
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be nonincreasing, got {parts}")
        self._parts = parts

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if text in ("", "0"):
            return cls()
        return cls(int(tok) for tok in text.split(","))

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    @property
    def is_empty(self) -> bool:
        return not self._parts

    def row(self, i: int) -> int:
        """Length of 1-based row i (0 beyond the last row)."""
        return self._parts[i - 1] if 1 <= i <= len(self._parts) else 0

    def conjugate(self) -> "Partition":
        if not self._parts:
            return Partition()
        cols = [0] * self._parts[0]
        for p in self._parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def contains(self, row: int, col: int) -> bool:
        return 1 <= row <= len(self._parts) and 1 <= col <= self._parts[row - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self._parts)

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"


EMPTY = Partition()
BOX = Partition((1,))


def partition_sort_key(p: Partition) -> tuple[int, tuple[int, ...]]:
    """Sort key ordering by degree, then reverse-lexicographically within it."""
    return (p.size, tuple(-x for x in p.parts))


@dataclass(frozen=True)
class Cell:
    """One box of a Young diagram with its derived statistics."""

    row: int
    col: int
    arm: int
    leg: int
    coarm: int
    coleg: int

    @property
    def content(self) -> int:
        return self.coarm - self.coleg

    @property
    def hook(self) -> int:
        return self.arm + self.leg + 1


def _make_cell(p: Partition, conj: Partition, row: int, col: int) -> Cell:
    return Cell(
        row=row,
        col=col,
        arm=p.row(row) - col,
        leg=conj.row(col) - row,
        coarm=col - 1,
        coleg=row - 1,
    )


@cache
def cells(p: Partition) -> tuple[Cell, ...]:
    """All cells of the diagram in row-major order."""
    conj = p.conjugate()
    return tuple(
        _make_cell(p, conj, row, col)
        for row in range(1, p.length + 1)
        for col in range(1, p.row(row) + 1)
    )


def cell_at(p: Partition, row: int, col: int) -> Cell:
    if not p.contains(row, col):
        raise CellNotInPartitionError(f"cell ({row},{col}) not in {p.parts}")
    return _make_cell(p, p.conjugate(), row, col)


@cache
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (EMPTY,)
    out = []
    parts = [n]
    while True:
        out.append(Partition(parts))
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            break
        free = len(parts) - i  # the decremented box plus all trailing ones
        parts[i] -= 1
        del parts[i + 1:]
        cap = parts[i]
        while free > 0:
            take = min(cap, free)
            parts.append(take)
            free -= take
    return tuple(out)


def partitions_through(n: int) -> list[Partition]:
    """All partitions of size 0..n, by degree then reverse-lexicographically."""
    return [p for k in range(n + 1) for p in enumerate_partitions(k)]


@cache
def content_polynomial(p: Partition) -> LaurentPolynomial:
    """Sum of q^{content} over the cells; evaluates to |p| at q = 1."""
    out = LaurentPolynomial()
    for c in cells(p):
        out = out + monomial(1, s=2 * c.content)
    return out


def q_hooklength(p: Partition, cell: Cell) -> LaurentPolynomial:
    """Sum of q^{relative content} over the hook of the cell.

    Contents are measured relative to the corner cell, so the arm contributes
    q, ..., q^{arm}, the leg q^{-1}, ..., q^{-leg}, and the cell itself 1.
    Equals q^{-leg} [hook]_q and evaluates to the hook length at q = 1.
    """
    if not p.contains(cell.row, cell.col):
        raise CellNotInPartitionError(f"cell ({cell.row},{cell.col}) not in {p.parts}")
    return LaurentPolynomial(
        {(2 * k, 0, 0, 0): 1 for k in range(-cell.leg, cell.arm + 1)}
    )


@cache
def hook_polynomial(p: Partition) -> LaurentPolynomial:
    """Product of the q-hooklengths over all cells (1 for the empty diagram)."""
    return reduce(
        lambda acc, c: acc * q_hooklength(p, c), cells(p), ONE
    )


def hook_polynomial_qpower_form(p: Partition) -> LaurentPolynomial:
    """Alternate form q^{-sum (i-1) p_i} * prod [hook]_q, kept as an
    independent cross-check of hook_polynomial."""
    shift = -2 * sum((i - 1) * part for i, part in enumerate(p.parts, start=1))
    return reduce(
        lambda acc, c: acc * q_int(c.hook), cells(p), monomial(1, s=shift)
    )


def addable_cells(p: Partition) -> list[tuple[Partition, Cell]]:
    """All ways of adding one box: (enlarged partition, the added cell)."""
    out = []
    parts = p.parts
    for row in range(1, p.length + 2):
        cur = p.row(row)
        if row > 1 and p.row(row - 1) == cur:
            continue  # adding here would break monotonicity
        grown = list(parts)
        if row <= len(parts):
            grown[row - 1] += 1
        else:
            grown.append(1)
        mu = Partition(grown)
        out.append((mu, _make_cell(mu, mu.conjugate(), row, cur + 1)))
    return out


def removable_cells(p: Partition) -> list[tuple[Partition, Cell]]:
    """All ways of removing one corner box: (shrunk partition, the removed cell)."""
    if p.is_empty:
        raise EmptyPartitionError("the empty partition has no removable box")
    out = []
    parts = p.parts
    for row in range(1, p.length + 1):
        if row < len(parts) and parts[row] == parts[row - 1]:
            continue  # not a corner
        shrunk = list(parts)
        shrunk[row - 1] -= 1
        if shrunk[row - 1] == 0:
            shrunk.pop()
        cell = _make_cell(p, p.conjugate(), row, parts[row - 1])
        out.append((Partition(shrunk), cell))
    return out


def parity_sum(p: Partition) -> int:
    """Sum of content + hook + 1 over all cells; always even."""
    return sum(c.content + c.hook + 1 for c in cells(p))


def verify_branching(mu: Partition) -> bool:
    """Check the weighted hook-length branching rule for mu exactly:

        c_mu(q) / h_mu(q) == sum over lambda with lambda + box = mu
                             of 1 / h_lambda(q)

    Verified in cross-multiplied polynomial form, which avoids any gcd work
    at large sizes.
    """
    if mu.is_empty:
        raise EmptyPartitionError("branching rule needs at least one box")
    lam_hooks = [hook_polynomial(lam) for lam, _ in removable_cells(mu)]
    n = len(lam_hooks)
    prefix = [ONE] * (n + 1)
    for i, h in enumerate(lam_hooks):
        prefix[i + 1] = prefix[i] * h
    # suffix[k] = lam_hooks[k] * ... * lam_hooks[n-1]; suffix[0] is never read
    suffix = [ONE] * (n + 1)
    for i in range(n - 1, 0, -1):
        suffix[i] = lam_hooks[i] * suffix[i + 1]
    lhs = content_polynomial(mu) * prefix[n]
    cofactor_sum = LaurentPolynomial()
    for k in range(n):
        cofactor_sum = cofactor_sum + prefix[k] * suffix[k + 1]
    return lhs == hook_polynomial(mu) * cofactor_sum


def branching_sum(mu: Partition) -> RationalFunction:
    """The right-hand side of the branching rule as a rational function."""
    if mu.is_empty:
        raise EmptyPartitionError("branching rule needs at least one box")
    total = RationalFunction(0)
    for lam, _ in removable_cells(mu):
        total = total + RationalFunction(1, hook_polynomial(lam))
    return total


def branching_difference(mu: Partition) -> RationalFunction:
    """c_mu(q) / h_mu(q) minus the branching sum: zero iff the rule holds."""
    return (RationalFunction(content_polynomial(mu), hook_polynomial(mu))
            - branching_sum(mu))
