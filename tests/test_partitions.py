import pytest
from hypothesis import given

from skeinsolve import (
    Cell,
    CellNotInPartitionError,
    EmptyPartitionError,
    Partition,
    Q,
    RationalFunction,
    addable_cells,
    cell_at,
    cells,
    content_polynomial,
    enumerate_partitions,
    hook_polynomial,
    hook_polynomial_qpower_form,
    monomial,
    parity_sum,
    partitions_through,
    q_hooklength,
    removable_cells,
    verify_branching,
)
from skeinsolve.partitions import EMPTY, branching_sum
from skeinsolve.ring import S

from strategies import partitions


def _partitions_descending(n, cap=None):
    """Independent reverse-lexicographic generator used as an oracle."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_descending(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# construction, parsing, enumeration
# ---------------------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 3, 1)).size == 7
    assert Partition((3, 3, 1)).length == 3


def test_partition_parse_render():
    assert Partition.parse("6,4,2").parts == (6, 4, 2)
    assert Partition.parse("").is_empty
    assert Partition.parse("0").is_empty
    assert str(Partition((6, 4, 2))) == "6,4,2"
    assert str(EMPTY) == ""


def test_enumerate_zero():
    assert enumerate_partitions(0) == (EMPTY,)


def test_enumerate_four():
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(11))
def test_enumerate_matches_independent_oracle(n):
    assert [p.parts for p in enumerate_partitions(n)] == list(_partitions_descending(n))


def test_enumerate_eight_count():
    assert len(enumerate_partitions(8)) == 22


# ---------------------------------------------------------------------------
# cells, contents, hooks
# ---------------------------------------------------------------------------


def test_cells_contents_and_hooks_642():
    p = Partition((6, 4, 2))
    assert [c.content for c in cells(p)] == [
        0, 1, 2, 3, 4, 5, -1, 0, 1, 2, -2, -1]
    assert [c.hook for c in cells(p)] == [
        8, 7, 5, 4, 2, 1, 5, 4, 2, 1, 2, 1]


def test_cells_empty():
    assert cells(EMPTY) == ()


def test_cell_at_validates():
    with pytest.raises(CellNotInPartitionError):
        cell_at(Partition((2, 1)), 2, 2)
    c = cell_at(Partition((2, 1)), 1, 1)
    assert (c.arm, c.leg, c.coarm, c.coleg) == (1, 1, 0, 0)
    assert c.hook == 3 and c.content == 0


def test_cell_is_an_immutable_value():
    c = Cell(row=2, col=1, arm=0, leg=0, coarm=0, coleg=1)
    assert (c.content, c.hook) == (-1, 1)
    assert c == cell_at(Partition((2, 1)), 2, 1)
    assert hash(c) == hash(cell_at(Partition((2, 1)), 2, 1))
    assert repr(c) == "Cell(row=2, col=1, arm=0, leg=0, coarm=0, coleg=1)"
    with pytest.raises(AttributeError):
        c.row = 1


def test_content_polynomial_642():
    expected = (monomial(1, s=-4) + 2 * monomial(1, s=-2) + 2
                + 2 * Q + 2 * Q ** 2 + Q ** 3 + Q ** 4 + Q ** 5)
    assert content_polynomial(Partition((6, 4, 2))) == expected


def test_content_polynomial_empty_and_small():
    assert content_polynomial(EMPTY).is_zero
    assert content_polynomial(Partition((2, 1))) == Q ** -1 + 1 + Q


@given(partitions())
def test_content_polynomial_at_one_is_size(p):
    assert content_polynomial(p).evaluate(s=1) == p.size


def test_q_hooklength_examples():
    row2 = Partition((2,))
    assert q_hooklength(row2, cell_at(row2, 1, 1)) == 1 + Q
    assert q_hooklength(row2, cell_at(row2, 1, 2)) == monomial(1)
    col2 = Partition((1, 1))
    assert q_hooklength(col2, cell_at(col2, 1, 1)) == 1 + Q ** -1


def test_q_hooklength_rejects_foreign_cell():
    foreign = cell_at(Partition((3,)), 1, 3)
    with pytest.raises(CellNotInPartitionError):
        q_hooklength(Partition((2,)), foreign)


@given(partitions(max_n=8))
def test_q_hooklength_at_one_is_hook(p):
    for c in cells(p):
        assert q_hooklength(p, c).evaluate(s=1) == c.hook


def test_hook_polynomial_examples():
    assert hook_polynomial(EMPTY) == monomial(1)
    assert hook_polynomial(Partition((2,))) == 1 + Q
    assert hook_polynomial(Partition((1, 1))) == Q ** -1 + 1


@pytest.mark.parametrize("n", range(9))
def test_hook_polynomial_double_formula(n):
    for p in enumerate_partitions(n):
        assert hook_polynomial(p) == hook_polynomial_qpower_form(p)


@pytest.mark.parametrize("n", range(9))
def test_hook_polynomial_palindromic_after_balancing(n):
    s_inv = S ** -1
    for p in enumerate_partitions(n):
        balanced = hook_polynomial(p) * monomial(
            1, s=-sum(c.content for c in cells(p)))
        assert balanced == balanced.substitute({"s": s_inv})


# ---------------------------------------------------------------------------
# adding and removing boxes
# ---------------------------------------------------------------------------


def test_addable_empty():
    [(mu, cell)] = addable_cells(EMPTY)
    assert mu.parts == (1,)
    assert (cell.row, cell.col, cell.content) == (1, 1, 0)


def test_addable_single_box():
    got = [(mu.parts, c.content) for mu, c in addable_cells(Partition((1,)))]
    assert got == [((2,), 1), ((1, 1), -1)]


def test_addable_two_one():
    got = [(mu.parts, c.content) for mu, c in addable_cells(Partition((2, 1)))]
    assert got == [((3, 1), 2), ((2, 2), 0), ((2, 1, 1), -2)]


def test_removable_examples():
    [(lam, cell)] = removable_cells(Partition((1,)))
    assert lam.is_empty and cell.content == 0
    got = [(lam.parts, c.content) for lam, c in removable_cells(Partition((2, 1)))]
    assert got == [((1, 1), 1), ((2,), -1)]
    got = [(lam.parts, c.content) for lam, c in removable_cells(Partition((2, 2)))]
    assert got == [((2, 1), 0)]


def test_removable_rejects_empty():
    with pytest.raises(EmptyPartitionError):
        removable_cells(EMPTY)


@pytest.mark.parametrize("n", range(11))
def test_addable_removable_inverse(n):
    for lam in enumerate_partitions(n):
        for mu, cell in addable_cells(lam):
            pairs = [(l.parts, (c.row, c.col)) for l, c in removable_cells(mu)]
            assert (lam.parts, (cell.row, cell.col)) in pairs
    for mu in enumerate_partitions(n + 1):
        for lam, cell in removable_cells(mu):
            pairs = [(m.parts, (c.row, c.col)) for m, c in addable_cells(lam)]
            assert (mu.parts, (cell.row, cell.col)) in pairs


@pytest.mark.parametrize("n", range(1, 13))
def test_content_polynomial_growth_by_one_box(n):
    # c_mu - c_lambda = q^{content of the added box}
    for mu in enumerate_partitions(n):
        for lam, cell in removable_cells(mu):
            diff = content_polynomial(mu) - content_polynomial(lam)
            assert diff == monomial(1, s=2 * cell.content)


# ---------------------------------------------------------------------------
# parity and branching
# ---------------------------------------------------------------------------


def test_parity_examples():
    assert parity_sum(EMPTY) == 0
    assert parity_sum(Partition((1,))) == 2
    assert parity_sum(Partition((6, 4, 2))) % 2 == 0


@pytest.mark.parametrize("n", range(13))
def test_parity_sum_even(n):
    for p in enumerate_partitions(n):
        assert parity_sum(p) % 2 == 0


def test_branching_small_cases():
    assert verify_branching(Partition((1,)))
    assert verify_branching(Partition((2,)))
    assert verify_branching(Partition((2, 1)))
    # (2,1): 1 = 1/(1+q) + 1/(1+q^{-1}) checked directly
    total = (RationalFunction(1, 1 + Q)
             + RationalFunction(1, 1 + Q ** -1))
    assert total == RationalFunction(1)


def test_branching_rejects_empty():
    with pytest.raises(EmptyPartitionError):
        verify_branching(EMPTY)


@pytest.mark.parametrize("n", range(1, 9))
def test_branching_exhaustive_small(n):
    for mu in enumerate_partitions(n):
        assert verify_branching(mu)


@pytest.mark.parametrize("n", range(1, 7))
def test_branching_agrees_with_rational_sum(n):
    # the cross-multiplied check matches direct rational-function arithmetic
    for mu in enumerate_partitions(n):
        direct = RationalFunction(content_polynomial(mu), hook_polynomial(mu))
        assert branching_sum(mu) == direct


def test_partitions_through_order():
    through = partitions_through(3)
    assert [p.parts for p in through] == [
        (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
