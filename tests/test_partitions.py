import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

import skeinsolve

from skeinsolve import (
    Cell,
    EmptyPartitionError,
    Partition,
    Q,
    RationalFunction,
    addable_cells,
    cells,
    content_polynomial,
    enumerate_partitions,
    hook_polynomial,
    hook_polynomial_qpower_form,
    monomial,
    parity_sum,
    partitions_through,
    removable_cells,
    verify_branching,
)
import skeinsolve.partitions as partitions_mod
from skeinsolve.partitions import BOX, EMPTY, branching_difference, hook_denominator
from skeinsolve.ring import ONE, S, cyclotomic_product
from skeinsolve.verify import run_suite

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
    with pytest.raises(ValueError, match=r"nonincreasing, got \(1, 2\)"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="positive, got 0"):
        Partition((2, 0))
    assert Partition((3, 3, 1)).size == 7
    assert len(Partition((3, 3, 1))) == 3


@pytest.mark.parametrize("parts", [(2.7, 1.2), (2.0, 1), ("3", 1)])
def test_partition_parts_must_be_integers(parts):
    # parts go through operator.index, so (2.7, 1.2) is not truncated to (2, 1)
    with pytest.raises(TypeError):
        Partition(parts)


# Each memoised entry point called on a plain tuple (or 2.0), in a fresh
# process or after the same call on the equal Partition (or 2).
_MEMO_PROBE = """
import json, sys
from skeinsolve import Partition, closed_form, enumerate_partitions
from skeinsolve.partitions import (
    addable_cells, cells, content_polynomial, hook_denominator, hook_polynomial,
    removable_cells)
from skeinsolve.skein import diagonal_part
p = Partition((2, 1))
calls = [(f.__name__, f, p, (2, 1)) for f in (
    cells, content_polynomial, hook_denominator, hook_polynomial,
    addable_cells, removable_cells, diagonal_part)]
calls += [("enumerate_partitions", enumerate_partitions, 2, 2.0),
          ("closed_form", lambda x: closed_form("c3", x), p, (2, 1))]
if sys.argv[1] == "typed-first":
    for _, call, typed, _ in calls:
        call(typed)
out = []
for name, call, _, plain in calls:
    try:
        out.append([name, repr(call(plain))])
    except Exception as e:
        out.append([name, f"{type(e).__name__}: {e}"])
print(json.dumps(out))
"""


def _plain_outcomes(order: str) -> list:
    src = str(Path(skeinsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _MEMO_PROBE, order], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_memoised_functions_answer_a_plain_tuple_whatever_came_first():
    # a tuple equals and hashes like its Partition, and 2.0 like 2, so a
    # memo keyed on them alone would answer only after the typed call
    first, after = _plain_outcomes("plain-first"), _plain_outcomes("typed-first")
    assert first == after
    assert len(first) == 9
    assert all(text.startswith("TypeError: ") for _, text in first), first


def test_partition_is_the_tuple_of_its_parts():
    p = Partition((2, 1))
    assert p == (2, 1) and (2, 1) == p
    assert hash(p) == hash((2, 1))
    assert {(2, 1): "found"}[p] == "found"
    assert p[0] == 2 and tuple(p) == (2, 1) and type(tuple(p)) is tuple
    assert not EMPTY and EMPTY == () and len(EMPTY) == 0
    assert type(Partition([True])[0]) is int
    assert repr(p) == "Partition((2, 1))"
    assert repr(BOX) == "Partition((1,))" and repr(EMPTY) == "Partition(())"


def test_partition_parse_render():
    assert Partition.parse("6,4,2") == (6, 4, 2)
    assert Partition.parse(" 3, 1") == (3, 1)
    assert Partition.parse("03") == (3,)
    assert not Partition.parse("")
    assert not Partition.parse("0")
    assert str(Partition((6, 4, 2))) == "6,4,2"
    assert str(EMPTY) == ""


@pytest.mark.parametrize("text, message", (
    # int() reads the first six as numbers
    ("1_0", "ASCII decimal digits"), ("+3", "ASCII decimal digits"),
    ("\u0663", "ASCII decimal digits"), ("3,\u0663", "ASCII decimal digits"),
    ("3,\u00a01", "ASCII decimal digits"), ("\u00a03", "ASCII decimal digits"),
    ("3,,1", "invalid literal for int"), ("1,2", "nonincreasing"), ("-3", "positive")))
def test_parse_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        Partition.parse(text)


def test_enumerate_zero():
    assert enumerate_partitions(0) == (EMPTY,)


def test_enumerate_four():
    assert list(enumerate_partitions(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(11))
def test_enumerate_matches_independent_oracle(n):
    assert list(enumerate_partitions(n)) == list(_partitions_descending(n))


def test_enumerate_eight_count():
    assert len(enumerate_partitions(8)) == 22


def test_enumerate_rejects_a_negative_int_and_any_float():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)
    for x in (2.0, -1.0):
        with pytest.raises(TypeError):
            enumerate_partitions(x)


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


def test_cell_is_an_immutable_value():
    corner, right, below = cells(Partition((2, 1)))
    assert corner == (1, 1, 1, 1)
    assert corner.hook == 3 and corner.content == 0
    assert (right.row, right.col, right.hook, right.content) == (1, 2, 1, 1)
    c = Cell(row=2, col=1, arm=0, leg=0)
    assert len(c) == 4
    assert (c.content, c.hook) == (-1, 1)
    assert c == below
    assert hash(c) == hash(below)
    assert repr(c) == "Cell(row=2, col=1, arm=0, leg=0)"
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
    assert content_polynomial(p).substitute({"s": 1}) == p.size


def test_hook_polynomial_at_one_is_hook_product():
    for p in partitions_through(7):
        product = 1
        for c in cells(p):
            product *= c.hook
        assert hook_polynomial(p).substitute({"s": 1}) == product, p


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
    assert mu == (1,)
    assert (cell.row, cell.col, cell.content) == (1, 1, 0)


def test_addable_single_box():
    got = [(mu, c.content) for mu, c in addable_cells(Partition((1,)))]
    assert got == [((2,), 1), ((1, 1), -1)]


def test_addable_two_one():
    got = [(mu, c.content) for mu, c in addable_cells(Partition((2, 1)))]
    assert got == [((3, 1), 2), ((2, 2), 0), ((2, 1, 1), -2)]


def test_removable_examples():
    [(lam, cell)] = removable_cells(Partition((1,)))
    assert not lam and cell.content == 0
    got = [(lam, c.content) for lam, c in removable_cells(Partition((2, 1)))]
    assert got == [((1, 1), 1), ((2,), -1)]
    got = [(lam, c.content) for lam, c in removable_cells(Partition((2, 2)))]
    assert got == [((2, 1), 0)]


def test_removable_rejects_empty():
    with pytest.raises(EmptyPartitionError):
        removable_cells(EMPTY)


@pytest.mark.parametrize("n", range(11))
def test_addable_removable_inverse(n):
    for lam in enumerate_partitions(n):
        for mu, cell in addable_cells(lam):
            pairs = [(l, (c.row, c.col)) for l, c in removable_cells(mu)]
            assert (lam, (cell.row, cell.col)) in pairs
    for mu in enumerate_partitions(n + 1):
        for lam, cell in removable_cells(mu):
            pairs = [(m, (c.row, c.col)) for m, c in addable_cells(lam)]
            assert (mu, (cell.row, cell.col)) in pairs


@pytest.mark.parametrize("n", range(9))
def test_added_and_removed_boxes_are_corners_of_the_full_diagram(n):
    # addable_cells and removable_cells build the box without a conjugate;
    # it must be the very cell that cells() reads off the larger diagram
    for p in enumerate_partitions(n):
        for mu, cell in addable_cells(p):
            assert cell in cells(mu) and (cell.arm, cell.leg) == (0, 0), (p, mu)
        for lam, cell in removable_cells(p) if n else ():
            assert cell in cells(p) and (cell.arm, cell.leg) == (0, 0), (p, lam)


@pytest.mark.parametrize("n", range(1, 13))
def test_content_polynomial_growth_by_one_box(n):
    # c_mu - c_lambda = q^{content of the added box}
    for mu in enumerate_partitions(n):
        for lam, cell in removable_cells(mu):
            diff = content_polynomial(mu) - content_polynomial(lam)
            assert diff == monomial(1, s=2 * cell.content)


@pytest.mark.parametrize("n", range(11))
def test_hook_denominator_reproduces_the_hook_product(n):
    for p in enumerate_partitions(n):
        exponents = hook_denominator(p)
        denominator = cyclotomic_product(exponents)
        direct = ONE
        for c in cells(p):
            direct = direct * (S ** (2 * c.hook) - 1)
        assert denominator == direct, p
        assert exponents.get(1, 0) == p.size
        # h_p = q^{sigma_p} H_p / (q - 1)^{|p|}, sigma_p = -(sum of legs)
        sigma = -sum(c.leg for c in cells(p))
        shifted = monomial(1, s=2 * sigma) * denominator
        assert hook_polynomial_qpower_form(p) * (Q - 1) ** p.size == shifted, p


def test_hook_denominator_examples_and_read_only():
    # hooks of (2,2) are 3, 2, 2, 1
    assert dict(hook_denominator(Partition((2, 2)))) == {1: 4, 2: 2, 3: 1}
    assert dict(hook_denominator(EMPTY)) == {}
    with pytest.raises(TypeError):
        hook_denominator(Partition((2, 2)))[1] = 0


def test_hookforms_fails_when_a_cyclotomic_factor_is_dropped(monkeypatch):
    # hook_polynomial is read from hook_denominator, so the hookforms suite
    # checks the vector that the closed forms and the branching rule divide
    # by; the hooks of (3,2) are 4, 3, 1, 2, 1
    dropped = Partition((3, 2))
    original = partitions_mod.hook_denominator

    def without_phi3(p):
        exponents = dict(original(p))
        if p == dropped:
            exponents[3] -= 1
        return exponents

    original.cache_clear()
    monkeypatch.setattr(partitions_mod, "hook_denominator", without_phi3)
    try:
        report = run_suite("hookforms", 6)
    finally:
        original.cache_clear()
    assert not report.passed
    assert report.first_counterexample.startswith(
        "double formula, partition=(3,2) ")


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


def test_branching_fails_when_a_cyclotomic_factor_is_dropped(monkeypatch):
    # (2,2) is a removable lambda of (3,2) but not of (4,1); dropping its
    # Phi_3 replaces 1/h_lambda by Phi_3/h_lambda in the rule
    dropped = Partition((2, 2))
    original = partitions_mod.hook_denominator

    def without_phi3(p):
        exponents = dict(original(p))
        if p == dropped:
            exponents[3] -= 1
        return exponents

    monkeypatch.setattr(partitions_mod, "hook_denominator", without_phi3)
    assert not verify_branching(Partition((3, 2)))
    assert verify_branching(Partition((4, 1)))


def test_branching_does_not_expand_hook_polynomials(monkeypatch):
    def refuse(p):
        raise AssertionError("hook_polynomial called")

    monkeypatch.setattr(partitions_mod, "hook_polynomial", refuse)
    through_six = partitions_through(6)[1:]
    assert all(verify_branching(mu) for mu in through_six)
    assert all(branching_difference(mu) == 0 for mu in through_six)


def _rational_branching_sum(mu):
    return sum((RationalFunction(1, hook_polynomial(lam)) for lam, _ in removable_cells(mu)),
               RationalFunction(0))


@pytest.mark.parametrize("n", range(1, 7))
def test_branching_agrees_with_rational_sum(n):
    # the polynomial check matches direct rational-function arithmetic
    for mu in enumerate_partitions(n):
        direct = RationalFunction(content_polynomial(mu), hook_polynomial(mu))
        assert _rational_branching_sum(mu) == direct


@pytest.mark.parametrize("mutate", [lambda c: c + 1, lambda c: 2 * c],
                         ids=["plus-one", "doubled"])
def test_branching_difference_matches_the_rational_difference(monkeypatch, mutate):
    # with a wrong content polynomial the difference read off the polynomial
    # identity equals c'_mu / h_mu minus the sum, computed directly
    content = partitions_mod.content_polynomial
    monkeypatch.setattr(partitions_mod, "content_polynomial", lambda p: mutate(content(p)))
    for mu in partitions_through(6)[1:]:
        direct = (RationalFunction(mutate(content(mu)), hook_polynomial(mu))
                  - _rational_branching_sum(mu))
        assert branching_difference(mu) == direct


def test_partitions_through_order():
    through = partitions_through(3)
    assert through == [
        (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
