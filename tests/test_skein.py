import pytest
from hypothesis import given, settings

from skeinsolve import (
    A,
    AL,
    G,
    Generator,
    OperatorExpression,
    PRESETS,
    Partition,
    Q,
    RationalFunction,
    SkeinVector,
    UNKNOT_VALUE,
    ZERO,
    Z_BRACKET,
    apply_p01,
    apply_p10,
    apply_p11,
    apply_unknot,
    cells,
    enumerate_partitions,
    hook_content_vector,
    monomial,
    partitions_through,
    q_int,
)
from skeinsolve.partitions import BOX, EMPTY
from skeinsolve.skein import (
    P01_OP,
    P10_OP,
    P11_OP,
    UNKNOT_OP,
    _APPLY,
    box_weight,
    diagonal_part,
)

from strategies import rational_functions

W = SkeinVector.basis


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def test_vector_drops_zeros_and_validates_degree():
    v = SkeinVector({EMPTY: RationalFunction(0), BOX: RationalFunction(1)}, 1)
    assert v.partitions() == [BOX]
    with pytest.raises(ValueError, match=r"^partition \(2, 1\) exceeds max_degree 2$"):
        SkeinVector({Partition((2, 1)): RationalFunction(1)}, 2)


def test_vector_item_order():
    v = SkeinVector({p: RationalFunction(1) for p in enumerate_partitions(4)}, 4)
    assert [p for p, _ in v.items()] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_vector_arithmetic():
    v = W(EMPTY, 1) + W(BOX, 1).scale(G)
    assert v.coefficient(BOX) == RationalFunction(G)
    assert (v - v).is_zero
    with pytest.raises(ValueError):
        W(EMPTY, 1) + W(EMPTY, 2)


# ---------------------------------------------------------------------------
# generator actions
# ---------------------------------------------------------------------------


def test_unknot_scales():
    assert apply_unknot(W(EMPTY)) == W(EMPTY).scale(UNKNOT_VALUE)
    assert apply_unknot(SkeinVector.zero(3)).is_zero
    v = W(EMPTY, 1) + W(BOX, 1)
    assert apply_unknot(v) == v.scale(UNKNOT_VALUE)


def test_p10_on_empty_is_unknot_value():
    assert apply_p10(W(EMPTY)) == W(EMPTY).scale(UNKNOT_VALUE)


def test_p10_on_box():
    expected = UNKNOT_VALUE + RationalFunction(AL * Z_BRACKET)
    assert apply_p10(W(BOX)) == W(BOX).scale(expected)


def test_p10_minus_unknot_on_row_two():
    # (P10 - unknot) W_(2) = aL z (1+q) W_(2)
    p2 = Partition((2,))
    diff = (P10_OP - UNKNOT_OP).apply(W(p2))
    assert diff == W(p2).scale(AL * Z_BRACKET * (1 + Q))


def test_p10_minus_unknot_is_the_diagonal_part():
    # aL z sum of q^{content}, written out from the cells
    diff = P10_OP - UNKNOT_OP
    for p in partitions_through(4):
        expected = AL * Z_BRACKET * sum(
            (monomial(1, s=2 * c.content) for c in cells(p)), ZERO)
        assert diagonal_part(p) == expected, p
        assert diff.apply(W(p)) == W(p).scale(expected), p


@pytest.mark.parametrize("gen", (Generator.UNKNOT, Generator.P10))
def test_box_weight_rejects_a_generator_that_adds_no_box(gen):
    [cell] = cells(BOX)
    with pytest.raises(ValueError):
        box_weight(gen, cell)


def test_p01_branches():
    assert apply_p01(W(EMPTY, 1)) == W(BOX, 1)
    got = apply_p01(W(BOX, 2))
    assert got == SkeinVector(
        {Partition((2,)): RationalFunction(1),
         Partition((1, 1)): RationalFunction(1)}, 2)
    got = apply_p01(W(Partition((2, 1)), 4))
    assert got.partitions() == [
        Partition((3, 1)), Partition((2, 2)), Partition((2, 1, 1))]
    assert all(v == RationalFunction(1) for _, v in got.items())


def test_p01_truncates_at_max_degree():
    assert apply_p01(W(BOX, 1)).is_zero


def test_p11_per_box_weights():
    assert apply_p11(W(EMPTY, 1)) == W(BOX, 1).scale(AL)
    got = apply_p11(W(BOX, 2))
    expected = SkeinVector(
        {Partition((2,)): RationalFunction(AL * Q),
         Partition((1, 1)): RationalFunction(AL * Q ** -1)}, 2)
    assert got == expected


def test_p11_matches_commutator_at_two_one():
    p = Partition((2, 1))
    basis = W(p, p.size + 1)
    bracket = OperatorExpression.commutator(P10_OP, P01_OP).apply(basis)
    assert P11_OP.scale(Z_BRACKET).apply(basis) == bracket


@pytest.mark.parametrize("n", range(7))
def test_commutator_identity(n):
    bracket_op = OperatorExpression.commutator(P10_OP, P01_OP)
    scaled = P11_OP.scale(Z_BRACKET)
    for p in enumerate_partitions(n):
        basis = W(p, n + 1)
        assert scaled.apply(basis) == bracket_op.apply(basis)


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------


def test_unknot_minus_p10_kills_empty():
    assert (UNKNOT_OP - P10_OP).apply(W(EMPTY)).is_zero


def test_degree_one_annihilation():
    # (unknot - P10 + aL g P01) kills 1 + (g/z) W_box through degree 1
    op = UNKNOT_OP - P10_OP + P01_OP.scale(AL * G)
    psi = SkeinVector(
        {EMPTY: RationalFunction(1), BOX: RationalFunction(G, Z_BRACKET)}, 1)
    assert op.apply(psi).is_zero


def test_operator_collects_terms():
    op = P10_OP + P10_OP.scale(2) - P10_OP.scale(3)
    assert op == OperatorExpression()
    assert (P10_OP - P10_OP).apply(W(BOX)).is_zero


def test_operator_composition_order():
    # P01 after P10 scales by the eigenvalue of the source partition
    v = W(BOX, 2)
    composed = P01_OP.compose(P10_OP).apply(v)
    assert composed == apply_p01(apply_p10(v))
    other = P10_OP.compose(P01_OP).apply(v)
    assert other == apply_p10(apply_p01(v))
    assert composed != other


@pytest.mark.parametrize("n", range(9))
def test_unknot_is_central(n):
    for p in enumerate_partitions(n):
        basis = W(p, n + 1)
        for gen_op in (P10_OP, P01_OP, P11_OP):
            left = UNKNOT_OP.compose(gen_op).apply(basis)
            right = gen_op.compose(UNKNOT_OP).apply(basis)
            assert left == right


def test_degree_discipline():
    for p in enumerate_partitions(3):
        basis = W(p, 5)
        for op, shift in ((UNKNOT_OP, 0), (P10_OP, 0), (P01_OP, 1), (P11_OP, 1)):
            image = op.apply(basis)
            assert all(mu.size == p.size + shift for mu in image.partitions())


@given(rational_functions(), rational_functions())
@settings(max_examples=25, deadline=None)
def test_generator_linearity(x, y):
    v = W(EMPTY, 2).scale(x) + W(BOX, 2).scale(y)
    for gen in Generator:
        image = _APPLY[gen](v)
        split = (_APPLY[gen](W(EMPTY, 2)).scale(x)
                 + _APPLY[gen](W(BOX, 2)).scale(y))
        assert image == split


def test_operator_rendering_deterministic():
    op = UNKNOT_OP - P10_OP + P01_OP.scale(AL * G)
    assert str(op) == str(UNKNOT_OP - P10_OP + P01_OP.scale(AL * G))
    assert "P10" in str(op) and "O" in str(op)


# ---------------------------------------------------------------------------
# apply, one basis vector at a time, against whole-vector composition
# ---------------------------------------------------------------------------


def _whole_vector_apply(op: OperatorExpression, v: SkeinVector) -> SkeinVector:
    """Every generator of every word run over the whole vector, each word's
    image scaled by its coefficient, and the images added."""
    total = SkeinVector.zero(v.max_degree)
    for coeff, word in op._terms:
        cur = v
        for gen in reversed(word):
            cur = _APPLY[gen](cur)
        total = total + cur.scale(coeff)
    return total


@pytest.mark.parametrize("tag", sorted(PRESETS))
def test_apply_matches_whole_vector_composition_on_psi(tag):
    geom = PRESETS[tag]
    psi = hook_content_vector(geom, 8)
    raising = P01_OP.scale(geom.x) + P11_OP.scale(geom.y)
    for op in (geom.operator, raising):
        image = op.apply(psi)
        assert image == _whole_vector_apply(op, psi)
        assert image.max_degree == 8
    # the raising part is the diagonal part's image, so it is not zero
    assert not raising.apply(psi).is_zero


def test_apply_matches_whole_vector_composition_under_truncation():
    # denominators that are not Z_BRACKET's, and two raising generators in
    # a row, so the terms of degrees 3 and 4 are dropped at max_degree 4
    v = SkeinVector({p: RationalFunction(G + k, q_int(k + 2) * (1 + Q ** 3))
                     for k, p in enumerate(partitions_through(4))}, 4)
    op = (P01_OP.compose(P11_OP).scale(A) - P10_OP.compose(P01_OP)
          + UNKNOT_OP.scale(G) + OperatorExpression([(AL, ())]))
    image = op.apply(v)
    assert image == _whole_vector_apply(op, v)
    assert max(p.size for p in image.partitions()) == 4
    assert image.max_degree == 4


def test_apply_to_the_zero_vector():
    op = UNKNOT_OP - P10_OP + P01_OP.compose(P11_OP)
    image = op.apply(SkeinVector.zero(5))
    assert image.is_zero and image.max_degree == 5
    assert image == _whole_vector_apply(op, SkeinVector.zero(5))


def test_commutator_matches_whole_vector_composition_through_six():
    bracket = OperatorExpression.commutator(P10_OP, P01_OP)
    scaled = P11_OP.scale(Z_BRACKET)
    for p in partitions_through(6):
        basis = W(p, p.size + 1)
        lhs, rhs = scaled.apply(basis), bracket.apply(basis)
        assert lhs == _whole_vector_apply(scaled, basis), p
        assert rhs == _whole_vector_apply(bracket, basis), p
        assert lhs == rhs, p
