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
    S,
    SkeinVector,
    UNKNOT_VALUE,
    ZERO,
    Z_BRACKET,
    cells,
    enumerate_partitions,
    hook_content_vector,
    monomial,
    partitions_through,
    q_int,
)
from skeinsolve.partitions import BOX, EMPTY, addable_cells
from skeinsolve.skein import (
    P01_OP,
    P10_OP,
    P11_OP,
    UNKNOT_OP,
    box_weight,
    diagonal_part,
)

from strategies import rational_functions

W = SkeinVector.basis


def act(gen: Generator, v: SkeinVector) -> SkeinVector:
    return OperatorExpression.generator(gen).apply(v)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def test_vector_drops_zeros_and_validates_degree():
    v = SkeinVector({EMPTY: RationalFunction(0), BOX: RationalFunction(1)}, 1)
    assert v.partitions() == [BOX]
    with pytest.raises(ValueError, match=r"^partition \(2, 1\) exceeds max_degree 2$"):
        SkeinVector({Partition((2, 1)): RationalFunction(1)}, 2)
    with pytest.raises(ValueError, match="^max_degree must be nonnegative$"):
        SkeinVector({}, -1)


@pytest.mark.parametrize("key", ((1,), (), "1", 1))
def test_vector_keys_must_be_partitions(key):
    with pytest.raises(TypeError, match=(
            f"^SkeinVector keys must be Partitions, got {type(key).__name__}$")):
        SkeinVector({key: 1}, 2)


@pytest.mark.parametrize("degree", (2.5, 2.0, "2", None))
def test_vector_max_degree_must_be_an_integer(degree):
    with pytest.raises(TypeError):
        SkeinVector({BOX: 1}, degree)


def test_vector_max_degree_is_read_as_an_int():
    v = SkeinVector({BOX: 1}, True)
    assert type(v.max_degree) is int and v.max_degree == 1


def test_vector_item_order():
    v = SkeinVector({p: RationalFunction(1) for p in enumerate_partitions(4)}, 4)
    assert [p for p, _ in v.items()] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_vector_arithmetic():
    v = W(EMPTY, 1) + W(BOX, 1).scale(G)
    assert v.coefficient(BOX) == RationalFunction(G)
    assert (v - v).is_zero
    assert (W(BOX, 1) - v) == W(EMPTY, 1).scale(-1) + W(BOX, 1).scale(1 - G)
    assert W(BOX, 1) != W(BOX, 2)
    with pytest.raises(ValueError):
        W(EMPTY, 1) + W(EMPTY, 2)


# ---------------------------------------------------------------------------
# generator actions
# ---------------------------------------------------------------------------


def test_unknot_scales():
    O = Generator.UNKNOT
    assert act(O, W(EMPTY)) == W(EMPTY).scale(UNKNOT_VALUE)
    assert act(O, SkeinVector({}, 3)).is_zero
    v = W(EMPTY, 1) + W(BOX, 1)
    assert act(O, v) == v.scale(UNKNOT_VALUE)


def test_p10_on_empty_is_unknot_value():
    assert act(Generator.P10, W(EMPTY)) == W(EMPTY).scale(UNKNOT_VALUE)


def test_p10_on_box():
    expected = UNKNOT_VALUE + RationalFunction(AL * Z_BRACKET)
    assert act(Generator.P10, W(BOX)) == W(BOX).scale(expected)


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
    with pytest.raises(ValueError):
        box_weight(gen, 0)


def test_p01_branches():
    assert act(Generator.P01, W(EMPTY, 1)) == W(BOX, 1)
    got = act(Generator.P01, W(BOX, 2))
    assert got == SkeinVector(
        {Partition((2,)): RationalFunction(1),
         Partition((1, 1)): RationalFunction(1)}, 2)
    got = act(Generator.P01, W(Partition((2, 1)), 4))
    assert got.partitions() == [
        Partition((3, 1)), Partition((2, 2)), Partition((2, 1, 1))]
    assert all(v == RationalFunction(1) for _, v in got.items())


def test_p01_truncates_at_max_degree():
    assert act(Generator.P01, W(BOX, 1)).is_zero
    image = act(Generator.P01, W(BOX, 1) + W(EMPTY, 1))
    assert image.partitions() == [BOX] and image.max_degree == 1


def test_p11_truncates_at_max_degree():
    assert act(Generator.P11, W(BOX, 1)).is_zero
    image = act(Generator.P11, W(BOX, 1) + W(EMPTY, 1).scale(G))
    assert image == W(BOX, 1).scale(G * AL)


def test_p11_per_box_weights():
    assert act(Generator.P11, W(EMPTY, 1)) == W(BOX, 1).scale(AL)
    got = act(Generator.P11, W(BOX, 2))
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
    assert composed == P01_OP.apply(P10_OP.apply(v))
    other = P10_OP.compose(P01_OP).apply(v)
    assert other == P10_OP.apply(P01_OP.apply(v))
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
        image = act(gen, v)
        split = act(gen, W(EMPTY, 2)).scale(x) + act(gen, W(BOX, 2)).scale(y)
        assert image == split
        assert image == _generator_on_vector(gen, v)


def test_operator_rendering_deterministic():
    op = UNKNOT_OP - P10_OP + P01_OP.scale(AL * G)
    assert str(op) == str(UNKNOT_OP - P10_OP + P01_OP.scale(AL * G))
    assert "P10" in str(op) and "O" in str(op)


@pytest.mark.parametrize("tag, text", (
    ("c3", "O + (γ aL) P01 - P10"),
    ("unknot", "O + (γ a aL) P01 - P10 - (γ a^{-1}) P11"),
    ("unknot-prime", "O - (γ a^{-1} aL) P01 - P10 + (γ a) P11")))
def test_preset_operator_text(tag, text):
    assert str(PRESETS[tag].operator) == text


@pytest.mark.parametrize("op, text", (
    (OperatorExpression(), "0"),
    (P01_OP.scale(-AL * G), "-(γ aL) P01"),
    (P11_OP.scale(-3), "-3 P11"),
    (P01_OP.scale(A - G), "(-γ + a) P01"),
    (OperatorExpression.commutator(P10_OP, P01_OP), "-P01∘P10 + P10∘P01"),
    (OperatorExpression.commutator(P11_OP, P10_OP).scale(S),
     "-q^{1/2} P10∘P11 + q^{1/2} P11∘P10"),
    # the identity word prints as its coefficient
    (OperatorExpression([(1, ())]), "1"),
    (OperatorExpression([(1, ()), (1, (Generator.P01,))]), "1 + P01"),
    (OperatorExpression([(-1, ())]), "-1"),
    (OperatorExpression([(-G, ())]), "-γ"),
    (OperatorExpression([(G + A, ()), (-AL, (Generator.P01,))]), "γ + a - aL P01")))
def test_operator_text(op, text):
    assert str(op) == text
    assert repr(op) == f"OperatorExpression({text!r})"


@pytest.mark.parametrize("c", (RationalFunction(1, S + 1), "x"))
def test_operator_scale_rejects_a_non_polynomial(c):
    with pytest.raises(TypeError, match="^operator coefficients must be Laurent polynomials$"):
        P01_OP.scale(c)


@pytest.mark.parametrize("word, bad", (
    (("P01",), "'P01'"), ((Generator.P01, 3), "3"), ("P01", "'P'")))
def test_operator_words_must_be_generators(word, bad):
    with pytest.raises(TypeError, match=f"^operator words must hold Generators, got {bad} in "):
        OperatorExpression([(1, word)])


# ---------------------------------------------------------------------------
# apply, one basis vector at a time, against whole-vector composition
# ---------------------------------------------------------------------------


def _generator_on_vector(gen: Generator, v: SkeinVector) -> SkeinVector:
    """One generator over a whole vector in RationalFunction arithmetic,
    written out from UNKNOT_VALUE, diagonal_part, addable_cells and
    box_weight, and truncated at v's degree."""
    out: dict[Partition, RationalFunction] = {}
    for lam, coeff in v.items():
        if gen is Generator.UNKNOT:
            images = [(lam, UNKNOT_VALUE)]
        elif gen is Generator.P10:
            images = [(lam, UNKNOT_VALUE + diagonal_part(lam))]
        elif lam.size < v.max_degree:
            images = [(mu, RationalFunction(box_weight(gen, cell.content)))
                      for mu, cell in addable_cells(lam)]
        else:
            images = []
        for mu, value in images:
            out[mu] = out.get(mu, RationalFunction(0)) + coeff * value
    return SkeinVector(out, v.max_degree)


def _whole_vector_apply(op: OperatorExpression, v: SkeinVector) -> SkeinVector:
    """Every generator of every word run over the whole vector, each word's
    image scaled by its coefficient, and the images added."""
    total = SkeinVector({}, v.max_degree)
    for coeff, word in op._terms:
        cur = v
        for gen in reversed(word):
            cur = _generator_on_vector(gen, cur)
        total = total + cur.scale(coeff)
    return total


# repeated O and P10 in one word, and words of different D-powers landing on
# the same partition
_MIXED_WORDS = (P10_OP.compose(P10_OP).compose(P01_OP) - P11_OP.compose(P10_OP)
                + UNKNOT_OP.compose(UNKNOT_OP))


def test_mixed_words_text():
    assert str(_MIXED_WORDS) == "O∘O - P11∘P10 + P10∘P10∘P01"


@pytest.mark.parametrize("extra", (0, 1, 2))
def test_mixed_words_on_every_basis_vector_through_six(extra):
    for p in partitions_through(6):
        basis = W(p, p.size + extra)
        image = _MIXED_WORDS.apply(basis)
        assert image == _whole_vector_apply(_MIXED_WORDS, basis), p
        assert image.max_degree == p.size + extra


@pytest.mark.parametrize("tag", sorted(PRESETS))
def test_mixed_words_on_psi(tag):
    psi = hook_content_vector(PRESETS[tag], 6)
    image = _MIXED_WORDS.apply(psi)
    assert image == _whole_vector_apply(_MIXED_WORDS, psi)
    assert not image.is_zero


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
    image = op.apply(SkeinVector({}, 5))
    assert image.is_zero and image.max_degree == 5
    assert image == _whole_vector_apply(op, SkeinVector({}, 5))


def test_commutator_matches_whole_vector_composition_through_six():
    bracket = OperatorExpression.commutator(P10_OP, P01_OP)
    scaled = P11_OP.scale(Z_BRACKET)
    for p in partitions_through(6):
        basis = W(p, p.size + 1)
        lhs, rhs = scaled.apply(basis), bracket.apply(basis)
        assert lhs == _whole_vector_apply(scaled, basis), p
        assert rhs == _whole_vector_apply(bracket, basis), p
        assert lhs == rhs, p
