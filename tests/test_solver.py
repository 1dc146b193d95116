import pytest

from skeinsolve import (
    A,
    AL,
    CoefficientTemplate,
    G,
    Generator,
    Geometry,
    GeometryTag,
    NoSolutionError,
    OperatorExpression,
    Partition,
    Q,
    RationalFunction,
    S,
    SkeinVector,
    UnknotBranch,
    Z_BRACKET,
    c3_template,
    closed_form,
    closed_form_c3,
    closed_form_unknot,
    colored_unknot_invariant,
    content_polynomial,
    enumerate_partitions,
    geometry,
    monomial,
    partitions_through,
    solve_monomial_coefficients,
    solve_recursion,
    swap_symmetry_check,
    unknot_template,
    verify_annihilation,
)
from skeinsolve.partitions import BOX, EMPTY
from skeinsolve.ring import Exponent, SignedMonomial
from skeinsolve.skein import P01_OP, P10_OP, P11_OP, UNKNOT_OP


# ---------------------------------------------------------------------------
# recursion solutions at low degree
# ---------------------------------------------------------------------------


def test_c3_degree_one():
    psi = solve_recursion("c3", 1)
    assert psi.coefficient(EMPTY) == RationalFunction(1)
    assert psi.coefficient(BOX) == RationalFunction(G, Z_BRACKET)


def test_unknot_degree_one():
    psi = solve_recursion("unknot", 1)
    assert psi.coefficient(BOX) == RationalFunction(G * (A - A ** -1), Z_BRACKET)


def test_c3_degree_two_by_hand():
    # one recursion step: psi_(2) = g * psi_box / (z c_(2)) = g^2/(z^2 (1+q))
    psi = solve_recursion("c3", 2)
    expected = RationalFunction(monomial(1, g=2), Z_BRACKET ** 2 * (1 + Q))
    assert psi.coefficient(Partition((2,))) == expected


@pytest.mark.parametrize("tag", ("c3", "unknot", "unknot-prime"))
def test_recursion_matches_closed_form_through_five(tag):
    psi = solve_recursion(tag, 5)
    for p in partitions_through(5):
        assert psi.coefficient(p) == closed_form(tag, p), p


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_c3_examples():
    assert closed_form_c3(EMPTY) == RationalFunction(1)
    assert closed_form_c3(BOX) == RationalFunction(G, Z_BRACKET)
    # cells of (2): (content, hook) = (0,2), (1,1)
    expected = RationalFunction(
        monomial(1, s=-1, g=2), (Q - Q ** -1) * Z_BRACKET)
    assert closed_form_c3(Partition((2,))) == expected


def test_closed_form_unknot_examples():
    assert closed_form_unknot(EMPTY, UnknotBranch.PLAIN) == RationalFunction(1)
    assert closed_form_unknot(BOX, UnknotBranch.PLAIN) == RationalFunction(
        G * (A - A ** -1), Z_BRACKET)
    expected = RationalFunction(
        monomial(1, g=2) * (A - A ** -1) * (A * S ** -1 - A ** -1 * S),
        (Q - Q ** -1) * Z_BRACKET)
    assert closed_form_unknot(Partition((2,)), UnknotBranch.PLAIN) == expected


def test_colored_unknot_invariant_examples():
    assert colored_unknot_invariant(EMPTY) == RationalFunction(1)
    assert colored_unknot_invariant(BOX) == RationalFunction(A - A ** -1, Z_BRACKET)
    # cells of (1,1): (content, hook) = (0,2), (-1,1) in the primed branch
    expected = RationalFunction(
        (A - A ** -1) * (A * S ** -1 - A ** -1 * S),
        (Q - Q ** -1) * Z_BRACKET)
    assert colored_unknot_invariant(Partition((1, 1))) == expected


@pytest.mark.parametrize("n", range(7))
def test_prime_form_is_scaled_invariant(n):
    for p in enumerate_partitions(n):
        assert closed_form_unknot(p, UnknotBranch.PRIME) == RationalFunction(
            monomial(1, g=p.size)) * colored_unknot_invariant(p)


def _det(rows):
    # expansion along the first row: ring operations only, since a quotient
    # by an entry with a in its numerator is not a RationalFunction
    if not rows:
        return RationalFunction(1)
    total = RationalFunction(0)
    for j, entry in enumerate(rows[0]):
        if not entry.is_zero:
            term = entry * _det([row[:j] + row[j + 1:] for row in rows[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def _one_row_invariant(k):
    if k < 0:
        return RationalFunction(0)
    return colored_unknot_invariant(Partition((k,)) if k else EMPTY)


@pytest.mark.parametrize("n", range(8))
def test_invariant_satisfies_jacobi_trudi(n):
    # W_lambda = det(W_(lambda_i - i + j)), from one-row values alone
    for p in enumerate_partitions(n):
        matrix = [[_one_row_invariant(p.parts[i] - i + j) for j in range(p.length)]
                  for i in range(p.length)]
        assert _det(matrix) == colored_unknot_invariant(p), p


@pytest.mark.parametrize("n", range(1, 11))
def test_branching_linkage_for_c3_form(n):
    # c_mu * cf(mu) * z / g = sum of cf(lambda) over one-box removals
    from skeinsolve.partitions import removable_cells

    for mu in enumerate_partitions(n):
        lhs = (RationalFunction(content_polynomial(mu)) * closed_form_c3(mu)
               * RationalFunction(Z_BRACKET, G))
        rhs = sum((closed_form_c3(lam) for lam, _ in removable_cells(mu)),
                  RationalFunction(0))
        assert lhs == rhs, mu


# ---------------------------------------------------------------------------
# annihilation
# ---------------------------------------------------------------------------


def test_annihilation_degree_zero():
    assert verify_annihilation("c3", solve_recursion("c3", 0))


@pytest.mark.parametrize("tag", ("c3", "unknot", "unknot-prime"))
def test_annihilation_through_six(tag):
    assert verify_annihilation(tag, solve_recursion(tag, 6))


def test_annihilation_detects_perturbation():
    psi = solve_recursion("c3", 2)
    perturbed = SkeinVector(
        {p: v for p, v in psi.items()}, psi.max_degree)
    bad = perturbed + SkeinVector({BOX: RationalFunction(1)}, psi.max_degree)
    assert not verify_annihilation("c3", bad)


@pytest.mark.parametrize("tag", ("c3", "unknot", "unknot-prime"))
def test_uniqueness_via_generic_reconstruction(tag):
    # Read through the operator alone, its diagonal part O - P10 is nonzero
    # on every nonempty partition, so A psi = 0 fixes each coefficient from
    # the degree below it and the normalized solution is unique.
    op = geometry(tag).operator
    for p in partitions_through(4)[1:]:
        assert not op.apply(SkeinVector.basis(p)).coefficient(p).is_zero, p


def test_scaling_invariance():
    scaled = geometry("c3").operator.scale(-monomial(1, aL=2, g=1))
    assert scaled.apply(solve_recursion("c3", 4)).is_zero


def test_unknot_scalar_insensitivity():
    # replacing the unknot evaluation by any other scalar changes nothing
    other = RationalFunction(monomial(5, s=3) - monomial(2, s=-1), 1 + Q)
    assert verify_annihilation("unknot", solve_recursion("unknot", 4), other)


# ---------------------------------------------------------------------------
# orientation-swap symmetry
# ---------------------------------------------------------------------------


def test_swap_symmetry_trivial_degrees():
    assert swap_symmetry_check(0)
    assert swap_symmetry_check(1)


def test_swap_symmetry_moderate():
    assert swap_symmetry_check(5)


# ---------------------------------------------------------------------------
# signed-monomial coefficient solving
# ---------------------------------------------------------------------------


def test_c3_coefficients_unique():
    [solution] = solve_monomial_coefficients(c3_template())
    assert solution[Generator.P10] == SignedMonomial(-1, Exponent())
    assert solution[Generator.P01] == SignedMonomial(1, Exponent(aL=1, g=1))


def test_unknot_coefficients_two_branches():
    solutions = solve_monomial_coefficients(unknot_template())
    as_sets = {
        tuple(sorted((gen.value, sm.sign, sm.exponent) for gen, sm in sol.items()))
        for sol in solutions
    }
    branch_one = (
        ("P01", 1, Exponent(a=1, aL=1, g=1)),
        ("P10", -1, Exponent()),
        ("P11", -1, Exponent(a=-1, g=1)),
    )
    branch_two = (
        ("P01", -1, Exponent(a=-1, aL=1, g=1)),
        ("P10", -1, Exponent()),
        ("P11", 1, Exponent(a=1, g=1)),
    )
    assert as_sets == {branch_one, branch_two}
    assert len(solutions) == 2


def test_coefficient_template_defaults():
    template = CoefficientTemplate(unknowns=(Generator.P01,),
                                   psi_box=RationalFunction(G, Z_BRACKET))
    assert template.psi_empty == RationalFunction(1)
    assert template.fixed == ()
    assert template.exponent_bound == 2
    assert template == CoefficientTemplate(
        (Generator.P01,), RationalFunction(G, Z_BRACKET), RationalFunction(1), (), 2)
    with pytest.raises(AttributeError):
        template.exponent_bound = 3


def test_no_solution_without_box_term():
    template = CoefficientTemplate(
        unknowns=(Generator.P01,),
        psi_box=RationalFunction(0),
        fixed=((Generator.P10, -monomial(1)),),
    )
    with pytest.raises(NoSolutionError):
        solve_monomial_coefficients(template)


def _assembled(solution) -> OperatorExpression:
    return UNKNOT_OP + OperatorExpression(
        [(sm.to_polynomial(), (gen,)) for gen, sm in solution.items()])


def test_solved_operators_annihilate_their_geometries():
    # assembled operators from the solved coefficients match the presets
    [sol] = solve_monomial_coefficients(c3_template())
    geom = geometry("c3")
    op = _assembled(sol)
    assert op.apply(solve_recursion(geom, 3)).is_zero
    assert op == geom.operator
    unknot_ops = {_assembled(sol)
                  for sol in solve_monomial_coefficients(unknot_template())}
    assert unknot_ops == {geometry("unknot").operator,
                          geometry("unknot-prime").operator}


def test_unknown_cannot_be_unknot():
    with pytest.raises(ValueError):
        solve_monomial_coefficients(CoefficientTemplate(
            unknowns=(Generator.UNKNOT,), psi_box=RationalFunction(0)))


# ---------------------------------------------------------------------------
# geometry presets
# ---------------------------------------------------------------------------


def test_geometry_operators_match_displays():
    assert geometry("c3").operator == (
        UNKNOT_OP - P10_OP + P01_OP.scale(AL * G))
    assert geometry("unknot").operator == (
        UNKNOT_OP - P10_OP
        + P01_OP.scale(G * AL * A) - P11_OP.scale(G * A ** -1))
    assert geometry("unknot-prime").operator == (
        UNKNOT_OP - P10_OP
        - P01_OP.scale(G * AL * A ** -1) + P11_OP.scale(G * A))


def test_geometry_accepts_enum_and_string():
    assert geometry(GeometryTag.C3).tag is GeometryTag.C3
    assert geometry("unknot-prime").tag is GeometryTag.UNKNOT_PRIME
    with pytest.raises(ValueError):
        geometry("torus")


@pytest.mark.parametrize("operator", (
    UNKNOT_OP - P10_OP + P01_OP @ P01_OP,
    UNKNOT_OP.scale(2) - P10_OP + P01_OP,
    UNKNOT_OP + P01_OP.scale(AL * G),
), ids=("composed-word", "unknot-coefficient", "no-p10"))
def test_geometry_rejects_operator_of_wrong_shape(operator):
    with pytest.raises(ValueError):
        Geometry(GeometryTag.C3, operator)


def test_geometry_keeps_its_tag_and_operator():
    op = UNKNOT_OP - P10_OP + P01_OP.scale(AL * G)
    geom = Geometry(GeometryTag.C3, op)
    assert (geom.tag, geom.operator) == (GeometryTag.C3, op)
    assert repr(geom) == f"Geometry(tag={GeometryTag.C3!r}, operator={op!r})"


def test_recursion_solves_any_operator_of_the_shape():
    # not a preset: x = 3a, y = -g^2
    op = UNKNOT_OP - P10_OP + P01_OP.scale(monomial(3, a=1)) - P11_OP.scale(G ** 2)
    psi = solve_recursion(Geometry(GeometryTag.C3, op), 4)
    assert not psi.coefficient(Partition((2, 1))).is_zero
    assert op.apply(psi).is_zero
