import itertools
import math
from collections import Counter

import pytest

import skeinsolve.solver as solver_mod
from skeinsolve import (
    A,
    AL,
    CoefficientTemplate,
    G,
    Generator,
    Geometry,
    LaurentPolynomial,
    NoSolutionError,
    ONE,
    OperatorExpression,
    PRESETS,
    Partition,
    Q,
    RationalFunction,
    S,
    SkeinVector,
    TEMPLATES,
    ZERO,
    Z_BRACKET,
    addable_cells,
    closed_form,
    colored_unknot_invariant,
    content_polynomial,
    enumerate_partitions,
    geometry,
    hook_content_vector,
    monomial,
    partitions_through,
    solve_monomial_coefficients,
    solve_recursion,
    verify_annihilation,
)
from skeinsolve.partitions import BOX, EMPTY, cells
from skeinsolve.ring import Exponent
from skeinsolve.skein import P01_OP, P10_OP, P11_OP, UNKNOT_OP
from skeinsolve.verify import run_suite


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


# not a preset: x = s^2 - 1 + a, y = 2g - s^{-3}
_NOT_A_PRESET = Geometry("not-a-preset", S ** 2 - 1 + A, 2 * G - S ** -3)


# w(0) = x + y aL = 0, so every coefficient past the empty one vanishes
_ZERO_AT_CONTENT_0 = Geometry("zero-at-content-0", -AL * G, G)
# every weight is q - 1 = Phi_1, a factor of every hook denominator, so the
# product cancels when it is reduced
_SHARES_PHI_1 = Geometry("shares-phi-1", Q - 1, ZERO)


@pytest.mark.parametrize(
    "geom", [*PRESETS.values(), _NOT_A_PRESET, _ZERO_AT_CONTENT_0, _SHARES_PHI_1],
    ids=lambda geom: geom.tag)
def test_hook_content_vector_equals_the_recursion_and_closed_forms(geom):
    grown = hook_content_vector(geom, 8)
    assert grown == solve_recursion(geom, 8)
    for p in partitions_through(8):
        assert grown.coefficient(p) == closed_form(geom, p), p


def test_hook_content_vector_edge_operators():
    assert hook_content_vector(_ZERO_AT_CONTENT_0, 4).partitions() == [EMPTY]
    # psi_box = (q - 1) s aL^{-1} / (q - 1): the shared factor is cancelled
    assert hook_content_vector(_SHARES_PHI_1, 1).coefficient(BOX) == RationalFunction(
        monomial(1, s=1, aL=-1))


@pytest.fixture
def cold_memo():
    """closed_form with no product memoised yet: no numerator and no hook
    denominator."""
    solver_mod._growth.cache_clear()
    solver_mod._hook_product.cache_clear()


_ONE_TAG = Geometry("one-tag", A, S * G)


@pytest.mark.parametrize("other", [_ONE_TAG._replace(x=-A), _ONE_TAG._replace(y=-S * G)],
                         ids=("x", "y"))
@pytest.mark.parametrize("other_first", (False, True), ids=("one-tag-first", "other-first"))
def test_memo_tells_apart_geometries_with_one_tag(cold_memo, other, other_first):
    p = Partition((3, 2))
    asked = [other, _ONE_TAG] if other_first else [_ONE_TAG, other]
    forms = {geom: closed_form(geom, p) for geom in asked}
    vectors = {geom: hook_content_vector(geom, 5) for geom in asked}
    assert forms[other] != forms[_ONE_TAG] and vectors[other] != vectors[_ONE_TAG]
    for geom in asked:
        psi = solve_recursion(geom, 5)
        assert vectors[geom] == psi and forms[geom] == psi.coefficient(p)


def test_cold_closed_form_of_a_deep_partition(cold_memo):
    # asked before any smaller partition: the whole chain down to the empty
    # partition is grown in one call
    geom, p = Geometry("deep", A, S * G), Partition((5, 3, 2, 1))
    assert closed_form(geom, p) == solve_recursion(geom, p.size).coefficient(p)


def test_memo_holds_at_most_three_geometries(cold_memo):
    geometries = [Geometry(f"fresh-{k}", (k + 1) * AL * G, k * G * A ** -1)
                  for k in range(10)]
    for geom in geometries:
        assert hook_content_vector(geom, 6) == solve_recursion(geom, 6), geom.tag
        assert solver_mod._growth.cache_info().currsize <= 3
    # the last three geometries are held: asking them again grows nothing
    p = Partition((3, 2, 1))
    before = solver_mod._growth.cache_info()
    for geom in geometries[-3:]:
        assert closed_form(geom, p) == solve_recursion(geom, 6).coefficient(p), geom.tag
    after = solver_mod._growth.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)
    # an evicted geometry grows again from the empty partition
    assert closed_form(geometries[0], p) == solve_recursion(geometries[0], 6).coefficient(p)
    assert solver_mod._growth.cache_info().misses == after.misses + 1
    assert solver_mod._growth.cache_info().currsize == 3


@pytest.fixture
def raising_contents(monkeypatch):
    """The contents Geometry.raising_weight is called with, in call order."""
    contents, original = [], Geometry.raising_weight

    def counted(self, content):
        contents.append(content)
        return original(self, content)

    monkeypatch.setattr(Geometry, "raising_weight", counted)
    return contents


def test_recursion_computes_each_raising_weight_once(raising_contents):
    # partitions through degree 8 have contents -7..7: one call each
    solve_recursion(Geometry("counted-recursion", S ** 2 - 1 + A, 2 * G), 8)
    assert sorted(raising_contents) == list(range(-7, 8))


def test_growth_computes_each_raising_weight_at_most_once(raising_contents):
    # the growth reaches every content in -7..7 too, and each one once
    hook_content_vector(Geometry("counted-growth", S ** 2 - 1 + A, 3 * G), 8)
    assert sorted(raising_contents) == list(range(-7, 8))


def test_conjugates_and_geometries_share_one_hook_denominator(cold_memo):
    c3, unknot = PRESETS["c3"], PRESETS["unknot"]
    psi = solve_recursion(unknot, 7)
    for p in partitions_through(7):
        h = solver_mod._grown(c3, p)[1]
        assert solver_mod._grown(c3, p.conjugate())[1] is h, p
        assert solver_mod._grown(unknot, p)[1] is h, p
        assert closed_form(unknot, p.conjugate()) == psi.coefficient(p.conjugate()), p


@pytest.mark.parametrize("tags", [("c3",), ("unknot-prime", "c3", "unknot")],
                         ids=("one-preset", "three-presets"))
def test_hook_memo_holds_one_entry_per_hook_multiset(cold_memo, tags):
    for degree, count in ((9, 54), (12, 145)):
        multisets = {frozenset(Counter(c.hook for c in cells(p)).items())
                     for p in partitions_through(degree)}
        assert len(multisets) == count
        for tag in tags:
            hook_content_vector(tag, degree)
            assert solver_mod._hook_product.cache_info().currsize == count, (tag, degree)


def test_hook_content_vector_rejects_a_negative_degree():
    with pytest.raises(ValueError):
        hook_content_vector("c3", -1)


def test_solve_recursion_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        solve_recursion("c3", -1)


@pytest.mark.parametrize("geom", [*PRESETS.values(), _NOT_A_PRESET],
                         ids=lambda geom: geom.tag)
def test_raising_weight_is_the_skein_raising_action(geom):
    # the solver's per-box weight is what x P01 + y P11 does to W(lambda)
    raising = geom.operator - UNKNOT_OP + P10_OP
    for lam in partitions_through(4):
        image = raising.apply(SkeinVector.basis(lam, lam.size + 1))
        expected = SkeinVector({mu: geom.raising_weight(cell.content)
                                for mu, cell in addable_cells(lam)}, lam.size + 1)
        assert image == expected, lam


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_c3_examples():
    assert closed_form("c3", EMPTY) == RationalFunction(1)
    assert closed_form("c3", BOX) == RationalFunction(G, Z_BRACKET)
    # cells of (2): (content, hook) = (0,2), (1,1)
    expected = RationalFunction(
        monomial(1, s=-1, g=2), (Q - Q ** -1) * Z_BRACKET)
    assert closed_form("c3", Partition((2,))) == expected


def test_closed_form_unknot_examples():
    assert closed_form("unknot", EMPTY) == RationalFunction(1)
    assert closed_form("unknot", BOX) == RationalFunction(
        G * (A - A ** -1), Z_BRACKET)
    expected = RationalFunction(
        monomial(1, g=2) * (A - A ** -1) * (A * S ** -1 - A ** -1 * S),
        (Q - Q ** -1) * Z_BRACKET)
    assert closed_form("unknot", Partition((2,))) == expected


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
        assert closed_form("unknot-prime", p) == RationalFunction(
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
        matrix = [[_one_row_invariant(p[i] - i + j) for j in range(len(p))]
                  for i in range(len(p))]
        assert _det(matrix) == colored_unknot_invariant(p), p


@pytest.mark.parametrize("n", range(1, 11))
def test_branching_linkage_for_c3_form(n):
    # c_mu * cf(mu) * z / g = sum of cf(lambda) over one-box removals
    from skeinsolve.partitions import removable_cells

    for mu in enumerate_partitions(n):
        lhs = (RationalFunction(content_polynomial(mu)) * closed_form("c3", mu)
               * RationalFunction(Z_BRACKET, G))
        rhs = sum((closed_form("c3", lam) for lam, _ in removable_cells(mu)),
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


# ---------------------------------------------------------------------------
# orientation-swap symmetry
# ---------------------------------------------------------------------------


def test_swap_symmetry_trivial_degrees():
    assert run_suite("symmetry", 0).passed
    assert run_suite("symmetry", 1).passed


def test_swap_symmetry_moderate():
    assert run_suite("symmetry", 5).passed


# ---------------------------------------------------------------------------
# signed-monomial coefficient solving
# ---------------------------------------------------------------------------


def test_c3_coefficients_unique():
    [solution] = solve_monomial_coefficients(TEMPLATES["c3"])
    assert all(isinstance(sm, LaurentPolynomial) for sm in solution.values())
    assert solution[Generator.P10] == -ONE
    assert solution[Generator.P01] == monomial(1, aL=1, g=1)


def test_unknot_coefficients_two_branches():
    solutions = solve_monomial_coefficients(TEMPLATES["unknot"])
    as_sets = {tuple(_solution_key(sol)) for sol in solutions}
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
    assert template.exponent_bound == 2
    assert template == CoefficientTemplate(
        (Generator.P01,), RationalFunction(G, Z_BRACKET), 2)
    with pytest.raises(AttributeError):
        template.exponent_bound = 3


def test_no_solution_without_box_term():
    # P10 = -1 solves the empty coefficient; the box coefficient then needs P01 = 0
    template = CoefficientTemplate(
        unknowns=(Generator.P10, Generator.P01),
        psi_box=RationalFunction(0),
    )
    with pytest.raises(NoSolutionError):
        solve_monomial_coefficients(template)


def _assembled(solution) -> OperatorExpression:
    return UNKNOT_OP + OperatorExpression(
        [(sm, (gen,)) for gen, sm in solution.items()])


def test_solved_operators_annihilate_their_geometries():
    # assembled operators from the solved coefficients match the presets
    [sol] = solve_monomial_coefficients(TEMPLATES["c3"])
    geom = geometry("c3")
    op = _assembled(sol)
    assert op.apply(solve_recursion(geom, 3)).is_zero
    assert op == geom.operator
    unknot_ops = {_assembled(sol)
                  for sol in solve_monomial_coefficients(TEMPLATES["unknot"])}
    assert unknot_ops == {geometry("unknot").operator,
                          geometry("unknot-prime").operator}


def test_unknown_cannot_be_unknot():
    with pytest.raises(ValueError):
        solve_monomial_coefficients(CoefficientTemplate(
            unknowns=(Generator.UNKNOT,), psi_box=RationalFunction(0)))


def test_repeated_unknown_is_rejected():
    with pytest.raises(ValueError):
        solve_monomial_coefficients(CoefficientTemplate(
            unknowns=(Generator.P10, Generator.P01, Generator.P01),
            psi_box=RationalFunction(G, Z_BRACKET)))


# An exhaustive reference: every bounded signed-monomial assignment is tried.
# Each generator's image of phi is computed once; a candidate is screened by
# its value at a fixed point mod a prime and confirmed by exact arithmetic.

_PRIME = 2 ** 61 - 1
_POINT = (3, 5, 7, 11)  # s, a, aL, g


def _poly_mod_prime(f) -> int:
    """f at _POINT in GF(_PRIME), summed over its term map."""
    return sum(c * math.prod(pow(v, k, _PRIME) for v, k in zip(_POINT, e))
               for e, c in f.sorted_terms()) % _PRIME


def _mod_prime(x) -> int:
    """A rational function at _POINT; ValueError if its denominator vanishes."""
    return (_poly_mod_prime(x.numerator)
            * pow(_poly_mod_prime(x.denominator), -1, _PRIME) % _PRIME)


def _solution_key(solution):
    # (generator, sign, exponent) per term; a value of two terms adds a row
    return sorted((gen.value, c, e) for gen, sm in solution.items()
                  for e, c in sm.sorted_terms())


def _brute_force_coefficients(template):
    phi = SkeinVector({EMPTY: 1, BOX: template.psi_box}, 1)
    base = UNKNOT_OP.apply(phi)
    images = [OperatorExpression.generator(gen).apply(phi)
              for gen in template.unknowns]
    bound = range(-template.exponent_bound, template.exponent_bound + 1)
    monomials = [monomial(sign, 0, *e)
                 for sign in (1, -1) for e in itertools.product(bound, repeat=3)]
    parts = (EMPTY, BOX)
    tables = [[(sm, [_poly_mod_prime(sm) * _mod_prime(img.coefficient(p))
                     for p in parts]) for sm in monomials] for img in images]
    targets = [_mod_prime(base.coefficient(p)) for p in parts]
    found = []
    for choice in itertools.product(*tables):
        if any((t + sum(values[i] for _, values in choice)) % _PRIME
               for i, t in enumerate(targets)):
            continue
        if all((base.coefficient(p) + sum(
                (img.coefficient(p) * sm
                 for img, (sm, _) in zip(images, choice)),
                RationalFunction(0))).is_zero for p in parts):
            found.append({gen: sm for gen, (sm, _) in zip(template.unknowns, choice)})
    return sorted(found, key=_solution_key)


@pytest.mark.parametrize("template,count", (
    (TEMPLATES["c3"]._replace(exponent_bound=1), 1),
    (TEMPLATES["c3"], 1),  # at its own bound, the one the CLI uses
    (TEMPLATES["unknot"]._replace(exponent_bound=1), 2),
    (CoefficientTemplate(  # P01 and aL P11 cancel in the box coefficient
        unknowns=(Generator.P10, Generator.P01, Generator.P11),
        psi_box=RationalFunction(0), exponent_bound=1), 36),
    (CoefficientTemplate(
        unknowns=(Generator.P10, Generator.P01), psi_box=RationalFunction(0),
        exponent_bound=1), 0),
    # no unknown enters the empty coefficient, so the unknot's term is left
    (CoefficientTemplate(
        unknowns=(Generator.P01,), psi_box=RationalFunction(G, Z_BRACKET),
        exponent_bound=1), 0),
    # no unknown is left for the box coefficient: it vanishes or it does not
    (CoefficientTemplate(
        unknowns=(Generator.P10,), psi_box=RationalFunction(G, Z_BRACKET),
        exponent_bound=1), 0),
    (CoefficientTemplate(
        unknowns=(Generator.P10,), psi_box=RationalFunction(0), exponent_bound=1), 1),
    # P10 = -1 leaves a box coefficient whose numerator is a bounded monomial
    # over a denominator that P01's factor 1 does not have
    (CoefficientTemplate(
        unknowns=(Generator.P10, Generator.P01),
        psi_box=RationalFunction(G, Z_BRACKET * (1 + S)), exponent_bound=1), 0),
), ids=("c3", "c3-bound-2", "unknot", "cancelling-pair", "no-box-term",
        "p01-misses-empty", "p10-box-left", "p10-box-zero", "denominators-differ"))
def test_coefficients_match_brute_force(template, count):
    expected = _brute_force_coefficients(template)
    assert len(expected) == count
    try:
        solutions = solve_monomial_coefficients(template)
    except NoSolutionError:
        solutions = []
    assert solutions == expected


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
    assert geometry("unknot-prime") is PRESETS["unknot-prime"]
    assert geometry(_NOT_A_PRESET) is _NOT_A_PRESET
    with pytest.raises(ValueError):
        geometry("torus")


def test_geometry_keeps_its_tag_and_operator():
    geom = Geometry("not-a-preset", AL * G, -G ** 2)
    assert (geom.tag, geom.x, geom.y) == ("not-a-preset", AL * G, -G ** 2)
    assert geom.operator == (UNKNOT_OP - P10_OP + P01_OP.scale(AL * G)
                             + P11_OP.scale(-G ** 2))


def test_recursion_solves_any_operator_of_the_shape():
    # not a preset: x = 3a, y = -g^2
    op = UNKNOT_OP - P10_OP + P01_OP.scale(monomial(3, a=1)) - P11_OP.scale(G ** 2)
    psi = solve_recursion(Geometry("not-a-preset", monomial(3, a=1), -G ** 2), 4)
    assert not psi.coefficient(Partition((2, 1))).is_zero
    assert op.apply(psi).is_zero
