import json

import pytest
from hypothesis import given, strategies as st

import skeinsolve.ring
from skeinsolve import (
    LaurentPolynomial,
    Partition,
    RationalFunction,
    SkeinVector,
    hook_content_vector,
    solve_recursion,
)
from skeinsolve.partitions import BOX, EMPTY
from skeinsolve.ring import Exponent, cyclotomic_product
from skeinsolve.serialize import (
    SCHEMA_VERSION,
    dump_line,
    dumps_records,
    loads_records,
    poly_from_records,
    rf_from_record,
    skein_vector_from_records,
    skein_vector_records,
)

from strategies import exponents, laurent_polynomials, rational_functions


# admits every s exponent the strategies draw: a polynomial's lie within
# +-3, and a rational function's normalized parts within +-6
_S_BOUND = 6


def _terms_read_back(p):
    """p's term records as dumps_records writes them and loads_records reads
    them."""
    [row] = loads_records(dumps_records([{"terms": p}]))
    return row["terms"]


@given(laurent_polynomials())
def test_poly_round_trip(p):
    assert poly_from_records(_terms_read_back(p), s_bound=_S_BOUND) == p


@given(rational_functions())
def test_rf_round_trip(x):
    [record] = loads_records(dumps_records([x]))
    back = rf_from_record(record, s_bound=_S_BOUND)
    assert back.numerator == x.numerator
    assert back.denominator == x.denominator


@given(rational_functions())
def test_rf_is_written_as_its_num_and_den_record(x):
    # reference: a rational function's record is its numerator and
    # denominator under "num" and "den"
    assert dump_line(x) == dump_line({"num": x.numerator, "den": x.denominator})


def test_records_are_sorted_and_deterministic():
    p = poly_from_records([
        {"s": 2, "a": 0, "aL": 0, "g": 0, "c": "1"},
        {"s": -2, "a": 0, "aL": 0, "g": 0, "c": "-3"},
    ], s_bound=2)
    recs = _terms_read_back(p)
    assert recs == sorted(recs, key=lambda r: (r["s"], r["a"], r["aL"], r["g"]))
    assert dumps_records([{"terms": p}]) == (
        '{"terms":[{"a":0,"aL":0,"c":"-3","g":0,"s":-2},'
        '{"a":0,"aL":0,"c":"1","g":0,"s":2}]}\n')
    assert dumps_records([{"b": 1, "a": 2}]) == dumps_records([{"a": 2, "b": 1}])


@given(laurent_polynomials(), st.randoms())
def test_poly_from_records_is_canonical_in_any_order(p, rnd):
    records = _terms_read_back(p)
    rnd.shuffle(records)
    back = poly_from_records(records, s_bound=_S_BOUND)
    assert back == p and str(back) == str(p)
    assert dumps_records([{"terms": back}]) == dumps_records([{"terms": p}])


def test_poly_from_records_drops_zero_terms():
    one = {"s": 1, "a": 0, "aL": 0, "g": 0}
    p = poly_from_records([dict(one, s=0, c="0"), dict(one, c="-1")], s_bound=1)
    assert p.sorted_terms() == [(Exponent(s=1), -1)]


def test_poly_from_records_rejects_a_repeated_exponent():
    one = {"s": 1, "a": 0, "aL": 0, "g": 0}
    with pytest.raises(ValueError):
        poly_from_records([dict(one, c="2"), dict(one, c="-1")], s_bound=1)


@pytest.mark.parametrize("geometry", ("c3", "unknot", "unknot-prime"))
def test_read_back_wraps_records_without_reducing(geometry, monkeypatch):
    # dump_line writes reduced values, so reading them back needs no gcd
    psi = solve_recursion(geometry, 6)
    text = dumps_records(skein_vector_records(psi, geometry=geometry, operator="test"))

    def no_reduction(num, den):
        raise AssertionError("a stored coefficient was reduced again")

    with monkeypatch.context() as patch:
        patch.setattr(skeinsolve.ring, "_cancel_common", no_reduction)
        back = skein_vector_from_records(loads_records(text))
    assert back == psi
    for p, coeff in psi.items():
        read = back.coefficient(p)
        assert read.numerator.sorted_terms() == coeff.numerator.sorted_terms()
        assert read.denominator.sorted_terms() == coeff.denominator.sorted_terms()
        assert str(read) == str(coeff)


def test_big_coefficients_survive():
    for big in (10 ** 40 + 7, -(10 ** 40) - 7):
        p = poly_from_records([{"s": 0, "a": 0, "aL": 0, "g": 0, "c": str(big)}], s_bound=0)
        assert _terms_read_back(p)[0]["c"] == str(big)
        assert poly_from_records(_terms_read_back(p), s_bound=0) == p


_TERM = {"s": 1, "a": 0, "aL": 0, "g": 0, "c": "-1"}


@pytest.mark.parametrize("records", (
    {"s": 1},  # not a list
    [[1, 2]],  # a term that is not a record
    [{k: v for k, v in _TERM.items() if k != "aL"}],
    [dict(_TERM, s=1.5)],
    [dict(_TERM, a=True)],  # a bool is not an exponent
    [dict(_TERM, g="1")],
    [dict(_TERM, c="x")],
    [dict(_TERM, c=-1)],  # an int, not the decimal string dump_line writes
    [dict(_TERM, c="+1")],
    [dict(_TERM, c="01")],
    [dict(_TERM, c="-0")],
    [dict(_TERM, c=" 1")],
    [dict(_TERM, c="1_0")],
    [dict(_TERM, c="\u0661")],  # ARABIC-INDIC DIGIT ONE
    [dict(_TERM, c="\u00b2")],  # SUPERSCRIPT TWO
    [dict(_TERM, c="--1")],
    [dict(_TERM, c="1.0")],
))
def test_poly_from_records_rejects_a_malformed_record(records):
    with pytest.raises(ValueError):
        poly_from_records(records, s_bound=1)


_S = [{"s": 1, "a": 0, "aL": 0, "g": 0, "c": "1"}]
_DEN = [{"s": 0, "a": 0, "aL": 0, "g": 0, "c": "-1"}, {"s": 2, "a": 0, "aL": 0, "g": 0, "c": "1"}]


@pytest.mark.parametrize("record", (
    {"den": _DEN},
    {"num": _S},
    [_S, _DEN],
    {"num": _S, "den": []},  # zero
    {"num": _S, "den": [dict(_DEN[0], a=1), _DEN[1]]},  # not in s alone
    {"num": _S, "den": [dict(_DEN[0], c="1"), dict(_DEN[1], c="-1")]},  # negative lead
    {"num": _S, "den": [dict(_DEN[0], s=1), _DEN[1]]},  # no constant term
    {"num": _S, "den": [dict(_DEN[0], c="x"), _DEN[1]]},
))
def test_rf_from_record_rejects_a_malformed_record(record):
    with pytest.raises(ValueError):
        rf_from_record(record, s_bound=2)


def test_rf_from_record_reads_a_normalized_denominator():
    assert rf_from_record({"num": _S, "den": _DEN}, s_bound=2) == RationalFunction(
        LaurentPolynomial({Exponent(s=1): 1}),
        LaurentPolynomial({Exponent(): -1, Exponent(s=2): 1}))


@pytest.mark.parametrize("read, value", ((poly_from_records, _S),
                                         (rf_from_record, {"num": _S, "den": _DEN})),
                         ids=("poly", "rf"))
def test_readers_require_an_s_bound(read, value):
    # without a bound, one record spanning s = 0 to 10**9 would allocate an
    # s-list of 10**9 slots
    with pytest.raises(TypeError):
        read(value)
    read(value, s_bound=2)


@pytest.mark.parametrize("line", ("", " ", "\t \r"), ids=("empty", "space", "tab-cr"))
def test_loads_records_refuses_a_blank_line(line):
    assert loads_records('{"a":1}\n{"b":2}\n') == [{"a": 1}, {"b": 2}]
    with pytest.raises(ValueError):
        loads_records('{"a":1}\n' + line + '\n{"b":2}\n')


@pytest.mark.parametrize("damage", (
    lambda rows: rows[:0],
    lambda rows: [[]] + rows[1:],
    lambda rows: [{k: v for k, v in rows[0].items() if k != "max_degree"}] + rows[1:],
    lambda rows: [dict(rows[0], max_degree="2")] + rows[1:],
    lambda rows: [dict(rows[0], max_degree=1)] + rows[1:],  # "2" exceeds it
    lambda rows: rows[:1] + [{"coefficient": rows[1]["coefficient"]}] + rows[2:],
    lambda rows: rows[:1] + [{"partition": ""}] + rows[2:],
    lambda rows: rows[:1] + [dict(rows[1], partition=0)] + rows[2:],
    lambda rows: rows[:1] + [dict(rows[1], partition="x")] + rows[2:],
    lambda rows: rows + rows[-1:],  # a repeated partition
    lambda rows: rows[:1] + [dict(rows[1], coefficient={"num": _S, "den": []})] + rows[2:],
))
def test_skein_vector_from_records_rejects_malformed_records(damage):
    rows = loads_records(dumps_records(skein_vector_records(
        solve_recursion("c3", 2), geometry="c3", operator="test")))
    skein_vector_from_records(rows)  # undamaged, they read back
    with pytest.raises(ValueError):
        skein_vector_from_records(damage(rows))


def _with_moved_term(rows, s):
    """rows with the numerator term of partition "1" moved to s^s."""
    coeff = rows[2]["coefficient"]
    assert rows[2]["partition"] == "1" and len(coeff["num"]) == 1
    return rows[:2] + [dict(rows[2], coefficient=dict(
        coeff, num=[dict(coeff["num"][0], s=s)]))] + rows[3:]


def test_skein_vector_from_records_bounds_s_by_the_header_degree():
    # through degree N = 2 a record's s exponents lie within +-N(N+1) = 6
    rows = loads_records(dumps_records(skein_vector_records(
        solve_recursion("c3", 2), geometry="c3", operator="test")))
    for s in (6, -6):
        skein_vector_from_records(_with_moved_term(rows, s))
    for s in (7, -7):
        with pytest.raises(ValueError, match="beyond"):
            skein_vector_from_records(_with_moved_term(rows, s))


@pytest.mark.parametrize("geometry", ("c3", "unknot", "unknot-prime"))
def test_psi_s_exponents_lie_within_the_reader_bound(geometry):
    # the bound the reader puts on a degree-N vector holds for each of its
    # partitions p, through |p| = 12: s exponents in [0, |p|(|p| + 1)], and
    # the one-row partition reaches it
    for p, coeff in hook_content_vector(geometry, 12).items():
        n = p.size
        powers = [e.s for f in (coeff.numerator, coeff.denominator)
                  for e, _ in f.sorted_terms()]
        assert 0 <= min(powers) and max(powers) <= n * (n + 1), p
        if p == (n,):
            assert max(powers) == n * (n + 1), p


def test_skein_vector_round_trip():
    psi = solve_recursion("unknot", 4)
    records = skein_vector_records(psi, geometry="unknot", operator="test")
    assert records[0]["schema"] == SCHEMA_VERSION
    text = dumps_records(records)
    back = skein_vector_from_records(loads_records(text))
    assert back == psi
    assert dumps_records(skein_vector_records(
        back, geometry="unknot", operator="test")) == text


def test_skein_vector_records_ordered_by_degree_then_revlex():
    v = SkeinVector(
        {Partition((1, 1)): RationalFunction(1),
         Partition((2,)): RationalFunction(1),
         EMPTY: RationalFunction(1),
         BOX: RationalFunction(1)}, 2)
    rows = skein_vector_records(v, geometry="c3", operator="test")[1:]
    assert [r["partition"] for r in rows] == ["", "1", "2", "1,1"]


def test_schema_guard():
    psi = solve_recursion("c3", 1)
    records = skein_vector_records(psi, geometry="c3", operator="test")
    records[0]["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        skein_vector_from_records(records)
    with pytest.raises(ValueError):
        skein_vector_from_records([{"kind": "something-else"}])


# -- dump_line against json.dumps ----------------------------------------------

_BIG = 10 ** 40


@st.composite
def _record_polynomials(draw):
    """Zero, small, and +-10^40-sized coefficients, negative exponents too;
    and one-slice polynomials, in s alone or times a nonzero a^i aL^j g^k,
    with a negative lowest power of s and zero slots inside their s-list."""
    coefficients = st.one_of(st.integers(min_value=-9, max_value=9),
                             st.integers(min_value=-_BIG - 9, max_value=-_BIG + 9),
                             st.integers(min_value=_BIG - 9, max_value=_BIG + 9))
    shape = draw(st.sampled_from(("any", "s only", "one slice")))
    if shape == "any":
        return LaurentPolynomial(draw(st.dictionaries(exponents(), coefficients, max_size=4)))
    _, *head = (Exponent() if shape == "s only"
                else draw(exponents().filter(lambda e: e[1:] != (0, 0, 0))))
    lo = draw(st.integers(min_value=-6, max_value=-1))
    higher = draw(st.lists(st.integers(min_value=lo + 2, max_value=6),
                           min_size=1, max_size=4, unique=True))  # slot lo + 1 is zero
    return LaurentPolynomial({Exponent(s, *head): draw(coefficients.filter(bool))
                              for s in (lo, *higher)})


_KEYS = st.text(alphabet=st.sampled_from("abcsgLγ∘∅_ \"\\\n"), max_size=4)
_LEAVES = st.one_of(
    st.integers(min_value=-_BIG, max_value=_BIG),
    st.text(alphabet=st.one_of(st.sampled_from("γ∘∅"), st.characters()), max_size=6),
    _record_polynomials(),
)
_RECORDS = st.dictionaries(_KEYS, st.recursive(
    _LEAVES, lambda inner: st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8), max_size=5)


def _as_json_values(value):
    """value with every polynomial replaced by its list of term dicts."""
    if isinstance(value, LaurentPolynomial):
        return [{"s": e.s, "a": e.a, "aL": e.aL, "g": e.g, "c": str(c)}
                for e, c in value.sorted_terms()]
    if isinstance(value, dict):
        return {k: _as_json_values(v) for k, v in value.items()}
    return value


@given(_RECORDS)
def test_dump_line_writes_what_json_dumps_writes(record):
    assert dump_line(record) == json.dumps(_as_json_values(record), sort_keys=True,
                                           separators=(",", ":"))


def test_dump_line_examples():
    p = LaurentPolynomial({Exponent(-1, 0, 2, -3): -_BIG, Exponent(2): 5})
    assert dump_line({"∅": {"p": p, "0": LaurentPolynomial()}, "b": "γ∘", "a": -7}) == (
        '{"a":-7,"b":"\\u03b3\\u2218","\\u2205":{"0":[],"p":[{"a":0,"aL":2,'
        f'"c":"{-_BIG}","g":-3,"s":-1}},{{"a":0,"aL":0,"c":"5","g":0,"s":2}}]}}}}')
    assert dump_line(LaurentPolynomial()) == "[]"
    # Phi_12(q) = q^4 - q^2 + 1: one slice, its zero slots skipped
    assert dump_line(cyclotomic_product({12: 1})) == (
        '[{"a":0,"aL":0,"c":"1","g":0,"s":0},{"a":0,"aL":0,"c":"-1","g":0,"s":4},'
        '{"a":0,"aL":0,"c":"1","g":0,"s":8}]')


@pytest.mark.parametrize("value", (
    True, False, None, 1.0, {"x": True}, {"x": [1, None]}, [0.5], {"x": {"y": False}},
    (1, 2), {1: 2}, [1],
), ids=repr)
def test_dump_line_refuses_other_values(value):
    with pytest.raises(TypeError):
        dump_line(value)
