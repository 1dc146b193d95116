import pytest
from hypothesis import given, strategies as st

import skeinsolve.ring
from skeinsolve import Partition, RationalFunction, SkeinVector, solve_recursion
from skeinsolve.partitions import BOX, EMPTY
from skeinsolve.ring import Exponent
from skeinsolve.serialize import (
    SCHEMA_VERSION,
    dumps_records,
    loads_records,
    poly_from_records,
    poly_records,
    rf_from_record,
    rf_record,
    skein_vector_from_records,
    skein_vector_records,
)

from strategies import laurent_polynomials, rational_functions


@given(laurent_polynomials())
def test_poly_round_trip(p):
    assert poly_from_records(poly_records(p)) == p


@given(rational_functions())
def test_rf_round_trip(x):
    back = rf_from_record(rf_record(x))
    assert back.numerator == x.numerator
    assert back.denominator == x.denominator


def test_records_are_sorted_and_deterministic():
    p = poly_from_records([
        {"s": 2, "a": 0, "aL": 0, "g": 0, "c": "1"},
        {"s": -2, "a": 0, "aL": 0, "g": 0, "c": "-3"},
    ])
    recs = poly_records(p)
    assert recs == sorted(recs, key=lambda r: (r["s"], r["a"], r["aL"], r["g"]))
    assert dumps_records([{"b": 1, "a": 2}]) == dumps_records([{"a": 2, "b": 1}])


@given(laurent_polynomials(), st.randoms())
def test_poly_from_records_is_canonical_in_any_order(p, rnd):
    records = poly_records(p)
    rnd.shuffle(records)
    back = poly_from_records(records)
    assert back == p and str(back) == str(p)
    assert poly_records(back) == poly_records(p)


def test_poly_from_records_drops_zero_terms():
    one = {"s": 1, "a": 0, "aL": 0, "g": 0}
    p = poly_from_records([dict(one, s=0, c="0"), dict(one, c="-1")])
    assert p.sorted_terms() == [(Exponent(s=1), -1)]


def test_poly_from_records_rejects_a_repeated_exponent():
    one = {"s": 1, "a": 0, "aL": 0, "g": 0}
    with pytest.raises(ValueError):
        poly_from_records([dict(one, c="2"), dict(one, c="-1")])


@pytest.mark.parametrize("geometry", ("c3", "unknot", "unknot-prime"))
def test_read_back_wraps_records_without_reducing(geometry, monkeypatch):
    # rf_record writes reduced values, so reading them back needs no gcd
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
    big = 10 ** 40 + 7
    p = poly_from_records([{"s": 0, "a": 0, "aL": 0, "g": 0, "c": str(big)}])
    assert poly_records(p)[0]["c"] == str(big)


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
