"""Bit-exact structured serialization: line-delimited JSON records.

Polynomials serialize as lists of exponent records with decimal-string
coefficients; skein vectors as a manifest line followed by one record per
coefficient, sorted by (degree, reverse-lexicographic partition).  Identical
values always produce identical bytes.  dump_line is the one writer: records
carry LaurentPolynomials, and it prints their term lists itself, in the
bytes json.dumps would print for the term dicts.  json only reads them back.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from . import SCHEMA_VERSION
from .partitions import Partition
from .ring import LaurentPolynomial, RationalFunction, _as_int_poly, _new_rf, _sorted_rows
from .skein import SkeinVector

VARIABLE_CONVENTIONS = "s=q^{1/2}; coefficients in Z[s^+-, a^+-, aL^+-, g^+-]"


def _field(record, key: str):
    """record[key]; ValueError if record is not a dict or lacks the key."""
    if type(record) is not dict or key not in record:
        raise ValueError(f"record without {key!r}: {record!r}")
    return record[key]


def _coefficient(text) -> int:
    """The int of a decimal string as dump_line writes it: ASCII digits, an
    optional "-", no leading zero, no sign on 0."""
    if type(text) is str and text.removeprefix("-").isdecimal():
        c = int(text)
        if str(c) == text:  # only the form str(int) writes
            return c
    raise ValueError(f"coefficient is not a decimal string: {text!r}")


def poly_from_records(records: list[dict], *, s_bound: int | None = None) -> LaurentPolynomial:
    """The canonical polynomial of a record list in any order: zero terms
    are dropped.  Raises ValueError if the records are not a list of term
    records with int exponents and decimal-string coefficients, if an
    exponent is repeated, or if an s exponent lies beyond +-s_bound when one
    is given; that is checked before the dense s-lists are allocated."""
    if type(records) is not list:
        raise ValueError(f"polynomial records must be a list, got {records!r}")
    terms = {}
    for r in records:
        try:
            s, a, aL, g, text = r["s"], r["a"], r["aL"], r["g"], r["c"]
        except (KeyError, TypeError):
            raise ValueError(f"not a term record: {r!r}") from None
        if not (type(s) is type(a) is type(aL) is type(g) is int):
            raise ValueError(f"exponents must be ints: {r!r}")
        if s_bound is not None and not -s_bound <= s <= s_bound:
            raise ValueError(f"s exponent beyond +-{s_bound}: {r!r}")
        terms[(s, a, aL, g)] = _coefficient(text)
    if len(terms) != len(records):
        raise ValueError("repeated exponent in polynomial records")
    return LaurentPolynomial(terms)


def rf_from_record(record: dict, *, s_bound: int | None = None) -> RationalFunction:
    """The value dump_line wrote, wrapped as read, without a second reduction.

    dump_line writes only reduced values, and a cache entry's sha256 line and
    the version in its key stand behind the bytes read back, so reducing
    them again would remove nothing.  Records from anywhere else are wrapped
    as they are, reduced or not.  The denominator must still be in the
    normal form dump_line writes, a nonzero polynomial in s with a nonzero
    constant term and a positive leading coefficient: ValueError if not.
    s_bound bounds the s exponents as in poly_from_records.
    """
    num = poly_from_records(_field(record, "num"), s_bound=s_bound)
    den = poly_from_records(_field(record, "den"), s_bound=s_bound)
    if den.is_zero:
        raise ValueError("zero denominator")
    lo, coeffs = _as_int_poly(den)  # ValueError for a, aL or g
    if lo or coeffs[-1] < 0:
        raise ValueError(f"denominator not normalized: {den}")
    return _new_rf(num, den)


def skein_vector_records(v: SkeinVector, *, geometry: str, operator: str) -> list[dict]:
    rows: list[dict] = [{
        "kind": "skein-vector",
        "schema": SCHEMA_VERSION,
        "max_degree": v.max_degree,
        "variables": VARIABLE_CONVENTIONS,
        "geometry": geometry,
        "operator": operator,
    }]
    for p, coeff in v.items():
        rows.append({"partition": str(p), "coefficient": coeff})
    return rows


def skein_vector_from_records(records: list[dict]) -> SkeinVector:
    """The skein vector skein_vector_records wrote; ValueError for records
    of another shape, a repeated partition or a bad coefficient.

    A coefficient with an s exponent beyond +-N(N+1), N the header's
    max_degree, is a bad one, refused before its s-list is allocated: the
    hook denominator of the one-row partition (N) reaches s^{N(N+1)}, and
    every coefficient psi writes through degree N, for each preset, has its
    s exponents in [0, N(N+1)].
    """
    if not records or type(records[0]) is not dict:
        raise ValueError("no skein-vector header")
    header = records[0]
    if header.get("kind") != "skein-vector":
        raise ValueError("not a skein-vector record stream")
    if header.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {header.get('schema')!r}")
    max_degree = _field(header, "max_degree")
    if type(max_degree) is not int:
        raise ValueError(f"max_degree must be an int, got {max_degree!r}")
    s_bound = max_degree * (max_degree + 1)
    coeffs = {}
    for r in records[1:]:
        text = _field(r, "partition")
        if type(text) is not str:
            raise ValueError(f"partition must be a string, got {text!r}")
        coeffs[Partition.parse(text)] = rf_from_record(_field(r, "coefficient"),
                                                       s_bound=s_bound)
    if len(coeffs) != len(records) - 1:
        raise ValueError("repeated partition in skein-vector records")
    return SkeinVector(coeffs, max_degree)


def dump_line(value) -> str:
    """Compact JSON of a dict with str keys, written in sorted key order, of
    a str (escaped to ASCII), an int, a LaurentPolynomial as its terms
    {"a", "aL", "c", "g", "s"} in sorted_terms order with c a decimal
    string, or a RationalFunction as {"den", "num"}: every record the
    package writes is a dict of these or a bare RationalFunction.  Anything
    else, a list, tuple, bool, float or None included, raises TypeError.

    A polynomial with one (a, aL, g) slice, every hook denominator and
    every c3 numerator among them, is written straight from its s-list,
    already in sorted_terms order; the others are sorted by _sorted_rows.
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, LaurentPolynomial):
        if len(value._slices) == 1:
            ((a, aL, g), (lo, coeffs)), = value._slices.items()
            head, tail = f'{{"a":{a},"aL":{aL},"c":"', f'","g":{g},"s":'
            return "[" + ",".join([f"{head}{c}{tail}{s}}}"
                                   for s, c in enumerate(coeffs, lo) if c]) + "]"
        return "[" + ",".join([f'{{"a":{a},"aL":{aL},"c":"{c}","g":{g},"s":{s}}}'
                               for s, a, aL, g, c in _sorted_rows(value)]) + "]"
    if isinstance(value, RationalFunction):
        return f'{{"den":{dump_line(value.denominator)},"num":{dump_line(value.numerator)}}}'
    if isinstance(value, dict):
        return "{" + ",".join([f"{_quote(k)}:{dump_line(value[k])}"
                               for k in sorted(value)]) + "}"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"cannot write a {type(value).__name__} as a record")


def dumps_records(records: Iterable[dict]) -> str:
    return "".join(dump_line(r) + "\n" for r in records)


def loads_records(text: str) -> list[dict]:
    """The value of each nonblank line; ValueError for a line json cannot
    decode, one nested too deeply for its recursion limit included."""
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except RecursionError:
        raise ValueError("a record is nested too deeply to decode") from None
