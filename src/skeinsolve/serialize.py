"""Bit-exact structured serialization: line-delimited JSON records.

Polynomials serialize as lists of exponent records with decimal-string
coefficients; skein vectors as a manifest line followed by one record per
coefficient, sorted by (degree, reverse-lexicographic partition).  Identical
values always produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Iterable

from .partitions import Partition
from .ring import Exponent, LaurentPolynomial, RationalFunction, _new_rf
from .skein import SkeinVector

SCHEMA_VERSION = 1

VARIABLE_CONVENTIONS = "s=q^{1/2}; coefficients in Z[s^+-, a^+-, aL^+-, g^+-]"


def poly_records(p: LaurentPolynomial) -> list[dict]:
    return [
        {"s": e.s, "a": e.a, "aL": e.aL, "g": e.g, "c": str(c)}
        for e, c in p.sorted_terms()
    ]


def poly_from_records(records: Iterable[dict]) -> LaurentPolynomial:
    """The canonical polynomial of a record list in any order: zero terms
    are dropped."""
    return LaurentPolynomial({
        Exponent(r["s"], r["a"], r["aL"], r["g"]): int(r["c"]) for r in records
    })


def rf_record(x: RationalFunction) -> dict:
    return {"num": poly_records(x.numerator), "den": poly_records(x.denominator)}


def rf_from_record(record: dict) -> RationalFunction:
    """The value rf_record wrote, wrapped as read, without a second reduction.

    rf_record writes only reduced values, and a cache entry's sha256 line and
    the version in its key stand behind the bytes read back, so reducing
    them again would remove nothing.  Records from anywhere else are wrapped
    as they are, reduced or not.
    """
    return _new_rf(poly_from_records(record["num"]),
                   poly_from_records(record["den"]))


def skein_vector_records(v: SkeinVector, *, geometry: str | None = None,
                         operator: str | None = None) -> list[dict]:
    header = {
        "kind": "skein-vector",
        "schema": SCHEMA_VERSION,
        "max_degree": v.max_degree,
        "variables": VARIABLE_CONVENTIONS,
    }
    if geometry is not None:
        header["geometry"] = geometry
    if operator is not None:
        header["operator"] = operator
    rows: list[dict] = [header]
    for p, coeff in v.items():
        rows.append({"partition": str(p), "coefficient": rf_record(coeff)})
    return rows


def skein_vector_from_records(records: list[dict]) -> SkeinVector:
    header = records[0]
    if header.get("kind") != "skein-vector":
        raise ValueError("not a skein-vector record stream")
    if header.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {header.get('schema')!r}")
    coeffs = {
        Partition.parse(r["partition"]): rf_from_record(r["coefficient"])
        for r in records[1:]
    }
    return SkeinVector(coeffs, header["max_degree"])


def dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def dumps_records(records: Iterable[dict]) -> str:
    return "".join(dump_line(r) + "\n" for r in records)


def loads_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]
