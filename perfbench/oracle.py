"""Independent oracle for the outputs of the skeinsolve command line.

Nothing here imports skeinsolve.  Partitions, contents and hooks are
enumerated from scratch, and the paper's hook-content products are
evaluated exactly in the prime field GF(2^61 - 1) at seeded random points:

    c3:            γ^|λ| ∏ s^(-c) / (s^h - s^(-h))
    unknot:        γ^|λ| ∏ (a s^(-c) - a^(-1) s^c) / (s^h - s^(-h))
    unknot-prime:  the same with c -> -c

with s = q^(1/2).  A `psi` output passes only if its partitions are exactly
those of size 0..N and every coefficient equals the product at every point.
A `verify` output passes only if it reports zero failures over the number
of identities derived here from partition counts.

Each check returns None on success and a one-line reason on failure.
"""

from __future__ import annotations

import json
import random
import re
from functools import lru_cache

PRIME = 2**61 - 1

GEOMETRIES = ("c3", "unknot", "unknot-prime")

# Default degree of each `verify` suite, and the number of identities it
# checks as a function of the partition counts p(0..N).
VERIFY_DEFAULT_DEGREES = {
    "recursion": 8,
    "branching": 12,
    "commutator": 10,
    "symmetry": 8,
    "annihilation": 8,
    "parity": 15,
    "hookforms": 12,
}


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples, largest first part first."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], left: int, cap: int) -> None:
        if left == 0:
            out.append(prefix)
            return
        for part in range(min(left, cap), 0, -1):
            extend(prefix + (part,), left - part, part)

    extend((), n, n)
    return out


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    return len(partitions(n))


def partitions_through(n: int) -> list[tuple[int, ...]]:
    return [p for k in range(n + 1) for p in partitions(k)]


def partition_text(p: tuple[int, ...]) -> str:
    """The command line's spelling of a partition: "3,2,1", "" for empty."""
    return ",".join(str(x) for x in p)


def contents_and_hooks(p: tuple[int, ...]) -> list[tuple[int, int]]:
    """(content, hook length) of every cell of the Young diagram of p."""
    conjugate = [sum(1 for row in p if row > col) for col in range(p[0])] if p else []
    return [
        (col - row, (p[row] - col - 1) + (conjugate[col] - row - 1) + 1)
        for row in range(len(p))
        for col in range(p[row])
    ]


def expected_checked(suite: str, max_degree: int) -> int:
    """Identities a `verify` suite checks through max_degree."""
    through = sum(partition_count(k) for k in range(max_degree + 1))
    if suite == "recursion":
        return len(GEOMETRIES) * through
    if suite == "branching":
        return through - 1  # the empty partition has no box to branch on
    if suite in ("commutator", "symmetry", "parity"):
        return through
    if suite == "annihilation":
        return len(GEOMETRIES)
    if suite == "hookforms":
        return 2 * through  # two identities per partition
    raise ValueError(f"unknown suite {suite!r}")


# -- evaluation in GF(PRIME) --------------------------------------------------


class Point:
    """Values of s, a, aL, γ in GF(PRIME), with memoised integer powers."""

    def __init__(self, s: int, a: int, aL: int, g: int):
        self.values = (s, a, aL, g)
        self._powers: dict[tuple[int, int], int] = {}

    def power(self, var: int, e: int) -> int:
        key = (var, e)
        out = self._powers.get(key)
        if out is None:
            out = pow(self.values[var], e, PRIME)
            self._powers[key] = out
        return out

    def monomial(self, s: int, a: int, aL: int, g: int) -> int:
        return (self.power(0, s) * self.power(1, a) % PRIME
                * self.power(2, aL) % PRIME * self.power(3, g) % PRIME)


def random_points(rng: random.Random, count: int, max_hook: int) -> list[Point]:
    """Points with every variable nonzero, s != ±1, and every bracket
    s^h - s^(-h) with h <= max_hook nonzero, so every product is defined."""
    points = []
    while len(points) < count:
        s, a, aL, g = (rng.randrange(2, PRIME - 1) for _ in range(4))
        if all(pow(s, 2 * h, PRIME) != 1 for h in range(1, max_hook + 1)):
            points.append(Point(s, a, aL, g))
    return points


def hook_content(geometry: str, p: tuple[int, ...], pt: Point) -> tuple[int, int]:
    """Numerator and denominator of the hook-content product at a point."""
    num = pt.power(3, sum(p))
    den = 1
    for c, h in contents_and_hooks(p):
        if geometry == "c3":
            factor = pt.power(0, -c)
        else:
            sign = -1 if geometry == "unknot" else 1
            factor = (pt.power(1, 1) * pt.power(0, sign * c)
                      - pt.power(1, -1) * pt.power(0, -sign * c))
        num = num * factor % PRIME
        den = den * (pt.power(0, h) - pt.power(0, -h)) % PRIME
    return num, den


def _matches(geometry: str, p: tuple[int, ...], values: list[tuple[int, int]],
             points: list[Point]) -> str | None:
    for pt, (num, den) in zip(points, values):
        if den % PRIME == 0:
            return f"partition ({partition_text(p)}): denominator vanishes at a seeded point"
        want_num, want_den = hook_content(geometry, p, pt)
        if (num * want_den - want_num * den) % PRIME:
            return f"partition ({partition_text(p)}): coefficient differs from the hook-content product"
    return None


def _check_coefficients(geometry: str, max_degree: int,
                        coefficients: dict[str, list[tuple[int, int]]],
                        points: list[Point]) -> str | None:
    expected = partitions_through(max_degree)
    want = {partition_text(p) for p in expected}
    got = set(coefficients)
    if got != want:
        missing = sorted(want - got, key=len)[:3]
        extra = sorted(got - want, key=len)[:3]
        return f"partition set differs: missing {missing}, unexpected {extra}"
    for p in expected:
        reason = _matches(geometry, p, coefficients[partition_text(p)], points)
        if reason:
            return reason
    return None


# -- records output -----------------------------------------------------------


def _record_poly(terms: list[dict], pt: Point) -> int:
    total = 0
    for t in terms:
        total += int(t["c"]) * pt.monomial(t["s"], t["a"], t["aL"], t["g"])
    return total % PRIME


def check_psi_records(text: str, geometry: str, max_degree: int,
                      points: list[Point]) -> str | None:
    try:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        header = rows[0]
        if (header.get("kind"), header.get("geometry"), header.get("max_degree")) != (
                "skein-vector", geometry, max_degree):
            return f"unexpected header {header!r}"
        coefficients: dict[str, list[tuple[int, int]]] = {}
        for row in rows[1:]:
            if row["partition"] in coefficients:
                return f"partition ({row['partition']}) appears twice"
            coeff = row["coefficient"]
            coefficients[row["partition"]] = [
                (_record_poly(coeff["num"], pt), _record_poly(coeff["den"], pt))
                for pt in points
            ]
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed records output: {exc!r}"
    return _check_coefficients(geometry, max_degree, coefficients, points)


# -- text output --------------------------------------------------------------

_BASES = (("aL", 2), ("a", 1), ("γ", 3), ("q", 0))
_EXPONENT = re.compile(r"\^(?:(-?\d)|\{(-?\d+)\}|\{(-?\d+)/2\})")
_COEFFICIENT = re.compile(r"-?\d*")


def _text_factor(token: str) -> tuple[int, int]:
    """(variable index, exponent) of one factor such as a^{-1} or q^{5/2};
    q-powers come back as s-exponents."""
    for base, var in _BASES:
        if token.startswith(base):
            rest = token[len(base):]
            if not rest:
                e = 1
                half = False
            else:
                m = _EXPONENT.fullmatch(rest)
                if m is None:
                    raise ValueError(f"bad factor {token!r}")
                half = m.group(3) is not None
                e = int(m.group(1) or m.group(2) or m.group(3))
            if var == 0:
                return 0, e if half else 2 * e
            if half:
                raise ValueError(f"half power of {base} in {token!r}")
            return var, e
    raise ValueError(f"bad factor {token!r}")


def parse_text_poly(text: str) -> list[tuple[int, tuple[int, int, int, int]]]:
    """Terms (coefficient, (s, a, aL, γ) exponents) of the canonical rendering,
    e.g. "-γ a^{-1} q^{1/2} + 2γ a q^{1/2}"."""
    terms = []
    sign = 1
    current: list[str] | None = None
    for token in text.split(" ") + ["+"]:
        if token in ("+", "-"):
            if current is None:
                raise ValueError(f"empty term in {text!r}")
            coeff_text = _COEFFICIENT.match(current[0]).group(0)
            first = current[0][len(coeff_text):]
            factors = ([first] if first else []) + current[1:]
            if coeff_text in ("", "-"):
                coeff = -1 if coeff_text == "-" else 1
                if not factors:
                    raise ValueError(f"bare sign in {text!r}")
            else:
                coeff = int(coeff_text)
            exps = [0, 0, 0, 0]
            for f in factors:
                var, e = _text_factor(f)
                exps[var] += e
            terms.append((sign * coeff, tuple(exps)))
            sign = 1 if token == "+" else -1
            current = None
        elif current is None:
            current = [token]
        else:
            current.append(token)
    return terms


def parse_text_rf(text: str) -> tuple[list, list]:
    """Numerator and denominator terms of "num", "(num)/(den)" or "term/(den)"."""
    if not text.endswith(")") or "/(" not in text:
        return parse_text_poly(text), [(1, (0, 0, 0, 0))]
    if text.startswith("("):
        close = text.index(")/(")
        num, den = text[1:close], text[close + 3:-1]
    else:
        split = text.index("/(")
        num, den = text[:split], text[split + 2:-1]
    return parse_text_poly(num), parse_text_poly(den)


def _text_poly(terms, pt: Point) -> int:
    return sum(c * pt.monomial(*e) for c, e in terms) % PRIME


def check_psi_text(text: str, geometry: str, max_degree: int,
                   points: list[Point]) -> str | None:
    coefficients: dict[str, list[tuple[int, int]]] = {}
    try:
        for line in text.splitlines():
            label, _, rendered = line.partition(": ")
            partition = "" if label == "∅" else label
            if partition in coefficients:
                return f"partition ({partition}) appears twice"
            num, den = parse_text_rf(rendered)
            coefficients[partition] = [
                (_text_poly(num, pt), _text_poly(den, pt)) for pt in points]
    except ValueError as exc:
        return f"malformed text output: {exc}"
    return _check_coefficients(geometry, max_degree, coefficients, points)


def check_psi(text: str, fmt: str, geometry: str, max_degree: int,
              points: list[Point]) -> str | None:
    if fmt == "records":
        return check_psi_records(text, geometry, max_degree, points)
    return check_psi_text(text, geometry, max_degree, points)


# -- verify output ------------------------------------------------------------


def check_verify(text: str, suite: str, max_degree: int | None = None) -> str | None:
    n = VERIFY_DEFAULT_DEGREES[suite] if max_degree is None else max_degree
    want = (f"suite={suite} max-degree={n} "
            f"checked={expected_checked(suite, n)} failures=0 pass")
    got = text.rstrip("\n")
    if got != want:
        return f"expected {want!r}, got {got[:200]!r}"
    return None
