"""Self-tests of the benchmark's oracle: it accepts the program's real
outputs and rejects damaged ones.  Run with `python3 -m pytest perfbench`
from the root of the repository."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracle

ROOT = Path(__file__).resolve().parent.parent
DEGREE = 5
POINTS = oracle.random_points(random.Random(7), 2, DEGREE)


def cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "skeinsolve.cli", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout


@pytest.fixture(scope="module")
def outputs() -> dict:
    return {
        (g, fmt): cli("psi", "--geometry", g, "--max-degree", str(DEGREE),
                      "--no-cache", "--format", fmt)
        for g in oracle.GEOMETRIES for fmt in ("text", "records")
    }


def test_partition_counts_match_known_sequence():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
    assert [oracle.partition_count(n) for n in range(16)] == known
    assert len(set(oracle.partitions_through(8))) == sum(known[:9])


def test_contents_and_hooks_of_642():
    cells = oracle.contents_and_hooks((6, 4, 2))
    assert [c for c, _ in cells] == [0, 1, 2, 3, 4, 5, -1, 0, 1, 2, -2, -1]
    assert [h for _, h in cells] == [8, 7, 5, 4, 2, 1, 5, 4, 2, 1, 2, 1]


def test_expected_checked_counts():
    assert oracle.expected_checked("branching", 12) == 271
    assert oracle.expected_checked("hookforms", 12) == 544
    assert oracle.expected_checked("recursion", 8) == 201
    assert oracle.expected_checked("parity", 15) == 684


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("geometry", oracle.GEOMETRIES)
def test_accepts_program_output(outputs, geometry, fmt):
    assert oracle.check_psi(outputs[geometry, fmt], fmt, geometry, DEGREE, POINTS) is None


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_rejects_other_geometry(outputs, fmt):
    assert oracle.check_psi(outputs["unknot", fmt], fmt, "unknot-prime", DEGREE, POINTS)


def test_rejects_perturbed_record_coefficient(outputs):
    lines = outputs["unknot", "records"].splitlines()
    row = json.loads(lines[5])
    row["coefficient"]["num"][0]["c"] = str(int(row["coefficient"]["num"][0]["c"]) + 1)
    lines[5] = json.dumps(row)
    reason = oracle.check_psi("\n".join(lines), "records", "unknot", DEGREE, POINTS)
    assert reason and "differs" in reason


def test_rejects_perturbed_text_coefficient(outputs):
    lines = outputs["c3", "text"].splitlines()
    assert lines[3].startswith("1,1: γ^2 q^2/")
    lines[3] = lines[3].replace("γ^2 q^2/", "2γ^2 q^2/")
    reason = oracle.check_psi("\n".join(lines), "text", "c3", DEGREE, POINTS)
    assert reason and "differs" in reason


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_rejects_missing_partition(outputs, fmt):
    lines = outputs["c3", fmt].splitlines()
    del lines[4]
    reason = oracle.check_psi("\n".join(lines), fmt, "c3", DEGREE, POINTS)
    assert reason and "missing" in reason


def test_rejects_truncated_records(outputs):
    text = outputs["c3", "records"][:200]
    assert oracle.check_psi(text, "records", "c3", DEGREE, POINTS)


def test_verify_check():
    good = cli("verify", "--suite", "parity", "--max-degree", "6")
    assert oracle.check_verify(good, "parity", 6) is None
    assert oracle.check_verify(good.replace("checked=", "checked=1"), "parity", 6)
    assert oracle.check_verify(good.replace("failures=0 pass", "failures=1 FAIL"),
                               "parity", 6)
    assert oracle.check_verify(good, "parity") is not None  # default degree is 15


def test_text_parser_reads_canonical_rendering():
    num, den = oracle.parse_text_rf("(-γ a^{-1} q^{1/2} + 2γ a q^{-3/2})/(-1 + q^{12})")
    assert num == [(-1, (1, -1, 0, 1)), (2, (-3, 1, 0, 1))]
    assert den == [(-1, (0, 0, 0, 0)), (1, (24, 0, 0, 0))]
    assert oracle.parse_text_rf("γ^3 aL^{-2} q^2") == ([(1, (4, 0, -2, 3))], [(1, (0, 0, 0, 0))])
