import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skeinsolve
from skeinsolve import solve_recursion
from skeinsolve.cache import default_cache_dir
from skeinsolve.cli import _partition_arg, build_parser, main
from skeinsolve.serialize import loads_records, skein_vector_from_records
from skeinsolve.verify import SuiteReport, run_suite


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SKEINSOLVE_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# data commands
# ---------------------------------------------------------------------------


def test_content_poly_text(capsys):
    code, out, _ = run_cli(capsys, "content-poly", "6,4,2")
    assert code == 0
    assert out == "q^{-2} + 2q^{-1} + 2 + 2q + 2q^2 + q^3 + q^4 + q^5\n"


def test_content_poly_records(capsys):
    code, out, _ = run_cli(capsys, "content-poly", "2,1", "--format", "records")
    assert code == 0
    header, body = loads_records(out)
    assert header["kind"] == "content-polynomial"
    assert {(t["s"], t["c"]) for t in body["terms"]} == {
        (-2, "1"), (0, "1"), (2, "1")}


def test_hook_poly_text(capsys):
    code, out, _ = run_cli(capsys, "hook-poly", "2,1")
    assert code == 0
    assert out == "q^{-1} + 1 + q\n"


def test_partitions_listing(capsys):
    code, out, _ = run_cli(capsys, "partitions", "4")
    assert code == 0
    assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
    code, out, _ = run_cli(capsys, "partitions", "0")
    assert out == "∅\n"


def test_partitions_records(capsys):
    code, out, _ = run_cli(capsys, "partitions", "3", "--format", "records")
    rows = loads_records(out)
    assert rows[0]["count"] == 3
    assert [r["partition"] for r in rows[1:]] == ["3", "2,1", "1,1,1"]


def test_psi_text_lines(capsys):
    code, out, _ = run_cli(
        capsys, "psi", "--geometry", "c3", "--max-degree", "1", "--no-cache")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "∅: 1"
    assert lines[1] == "1: γ q^{1/2}/(-1 + q)"


def test_psi_records_parse_back(capsys):
    code, out, _ = run_cli(
        capsys, "psi", "--geometry", "unknot", "--max-degree", "3",
        "--no-cache", "--format", "records")
    assert code == 0
    back = skein_vector_from_records(loads_records(out))
    assert back == solve_recursion("unknot", 3)
    header = loads_records(out)[0]
    assert header["geometry"] == "unknot"
    assert "operator" in header and "variables" in header


def test_closed_form_and_invariant(capsys):
    code, out, _ = run_cli(
        capsys, "closed-form", "--geometry", "c3", "--partition", "1")
    assert code == 0
    assert out == "1: γ q^{1/2}/(-1 + q)\n"
    code, out, _ = run_cli(capsys, "invariant", "--partition", "")
    assert code == 0
    assert out == "∅: 1\n"


def test_solve_coefficients_text(capsys):
    code, out, _ = run_cli(capsys, "solve-coefficients", "--geometry", "c3")
    assert code == 0
    assert out == "solution 1: P01 = γ aL, P10 = -1\n"
    code, out, _ = run_cli(capsys, "solve-coefficients", "--geometry", "unknot")
    assert code == 0
    assert out == (
        "solution 1: P01 = -γ a^{-1} aL, P10 = -1, P11 = γ a\n"
        "solution 2: P01 = γ a aL, P10 = -1, P11 = -γ a^{-1}\n")


def test_solve_coefficients_records(capsys):
    code, out, _ = run_cli(
        capsys, "solve-coefficients", "--geometry", "unknot",
        "--format", "records")
    assert code == 0
    assert out == (
        '{"count":2,"geometry":"unknot","kind":"coefficient-solutions","schema":1}\n'
        '{"P01":[{"a":-1,"aL":1,"c":"-1","g":1,"s":0}],'
        '"P10":[{"a":0,"aL":0,"c":"-1","g":0,"s":0}],'
        '"P11":[{"a":1,"aL":0,"c":"1","g":1,"s":0}]}\n'
        '{"P01":[{"a":1,"aL":1,"c":"1","g":1,"s":0}],'
        '"P10":[{"a":0,"aL":0,"c":"-1","g":0,"s":0}],'
        '"P11":[{"a":-1,"aL":0,"c":"-1","g":1,"s":0}]}\n')


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------


def test_cache_round_trip_is_byte_identical(capsys, isolated_cache):
    args = ("psi", "--geometry", "c3", "--max-degree", "4", "--format", "records")
    code, fresh, _ = run_cli(capsys, *args, "--no-cache")
    assert code == 0
    assert not isolated_cache.exists()

    code, first, _ = run_cli(capsys, *args)
    code, second, _ = run_cli(capsys, *args)
    assert first == second == fresh

    files = list(isolated_cache.glob("psi-c3-N4-schema*.jsonl"))
    assert len(files) == 1
    # the stored bytes follow one cache-only line with their sha256
    body = fresh.encode("utf-8")
    checksum = b"sha256 " + hashlib.sha256(body).hexdigest().encode("ascii")
    assert files[0].read_bytes() == checksum + b"\n" + body


@pytest.mark.parametrize("geometry", ("c3", "unknot", "unknot-prime"))
def test_cache_text_mode_renders_from_records(capsys, isolated_cache, geometry):
    args = ("psi", "--geometry", geometry, "--max-degree", "6")
    code, first, _ = run_cli(capsys, *args)
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    code, fresh, _ = run_cli(capsys, *args, "--no-cache")
    assert fresh == first


@pytest.mark.parametrize("fmt", ("records", "text"))
def test_truncated_cache_entry_is_a_miss_and_rewritten(capsys, isolated_cache, fmt):
    args = ("psi", "--geometry", "c3", "--max-degree", "3", "--format", fmt)
    code, fresh, _ = run_cli(capsys, *args, "--no-cache")
    run_cli(capsys, *args)
    [entry] = isolated_cache.glob("psi-c3-N3-schema*.jsonl")
    stored = entry.read_bytes()
    entry.write_bytes(stored[:200])
    assert run_cli(capsys, *args) == (0, fresh, "")
    assert entry.read_bytes() == stored


@pytest.mark.parametrize("fmt", ("records", "text"))
def test_damaged_cache_entry_is_a_miss_and_rewritten(capsys, isolated_cache, fmt):
    # one coefficient digit changed in place: line count and header intact
    args = ("psi", "--geometry", "c3", "--max-degree", "5", "--format", fmt)
    code, fresh, _ = run_cli(capsys, *args, "--no-cache")
    run_cli(capsys, *args)
    [entry] = isolated_cache.glob("psi-c3-N5-schema*.jsonl")
    stored = entry.read_bytes()
    at = stored.rindex(b'"c":"1"')
    damaged = stored[:at] + b'"c":"2"' + stored[at + 7:]
    entry.write_bytes(damaged)
    assert damaged.count(b"\n") == stored.count(b"\n")
    assert run_cli(capsys, *args) == (0, fresh, "")
    assert entry.read_bytes() == stored


def _store_with_a_valid_checksum(entry, lines):
    """Write the body lines to the cache entry under their own sha256 line."""
    body = "\n".join(lines).encode("utf-8")
    entry.write_bytes(b"sha256 " + hashlib.sha256(body).hexdigest().encode("ascii")
                      + b"\n" + body)
    return body


@pytest.mark.parametrize("fmt", ("records", "text"))
def test_entry_with_a_blank_line_is_a_miss_and_rewritten(capsys, isolated_cache, fmt):
    # an empty line in place of the last record keeps the line count
    args = ("psi", "--geometry", "c3", "--max-degree", "3", "--format", fmt)
    code, fresh, _ = run_cli(capsys, *args, "--no-cache")
    run_cli(capsys, *args)
    [entry] = isolated_cache.glob("psi-c3-N3-schema*.jsonl")
    stored = entry.read_bytes()
    lines = stored.decode("utf-8").split("\n")[1:]
    assert lines[-2].endswith('"partition":"1,1,1"}') and lines[-1] == ""
    lines[-2] = ""
    _store_with_a_valid_checksum(entry, lines)
    assert run_cli(capsys, *args) == (0, fresh, "")
    assert entry.read_bytes() == stored


@pytest.mark.parametrize("fmt", ("records", "text"))
def test_entry_with_trailing_bytes_is_a_miss_and_rewritten(capsys, isolated_cache, fmt):
    # bytes after the final newline, with no newline of their own, keep the
    # line count
    args = ("psi", "--geometry", "c3", "--max-degree", "1", "--format", fmt)
    code, fresh, _ = run_cli(capsys, *args, "--no-cache")
    run_cli(capsys, *args)
    [entry] = isolated_cache.glob("psi-c3-N1-schema*.jsonl")
    stored = entry.read_bytes()
    lines = stored.decode("utf-8").split("\n")[1:]
    assert lines[-1] == ""
    lines[-1] = "not a record"
    _store_with_a_valid_checksum(entry, lines)
    assert run_cli(capsys, *args) == (0, fresh, "")
    assert entry.read_bytes() == stored


# edits of the partition-1 line of `psi --geometry c3 --max-degree 2`, each
# stored under a valid sha256 line
_UNREADABLE_RECORDS = {
    "float exponent": ('"g":1,"s":1}', '"g":1,"s":1.5}'),
    "bool exponent": ('"g":1,"s":1}', '"g":true,"s":1}'),
    "zero denominator": ('"den":[{"a":0,"aL":0,"c":"-1","g":0,"s":0},'
                         '{"a":0,"aL":0,"c":"1","g":0,"s":2}]', '"den":[]'),
    "a in a denominator": ('"den":[{"a":0,', '"den":[{"a":1,'),
    "denominator leading coefficient negative": ('"c":"-1","g":0,"s":0},{"a":0,"aL":0,"c":"1"',
                                                 '"c":"1","g":0,"s":0},{"a":0,"aL":0,"c":"-1"'),
    "denominator without a constant term": ('"c":"-1","g":0,"s":0}', '"c":"-1","g":0,"s":1}'),
    "coefficient not a number": ('"c":"1","g":1', '"c":"x","g":1'),
    "coefficient with a leading zero": ('"c":"1","g":1', '"c":"01","g":1'),
    "coefficient an int": ('"c":"1","g":1', '"c":1,"g":1'),
    "missing numerator": (',"num":[{"a":0,"aL":0,"c":"1","g":1,"s":1}]', ''),
    "missing exponent": ('"g":1,"s":1}', '"g":1}'),
    "term not a record": ('"num":[{"a":0,"aL":0,"c":"1","g":1,"s":1}]', '"num":[1]'),
    # beyond N(N+1) = 6: a wider span would allocate its whole s-list on read
    "s exponent beyond N(N+1)": ('"g":1,"s":1}', '"g":1,"s":7}'),
}


@pytest.mark.parametrize("edit", sorted(_UNREADABLE_RECORDS))
def test_entry_with_unreadable_records_is_a_miss_and_rewritten(capsys, isolated_cache, edit):
    old, new = _UNREADABLE_RECORDS[edit]
    args = ("psi", "--geometry", "c3", "--max-degree", "2")
    code, fresh, _ = run_cli(capsys, *args, "--no-cache")
    run_cli(capsys, *args)
    [entry] = isolated_cache.glob("psi-c3-N2-schema*.jsonl")
    stored = entry.read_bytes()
    lines = stored.decode("utf-8").split("\n")[1:]
    assert lines[2].endswith('"partition":"1"}') and lines[2].count(old) == 1
    lines[2] = lines[2].replace(old, new)
    body = _store_with_a_valid_checksum(entry, lines)
    # records mode serves the stored bytes without parsing them
    assert run_cli(capsys, *args, "--format", "records") == (0, body.decode("utf-8"), "")
    assert run_cli(capsys, *args) == (0, fresh, "")
    assert entry.read_bytes() == stored


@pytest.mark.parametrize("line, fmt", [(0, "records"), (0, "text"), (2, "text")],
                         ids=("header-records", "header-text", "record-text"))
def test_entry_nested_too_deeply_for_json_is_a_miss_and_rewritten(
        capsys, isolated_cache, monkeypatch, line, fmt):
    # one line of the entry, the header or the partition-1 record, holds
    # JSON nested past the decoder's recursion limit, under a valid sha256
    args = ("psi", "--geometry", "c3", "--max-degree", "2")
    code, fresh, _ = run_cli(capsys, *args, "--format", fmt, "--no-cache")
    code, cold, _ = run_cli(capsys, *args, "--format", "records")
    [entry] = isolated_cache.glob("psi-c3-N2-schema*.jsonl")
    stored = entry.read_bytes()
    lines = stored.decode("utf-8").split("\n")[1:]
    lines[line] = "[" * 100_000 + "]" * 100_000
    _store_with_a_valid_checksum(entry, lines)
    assert run_cli(capsys, *args, "--format", fmt) == (0, fresh, "")
    assert entry.read_bytes() == stored
    # the rewritten entry is a hit: nothing is solved again
    import skeinsolve.solver as solver_mod
    monkeypatch.setattr(solver_mod, "hook_content_vector", None)
    assert run_cli(capsys, *args, "--format", "records") == (0, cold, "")


def test_entry_from_another_version_is_a_miss(capsys, isolated_cache, monkeypatch):
    import skeinsolve.cache as cache_mod

    args = ("psi", "--geometry", "c3", "--max-degree", "4", "--format", "records")
    code, fresh, _ = run_cli(capsys, *args, "--no-cache")
    # an older release stored other bytes, with a valid checksum, for this key
    monkeypatch.setattr(cache_mod, "__version__", "0.0.1")
    old = cache_mod.ResultCache(isolated_cache)
    old_path = old.store("c3", 4, fresh.replace('"c":"1"', '"c":"2"', 1))
    assert old.load("c3", 4) is not None
    monkeypatch.undo()
    monkeypatch.setenv("SKEINSOLVE_CACHE_DIR", str(isolated_cache))
    assert run_cli(capsys, *args) == (0, fresh, "")
    [entry] = set(isolated_cache.glob("psi-c3-N4-schema*.jsonl")) - {old_path}
    assert f"-v{skeinsolve.__version__}." in entry.name
    assert run_cli(capsys, *args) == (0, fresh, "")


def test_version_matches_pyproject():
    # the version in the cache key is what keeps an older solver's entries
    # from being served, so it must be the released one
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        project = tomllib.load(handle)["project"]
    assert skeinsolve.__version__ == project["version"]


def test_unusable_cache_dir_warns_and_still_answers(capsys, tmp_path, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("SKEINSOLVE_CACHE_DIR", str(not_a_dir))
    args = ("psi", "--geometry", "c3", "--max-degree", "3", "--format", "records")
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert out == run_cli(capsys, *args, "--no-cache")[1]
    assert len(err.splitlines()) == 1 and err.startswith("warning:")


@pytest.mark.parametrize("env,expected", (
    ({"SKEINSOLVE_CACHE_DIR": "{tmp}/SKEINSOLVE_CACHE_DIR",
      "XDG_CACHE_HOME": "{tmp}/XDG_CACHE_HOME"}, "SKEINSOLVE_CACHE_DIR"),
    ({"XDG_CACHE_HOME": "{tmp}/XDG_CACHE_HOME"}, "XDG_CACHE_HOME/skeinsolve"),
    # the XDG Base Directory spec says to ignore a relative path
    ({"XDG_CACHE_HOME": "XDG_CACHE_HOME"}, "HOME/.cache/skeinsolve"),
    ({}, "HOME/.cache/skeinsolve"),
), ids=("own-variable", "xdg", "xdg-relative", "home"))
def test_default_cache_dir_reads_the_environment(tmp_path, monkeypatch, env, expected):
    monkeypatch.delenv("SKEINSOLVE_CACHE_DIR")
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path / "HOME"))
    for name, value in env.items():
        monkeypatch.setenv(name, value.format(tmp=tmp_path))
    assert default_cache_dir() == tmp_path / expected


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "parity",
                           "--max-degree", "8")
    assert code == 0
    assert "failures=0" in out and "pass" in out


def test_verify_all_suites_small(capsys):
    for suite in ("recursion", "branching", "commutator", "symmetry",
                  "annihilation", "hookforms"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite,
                               "--max-degree", "3")
        assert code == 0, (suite, out)
        assert "failures=0" in out


@pytest.mark.parametrize("suite, checked", [
    ("recursion", 36), ("branching", 11), ("commutator", 12), ("symmetry", 12),
    ("annihilation", 3), ("parity", 12), ("hookforms", 24)])
def test_suite_checks_one_identity_per_item(suite, checked):
    # p(0..4) = 1, 1, 2, 3, 5: twelve partitions through degree 4, eleven
    # nonempty; recursion checks each under three geometries, hookforms two
    # identities each, annihilation one ψ per geometry
    report = run_suite(suite, 4)
    assert (report.checked, report.failures) == (checked, 0)


@pytest.mark.parametrize("line", [
    "suite=recursion max-degree=8 checked=201 failures=0 pass",
    "suite=branching max-degree=12 checked=271 failures=0 pass",
    "suite=commutator max-degree=10 checked=139 failures=0 pass",
    "suite=symmetry max-degree=8 checked=67 failures=0 pass",
    "suite=annihilation max-degree=8 checked=3 failures=0 pass",
    "suite=parity max-degree=15 checked=684 failures=0 pass",
    "suite=hookforms max-degree=12 checked=544 failures=0 pass"],
    ids=lambda line: line.split()[0].removeprefix("suite="))
def test_suite_at_its_default_degree_checks_every_identity_and_passes(line):
    # a kernel change that skips an identity or breaks one shows here, and
    # not only in the benchmark's oracle
    suite = line.split()[0].removeprefix("suite=")
    assert run_suite(suite).lines() == [line]


@pytest.mark.parametrize("suite, max_degree, checked", [
    ("hookforms", 14, 1016), ("symmetry", 10, 139)])
def test_substitution_suites_pass_past_their_default_degree(suite, max_degree, checked):
    # 1016 = 2 (p(0) + ... + p(14)) and 139 = p(0) + ... + p(10): longer
    # slices than at the defaults go through s -> s^{-1} and s -> -s
    report = run_suite(suite, max_degree)
    assert (report.checked, report.failures) == (checked, 0)


def test_suite_report_starts_at_zero_and_keeps_the_first_counterexample(monkeypatch):
    # run_suite counts what the checks yield into one SuiteReport value
    import skeinsolve.verify as verify_mod

    monkeypatch.setitem(verify_mod.SUITES, "parity", (4, lambda n: iter(())))
    report = run_suite("parity")
    assert report == SuiteReport("parity", 4, 0, 0, None) and report.passed
    assert report.lines() == ["suite=parity max-degree=4 checked=0 failures=0 pass"]
    monkeypatch.setitem(verify_mod.SUITES, "parity",
                        (4, lambda n: iter([None, "first", None, "second"])))
    report = run_suite("parity", 3)
    assert report == SuiteReport("parity", 3, 4, 2, "first") and not report.passed
    assert report.lines() == [
        "suite=parity max-degree=3 checked=4 failures=2 FAIL",
        "first counterexample: first"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    import skeinsolve.cli as cli_mod

    def failing(name, max_degree=None):
        return SuiteReport(name, 0, 1, 1, "partition=(2,1)")

    monkeypatch.setattr(cli_mod, "run_suite", failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "parity")
    assert code == 1
    assert "FAIL" in out
    assert "partition=(2,1)" in out


def test_verify_recursion_failure_reports_both_values(capsys, monkeypatch):
    import skeinsolve.solver as solver_mod
    from skeinsolve import Partition, RationalFunction, SkeinVector

    wrong = Partition([2, 1])
    hook_content_vector = solver_mod.hook_content_vector

    def perturbed(tag, n):
        value = hook_content_vector(tag, n)
        return value + SkeinVector({wrong: RationalFunction(1, 3)}, n)

    monkeypatch.setattr(solver_mod, "hook_content_vector", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--suite", "recursion",
                           "--max-degree", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith("failures=3 FAIL")
    solved = solve_recursion("c3", 3).coefficient(wrong)
    expected = hook_content_vector("c3", 3).coefficient(wrong) + RationalFunction(1, 3)
    assert lines[1] == (
        f"first counterexample: geometry=c3 partition=(2,1) expected={expected} "
        f"solved={solved} difference=-1/(3)")
    assert len(lines) == 2


def _failing_report(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-degree", "3")
    assert code == 1
    head, line = out.splitlines()
    assert head.endswith("FAIL")
    return line


def test_verify_branching_failure_reports_the_difference(capsys, monkeypatch):
    import skeinsolve.partitions as partitions_mod
    from skeinsolve import Partition, RationalFunction, hook_polynomial

    wrong = Partition([2, 1])
    content = partitions_mod.content_polynomial
    monkeypatch.setattr(partitions_mod, "content_polynomial",
                        lambda p: content(p) + 1 if p == wrong else content(p))
    difference = RationalFunction(1, hook_polynomial(wrong))
    assert _failing_report(capsys, "branching") == (
        f"first counterexample: partition=(2,1) difference={difference}")


def test_verify_commutator_failure_reports_both_coefficients(capsys, monkeypatch):
    import skeinsolve.skein as skein_mod

    # doubling P11 itself, not Z_BRACKET: skein.diagonal_part reads
    # Z_BRACKET and is memoised, so a patched bracket would outlive the test
    monkeypatch.setattr(skein_mod, "P11_OP", skein_mod.P11_OP.scale(2))
    # P11 scaled by 2 (q^{1/2} - q^{-1/2}) against [P10, P01] on W_(), which
    # is (q^{1/2} - q^{-1/2}) aL W_(1)
    assert _failing_report(capsys, "commutator") == (
        "first counterexample: partition=() at=(1) "
        "scaled=-2aL q^{-1/2} + 2aL q^{1/2} commutator=-aL q^{-1/2} + aL q^{1/2}")


def test_verify_symmetry_failure_reports_both_forms(capsys, monkeypatch):
    import skeinsolve.solver as solver_mod
    from skeinsolve import Partition, RationalFunction

    wrong = Partition([2, 1])
    closed = solver_mod.closed_form

    def perturbed(geom, p):
        value = closed(geom, p)
        if p == wrong and geom == "unknot-prime":
            return value + RationalFunction(1, 3)
        return value

    monkeypatch.setattr(solver_mod, "closed_form", perturbed)
    primed = closed("unknot-prime", wrong)
    assert _failing_report(capsys, "symmetry") == (
        f"first counterexample: partition=(2,1) swapped={primed} "
        f"primed={primed + RationalFunction(1, 3)}")


def test_verify_annihilation_failure_reports_a_coefficient(capsys, monkeypatch):
    import skeinsolve.solver as solver_mod
    from skeinsolve import Partition, SkeinVector

    grow = solver_mod.hook_content_vector

    def perturbed(tag, n):
        return grow(tag, n) + SkeinVector.basis(Partition([2]), max_degree=n)

    monkeypatch.setattr(solver_mod, "hook_content_vector", perturbed)
    # O and P10 act diagonally, so the stray W_(2) leaves a residual at (2),
    # minus its diagonal part aL (q^{1/2} - q^{-1/2}) (1 + q), and none in
    # lower degree
    assert _failing_report(capsys, "annihilation") == (
        "first counterexample: geometry=c3 through degree 3 partition=(2) "
        "coefficient=aL q^{-1/2} - aL q^{3/2}")


def test_verify_parity_failure_reports_the_sum(capsys, monkeypatch):
    import skeinsolve.verify as verify_mod
    from skeinsolve import Partition, parity_sum

    wrong = Partition([2, 1])
    monkeypatch.setattr(verify_mod, "parity_sum",
                        lambda p: parity_sum(p) + (p == wrong))
    assert _failing_report(capsys, "parity") == (
        f"first counterexample: partition=(2,1) sum={parity_sum(wrong) + 1}")


def test_verify_hookforms_failure_reports_both_polynomials(capsys, monkeypatch):
    import skeinsolve.verify as verify_mod
    from skeinsolve import Partition, hook_polynomial

    wrong = Partition([2, 1])
    qpower = verify_mod.hook_polynomial_qpower_form
    monkeypatch.setattr(verify_mod, "hook_polynomial_qpower_form",
                        lambda p: qpower(p) + 1 if p == wrong else qpower(p))
    assert _failing_report(capsys, "hookforms") == (
        f"first counterexample: double formula, partition=(2,1) "
        f"product={hook_polynomial(wrong)} qpower={qpower(wrong) + 1}")


# ---------------------------------------------------------------------------
# usage errors and determinism
# ---------------------------------------------------------------------------


def test_usage_error_unknown_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partitions", "4", "--frobnicate"])
    assert exc.value.code == 2


def test_usage_error_bad_partition(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["content-poly", "1,2,3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("parts", ("100001", "99999999999999999999"))
@pytest.mark.parametrize("command", (
    ["content-poly"], ["hook-poly"], ["closed-form", "--geometry", "c3", "--partition"],
    ["invariant", "--partition"]), ids=lambda command: command[0])
def test_usage_error_partition_too_large(capsys, command, parts):
    # refused while the arguments are parsed, before any cell is built
    with pytest.raises(SystemExit) as exc:
        main([*command, parts])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("usage:") == 1 and "at most 100000 boxes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("parts", ("1_0", "+3", "\u0663"))
@pytest.mark.parametrize("command", (
    ["content-poly"], ["hook-poly"], ["closed-form", "--geometry", "c3", "--partition"],
    ["invariant", "--partition"]), ids=lambda command: command[0])
def test_usage_error_partition_not_ascii_digits(capsys, command, parts):
    # int() reads each of these as a number
    with pytest.raises(SystemExit) as exc:
        main([*command, parts])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("usage:") == 1 and "parts must be ASCII decimal digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ("1_0", "+3", "\u0663"))
@pytest.mark.parametrize("command", (
    ["partitions"], ["psi", "--geometry", "c3", "--max-degree"],
    ["verify", "--suite", "parity", "--max-degree"]), ids=lambda command: command[0])
def test_usage_error_integer_not_ascii_digits(capsys, command, value):
    # int() reads each of these as a number; a partition argument refuses them too
    with pytest.raises(SystemExit) as exc:
        main([*command, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("usage:") == 1 and "integers must be ASCII decimal digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, name", (
    (["partitions"], "n"), (["psi", "--geometry", "c3", "--max-degree"], "--max-degree"),
    (["verify", "--suite", "parity", "--max-degree"], "--max-degree")),
    ids=lambda x: x[0] if isinstance(x, list) else None)
def test_negative_integer_is_refused_by_the_command(capsys, command, name):
    # a leading "-" passes the digit check, so the command's own message shows
    assert main([*command, "-1"]) == 2
    assert capsys.readouterr().err == f"{name} must be nonnegative\n"


def test_largest_partition_argument_is_accepted():
    assert _partition_arg("100000").size == 100000


def test_usage_error_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_usage_error_bad_geometry(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--geometry", "wrong", "--max-degree", "1"])
    assert exc.value.code == 2


def _geometry_choices(command):
    [subparsers] = build_parser()._subparsers._group_actions
    [action] = [a for a in subparsers.choices[command]._actions
                if a.dest == "geometry"]
    return list(action.choices)


def test_geometry_names_at_the_cli(capsys):
    assert _geometry_choices("psi") == ["c3", "unknot", "unknot-prime"]
    assert _geometry_choices("closed-form") == ["c3", "unknot", "unknot-prime"]
    assert _geometry_choices("solve-coefficients") == ["c3", "unknot"]
    assert set(skeinsolve.TEMPLATES) <= set(skeinsolve.PRESETS)
    with pytest.raises(SystemExit) as exc:
        main(["solve-coefficients", "--geometry", "unknot-prime"])
    assert exc.value.code == 2


def test_output_bytes_deterministic(capsys):
    first = run_cli(capsys, "psi", "--geometry", "unknot-prime",
                    "--max-degree", "3", "--no-cache", "--format", "records")
    second = run_cli(capsys, "psi", "--geometry", "unknot-prime",
                     "--max-degree", "3", "--no-cache", "--format", "records")
    assert first == second
    third = run_cli(capsys, "solve-coefficients", "--geometry", "unknot")
    fourth = run_cli(capsys, "solve-coefficients", "--geometry", "unknot")
    assert third == fourth


def test_records_mode_is_valid_json_lines(capsys):
    _, out, _ = run_cli(capsys, "hook-poly", "6,4,2", "--format", "records")
    for line in out.splitlines():
        json.loads(line)


# sha256 of `psi --geometry G --max-degree 8 --no-cache --format records`
# as produced when sums still multiplied whole denominators; a faster ring
# or solver must keep these bytes.
GOLDEN_PSI_RECORDS_SHA256 = {
    "c3": "52729a9c2c9ebfdd64a4f846af39568f36d951ae5ef3073e40872c1edc2a2a69",
    "unknot": "bcd3dc486681499b61e3ee3ca0b543ac67af5dc47559af7d001107b03a4bce08",
    "unknot-prime": "e5b71965995a0748deabe561c76d73ae33baf52f7f75dc3bc56ff6caf00bf9ab",
}


@pytest.mark.parametrize("geom", sorted(GOLDEN_PSI_RECORDS_SHA256))
def test_psi_records_golden_bytes(capsys, geom):
    code, out, err = run_cli(capsys, "psi", "--geometry", geom, "--max-degree", "8",
                             "--no-cache", "--format", "records")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_PSI_RECORDS_SHA256[geom]


# sha256 of `psi --geometry G --max-degree 8 --no-cache --format text` as
# produced when psi still solved the recursion; the box-by-box hook-content
# product must keep these bytes.
GOLDEN_PSI_TEXT_SHA256 = {
    "c3": "96ffe921b13cb28005bf672a104b7c0f123100a697e0e7ed81c84401a5f9a453",
    "unknot": "704e1cf7c195fa7383638a270a5bfd13894121021ed88381c5e5b5e09a7edb66",
    "unknot-prime": "204f76d9b6fc4c7bc1d832fb3142d73941bed602ee7aecff2ae87f4129722092",
}


@pytest.mark.parametrize("geom", sorted(GOLDEN_PSI_TEXT_SHA256))
def test_psi_text_golden_bytes(capsys, geom):
    code, out, err = run_cli(capsys, "psi", "--geometry", geom, "--max-degree", "8",
                             "--no-cache", "--format", "text")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_PSI_TEXT_SHA256[geom]


# sha256 of `psi --geometry G --max-degree 12 --no-cache --format F`, as
# produced when polynomials were still stored as term dicts; the widest
# s-slices of any pinned output are here, and the stored form must keep
# these bytes.
GOLDEN_PSI_N12_SHA256 = {
    ("c3", "records"): "1ada107cd28ba6bc891be3930d090fd50ec5c0d3cf58f67682a46e2329d824f3",
    ("c3", "text"): "f7ccb30d9a6a48c25150cff8a7624116055bb72447d74538e26c9241374f109c",
    ("unknot", "records"): "93566acb21ebc488496feb7afad1eec8cf9e3fedb62446342e594b99120331a4",
    ("unknot", "text"): "9d1870a75a758ee96573665589df9cdc15753b155c71edb292846105af629fd5",
    ("unknot-prime", "records"):
        "692affd7cdec5c51decd4681904b9d8493c9b32e8aeebe9149d191b26db07a3e",
    ("unknot-prime", "text"): "62eaaf3a2504be152a986f5bc774c6e9b46beffc1ebb5f05bb9829ac98f01e59",
}


@pytest.mark.parametrize("geom,fmt", sorted(GOLDEN_PSI_N12_SHA256))
def test_psi_golden_bytes_at_degree_12(capsys, geom, fmt):
    code, out, err = run_cli(capsys, "psi", "--geometry", geom, "--max-degree", "12",
                             "--no-cache", "--format", fmt)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_PSI_N12_SHA256[geom, fmt]


# sha256 of the stdout of `closed-form --geometry G` and of `invariant`, run
# once per partition through degree 8 in output order and concatenated, as
# produced when each geometry's cell numerator was written out by hand; the
# forms read off the operator must keep these bytes.
GOLDEN_CLOSED_FORM_SHA256 = {
    ("c3", "text"):
        "96ffe921b13cb28005bf672a104b7c0f123100a697e0e7ed81c84401a5f9a453",
    ("c3", "records"):
        "f18488a623494475c85e7932b5f8fc50b975ec4df72bf5a05eb1ce9a0018c3ce",
    ("unknot", "text"):
        "704e1cf7c195fa7383638a270a5bfd13894121021ed88381c5e5b5e09a7edb66",
    ("unknot", "records"):
        "97fa33cd632efa4ead7dd0ae75740205b87dd3de7164576cd571936f5dc0c50f",
    ("unknot-prime", "text"):
        "204f76d9b6fc4c7bc1d832fb3142d73941bed602ee7aecff2ae87f4129722092",
    ("unknot-prime", "records"):
        "f4be60698295b193184bb3926ad5e395beda5ccfb11490a38344426109525d4d",
    ("invariant", "text"):
        "fb3944a34f84cf7fe792b268774153060299ddf2a8c164adab013b6fd0606ffe",
    ("invariant", "records"):
        "e75ff332be5f3f49bca8e31abbc0765d8e30b3d5eebb3ce51adaeaba7faa1991",
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_CLOSED_FORM_SHA256))
def test_closed_form_golden_bytes(capsys, command, fmt):
    from skeinsolve.partitions import partitions_through

    argv = (["invariant"] if command == "invariant"
            else ["closed-form", "--geometry", command])
    digest = hashlib.sha256()
    for p in partitions_through(8):
        code, out, err = run_cli(capsys, *argv, "--partition", str(p),
                                 "--format", fmt)
        assert (code, err) == (0, "")
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_CLOSED_FORM_SHA256[command, fmt]


# sha256 of the stdout of `partitions n` for n = 0..8, of `content-poly` and
# `hook-poly` for every partition through degree 6 in output order, each
# concatenated, and of `solve-coefficients --geometry c3`, as produced when
# each command wrote its own output; the shared output path must keep them.
GOLDEN_COMMAND_SHA256 = {
    ("partitions", "text"):
        "8e7a3df049fa15a54e68c49145448c40c9c8c7c441e0500ac63ef37266076e62",
    ("partitions", "records"):
        "3415f757c205458b4159862c6aabf44fba629e94033a29d6eda4b7c086c0af92",
    ("content-poly", "text"):
        "d5b4a8f5fcb00fe62c9d6aa9f95812667b7f5e9d7f17e734f2ce509c453e0fc2",
    ("content-poly", "records"):
        "0e4d64890d51158a0f9b6accbfa3529a6a20d5712b944720fb54621b16a30779",
    ("hook-poly", "text"):
        "9da75405f620f37df041e566421baace6179e8b35783979fac0af36e73fbaa6f",
    ("hook-poly", "records"):
        "303454b7b9d9e0904f6613b48eee8e947b09189c6d14b47389b0cce702f5f020",
    ("solve-coefficients", "text"):
        "a9bb1ede88eedbcb81bd4048d20cf2fabeb0a4266b77d9da3ba9c095ddd8bcf8",
    ("solve-coefficients", "records"):
        "1eefc374bb5bc4a63290cfb9de2da4f66c564528631a8df6282d5c74ec208283",
}


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_COMMAND_SHA256))
def test_command_golden_bytes(capsys, command, fmt):
    from skeinsolve.partitions import partitions_through

    if command == "partitions":
        runs = [[str(n)] for n in range(9)]
    elif command == "solve-coefficients":
        runs = [["--geometry", "c3"]]
    else:
        runs = [[str(p)] for p in partitions_through(6)]
    digest = hashlib.sha256()
    for args in runs:
        code, out, err = run_cli(capsys, command, *args, "--format", fmt)
        assert (code, err) == (0, "")
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_COMMAND_SHA256[command, fmt]


# ---------------------------------------------------------------------------
# a reader that stops early
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["partitions", "30"],
    ["psi", "--geometry", "c3", "--max-degree", "8", "--no-cache"],
], ids=["partitions", "psi"])
def test_closed_stdout_pipe_exits_quietly(argv):
    src = str(Path(skeinsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "skeinsolve.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # closed before the child has started, so its first write meets a
    # broken pipe whatever the size of its output
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""
