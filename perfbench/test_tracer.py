"""Self-tests of the benchmark's tracer: every per-layer metric is reported,
every wrapper fires where it must, and the zeros the workloads predict are
zero.  Run with `python3 -m pytest perfbench` from the root of the
repository."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import skeinsolve  # noqa: E402
import skeinsolve.cli  # noqa: E402


def test_set_ups_are_spread_over_the_first_rounds():
    for repeats in (1, run.FILL_SETUPS, run.IMPORT_SETUPS):
        due = [run.set_ups_due(repeats, r) for r in range(40)]
        assert due[0] == 1 and due == sorted(due) and max(due) == repeats
        assert due[run.MIN_ROUNDS] == repeats


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == [m for m, *_ in run.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _skeinsolve_modules():
    return [m for n, m in sys.modules.items()
            if n == "skeinsolve" or n.startswith("skeinsolve.")]


def _references(targets: set[int]) -> list[str]:
    """Every place a skeinsolve module, module-level dict or class holds one of
    the given objects (by id)."""
    found = []
    for module in _skeinsolve_modules():
        for key, value in vars(module).items():
            if id(value) in targets:
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, dict) and key != "__builtins__":
                found += [f"{module.__name__}.{key}[{k!r}]"
                          for k, v in value.items() if id(v) in targets]
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{value.__name__}.{k}"
                          for k, v in vars(value).items() if id(v) in targets]
    return found


@pytest.fixture
def installed():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_no_reference_to_an_original_survives(installed):
    originals = {id(original) for _, _, original in installed._restore}
    assert _references(originals) == []
    wrappers = {id(holder[key] if isinstance(holder, dict) else vars(holder)[key])
                for holder, key, _ in installed._restore}
    aliases = _references(wrappers)
    for expected in ("skeinsolve.solver.enumerate_partitions",
                     "skeinsolve.verify.enumerate_partitions",
                     "skeinsolve.skein._APPLY[<Generator.P01: 'P01'>]",
                     "RationalFunction.__radd__", "RationalFunction.__rmul__",
                     "LaurentPolynomial.__rmul__", "skeinsolve.cli.run_suite"):
        assert expected in aliases


def test_uninstall_restores_originals():
    before = skeinsolve.ring.RationalFunction.__dict__["__radd__"]
    t = tracer.Tracer()
    t.install()
    assert skeinsolve.ring.RationalFunction.__dict__["__radd__"] is not before
    t.uninstall()
    assert skeinsolve.ring.RationalFunction.__dict__["__radd__"] is before


def _main(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert skeinsolve.cli.main(list(argv)) == 0


def test_every_wrapper_fires(installed, tmp_path, monkeypatch):
    monkeypatch.setenv("SKEINSOLVE_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(tracer.LAUNCH_ENV, str(time.monotonic_ns()))
    _main("psi", "--geometry", "unknot", "--max-degree", "4")  # miss, then text
    _main("psi", "--geometry", "unknot", "--max-degree", "4")  # hit
    for suite in run.oracle.VERIFY_DEFAULT_DEGREES:
        _main("verify", "--suite", suite, "--max-degree", "3")
    values = run.per_layer_values([installed.aggregates()])
    silent = [m for m, *_ in run.PER_LAYER
              if values[m] == 0 and ".deg" not in m]
    assert silent == []
    before = installed.calls["ring.rf_add"]
    1 + skeinsolve.ring.RationalFunction(skeinsolve.ring.S)  # int + RF: __radd__
    assert installed.calls["ring.rf_add"] == before + 1


def test_degree_spans_cover_the_solve(installed):
    skeinsolve.solver.solve_recursion("c3", 6)
    degrees = installed.aggregates()["degree_s"]
    assert sorted(degrees) == sorted(f"solver.c3.deg{d}" for d in range(1, 7))
    total = installed.aggregates()["total_s"]["solver.solve_recursion"]
    assert 0.5 * total < sum(degrees.values()) <= total


SMALL_COLD = (run.Psi("unknot", 4), run.Psi("c3", 5))
SMALL = {
    "psi-cold": run.Workload(timed=SMALL_COLD, fresh_cache=True),
    "psi-warm": run.Workload(
        timed=tuple(run.Psi(c.geometry, c.max_degree, f)
                    for c in SMALL_COLD for f in ("text", "records")),
        fill=SMALL_COLD),
    "verify-suites": run.Workload(
        timed=tuple(run.Verify(s, 3) for s in run.oracle.VERIFY_DEFAULT_DEGREES)),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    out = {}
    points = run.oracle.random_points(random.Random(3), 2, 5)
    for name, workload in SMALL.items():
        runner = run.Runner(tmp_path_factory.mktemp(name), points)
        rng = random.Random(1)
        _, cache = run.set_up(workload, runner, rng)
        samples = run.timed_rounds(workload, runner, rng, 0, cache, traced=True)
        assert runner.failed == 0 and runner.incorrect == []
        out[name] = run.per_layer_values([s.trace for runs in samples.values()
                                          for s in runs])
    return out


def _nonzero(values: dict, prefix: str) -> list[str]:
    return [m for m, v in values.items() if m.startswith(prefix) and v]


def test_expected_zeros(traced):
    assert _nonzero(traced["psi-cold"], "skein.") == []
    assert _nonzero(traced["psi-warm"], "solver.") == []
    assert traced["psi-cold"]["cache.hits"] == 0
    assert traced["psi-warm"]["cache.misses"] == 0


def test_expected_activity(traced):
    cold, warm, suites = traced["psi-cold"], traced["psi-warm"], traced["verify-suites"]
    assert cold["cache.misses"] == cold["cache.store.calls"] == run.MIN_ROUNDS * len(SMALL_COLD)
    assert warm["cache.hits"] == run.MIN_ROUNDS * len(SMALL["psi-warm"].timed)
    assert cold["ring.poly_mul.term_products"] > 0 and cold["ring.rf_new.reducing"] > 0
    assert warm["serialize.skein_vector_from_records.self_s"] > 0
    assert warm["ring.rf_str.calls"] > 0 and cold["ring.rf_str.calls"] == 0
    assert suites["skein.apply.P11.calls"] > 0 and suites["ring.rf_substitute.calls"] > 0
    assert all(suites[f"verify.{s}_s"] > 0 for s in run.oracle.VERIFY_DEFAULT_DEGREES)
    for values in traced.values():
        assert values["cli.start_s"] > 0 and values["cli.main.self_s"] > 0
