"""Benchmark of the skeinsolve command line.

    python3 perfbench/run.py --workload psi-cold --seed 1 --seconds 30 --trace 0

Run from the root of a skeinsolve checkout.  Every command is a fresh
interpreter running `python -m skeinsolve.cli ...` against the checkout's
`src/`, launched one at a time from this process, exactly as a user would
type it.  Each timed command is checked against the independent oracle in
oracle.py.

A run first sets up: for psi-warm it fills a private cache with the
psi-cold commands; otherwise it starts an interpreter that imports
skeinsolve.cli.  It then repeats rounds of the workload's commands, each
round in a seeded order, until at least MIN_ROUNDS rounds and --seconds
seconds of rounds have passed.  More set-ups (FILL_SETUPS or IMPORT_SETUPS
in all) run between the first rounds; setup_s is their median.

A shared host runs a process at speeds up to 1.7x apart, in phases of
seconds to minutes, so raw times of the same code differ from run to run
by more than a regression worth catching.  Every timed command and every
set-up therefore runs between two runs of a fixed reference program
(REFERENCE_LOOP: standard library only, no skeinsolve code); one reference
closes a command and opens the next.  Each time is divided by the mean of
its two references and multiplied by REFERENCE_S, so the end-to-end times
are seconds at the speed at which the reference takes REFERENCE_S.  A
change to the program moves them in full; a change of host speed mostly
cancels out.  Each figure is built from per-command medians of these
scaled times across rounds, so a burst of interference during one round
does not move it.  The raw seconds are kept in the context line.  With
--trace 1 the timed commands run under tracer.py instead, without
references, and the per-layer figures are reported.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it holds the run's context (Python version, nproc, git SHA,
load average, steal seconds, per-command medians); the same record is kept
in perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

MIN_ROUNDS = 3
IMPORT_SETUPS = 9
FILL_SETUPS = 3
ORACLE_POINTS = 2

# The reference program: sparse products of dict-keyed Laurent polynomials
# with integer coefficients and a gcd over each product, the same kind of
# work as skeinsolve.ring, written independently of it.  About 0.2-0.3 s.
REFERENCE_LOOP = """
from math import gcd
p = {(i, i % 3, 0, 1): i * 7919 + 13 for i in range(40)}
total = 0
for _ in range(120):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in p.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[e] = out.get(e, 0) + c1 * c2
    g = 0
    for c in out.values():
        g = gcd(g, c)
    total += len(out) + g
print(total)
"""
REFERENCE_OUTPUT = b"15600\n"
# Seconds that one run of REFERENCE_LOOP stands for in the end-to-end times.
REFERENCE_S = 0.25


# -- commands and workloads ---------------------------------------------------


@dataclass(frozen=True)
class Psi:
    geometry: str
    max_degree: int
    fmt: str = "records"

    def python_args(self) -> list[str]:
        return ["-m", "skeinsolve.cli", "psi", "--geometry", self.geometry,
                "--max-degree", str(self.max_degree), "--format", self.fmt]

    def check(self, out: str, points) -> str | None:
        return oracle.check_psi(out, self.fmt, self.geometry, self.max_degree, points)


@dataclass(frozen=True)
class Verify:
    suite: str
    max_degree: int | None = None  # None: the suite's default degree

    def python_args(self) -> list[str]:
        degree = [] if self.max_degree is None else ["--max-degree", str(self.max_degree)]
        return ["-m", "skeinsolve.cli", "verify", "--suite", self.suite, *degree]

    def check(self, out: str, points) -> str | None:
        return oracle.check_verify(out, self.suite, self.max_degree)


@dataclass(frozen=True)
class ImportCli:
    """Interpreter start plus `import skeinsolve.cli`: the set-up floor."""

    def python_args(self) -> list[str]:
        return ["-c", "import skeinsolve.cli"]

    def check(self, out: str, points) -> str | None:
        return None if out == "" else f"unexpected output {out[:80]!r}"


@dataclass(frozen=True)
class Workload:
    timed: tuple
    fill: tuple = ()        # set-up fills a cache with these; else times ImportCli
    fresh_cache: bool = False  # each timed command gets an empty cache


COLD = (Psi("unknot", 9), Psi("unknot-prime", 9), Psi("c3", 12))

WORKLOADS = {
    "psi-cold": Workload(timed=COLD, fresh_cache=True),
    "verify-suites": Workload(
        timed=tuple(Verify(s) for s in oracle.VERIFY_DEFAULT_DEGREES)),
    "psi-warm": Workload(
        timed=tuple(Psi(c.geometry, c.max_degree, fmt)
                    for c in COLD for fmt in ("text", "records")),
        fill=COLD),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# -- per-layer metrics --------------------------------------------------------


def _per_layer_spec() -> list[tuple[str, str, str, str, str]]:
    """(metric, unit, better, aggregate table, key) for every per-layer metric."""
    spec = []

    def spans(names, with_calls=True):
        for name in names:
            if with_calls:
                spec.append((f"{name}.calls", "count", "lower", "calls", name))
            spec.append((f"{name}.self_s", "s", "lower", "self_s", name))

    def count(name, unit="count", better="lower"):
        spec.append((name, unit, better, "counts", name))

    spans(["ring.poly_mul"])
    count("ring.poly_mul.term_products")
    spans(["ring.poly_add", "ring.rf_new"])
    count("ring.rf_new.reducing")
    spans(f"ring.{n}" for n in ("rf_add", "rf_mul", "rf_div", "rf_eq",
                                "rf_substitute", "rf_str"))
    spans(f"partitions.{n}" for n in (
        "enumerate_partitions", "removable_cells", "addable_cells", "cells",
        "content_polynomial", "hook_polynomial", "hook_polynomial_qpower_form",
        "verify_branching", "parity_sum"))
    spans(f"skein.{n}" for n in ("apply.O", "apply.P10", "apply.P01", "apply.P11",
                                 "operator_apply", "vector_add", "vector_scale"))
    spans(f"solver.{n}" for n in ("solve_recursion", "raising_weight",
                                  "closed_form", "verify_annihilation"))
    for c in COLD:
        for d in range(c.max_degree - 3, c.max_degree + 1):
            key = f"solver.{c.geometry}.deg{d}"
            spec.append((f"{key}_s", "s", "lower", "degree_s", key))
    for suite in oracle.VERIFY_DEFAULT_DEGREES:
        spec.append((f"verify.{suite}_s", "s", "lower", "total_s", f"verify.{suite}"))
    spans((f"serialize.{n}" for n in ("skein_vector_records", "dumps_records",
                                      "loads_records", "skein_vector_from_records")),
          with_calls=False)
    count("serialize.bytes", unit="bytes")
    spans(["cache.load", "cache.store"])
    count("cache.hits", better="higher")
    count("cache.misses")
    spec.append(("cli.start_s", "s", "lower", "start_s", ""))
    spans(["cli.main"], with_calls=False)
    return spec


PER_LAYER = _per_layer_spec()


def per_layer_values(aggregates: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the tracer aggregates of one round."""
    out = {}
    for metric, _, _, table, key in PER_LAYER:
        if table == "start_s":
            out[metric] = sum(a["start_s"] or 0.0 for a in aggregates)
        else:
            out[metric] = sum(a[table].get(key, 0) for a in aggregates)
    return out


# -- running one command ------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: dict | None = None
    # mean wall and CPU seconds of the references run just before and after
    reference_wall_s: float | None = None
    reference_cpu_s: float | None = None


@dataclass
class Runner:
    """Launches commands one at a time and checks every output."""

    work: Path
    points: list
    references: bool = False  # whether `between_references` runs references
    attempted: int = 0
    failed: int = 0
    incorrect: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    _verdicts: dict = field(default_factory=dict)
    _last_reference: Sample | None = None

    def _launch(self, args: list[str], env: dict) -> tuple[int, bytes, str, Sample]:
        """Runs one interpreter to its exit: exit code, stdout, stderr, times."""
        with open(self.work / "stderr.txt", "w+b") as err:
            env[tracer.LAUNCH_ENV] = str(time.monotonic_ns())
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        return proc.returncode, out, stderr, sample

    def reference(self) -> Sample:
        """One run of REFERENCE_LOOP.  It is the benchmark's own program, so it
        is not counted in `attempted`; a wrong result stops the run."""
        code, out, stderr, sample = self._launch(["-c", REFERENCE_LOOP],
                                                  dict(os.environ, PYTHONHASHSEED="0"))
        if code != 0 or out != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference run: exit {code}, output {out[:80]!r}, "
                               f"{stderr[-300:]}")
        return sample

    def between_references(self, timed) -> Sample:
        """Calls `timed()` for a Sample and, with references on, runs it between
        two references and records their mean on it.  The reference that
        closed the previous call opens this one."""
        if not self.references:
            return timed()
        before = self._last_reference or self.reference()
        sample = timed()
        after = self._last_reference = self.reference()
        sample.reference_wall_s = (before.wall_s + after.wall_s) / 2
        sample.reference_cpu_s = (before.cpu_s + after.cpu_s) / 2
        return sample

    def run(self, command, cache_dir: Path, traced: bool = False) -> Sample:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                   SKEINSOLVE_CACHE_DIR=str(cache_dir))
        args = command.python_args()
        trace_path = self.work / "trace.json"
        if traced:
            args = [str(BENCH_DIR / "tracer.py"), *args[2:]]
            env[tracer.OUT_ENV] = str(trace_path)
            trace_path.unlink(missing_ok=True)
        self.attempted += 1
        returncode, out, stderr, sample = self._launch(args, env)
        if traced:
            sample.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        if returncode != 0:
            self.failed += 1
            self.errors.append(f"{command}: exit {returncode}: {stderr[-300:]}")
            return sample
        key = (command, hashlib.sha256(out).hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = command.check(out.decode("utf-8", "replace"), self.points)
        if self._verdicts[key] is not None:
            self.incorrect.append(f"{command}: {self._verdicts[key]}")
        return sample

    def fresh_cache(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))


# -- a run --------------------------------------------------------------------


def _steal_seconds() -> float | None:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def set_up(workload: Workload, runner: Runner, rng: random.Random) -> tuple[Sample, Path]:
    """One set-up: fill a fresh cache with the workload's fill commands, or,
    without any, start an interpreter that imports the CLI.  Returns its
    times and the cache directory."""
    cache = runner.fresh_cache()

    def timed() -> Sample:
        if not workload.fill:
            return runner.run(ImportCli(), cache)
        order = list(workload.fill)
        rng.shuffle(order)
        fills = [runner.run(c, cache) for c in order]
        return Sample(sum(f.wall_s for f in fills), sum(f.cpu_s for f in fills),
                      max(f.rss_mb for f in fills))

    return runner.between_references(timed), cache


def set_ups_due(repeats: int, rounds: int) -> int:
    """Set-ups due once `rounds` rounds are done: one before the first round,
    the rest spread over the first MIN_ROUNDS rounds, so that their median
    does not rest on one moment of the run."""
    return min(repeats, 1 + math.ceil((repeats - 1) * rounds / MIN_ROUNDS))


def timed_rounds(workload: Workload, runner: Runner, rng: random.Random,
                 seconds: float, cache: Path, traced: bool,
                 after_round=lambda rounds: None) -> dict:
    """Whole rounds until at least MIN_ROUNDS of them and `seconds` seconds
    spent in them; `after_round(rounds done)` runs between rounds, untimed."""
    samples: dict = {c: [] for c in workload.timed}
    spent = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or spent < seconds:
        start = time.perf_counter()
        order = list(workload.timed)
        rng.shuffle(order)
        for command in order:
            target = runner.fresh_cache() if workload.fresh_cache else cache
            samples[command].append(
                runner.between_references(lambda: runner.run(command, target, traced)))
            if workload.fresh_cache:
                shutil.rmtree(target)
        spent += time.perf_counter() - start
        rounds += 1
        after_round(rounds)
    return samples


def _median_of(samples: dict, attr: str) -> dict:
    return {c: statistics.median(getattr(s, attr) for s in runs)
            for c, runs in samples.items()}


def _scaled(sample: Sample, attr: str) -> float:
    """A time of the sample in seconds at the speed at which the reference
    takes REFERENCE_S."""
    return REFERENCE_S * getattr(sample, attr) / getattr(sample, f"reference_{attr}")


def _scaled_median_of(samples: dict, attr: str) -> dict:
    return {c: statistics.median(_scaled(s, attr) for s in runs)
            for c, runs in samples.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    rng = random.Random(seed)
    max_hook = max((c.max_degree for c in workload.timed + workload.fill
                    if isinstance(c, Psi)), default=1)
    points = oracle.random_points(random.Random(f"{seed}:points"), ORACLE_POINTS, max_hook)
    context = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(), "loadavg_start": os.getloadavg(),
    }
    steal_start = _steal_seconds()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        runner = Runner(work, points, references=not trace)
        repeats = 1 if trace else FILL_SETUPS if workload.fill else IMPORT_SETUPS
        first, cache = set_up(workload, runner, rng)
        set_ups = [first]

        def more_set_ups(rounds: int) -> None:
            while len(set_ups) < set_ups_due(repeats, rounds):
                sample, extra = set_up(workload, runner, rng)
                shutil.rmtree(extra)
                set_ups.append(sample)

        samples = timed_rounds(workload, runner, rng, seconds, cache, trace, more_set_ups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal_end = _steal_seconds()
    rounds = len(next(iter(samples.values())))
    walls = _median_of(samples, "wall_s")
    context.update({
        "loadavg_end": os.getloadavg(),
        "steal_s": None if steal_start is None or steal_end is None
        else round(steal_end - steal_start, 2),
        "rounds": rounds,
        "median_wall_s": {" ".join(c.python_args()[2:]): w for c, w in walls.items()},
        "raw_wall_s": sum(walls.values()),
        "raw_setup_s": statistics.median(s.wall_s for s in set_ups),
        "reference_wall_s": None if trace else statistics.median(
            s.reference_wall_s for runs in samples.values() for s in runs),
        "errors": runner.errors[:5],
        "incorrect": runner.incorrect[:5],
    })
    record = {"context": context, "samples": {
        " ".join(c.python_args()[2:]): [
            [s.wall_s, s.cpu_s, s.rss_mb, s.reference_wall_s, s.reference_cpu_s]
            for s in runs]
        for c, runs in samples.items()}}
    if trace:
        per_round = [per_layer_values([runs[r].trace for runs in samples.values()])
                     for r in range(rounds)]
        values = {m: statistics.median(v[m] for v in per_round) for m, *_ in PER_LAYER}
        units = {m: unit for m, unit, *_ in PER_LAYER}
        context["traced_wall_s"] = sum(walls.values())
    else:
        values = {
            "wall_s": sum(_scaled_median_of(samples, "wall_s").values()),
            "cpu_s": sum(_scaled_median_of(samples, "cpu_s").values()),
            "setup_s": statistics.median(_scaled(s, "wall_s") for s in set_ups),
            "peak_rss_mb": max(_median_of(samples, "rss_mb").values()),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    record["result"] = result
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its cache directories
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "skeinsolve" / "cli.py").is_file():
        print(f"no skeinsolve sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in record["context"]["errors"] + record["context"]["incorrect"]:
        print(line, file=sys.stderr)
    print(json.dumps({"context": record["context"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
