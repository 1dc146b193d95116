"""Self-tests of the reference runs that scale the end-to-end times.  Run with
`python3 -m pytest perfbench` from the root of the repository."""

from __future__ import annotations

import random

import pytest

import run


def test_reference_prints_its_checksum_without_skeinsolve():
    assert "skeinsolve" not in run.REFERENCE_LOOP
    namespace: dict = {}
    printed = []
    exec(run.REFERENCE_LOOP, {"print": printed.append}, namespace)
    assert f"{printed[0]}\n".encode() == run.REFERENCE_OUTPUT


def test_reference_run_is_checked_and_not_counted(tmp_path):
    runner = run.Runner(tmp_path, [], references=True)
    sample = runner.reference()
    assert sample.wall_s > 0 and sample.cpu_s > 0
    assert runner.attempted == 0


class _FakeRunner(run.Runner):
    """A runner whose references take 1, 2, 3, ... seconds in turn."""

    def reference(self) -> run.Sample:
        self.made = getattr(self, "made", 0) + 1
        return run.Sample(float(self.made), float(self.made) / 2, 1.0)


def test_each_sample_is_scaled_by_its_neighbouring_references(tmp_path):
    runner = _FakeRunner(tmp_path, [], references=True)
    first = runner.between_references(lambda: run.Sample(3.0, 3.0, 1.0))
    second = runner.between_references(lambda: run.Sample(5.0, 5.0, 1.0))
    assert runner.made == 3  # the middle reference serves both samples
    assert (first.reference_wall_s, second.reference_wall_s) == (1.5, 2.5)
    assert (first.reference_cpu_s, second.reference_cpu_s) == (0.75, 1.25)
    assert run._scaled(first, "wall_s") == pytest.approx(run.REFERENCE_S * 3.0 / 1.5)
    assert run._scaled(second, "cpu_s") == pytest.approx(run.REFERENCE_S * 5.0 / 1.25)


def test_no_references_without_them(tmp_path):
    runner = _FakeRunner(tmp_path, [], references=False)
    sample = runner.between_references(lambda: run.Sample(3.0, 3.0, 1.0))
    assert sample.reference_wall_s is None and not hasattr(runner, "made")


def test_every_set_up_and_command_lies_between_references(tmp_path):
    workload = run.Workload(timed=(run.Verify("parity", 2), run.Verify("symmetry", 2)))
    runner = _FakeRunner(tmp_path, [], references=True)
    setup, cache = run.set_up(workload, runner, random.Random(1))
    samples = run.timed_rounds(workload, runner, random.Random(1), 0, cache, traced=False)
    assert setup.reference_wall_s is not None
    assert all(s.reference_wall_s is not None for runs in samples.values() for s in runs)
    # one reference before the set-up and one after each set-up or command
    assert runner.made == 1 + 1 + run.MIN_ROUNDS * len(workload.timed)
    assert runner.failed == 0 and runner.incorrect == []
