"""Per-layer tracing of one skeinsolve command, from outside the package.

Run as a script, it stands in for `python -m skeinsolve.cli`:

    SKEINBENCH_TRACE_OUT=out.json SKEINBENCH_LAUNCH_NS=<monotonic ns> \
        python3 perfbench/tracer.py psi --geometry c3 --max-degree 5

It imports skeinsolve, wraps the public functions of every module, runs the
command and writes the per-span aggregates to SKEINBENCH_TRACE_OUT.  A
wrapper is installed everywhere its target is looked up: in every
skeinsolve module global that holds it (names imported with `from ... import`),
in dicts held by module globals (skein's generator table), and under every
class attribute that aliases it (`__radd__ = __add__`).

A span's self time is its duration minus the durations of the spans it
called directly.  Spans are aggregated per name in memory; nothing is
written until the command ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

OUT_ENV = "SKEINBENCH_TRACE_OUT"
LAUNCH_ENV = "SKEINBENCH_LAUNCH_NS"

SOLVE_SPAN = "solver.solve_recursion"
DEGREE_SPAN = "partitions.enumerate_partitions"


def _geometry_name(geom) -> str:
    tag = getattr(geom, "tag", geom)
    return getattr(tag, "value", str(tag))


class Tracer:
    """Wraps skeinsolve's public functions and aggregates their spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.degree_ns: dict[str, int] = defaultdict(int)
        self.start_s: float | None = None
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """Wrapper recording a span; `name` is a string or a function of
        the call's arguments; `after(args, kwargs, result)` runs once the
        span has closed."""
        stack = self._stack
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = fixed or name(args, kwargs)
            frame = [span, 0, None]
            if span == DEGREE_SPAN and stack and stack[-1][0] == SOLVE_SPAN:
                stack[-1][2].append((args[0], time.perf_counter_ns()))
            elif span == SOLVE_SPAN:
                frame[2] = []
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                self.calls[span] += 1
                self.total_ns[span] += dt
                self.self_ns[span] += dt - frame[1]
                if span == SOLVE_SPAN:
                    self._degrees(_geometry_name(args[0]), frame[2], t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _degrees(self, geometry: str, marks: list, end_ns: int) -> None:
        for (degree, t), (_, t_next) in zip(marks, marks[1:] + [(None, end_ns)]):
            self.degree_ns[f"solver.{geometry}.deg{degree}"] += t_next - t

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Install every wrapper; `uninstall` restores the originals."""
        import skeinsolve.cache as cache
        import skeinsolve.cli as cli
        import skeinsolve.partitions as partitions
        import skeinsolve.ring as ring
        import skeinsolve.serialize as serialize
        import skeinsolve.skein as skein
        import skeinsolve.solver as solver
        import skeinsolve.verify as verify

        count = self.counts
        LP, RF = ring.LaurentPolynomial, ring.RationalFunction

        def terms(x) -> int:
            if isinstance(x, LP):
                return len(x)
            if isinstance(x, ring.SignedMonomial):
                return 1
            return 1 if isinstance(x, int) and x else 0

        def s_width(x) -> int:
            # width of the s-exponent range, additive under multiplication
            if isinstance(x, LP) and len(x):
                lo, hi = x.s_range()
                return hi - lo
            return 0

        def poly_mul(args, kwargs, result):
            count["ring.poly_mul.term_products"] += (
                terms(args[0]) * terms(args[1]))

        def rf_new(args, kwargs, result):
            self_, num = args[0], args[1]
            den = args[2] if len(args) > 2 else kwargs.get("denominator", 1)
            if self_.is_zero:
                return
            if isinstance(num, RF) or isinstance(den, RF):
                width = (s_width(num.denominator if isinstance(num, RF) else 1)
                         + s_width(den.numerator if isinstance(den, RF) else den))
            else:
                width = s_width(den)
            if s_width(self_.denominator) < width:
                count["ring.rf_new.reducing"] += 1

        def cache_load(args, kwargs, result):
            count["cache.misses" if result is None else "cache.hits"] += 1

        def dumped(args, kwargs, result):
            count["serialize.bytes"] += len(result)

        def loaded(args, kwargs, result):
            count["serialize.bytes"] += len(args[0])

        methods = [
            (LP, "__mul__", "ring.poly_mul", poly_mul),
            (LP, "__add__", "ring.poly_add", None),
            (RF, "__init__", "ring.rf_new", rf_new),
            (RF, "__add__", "ring.rf_add", None),
            (RF, "__mul__", "ring.rf_mul", None),
            (RF, "__truediv__", "ring.rf_div", None),
            (RF, "__eq__", "ring.rf_eq", None),
            (RF, "substitute", "ring.rf_substitute", None),
            (RF, "__str__", "ring.rf_str", None),
            (skein.OperatorExpression, "apply", "skein.operator_apply", None),
            (skein.SkeinVector, "__add__", "skein.vector_add", None),
            (skein.SkeinVector, "scale", "skein.vector_scale", None),
            (solver.Geometry, "raising_weight", "solver.raising_weight", None),
            (cache.ResultCache, "load", "cache.load", cache_load),
            (cache.ResultCache, "store", "cache.store", None),
        ]
        functions = [(partitions, f, f"partitions.{f}", None) for f in (
            "enumerate_partitions", "removable_cells", "addable_cells", "cells",
            "content_polynomial", "hook_polynomial", "hook_polynomial_qpower_form",
            "verify_branching", "parity_sum")]
        functions += [(skein, f"apply_{g}", f"skein.apply.{label}", None)
                      for g, label in (("unknot", "O"), ("p10", "P10"),
                                       ("p01", "P01"), ("p11", "P11"))]
        functions += [(solver, f, f"solver.{f}", None) for f in (
            "solve_recursion", "closed_form", "verify_annihilation")]
        functions += [
            (verify, "run_suite", lambda a, k: f"verify.{a[0]}", None),
            (serialize, "skein_vector_records", "serialize.skein_vector_records", None),
            (serialize, "dumps_records", "serialize.dumps_records", dumped),
            (serialize, "loads_records", "serialize.loads_records", loaded),
            (serialize, "skein_vector_from_records",
             "serialize.skein_vector_from_records", None),
        ]

        def first_line_of_main(args, kwargs):
            if self.start_s is None and LAUNCH_ENV in os.environ:
                launched = int(os.environ[LAUNCH_ENV])
                self.start_s = (time.monotonic_ns() - launched) / 1e9
            return "cli.main"

        functions.append((cli, "main", first_line_of_main, None))

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "skeinsolve" or n.startswith("skeinsolve.")]
        for cls, attr, name, after in methods:
            original = cls.__dict__[attr]
            wrapper = self.wrap(original, name, after)
            for alias, value in list(cls.__dict__.items()):
                if value is original:
                    self._replace(cls, alias, wrapper)
        for module, attr, name, after in functions:
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace(value, k, wrapper)

    def _replace(self, holder, key, wrapper) -> None:
        if isinstance(holder, dict):
            self._restore.append((holder, key, holder[key]))
            holder[key] = wrapper
        else:
            self._restore.append((holder, key, vars(holder)[key]))
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "total_s": {k: v / 1e9 for k, v in self.total_ns.items()},
            "counts": dict(self.counts),
            "degree_s": {k: v / 1e9 for k, v in self.degree_ns.items()},
            "start_s": self.start_s,
        }


def main() -> int:
    out_path = os.environ[OUT_ENV]
    import skeinsolve.cli
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = skeinsolve.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.aggregates(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
