"""Command-line surface.

Subcommands: partitions, content-poly, hook-poly, psi, closed-form,
invariant, verify, solve-coefficients.  Output is deterministic; structured
mode (--format records) emits line-delimited JSON with a schema version.
Exit codes: 0 success, 1 verification failure or no solution, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Sequence

from .cache import ResultCache
from .partitions import (
    Partition,
    _decimal,
    content_polynomial,
    enumerate_partitions,
    hook_polynomial,
)
from .serialize import (
    SCHEMA_VERSION,
    dumps_records,
    loads_records,
    rf_record,
    skein_vector_from_records,
    skein_vector_records,
)
from .solver import (
    NoSolutionError,
    PRESETS,
    TEMPLATES,
    closed_form,
    colored_unknot_invariant,
    geometry,
    hook_content_vector,
    solve_monomial_coefficients,
)
from .verify import SUITES, run_suite

EMPTY_DISPLAY = "∅"
_MAX_BOXES = 100_000  # far past any partition a command finishes with


def _int_arg(text: str) -> int:
    try:
        return _decimal(text, "integers")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _partition_arg(text: str) -> Partition:
    try:
        p = Partition.parse(text)
        if p.size > _MAX_BOXES:
            raise ValueError(f"at most {_MAX_BOXES} boxes, got {p.size}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return p


def _display(p: Partition) -> str:
    return str(p) or EMPTY_DISPLAY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinsolve",
        description="Exact partition-basis skein recursion toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "records"), default="text",
                       help="text rendering or line-delimited JSON records")

    p = sub.add_parser("partitions", help="list all partitions of n")
    p.add_argument("n", type=_int_arg)
    add_format(p)

    p = sub.add_parser("content-poly", help="content polynomial of a partition")
    p.add_argument("partition", type=_partition_arg,
                   help='comma-separated parts, e.g. "6,4,2"; "" or "0" is empty')
    add_format(p)

    p = sub.add_parser("hook-poly", help="hook polynomial of a partition")
    p.add_argument("partition", type=_partition_arg)
    add_format(p)

    p = sub.add_parser("psi", help="solve the annihilation recursion")
    p.add_argument("--geometry", required=True,
                   choices=PRESETS)
    p.add_argument("--max-degree", type=_int_arg, required=True)
    p.add_argument("--no-cache", action="store_true",
                   help="recompute even if a cached result exists")
    add_format(p)

    p = sub.add_parser("closed-form",
                       help="hook-content closed form of one coefficient")
    p.add_argument("--geometry", required=True,
                   choices=PRESETS)
    p.add_argument("--partition", type=_partition_arg, required=True)
    add_format(p)

    p = sub.add_parser("invariant",
                       help="colored invariant of the standard unknot")
    p.add_argument("--partition", type=_partition_arg, required=True)
    add_format(p)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--max-degree", type=_int_arg, default=None,
                   help="degree bound (suite-specific default)")

    p = sub.add_parser("solve-coefficients",
                       help="solve for unknown signed-monomial operator coefficients")
    p.add_argument("--geometry", required=True, choices=TEMPLATES)
    add_format(p)

    return parser


def _emit(fmt: str, header: dict, rows: Iterable[dict], lines: Iterable[str]) -> None:
    """Write the header, stamped with the schema, and the rows as records, or
    print the text lines; only the one the format asks for is consumed."""
    if fmt == "records":
        sys.stdout.write(dumps_records([{**header, "schema": SCHEMA_VERSION}, *rows]))
    else:
        for line in lines:
            print(line)


def _cmd_partitions(args) -> int:
    if args.n < 0:
        print("n must be nonnegative", file=sys.stderr)
        return 2
    parts = enumerate_partitions(args.n)
    _emit(args.format,
          {"kind": "partition-list", "n": args.n, "count": len(parts)},
          ({"partition": str(p)} for p in parts),
          (_display(p) for p in parts))
    return 0


def _cmd_content_poly(args) -> int:
    poly = content_polynomial(args.partition)
    _emit(args.format, {"kind": "content-polynomial", "partition": str(args.partition)},
          [{"terms": poly}], [poly])
    return 0


def _cmd_hook_poly(args) -> int:
    poly = hook_polynomial(args.partition)
    _emit(args.format, {"kind": "hook-polynomial", "partition": str(args.partition)},
          [{"terms": poly}], [poly])
    return 0


def _psi_records_text(geom_name: str, max_degree: int) -> str:
    geom = geometry(geom_name)
    psi = hook_content_vector(geom, max_degree)
    return dumps_records(skein_vector_records(
        psi, geometry=geom_name, operator=str(geom.operator)))


def _cmd_psi(args) -> int:
    if args.max_degree < 0:
        print("--max-degree must be nonnegative", file=sys.stderr)
        return 2
    if args.no_cache:
        text = _psi_records_text(args.geometry, args.max_degree)
    else:
        cache = ResultCache()
        text = cache.load(args.geometry, args.max_degree)
        if text is None:
            text = _psi_records_text(args.geometry, args.max_degree)
            try:
                cache.store(args.geometry, args.max_degree, text)
            except OSError as exc:
                print(f"warning: result not cached: {exc}", file=sys.stderr)
    if args.format == "records":
        sys.stdout.write(text)
    else:
        psi = skein_vector_from_records(loads_records(text))
        for p, coeff in psi.items():
            print(f"{_display(p)}: {coeff}")
    return 0


def _cmd_closed_form(args) -> int:
    value = closed_form(args.geometry, args.partition)
    _emit(args.format, {"kind": "closed-form", "geometry": args.geometry,
                        "partition": str(args.partition)},
          [rf_record(value)], [f"{_display(args.partition)}: {value}"])
    return 0


def _cmd_invariant(args) -> int:
    value = colored_unknot_invariant(args.partition)
    _emit(args.format, {"kind": "unknot-invariant", "partition": str(args.partition)},
          [rf_record(value)], [f"{_display(args.partition)}: {value}"])
    return 0


def _cmd_verify(args) -> int:
    if args.max_degree is not None and args.max_degree < 0:
        print("--max-degree must be nonnegative", file=sys.stderr)
        return 2
    report = run_suite(args.suite, args.max_degree)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_solve_coefficients(args) -> int:
    try:
        solutions = solve_monomial_coefficients(TEMPLATES[args.geometry])
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    ordered = [sorted(sol.items(), key=lambda kv: kv[0].value) for sol in solutions]
    _emit(args.format,
          {"kind": "coefficient-solutions", "geometry": args.geometry,
           "count": len(solutions)},
          ({gen.value: sm.to_polynomial() for gen, sm in sol}
           for sol in ordered),
          (f"solution {i}: " + ", ".join(f"{gen.value} = {sm}" for gen, sm in sol)
           for i, sol in enumerate(ordered, start=1)))
    return 0


_COMMANDS = {
    "partitions": _cmd_partitions,
    "content-poly": _cmd_content_poly,
    "hook-poly": _cmd_hook_poly,
    "psi": _cmd_psi,
    "closed-form": _cmd_closed_form,
    "invariant": _cmd_invariant,
    "verify": _cmd_verify,
    "solve-coefficients": _cmd_solve_coefficients,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (e.g. `| head`): not a failure.  Point
        # stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
