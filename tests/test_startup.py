"""What `import skeinsolve`, `import skeinsolve.cli` and a cache hit load:
every command pays for its imports first, so each loads only the modules it
runs.  The package resolves its public names on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skeinsolve
import skeinsolve.cli
import skeinsolve.solver

ALGEBRA = ("skeinsolve.ring", "skeinsolve.skein", "skeinsolve.solver")

# Modules no command needs at start-up: dataclasses brings inspect (and ast,
# dis, tokenize), and fractions brings decimal.  json, the result cache and
# the records serializer serve only the commands that read or write
# records, and the algebra only the commands that compute; each command
# imports what it runs.
UNUSED_AT_START = ("dataclasses", "inspect", "fractions", "decimal",
                   "json", "skeinsolve.cache", "skeinsolve.serialize", *ALGEBRA)

PROBE = """
import sys
import skeinsolve.cli
print(" ".join(m for m in %r if m in sys.modules))
""" % (UNUSED_AT_START,)


RECORDS_ONLY = ("json", "skeinsolve.cache", "skeinsolve.serialize")

# closed-form and invariant in text format print the value and read no cache
TEXT_COMMANDS_PROBE = """
import io, sys
from contextlib import redirect_stdout
import skeinsolve.cli
with redirect_stdout(io.StringIO()):
    assert skeinsolve.cli.main(["closed-form", "--geometry", "unknot", "--partition", "2,1"]) == 0
    assert skeinsolve.cli.main(["invariant", "--partition", "2,1"]) == 0
print(" ".join(m for m in %r if m in sys.modules))
""" % (RECORDS_ONLY,)

PACKAGE_PROBE = """
import sys
import skeinsolve
print(" ".join(m for m in sys.modules if m.startswith("skeinsolve.")))
"""

PSI_PROBE = """
import io, sys
from contextlib import redirect_stdout
import skeinsolve.cli
with redirect_stdout(io.StringIO()):
    assert skeinsolve.cli.main(["psi", "--geometry", "c3", "--max-degree", "4",
                                "--format", sys.argv[1]]) == 0
print(" ".join(m for m in sys.argv[2:] if m in sys.modules))
"""


def _loaded(probe: str, *argv: str, **env_vars: str) -> list[str]:
    # -S keeps site hooks (.pth files) from loading modules of their own
    src = str(Path(skeinsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env_vars)
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_no_unused_modules():
    assert _loaded(PROBE) == []


def test_text_closed_form_and_invariant_load_no_records_modules():
    assert _loaded(TEXT_COMMANDS_PROBE) == []


def test_package_import_loads_no_submodule():
    assert _loaded(PACKAGE_PROBE) == []


def _filled_cache(tmp_path) -> str:
    # the first run misses and solves, which the probe sees
    cache = str(tmp_path / "cache")
    assert _loaded(PSI_PROBE, "records", "skeinsolve.solver",
                   SKEINSOLVE_CACHE_DIR=cache) == ["skeinsolve.solver"]
    return cache


def test_warm_records_hit_loads_no_algebra_and_no_serializer(tmp_path):
    cache = _filled_cache(tmp_path)
    assert _loaded(PSI_PROBE, "records", *ALGEBRA, "skeinsolve.serialize",
                   SKEINSOLVE_CACHE_DIR=cache) == []


def test_warm_text_hit_loads_no_solver(tmp_path):
    cache = _filled_cache(tmp_path)
    assert _loaded(PSI_PROBE, "text", "skeinsolve.solver",
                   SKEINSOLVE_CACHE_DIR=cache) == []
    # the hit reads its records back into a skein vector
    assert _loaded(PSI_PROBE, "text", "skeinsolve.serialize",
                   SKEINSOLVE_CACHE_DIR=cache) == ["skeinsolve.serialize"]


# The names the package exported when its __init__ imported them all.
EXPORTED = {
    "ring": ("A", "AL", "DenominatorNotSUnivariateError", "Exponent", "G",
             "LaurentPolynomial", "ONE", "Q", "RationalFunction", "S",
             "ZERO", "monomial", "q_int"),
    "partitions": ("BOX", "Cell", "EMPTY", "EmptyPartitionError", "Partition",
                   "addable_cells", "cells", "content_polynomial",
                   "enumerate_partitions", "hook_polynomial",
                   "hook_polynomial_qpower_form", "parity_sum",
                   "partition_sort_key", "partitions_through",
                   "removable_cells", "verify_branching"),
    "skein": ("Generator", "OperatorExpression", "SkeinVector",
              "UNKNOT_VALUE", "Z_BRACKET"),
    "solver": ("CoefficientTemplate", "Geometry", "NoSolutionError", "PRESETS",
               "TEMPLATES", "closed_form", "colored_unknot_invariant",
               "geometry", "hook_content_vector", "solve_monomial_coefficients",
               "solve_recursion", "verify_annihilation"),
}


def test_all_lists_the_names_the_package_exported():
    assert sorted(skeinsolve.__all__) == sorted(
        name for names in EXPORTED.values() for name in names)


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in EXPORTED.items() for name in names])
def test_each_exported_name_is_its_defining_modules_object(module, name):
    namespace: dict = {}
    exec(f"from skeinsolve import {name}", namespace)
    defining = importlib.import_module(f"skeinsolve.{module}")
    assert namespace[name] is getattr(defining, name)


def test_unknown_attribute_raises_attribute_error_with_its_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        skeinsolve.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from skeinsolve import no_such_name", {})


def test_cli_geometry_names_are_the_solvers():
    assert skeinsolve.cli.PRESET_NAMES == tuple(skeinsolve.solver.PRESETS)
    assert skeinsolve.cli.TEMPLATE_NAMES == tuple(skeinsolve.solver.TEMPLATES)
