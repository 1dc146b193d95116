"""skeinsolve: exact arithmetic and solvers for partition-indexed skein
recursions on the solid torus.

The public names are resolved on first use (PEP 562), each from the module
that defines it, so importing the package, or running one command of its
CLI, loads only the modules that command needs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the version of the records format; cache.py keys entries by it without
# loading the serializer
SCHEMA_VERSION = 1

_HOMES = {
    "ring": (
        "A", "AL", "DenominatorNotSUnivariateError", "Exponent", "G",
        "LaurentPolynomial", "ONE", "Q", "RationalFunction", "S", "ZERO",
        "monomial", "q_int",
    ),
    "partitions": (
        "BOX", "Cell", "EMPTY", "EmptyPartitionError", "Partition",
        "addable_cells", "cells", "content_polynomial", "enumerate_partitions",
        "hook_polynomial", "hook_polynomial_qpower_form", "parity_sum",
        "partition_sort_key", "partitions_through", "removable_cells",
        "verify_branching",
    ),
    "skein": (
        "Generator", "OperatorExpression", "SkeinVector", "UNKNOT_VALUE",
        "Z_BRACKET",
    ),
    "solver": (
        "CoefficientTemplate", "Geometry", "NoSolutionError", "PRESETS",
        "TEMPLATES", "closed_form", "colored_unknot_invariant", "geometry",
        "hook_content_vector", "solve_monomial_coefficients",
        "solve_recursion", "verify_annihilation",
    ),
}

# each public name -> the submodule that defines it
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)
