"""skeinsolve: exact arithmetic and solvers for partition-indexed skein
recursions on the solid torus."""

from .ring import (
    A,
    AL,
    DenominatorNotSUnivariateError,
    Exponent,
    G,
    LaurentPolynomial,
    ONE,
    Q,
    RationalFunction,
    S,
    SignedMonomial,
    ZERO,
    gcd_s,
    monomial,
    q_int,
)
from .partitions import (
    BOX,
    Cell,
    EMPTY,
    EmptyPartitionError,
    Partition,
    addable_cells,
    cells,
    content_polynomial,
    enumerate_partitions,
    hook_polynomial,
    hook_polynomial_qpower_form,
    parity_sum,
    partition_sort_key,
    partitions_through,
    removable_cells,
    verify_branching,
)
from .skein import (
    Generator,
    OperatorExpression,
    SkeinVector,
    UNKNOT_VALUE,
    Z_BRACKET,
)
from .solver import (
    CoefficientTemplate,
    Geometry,
    NoSolutionError,
    PRESETS,
    TEMPLATES,
    closed_form,
    colored_unknot_invariant,
    geometry,
    hook_content_vector,
    solve_monomial_coefficients,
    solve_recursion,
    verify_annihilation,
)

__version__ = "0.1.0"
