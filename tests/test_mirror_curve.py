"""The recursion as a quantization of the mirror curve.

The source paper calls the recursion "a skein-valued quantization of the
equation of the mirror curve".  The curves below are written from the
literature, not read from the package, each in the form

    1 - Y + u X + v X Y = 0:

    C^3:                      1 - Y + g X = 0
    resolved conifold:        1 - Y + g a X - g a^{-1} X Y = 0   (unknot)
    orientation-swapped:      1 - Y - g a^{-1} X + g a X Y = 0   (unknot-prime)

Here g is the unit gamma that the framing normalization leaves free.
Aganagic, Klemm, Marino and Vafa, "The topological vertex" (hep-th/0305132),
give the C^3 curve as e^u + e^v + 1 = 0 and the resolved conifold curve as
e^u + e^v + e^{u+v-t} + 1 = 0, in framing zero and up to the sign
conventions of u and v.  The change of variables is Y = -e^v and
g X = e^u for C^3, g a X = e^u and e^{-t} = a^{-2} for the unknot, and
-g a^{-1} X = e^u and e^{-t} = a^2 for the swapped orientation, which is the
unknot's curve under a -> a^{-1}.

X counts boxes and Y acts as X -> q X on F(X) = sum over n of psi_(n) X^n,
so the quantized curve  Y - 1 - q^{1/2} u X - q^{1/2} v X Y  kills F exactly
when the one-row coefficients satisfy

    (q^n - 1) psi_(n) = (u q^{1/2} + v q^{n-1/2}) psi_(n-1),

and the one-column coefficients satisfy the same with q -> q^{-1}, up to sign:

    (1 - q^{-n}) psi_(1^n) = (u q^{-1/2} + v q^{-n+1/2}) psi_(1^{n-1}).

At q = 1 the quantized coefficients q^{+-1/2} u and q^{+-1/2} v are u and v.
"""

from functools import cache

import pytest

from skeinsolve import A, EMPTY, G, Partition, Q, S, solve_recursion

DEGREE = 10

# name: (u, v) of the curve 1 - Y + u X + v X Y
CURVES = {
    "c3": (G, 0),
    "unknot": (G * A, -G * A ** -1),
    "unknot-prime": (-G * A ** -1, G * A),
}

# direction: the partitions of degree 0..DEGREE, the factor (q^n - 1) or
# (1 - q^{-n}) on psi of degree n, and h = q^{+-1/2}
DIRECTIONS = {
    "rows": ([EMPTY] + [Partition((n,)) for n in range(1, DEGREE + 1)],
             lambda n: Q ** n - 1, S),
    "columns": ([Partition((1,) * n) for n in range(DEGREE + 1)],
                lambda n: 1 - Q ** -n, S ** -1),
}

# each geometry is solved once for its rows and its columns
_solved = cache(solve_recursion)


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("name", CURVES)
def test_psi_satisfies_the_quantized_curve(name, direction):
    u, v = CURVES[name]
    shapes, factor, h = DIRECTIONS[direction]
    quantized_u, quantized_v = u * h, v * h
    assert quantized_u.substitute({"s": 1}) == u
    assert quantized_v.substitute({"s": 1}) == v
    psi = _solved(name, DEGREE)
    for n in range(1, DEGREE + 1):
        coefficient = quantized_u + quantized_v * h ** (2 * n - 2)
        assert (factor(n) * psi.coefficient(shapes[n])
                == coefficient * psi.coefficient(shapes[n - 1])), n
