"""
Normalized series and the differential expressions built from them
===================================================================

Builds a few functions f(z) = z + a_{n+1} z^{n+1} + ..., evaluates the
test expressions |z f'' - beta (f' - f/z)| and friends along two routes
(closed coefficient formulas vs runtime derivatives), and shows they
agree to roundoff.
"""

import numpy as np

from diskcheck import Functional, PolySeries, SeriesA, eval_functional

# a function in the n = 2 class: z + 0.2 z^3 - 0.1i z^4
f = SeriesA.from_tail(2, [0.2, -0.1j])
print("f coefficients:", list(f.body.coeffs))
print("f(0.5)        :", f(0.5))
print("f'(0.5)       :", f.derivative()(0.5))

# the same functional two ways: the star test carries (k - 1)(k - beta) a_k
# at z^(k-1), the closed formula that check bounds
beta = 0.5 + 0.5j
a = f.body.coeffs
k = np.arange(a.size)
poly = PolySeries(((k - 1) * (k - beta) * a)[1:])
zs = 0.9 * np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
route_a = poly(zs)
route_b = eval_functional(Functional.STAR_TEST, f, beta, zs)
print("\nstar test via coefficient formula:", np.round(route_a, 6))
print("star test via derivatives        :", np.round(route_b, 6))
print("max disagreement:", np.max(np.abs(route_a - route_b)))

# quotients have no polynomial form; they are evaluated pointwise and
# refuse to divide by something tiny
q = eval_functional(Functional.STAR_QUOTIENT, f, z=0.7j)
print("\nz f'/f - 1 at 0.7i:", q)

# the transform f -> z f', which maps a_k to k a_k, turns the convex test
# into the starlike test
g = SeriesA(f.n, PolySeries(k * a))
lhs = eval_functional(Functional.STAR_TEST, g, beta, zs)
rhs = eval_functional(Functional.CONVEX_TEST, f, beta, zs)
print("\nconvex test of f equals star test of zf':", np.allclose(lhs, rhs))
