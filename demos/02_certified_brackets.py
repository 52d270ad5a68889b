"""
Certified sup-modulus brackets on circles and disks
===================================================

A sup over |z| <= r can be pinned between a grid sample (a true lower
bound) and the smallest of a coefficient-sum bound, the sample padded by a
Lipschitz term, and the sample times sec(pi K / (2 m)) for a degree-K
polynomial on an m-point grid with K < m (each a true upper bound). The
bracket width shrinks with the grid; for monomials it collapses to zero.
"""

import numpy as np

from diskcheck import GridSpec, PolySeries, circle_argmax, poly_sup

p = PolySeries(np.array([0, 1, -0.4, 0.25j, 0.1], dtype=complex))

print("coefficient bound at r=0.9:", np.sum(np.abs(p.coeffs) * 0.9 ** np.arange(p.coeffs.size)))

for m in (64, 512, 4096):
    b = poly_sup(p, 0.9, GridSpec(m=m))
    print(f"m={m:5d}  lower={b.lower:.12f}  upper={b.upper:.12f}  width={b.width:.3e}")

# monomials have constant modulus on each circle, so the bracket is exact
mono = PolySeries(np.array([0, 0, 0, 2j], dtype=complex))
b = poly_sup(mono, 0.5, GridSpec(m=16))
print("\nmonomial 2i z^3 at r=0.5:", b.lower, b.upper, "(truth 0.25)")

# circle maxima grow with the radius for analytic functions
print("\nradius ladder for |p| (maximum principle in action):")
for r in (1.0 - 2.0**-k for k in range(1, 11)):
    print(f"  r={r:.10f}  sup={circle_argmax(p.eval, r, GridSpec(m=1024, refine_depth=2))[0]:.10f}")
