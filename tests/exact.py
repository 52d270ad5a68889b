"""Exact decisions on a circle |z| = r in rational arithmetic: the oracle
that certified brackets and grid verdicts are tested against.

Floats are exact rationals, so polynomials with float coefficients, a float
radius and a float bound pose a question with an exact answer. Whether

    T = sum_i w_i |p_i(z)|^2 > 0   at every z on |z| = r,

for rational weights w_i (b^2 |D|^2 - |N|^2 is |N/D| < b with D nonzero,
b^2 - |p|^2 is |p| < b, and |N + D|^2/4 - |N - D|^2/4 - alpha |D|^2 =
Re(N conj(D)) - alpha |D|^2 is Re(N/D) > alpha), is decided by the tangent half-angle
substitution. With t = tan(theta / 2), e^{i theta} = (1 + it)/(1 - it) and
|1 - it|^2 = 1 + t^2, so P(t) = (1 + t^2)^K T is a real polynomial of degree
at most 2K with rational coefficients, K the largest degree of the p_i. T is
positive on the whole circle exactly when P(0) > 0 (theta = 0), P has degree
2K with a positive leading coefficient (theta = pi), and P has no real root.
The last is decided by sympy's real root isolation,
Poly(P).sqf_part().intervals(), by Vincent-Akritas-Strzebonski continued
fractions (Collins & Akritas, SYMSAC 1976; Akritas & Strzebonski,
Nonlinear Analysis: Modelling and Control 10 (2005); for the reduction,
Dumitrescu, Positive Trigonometric Polynomials and Signal Processing
Applications, Springer 2007).

A polynomial is a list of Gaussian rationals (re, im), pairs of Fractions,
lowest degree first. sympy is a declared test dependency: without it, the
tests that import this module fail rather than skip.
"""

from fractions import Fraction
from math import comb, lcm

import sympy

_T = sympy.Symbol("t")


def gauss(x) -> tuple:
    """The number x (int, float or complex) as an exact Gaussian rational."""
    x = complex(x)
    return Fraction(x.real), Fraction(x.imag)


def _mul(x, y) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def combine(*terms) -> list:
    """sum_i w_i p_i for terms (w_i, p_i), w_i a Gaussian rational or a
    number, zero-padded to the longest p_i."""
    out = [gauss(0)] * max(len(p) for _, p in terms)
    for w, p in terms:
        w = w if isinstance(w, tuple) else (Fraction(w), Fraction(0))
        for k, x in enumerate(p):
            y = _mul(w, x)
            out[k] = (out[k][0] + y[0], out[k][1] + y[1])
    return out


def series(coeffs) -> list:
    """The coefficients coeffs (floats or complex numbers) as a polynomial."""
    return [gauss(c) for c in coeffs]


def derivative(p) -> list:
    return [_mul(gauss(k), x) for k, x in enumerate(p)][1:] or [gauss(0)]


def times_z(p) -> list:
    return [gauss(0)] + p


def _half_angle(p, r: Fraction, K: int) -> list:
    """A(t) = sum_k p_k r^k (1 + it)^k (1 - it)^(K - k), so that
    p(r e^{i theta}) = A(t) / (1 - it)^K, for a p of degree at most K."""
    out = [gauss(0)] * (K + 1)
    for k, x in enumerate(p):
        x = _mul(x, (r**k, Fraction(0)))
        # (1 + it)^k (1 - it)^(K - k) = sum_(j, l) C(k, j) C(K - k, l) (-1)^l i^(j + l) t^(j + l)
        for j in range(k + 1):
            for l in range(K - k + 1):
                unit = ((1, 0), (0, 1), (-1, 0), (0, -1))[(j + l) % 4]
                w = comb(k, j) * comb(K - k, l) * (-1) ** l
                y = _mul(x, (w * unit[0], w * unit[1]))
                out[j + l] = (out[j + l][0] + y[0], out[j + l][1] + y[1])
    return out


def positive_on_circle(terms, r: float) -> bool:
    """Whether sum_i w_i |p_i(z)|^2 > 0 at every z on |z| = r, exactly, for
    terms (w_i, p_i) with w_i a real number or Fraction."""
    K = max(len(p) for _, p in terms) - 1
    total = [Fraction(0)] * (2 * K + 1)
    for w, p in terms:
        A = _half_angle(p, Fraction(r), K)
        for j, x in enumerate(A):
            for l, y in enumerate(A):  # |A(t)|^2 for real t: the real part of A_j conj(A_l)
                total[j + l] += Fraction(w) * (x[0] * y[0] + x[1] * y[1])
    scale = lcm(*(c.denominator for c in total))
    ints = [int(c * scale) for c in total]
    if not (ints[0] > 0 and ints[-1] > 0):
        return False
    return not sympy.Poly(ints[::-1], _T, domain="ZZ").sqf_part().intervals()


def sup_below(p, r: float, bound) -> bool:
    """Whether max |p| over |z| <= r is below bound: b^2 - |p|^2 > 0 on |z| = r."""
    return positive_on_circle([(Fraction(bound) ** 2, [gauss(1)]), (-1, p)], r)


def ratio_below(num, den, r: float, bound) -> bool:
    """Whether |num/den| < bound on |z| = r: b^2 |den|^2 - |num|^2 > 0 there."""
    return positive_on_circle([(Fraction(bound) ** 2, den), (-1, num)], r)


def real_part_above(num, den, r: float, alpha) -> bool:
    """Whether Re(num/den) > alpha on |z| = r, for den without zeros there:
    Re(N conj(D)) - alpha |D|^2 > 0, with Re(N conj(D)) written as
    |N + D|^2/4 - |N - D|^2/4."""
    return positive_on_circle([(Fraction(1, 4), combine((1, num), (1, den))),
                               (Fraction(-1, 4), combine((1, num), (-1, den))), (-Fraction(alpha), den)], r)


def class_quantity(cls: str, a: list):
    """(N, D) with q = N/D, q the quantity of class cls of membership
    (Re q > alpha) for the function with coefficients a: z f'/f = f'/(f/z)
    for "star", f' for "c", 1 + z f''/f' = (f' + z f'')/f' for "k"."""
    d1 = derivative(a)
    if cls == "star":
        return d1, a[1:]
    if cls == "c":
        return d1, [gauss(1)]
    return combine((1, d1), (1, times_z(derivative(d1)))), d1


def hypothesis(tag: str, a: list, beta) -> list:
    """The hypothesis polynomial of result tag for the function with
    coefficients a (a polynomial, a[1] = 1), from its derivatives:
    z f'' - beta (f' - f/z), z^2 f''' + (2 - beta) z f'' or
    z f'' - beta (f' - 1)."""
    d1 = derivative(a)
    zf2, (re, im) = times_z(derivative(d1)), gauss(beta)
    if tag in ("lem11", "lem12", "thm1"):
        return combine((1, zf2), ((-re, -im), combine((1, d1), (-1, a[1:]))))
    if tag == "cor1":
        return combine((1, times_z(times_z(derivative(derivative(d1))))), ((2 - re, -im), zf2))
    return combine((1, zf2), ((-re, -im), combine((1, d1), (-1, [gauss(1)]))))


def conclusion(tag: str, a: list, alpha: float, rho: float | None):
    """(N, D, b) of result tag, whose conclusion is |N/D| < b on the disk,
    for the function with coefficients a, from its derivatives:
    |q - c| < b with q - c = N/D, b and c exact in alpha or rho."""
    d1, one = derivative(a), [gauss(1)]
    if tag == "lem11":
        return combine((1, d1), (-1, a[1:])), one, Fraction(rho)
    if tag == "lem12":
        return combine((1, a[1:]), (-1, one)), one, Fraction(rho)
    if tag in ("thm2", "lem3"):
        return combine((1, d1), (-1, one)), one, Fraction(rho) if tag == "lem3" else 1 - Fraction(alpha)
    if tag == "thm1":  # z f'/f - 1 = (f' - f/z) / (f/z)
        return combine((1, d1), (-1, a[1:])), a[1:], 1 - Fraction(alpha)
    if tag == "cor1":  # 1 + z f''/f' - 1 = z f'' / f'
        return times_z(derivative(d1)), d1, 1 - Fraction(alpha)
    c = 1 / (2 * Fraction(alpha))  # thm3: 1/f' - c = (1 - c f') / f'
    return combine((1, one), (-c, d1)), d1, c
