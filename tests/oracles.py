"""Value-level kernels kept as test oracles.  The library pairs, induces and
multiplies lifted class functions; these work on `Cyclotomic` values one at
a time, so the lifted paths are checked against an independent one."""
from fractions import Fraction
from math import lcm

from mckay_slodowy.cyclotomic import Cyclotomic, root_sum


def _integral(c):
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def weighted_dot(weights, xs, ys) -> Cyclotomic:
    """sum_i weights[i] * xs[i] * conj(ys[i]) for rational weights and
    cyclotomic values, in one pass.

    Every value is embedded into Z[x]/(x^m - 1), m the lcm of the conductors,
    where zeta_n^j is x^(j*m/n) and conjugation is x^k -> x^-k; the values'
    own `terms` are read, not rebuilt.  Coefficients accumulate as integers
    (Fractions only where a coefficient is not integral); the sum is reduced
    modulo Phi_m and canonicalised once, or not at all when it is rational.
    """
    terms = []
    m = 1
    for w, x, y in zip(weights, xs, ys):
        if w:
            x = x if type(x) is Cyclotomic else Cyclotomic(x)
            y = y if type(y) is Cyclotomic else Cyclotomic(y)
            xt, yt = x.terms(), y.terms()
            if xt and yt:
                terms.append((_integral(w), x.conductor, xt, y.conductor, yt))
                m = lcm(m, x.conductor, y.conductor)
    acc = [0] * m
    for w, nx, xt, ny, yt in terms:
        sx, sy = m // nx, m // ny
        yt = [(b * sy, v) for b, v in yt]
        for a, u in xt:
            a *= sx
            u *= w
            for b, v in yt:
                acc[(a - b) % m] += u * v
    return root_sum(m, acc)


def linear_combination(weights, xs) -> Cyclotomic:
    """sum_i weights[i] * xs[i] for rational weights and cyclotomic values,
    accumulated in Z[x]/(x^m - 1) as weighted_dot does and canonicalised once."""
    pairs = [(w, x) for w, x in zip(weights, xs) if w and x]
    m = lcm(1, *(x.conductor for _, x in pairs))
    acc = [0] * m
    for w, x in pairs:
        step = m // x.conductor
        for j, c in x.terms():
            acc[j * step] += w * c
    return root_sum(m, acc)
