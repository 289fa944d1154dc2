"""Independent reference oracles used across the test suite.

Classical multivariate series are summed directly from Pochhammer ratios
(small arguments, generous truncation); single-variable cases go through
mpmath.  None of these touch the quadrature-backed production code.
"""

import math

import mpmath

mpmath.mp.dps = 30


def poch(a, m):
    out = mpmath.mpf(1)
    for i in range(m):
        out *= a + i
    return out


def hyp2f1(a, b, c, z):
    return float(mpmath.hyp2f1(a, b, c, z))


def hyp1f1(a, c, z):
    return float(mpmath.hyp1f1(a, c, z))


def hyper(upper, lower, z):
    return float(mpmath.hyper(list(upper), list(lower), z))


def appell_f1(a, b1, b2, c, x, y, terms=80):
    s = mpmath.mpf(0)
    for m in range(terms):
        for n in range(terms - m):
            s += (poch(a, m + n) * poch(b1, m) * poch(b2, n)
                  / (poch(c, m + n) * mpmath.factorial(m)
                     * mpmath.factorial(n)) * mpmath.mpf(x) ** m
                  * mpmath.mpf(y) ** n)
    return float(s)


def appell_f2(a, b1, b2, c1, c2, x, y, terms=80):
    s = mpmath.mpf(0)
    for m in range(terms):
        for n in range(terms - m):
            s += (poch(a, m + n) * poch(b1, m) * poch(b2, n)
                  / (poch(c1, m) * poch(c2, n) * mpmath.factorial(m)
                     * mpmath.factorial(n)) * mpmath.mpf(x) ** m
                  * mpmath.mpf(y) ** n)
    return float(s)


def lauricella_fd(a, bs, c, xs, terms=40):
    r = len(bs)
    s = mpmath.mpf(0)

    def rec(j, total, coeff):
        nonlocal s
        if j == r:
            s += coeff * poch(a, total) / poch(c, total)
            return
        for m in range(terms - total):
            rec(j + 1, total + m,
                coeff * poch(bs[j], m) * mpmath.mpf(xs[j]) ** m
                / mpmath.factorial(m))

    rec(0, 0, mpmath.mpf(1))
    return float(s)


def lauricella_fa(a, bs, cs, xs, terms=40):
    r = len(bs)
    s = mpmath.mpf(0)

    def rec(j, total, coeff):
        nonlocal s
        if j == r:
            s += coeff * poch(a, total)
            return
        for m in range(terms - total):
            rec(j + 1, total + m,
                coeff * poch(bs[j], m) / poch(cs[j], m)
                * mpmath.mpf(xs[j]) ** m / mpmath.factorial(m))

    rec(0, 0, mpmath.mpf(1))
    return float(s)


def lauricella_fa_by_degree(a, bs, cs, xs, degrees):
    """Classical type A summed by total degree N < ``degrees``: (a)_N times
    the t^N coefficient of prod_j sum_m (b_j)_m/(c_j)_m (x_j t)^m / m!.
    Returns (value, largest |term| of the last ten degrees), as mpf."""
    poly = [mpmath.mpf(1)]
    for b, c, x in zip(bs, cs, xs):
        axis = [mpmath.mpf(1)]
        for m in range(1, degrees):
            axis.append(axis[-1] * (b + m - 1) / (c + m - 1) * x / m)
        poly = [mpmath.fdot(poly[:n + 1], axis[n::-1]) for n in range(degrees)]
    terms, rising = [], mpmath.mpf(1)
    for n, p in enumerate(poly):
        terms.append(rising * p)
        rising *= a + n
    return mpmath.fsum(terms), max(abs(t) for t in terms[-10:])


def gauss_sum(a, b, c):
    """2F1 at unit argument via the gamma quotient."""
    g = mpmath.gamma
    return float(g(c) * g(c - a - b) / (g(c - a) * g(c - b)))


def _pochf(a, m):
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def appell_f1_float(a, b1, b2, c, x, y, terms=90):
    """Plain-float classical double series (fast path for small arguments)."""
    import math

    s = 0.0
    for m in range(terms):
        for n in range(terms - m):
            s += (_pochf(a, m + n) * _pochf(b1, m) * _pochf(b2, n)
                  / (_pochf(c, m + n) * math.factorial(m)
                     * math.factorial(n)) * x ** m * y ** n)
    return s


def appell_f2_float(a, b1, b2, c1, c2, x, y, terms=90):
    import math

    s = 0.0
    for m in range(terms):
        for n in range(terms - m):
            s += (_pochf(a, m + n) * _pochf(b1, m) * _pochf(b2, n)
                  / (_pochf(c1, m) * _pochf(c2, n) * math.factorial(m)
                     * math.factorial(n)) * x ** m * y ** n)
    return s


def lauricella_fd_float(a, bs, c, xs, terms=40):
    import math

    r = len(bs)
    s = 0.0

    def rec(j, total, coeff):
        nonlocal s
        if j == r:
            s += coeff * _pochf(a, total) / _pochf(c, total)
            return
        for m in range(terms - total):
            rec(j + 1, total + m,
                coeff * _pochf(bs[j], m) * xs[j] ** m / math.factorial(m))

    rec(0, 0, 1.0)
    return s


def lauricella_fa_float(a, bs, cs, xs, terms=40):
    import math

    r = len(bs)
    s = 0.0

    def rec(j, total, coeff):
        nonlocal s
        if j == r:
            s += coeff * _pochf(a, total)
            return
        for m in range(terms - total):
            rec(j + 1, total + m,
                coeff * _pochf(bs[j], m) / _pochf(cs[j], m)
                * xs[j] ** m / math.factorial(m))

    rec(0, 0, 1.0)
    return s


def relerr(got, want):
    return abs(got - want) / (1.0 + abs(want))
