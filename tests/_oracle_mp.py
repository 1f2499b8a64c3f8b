"""A 50-digit oracle for the moments that closed-form actions read.

E Y^p and E log Y on Gamma and Beta posteriors through mpmath's ``gamma``,
``beta`` and ``digamma``, and on weighted draws as a weighted sum: exact
formulas with no quadrature, so a closed form is checked against
arithmetic it shares nothing with.  Floats enter exactly (``mpf`` of a
double is exact) and each result is rounded to a float once, at the end.
E Y^p is 1 + O(p), so a p near 0 gets as many more digits as it has
leading zeros.
"""

import mpmath

DPS = 50


def _dps(p):
    """50 digits, plus one for each leading zero of p."""
    return DPS + (max(0, -int(mpmath.floor(mpmath.log10(abs(p))))) if p else 0)


def gamma_moment(shape, rate, p):
    """E Y^p = Gamma(k + p) / (Gamma(k) r^p) on Gamma(k, r)."""
    with mpmath.workdps(_dps(p)):
        k, r, p = mpmath.mpf(shape), mpmath.mpf(rate), mpmath.mpf(p)
        return mpmath.gamma(k + p) / (mpmath.gamma(k) * r ** p)


def gamma_mean_log(shape, rate):
    """E log Y = digamma(k) - log r on Gamma(k, r)."""
    with mpmath.workdps(DPS):
        return mpmath.digamma(mpmath.mpf(shape)) - mpmath.log(mpmath.mpf(rate))


def beta_moment(a, b, p):
    """E Y^p = B(a + p, b) / B(a, b) on Beta(a, b)."""
    with mpmath.workdps(_dps(p)):
        a, b, p = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(p)
        return mpmath.beta(a + p, b) / mpmath.beta(a, b)


def beta_mean_log(a, b):
    """E log Y = digamma(a) - digamma(a + b) on Beta(a, b)."""
    with mpmath.workdps(DPS):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return mpmath.digamma(a) - mpmath.digamma(a + b)


def draws_moment(values, weights, p):
    """E Y^p = sum w y^p / sum w over weighted draws."""
    with mpmath.workdps(_dps(p)):
        p = mpmath.mpf(p)
        w = [mpmath.mpf(x) for x in weights]
        return mpmath.fsum(wi * mpmath.mpf(y) ** p for wi, y in zip(w, values)) / mpmath.fsum(w)


def draws_mean_log(values, weights):
    """E log Y = sum w log y / sum w over weighted draws."""
    with mpmath.workdps(DPS):
        w = [mpmath.mpf(x) for x in weights]
        return (mpmath.fsum(wi * mpmath.log(mpmath.mpf(y)) for wi, y in zip(w, values))
                / mpmath.fsum(w))


def power_mean(moment, mean_log, lam):
    """PWD(lam)'s action (E Y^-lam)^(-1/lam), exp(E log Y) at lam = 0, as a
    float; ``moment(p)`` and ``mean_log()`` are this module's for one
    posterior."""
    with mpmath.workdps(_dps(lam)):
        if lam == 0:
            return float(mpmath.exp(mean_log()))
        return float(moment(-lam) ** (-1 / mpmath.mpf(lam)))


def gamma_ratio_epl(key, shape, rate, a, nu):
    """The expected GAM(., nu), PWD(1) or PWD(-1) loss at action a on
    Gamma(k, r), from E Y = k/r, E(1/Y) = r/(k - 1), E log Y = digamma(k) -
    log r and E(Y log Y) = E Y (digamma(k + 1) - log r)."""
    with mpmath.workdps(DPS):
        k, r, a = mpmath.mpf(shape), mpmath.mpf(rate), mpmath.mpf(a)
        mean, inv_mean = k / r, r / (k - 1)
        if key == "GAM":  # (nu - 1)[a/y - 1 - log a + log y]
            return (nu - 1) * (a * inv_mean - 1 - mpmath.log(a)
                               + mpmath.digamma(k) - mpmath.log(r))
        if key == "PWD+1":  # (a - y)^2 / (2y)
            return (a * a * inv_mean - 2 * a + mean) / 2
        # PWD-1: a - y - y log a + y log y
        return a - mean - mean * mpmath.log(a) + mean * (mpmath.digamma(k + 1) - mpmath.log(r))
