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


# the series below take more terms than mpmath's default cap at shapes near
# 1e6; betainc and gammainc themselves fail to converge there (a Beta with
# a + b near 1e4, a Gamma at shape 1e6 past 8 sd above its mean)
MAXTERMS = 10 ** 6


def gamma_p(s, x):
    """The regularized lower incomplete gamma P(s, x) = x^s e^-x / Gamma(s + 1)
    1F1(1; s + 1; x), a series of positive terms."""
    s, x = mpmath.mpf(s), mpmath.mpf(x)
    return (mpmath.exp(s * mpmath.log(x) - x - mpmath.loggamma(s + 1))
            * mpmath.hyp1f1(1, s + 1, x, maxterms=MAXTERMS))


def beta_i(x, a, b):
    """The regularized incomplete beta I_x(a, b) = x^a (1 - x)^b / (a B(a, b))
    2F1(a + b, 1; a + 1; x)."""
    x, a, b = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(b)
    log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
    return (mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a) - log_beta)
            * mpmath.hyp2f1(a + b, 1, a + 1, x, maxterms=MAXTERMS))


def linear_loss(family, p1, p2, a):
    """(E(a - Y)^+, E(Y - a)^+) at action a on Gaussian(mean p1, sd p2),
    Gamma(shape p1, rate p2) or Beta(p1, p2), as mpf.  E(a - Y)^+ is
    a F(a) - m F1(a), where F1 is the cdf of the size-biased law m^-1 y f(y)
    (Gamma(k + 1, r), Beta(al + 1, be)); on a Gaussian it is sd (z Phi(z) +
    phi(z)).  E(Y - a)^+ is E(a - Y)^+ - (a - m)."""
    with mpmath.workdps(DPS):
        p1, p2, a = mpmath.mpf(p1), mpmath.mpf(p2), mpmath.mpf(a)
        if family == "gaussian":
            m, z = p1, (a - p1) / p2
            below = p2 * (z * mpmath.ncdf(z) + mpmath.npdf(z))
        elif family == "gamma":
            m = p1 / p2
            below = (a * gamma_p(p1, p2 * a) - m * gamma_p(p1 + 1, p2 * a)) if a > 0 else 0
        else:
            m, x = p1 / (p1 + p2), min(a, 1)
            below = (a * beta_i(x, p1, p2) - m * beta_i(x, p1 + 1, p2)) if a > 0 else 0
        return below, below - (a - m)


def log_mgf_neg(family, p1, p2, psi):
    """log E e^(-psi Y) on the same families: -psi m + psi^2 sd^2 / 2,
    -k log(1 + psi / r) and log 1F1(al; al + be; -psi), as mpf.  For psi > 0
    the last is -psi + log 1F1(be; al + be; psi) (Kummer), a series of
    positive terms, as mpmath's own route to a large negative argument
    takes minutes at shapes near 1e6."""
    with mpmath.workdps(DPS):
        p1, p2, psi = mpmath.mpf(p1), mpmath.mpf(p2), mpmath.mpf(psi)
        if family == "gaussian":
            return -psi * p1 + psi * psi * p2 * p2 / 2
        if family == "gamma":
            return -p1 * mpmath.log1p(psi / p2)
        if psi > 0:
            return -psi + mpmath.log(mpmath.hyp1f1(p2, p1 + p2, psi, maxterms=MAXTERMS))
        return mpmath.log(mpmath.hyp1f1(p1, p1 + p2, -psi, maxterms=MAXTERMS))
