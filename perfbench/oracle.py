"""Independent oracles for the benchmark's output checks.

Nothing here imports ``bayesdecide``.  Distribution functions come from
the standard library (``statistics.NormalDist``), from series written
here (the regularized incomplete gamma function), or from
``scipy.special`` routines that the library does not call on the path
being checked (incomplete beta for the beta-bernoulli design oracle).
Expectations over parametric posteriors use a graded composite
Gauss-Legendre rule written here, never ``scipy.integrate``.

Losses are described by small tuples so that the benchmark can build the
library's ``LossSpec`` and the oracle's numpy evaluator from one
description:

    ("SEL",) ("MTC", rho) ("ZERO_ONE",) ("QTL", q) ("LNX", psi)
    ("PTL", omega) ("PWD", lam) ("GAM", alpha, nu)
    ("weighted", ("power", p) | ("exp", c), base)
    ("sum", a, b) ("product", a, b) ("power", base, p)
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# --------------------------------------------------------------------------
# losses


def loss_fn(desc):
    """Numpy evaluator L(a, y) of a loss description, broadcasting a and y."""
    kind = desc[0]
    if kind == "SEL":
        return lambda a, y: (a - y) ** 2
    if kind in ("MTC", "PTL"):
        rho = desc[1]
        return lambda a, y: np.abs(a - y) ** rho
    if kind == "ZERO_ONE":
        return lambda a, y: (a != y).astype(float)
    if kind == "QTL":
        q = desc[1]
        return lambda a, y: (a - y) * (((a - y) > 0) - q)
    if kind == "LNX":
        psi = desc[1]

        def linex(a, y):
            u = psi * (a - y)
            return np.expm1(u) - u
        return linex
    if kind == "PWD":
        lam = desc[1]

        def pwd(a, y):
            r = a / y
            if lam == 0.0:
                return y * (r * np.log(r) + 1.0 - r)
            if lam == -1.0:
                return y * (r - 1.0 - np.log(r))
            return y * ((r ** (lam + 1.0) - r) - lam * (r - 1.0)) / (lam * (lam + 1.0))
        return pwd
    if kind == "GAM":
        nu = desc[2]
        return lambda a, y: (nu - 1.0) * (a / y - 1.0 - np.log(a / y))
    if kind == "weighted":
        wkind, wpar = desc[1]
        base = loss_fn(desc[2])
        if wkind == "power":
            return lambda a, y: y ** wpar * base(a, y)
        return lambda a, y: np.exp(wpar * y) * base(a, y)
    if kind == "sum":
        f, g = loss_fn(desc[1]), loss_fn(desc[2])
        return lambda a, y: f(a, y) + g(a, y)
    if kind == "product":
        f, g = loss_fn(desc[1]), loss_fn(desc[2])
        return lambda a, y: f(a, y) * g(a, y)
    if kind == "power":
        f, p = loss_fn(desc[1]), desc[2]
        return lambda a, y: f(a, y) ** p
    raise ValueError(f"unknown loss description {desc!r}")


def positive_domain(desc):
    if desc[0] in ("PWD", "GAM"):
        return True
    if desc[0] == "weighted":
        return positive_domain(desc[2])
    if desc[0] in ("sum", "product"):
        return positive_domain(desc[1]) or positive_domain(desc[2])
    if desc[0] == "power":
        return positive_domain(desc[1])
    return False


# --------------------------------------------------------------------------
# parametric distributions: ("gauss", mean, sd) or ("gamma", shape, rate)


def _gammainc_lower(s, x):
    """Regularized lower incomplete gamma P(s, x): series or continued fraction."""
    if x <= 0.0:
        return 0.0
    log_front = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        term = total = 1.0 / s
        k = s
        for _ in range(10000):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return min(1.0, total * math.exp(log_front))
    # Lentz continued fraction for Q(s, x)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return max(0.0, 1.0 - math.exp(log_front) * h)


def cdf(dist, y):
    kind, p1, p2 = dist
    if kind == "gauss":
        return NormalDist(p1, p2).cdf(y)
    return _gammainc_lower(p1, p2 * y)


def sf(dist, y):
    kind, p1, p2 = dist
    if kind == "gauss":
        return NormalDist().cdf(-(y - p1) / p2)
    return 1.0 - _gammainc_lower(p1, p2 * y)


def quantile(dist, q):
    kind, p1, p2 = dist
    if kind == "gauss":
        return NormalDist(p1, p2).inv_cdf(q)
    # bisection on the series / continued-fraction CDF
    lo, hi = 0.0, mean(dist) + 10.0 * sd(dist)
    while cdf(dist, hi) < q:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(dist, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def mean(dist):
    kind, p1, p2 = dist
    return p1 if kind == "gauss" else p1 / p2


def sd(dist):
    kind, p1, p2 = dist
    return p2 if kind == "gauss" else math.sqrt(p1) / p2


def pdf(dist, y):
    kind, p1, p2 = dist
    y = np.asarray(y, dtype=float)
    if kind == "gauss":
        z = (y - p1) / p2
        return np.exp(-0.5 * z * z) / (p2 * math.sqrt(2.0 * math.pi))
    with np.errstate(divide="ignore"):
        logp = (p1 * math.log(p2) + (p1 - 1.0) * np.log(y) - p2 * y
                - math.lgamma(p1))
    return np.where(y > 0, np.exp(logp), 0.0)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _edges(dist, points):
    """Panel edges: the support, a uniform grid, and geometric grading
    toward every point where the integrand may have a kink or cusp."""
    m, s = mean(dist), sd(dist)
    if dist[0] == "gauss":
        lo, hi = m - 14.0 * s, m + 14.0 * s
    else:
        lo, hi = 0.0, m + 40.0 * s
        points = list(points) + [0.0]
    edges = list(np.linspace(lo, hi, 121))
    offsets = s * np.array([1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                            0.03, 0.1, 0.3, 1.0])
    for p in points:
        edges.append(p)
        edges.extend(p - offsets)
        edges.extend(p + offsets)
    e = np.unique(np.clip(np.asarray(edges, dtype=float), lo, hi))
    return e


def expect(dist, h, points=()):
    """E h(Y) by composite 20-point Gauss-Legendre on graded panels."""
    e = _edges(dist, points)
    left, right = e[:-1], e[1:]
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    y = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    p = pdf(dist, y)
    with np.errstate(all="ignore"):
        vals = np.where(p > 0, h(y) * p, 0.0)
    return float(np.dot(w, vals))


def epl_param(desc, dist, a):
    """Expected posterior loss of action a under a parametric posterior."""
    if desc[0] == "LNX":
        return linex_epl(desc[1], dist, a)
    f = loss_fn(desc)
    return expect(dist, lambda y: f(a, y), points=(a,))


def linex_epl(psi, dist, a):
    """E[exp(psi(a-Y))] - psi(a - E Y) - 1 from the moment generating function."""
    kind, p1, p2 = dist
    if kind == "gauss":
        log_m = psi * (a - p1) + 0.5 * psi * psi * p2 * p2
    else:
        log_m = psi * a + p1 * (math.log(p2) - math.log(p2 + psi))
    return math.exp(log_m) - psi * (a - mean(dist)) - 1.0


def linex_action(psi, dist):
    kind, p1, p2 = dist
    if kind == "gauss":
        return p1 - 0.5 * psi * p2 * p2
    return (p1 / psi) * math.log1p(psi / p2)


# --------------------------------------------------------------------------
# weighted sample clouds


def cloud_epl(desc, values, weights, actions):
    """EPL of each action in ``actions`` over a weighted cloud, chunked."""
    f = loss_fn(desc)
    actions = np.atleast_1d(np.asarray(actions, dtype=float))
    out = np.empty(actions.size)
    chunk = max(1, 4_000_000 // max(1, values.size))
    for i in range(0, actions.size, chunk):
        a = actions[i:i + chunk, None]
        with np.errstate(all="ignore"):
            out[i:i + chunk] = f(a, values[None, :]) @ weights
    return out


def cloud_quantile_ok(values, weights, q, action):
    """Is ``action`` the left-continuous inverse CDF at q of the cloud?

    It must be a draw with F(action) >= q and F(action-) <= q, both up to
    the rounding of a cumulative sum.
    """
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order] / weights.sum()
    below = float(w[v < action].sum())
    upto = float(w[v <= action].sum())
    tol = 1e-12 * v.size
    return bool(np.any(v == action)) and upto >= q - tol and below <= q + tol


def fd_mode(values, weights):
    """Centre of the heaviest Freedman-Diaconis histogram bin (first on ties)."""
    v = np.sort(values)
    order = np.argsort(values, kind="stable")
    w = weights[order] / weights.sum()
    lo, hi = float(v[0]), float(v[-1])
    if hi == lo:
        return lo
    cw = np.cumsum(w)
    q25 = float(v[min(int(np.searchsorted(cw, 0.25)), v.size - 1)])
    q75 = float(v[min(int(np.searchsorted(cw, 0.75)), v.size - 1)])
    width = 2.0 * (q75 - q25) * v.size ** (-1.0 / 3.0)
    if width <= 0:
        width = (hi - lo) / math.ceil(math.sqrt(v.size))
    nbins = max(1, int(math.ceil((hi - lo) / width)))
    idx = np.minimum(((v - lo) / (hi - lo) * nbins).astype(int), nbins - 1)
    mass = np.bincount(idx, weights=w, minlength=nbins)
    k = int(np.argmax(mass))
    return lo + (k + 0.5) * (hi - lo) / nbins


# --------------------------------------------------------------------------
# conjugate design and value-of-information values


def gkv_post_var(prior_sd, noise_sd, n):
    """Posterior variance of a Gaussian mean after n known-variance draws."""
    return 1.0 / (1.0 / prior_sd ** 2 + n / noise_sd ** 2)


def _log_beta(x, y):
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def beta_binomial_pmf(n, a, b):
    s = np.arange(n + 1)
    logc = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                     for k in s])
    logp = logc + np.array([_log_beta(a + k, b + n - k) for k in s]) - _log_beta(a, b)
    return np.exp(logp)


def _beta_raw_moment(al, be, k):
    out = 1.0
    for i in range(k):
        out *= (al + i) / (al + be + i)
    return out


def bb_qtl_ejl(a, b, q, n):
    """E_JL and per-replicate loss sd of the exact posterior q-quantile rule
    under pinball loss, Beta(a, b) prior and n Bernoulli draws."""
    from scipy.special import betainc, betaincinv
    pmf = beta_binomial_pmf(n, a, b)
    m1_tot = m2_tot = 0.0
    for s, ps in enumerate(pmf):
        al, be = a + s, b + n - s
        x = float(betaincinv(al, be, q))
        mu = al / (al + be)
        ey2 = _beta_raw_moment(al, be, 2)
        # at the q-quantile x the CDF is q
        p1 = mu * float(betainc(al + 1, be, x))      # E[Y 1{Y<x}]
        p2 = ey2 * float(betainc(al + 2, be, x))     # E[Y^2 1{Y<x}]
        lower2 = x * x * q - 2 * x * p1 + p2          # E[(x-Y)^2 1{Y<x}]
        upper2 = x * x * (1 - q) - 2 * x * (mu - p1) + (ey2 - p2)
        epl = q * mu - p1
        m1_tot += ps * epl
        m2_tot += ps * ((1 - q) ** 2 * lower2 + q * q * upper2)
    var = max(0.0, m2_tot - m1_tot ** 2)
    return m1_tot, math.sqrt(var)


def bb_voi(a, b, n_existing, n_extra, cloud_draws):
    """Conjugate VOI of neg-posterior-variance and an allowance for the
    sampling error of the posterior clouds the library draws.

    Returns (voi, cloud_sd) where cloud_sd bounds the sd of the difference
    of two cloud variance estimates of ``cloud_draws`` draws each.
    """
    def arm(n):
        pmf = beta_binomial_pmf(n, a, b)
        ev = worst = 0.0
        for s, ps in enumerate(pmf):
            al, be = a + s, b + n - s
            m = [_beta_raw_moment(al, be, k) for k in range(5)]
            var = m[2] - m[1] ** 2
            mu4 = m[4] - 4 * m[3] * m[1] + 6 * m[2] * m[1] ** 2 - 3 * m[1] ** 4
            ev += ps * var
            worst = max(worst, math.sqrt(max(0.0, mu4 - var * var) / cloud_draws))
        return ev, worst
    v_e, sd_e = arm(n_existing)
    v_b, sd_b = arm(n_existing + n_extra)
    return v_e - v_b, math.hypot(sd_e, sd_b)


def bonferroni_z(checks, family_rate=1e-4):
    """Two-sided z for ``checks`` comparisons at a family-wise false-alarm rate."""
    return NormalDist().inv_cdf(1.0 - family_rate / (2.0 * max(1, checks)))
