"""Seeded inputs, operations and output checks for the four workloads.

``build(name, bd, seed, workdir)`` turns a workload seed into a list of
``Op``s.  Each op makes one call into the library (the closed loop times
exactly that call) and carries a ``check`` that compares the result with
an oracle from ``oracle.py``.  Checks run outside the timed region.

Why each workload exists (see README.md for the layer map):

- ``parametric``: Gaussian and Gamma posteriors.  Every EPL is a
  quadrature whose integrand calls the scalar ``scipy.stats`` pdf, so this
  is where analytic EPL, quadrature and minimiser changes show.
- ``samples``: the same loss mix on weighted draw clouds of 1e3 to 1e5
  draws read with ``load_samples``, plus the eigenspace path on vector
  draws of dimension 8 to 48.  No quadrature: cost is O(n) loss sums,
  sorting at construction and the Jacobi eigensolver.
- ``design-mc``: sample-size design and VOI on both conjugate templates;
  thousands of cheap seeded Monte Carlo replicates, no quadrature.
- ``cli``: every verb as a fresh ``python -m bayesdecide.cli`` process on
  the checked-in fixture scenarios, so import and scenario parsing show.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

import oracle as orc

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

WORKLOADS = ("parametric", "samples", "design-mc", "cli")

# Rescaled seconds one pass takes (see speed.py).  A run makes
# ``passes(name, seconds)`` passes, a number fixed by --seconds, so that
# every run of a seed makes the same calls and fails the same ones.
PASS_S = {"parametric": 20.0, "samples": 1.8, "design-mc": 2.0, "cli": 25.0}
# Passes a run makes at least.  The three N=48 eigenspace calls of a
# samples pass are its slowest calls; six passes give eighteen of them, so
# the latency with ten calls beyond it falls in the middle of that cluster.
MIN_PASSES = {"samples": 6}
# An op that takes milliseconds appears this many times in a pass, and its
# latency in the pass is the median of those calls (worker.py): a single
# call of a few milliseconds can take two or three times as long as the
# next on a shared host, and one such call would decide the median or the
# tail.
FAST_REPEATS = 5


def passes(name, seconds):
    return max(MIN_PASSES.get(name, 1), round(seconds / PASS_S[name]))


@dataclass
class Op:
    """One closed-loop call.  ``check(result)`` returns None or a miss message."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    key: str = ""
    # exceptions the documented contract allows for this input
    accepted: tuple = ()
    replicates: int = 0
    fingerprint: Callable[[object], object] = None
    # a miss that is a known defect of the library: it counts as a failed
    # op, but does not make the run incorrect
    known_defect: Optional[str] = None
    # False when the call's work runs in a child process
    in_process: bool = True

    def __post_init__(self):
        self.key = self.key or self.name


# --------------------------------------------------------------------------
# helpers shared by the checks


def _close(x, ref, tol):
    return abs(float(x) - float(ref)) <= tol


def _miss(what, got, want):
    return f"{what}: got {got!r}, want {want!r}"


def to_spec(bd, desc):
    """Library LossSpec for an oracle loss description."""
    L = bd.LossSpec
    kind = desc[0]
    if kind == "SEL":
        return L.sel()
    if kind == "MTC":
        return L.mtc(desc[1])
    if kind == "ZERO_ONE":
        return L.zero_one()
    if kind == "QTL":
        return L.qtl(desc[1])
    if kind == "LNX":
        return L.linex(desc[1])
    if kind == "PTL":
        return L.potential(bd.GeneralizedGaussian(desc[1]))
    if kind == "PWD":
        return L.pwd(desc[1])
    if kind == "GAM":
        return L.gam(desc[1], desc[2])
    if kind == "weighted":
        wkind, wpar = desc[1]
        w = bd.Weight.power(wpar) if wkind == "power" else bd.Weight.exp(wpar)
        return L.weighted(w, to_spec(bd, desc[2]))
    if kind == "sum":
        return L.sum_of(to_spec(bd, desc[1]), to_spec(bd, desc[2]))
    if kind == "product":
        return L.product_of(to_spec(bd, desc[1]), to_spec(bd, desc[2]))
    if kind == "power":
        return L.power_of(to_spec(bd, desc[1]), desc[2])
    raise ValueError(desc)


def _to_post(bd, dist):
    kind, p1, p2 = dist
    return bd.GaussianPosterior(p1, p2) if kind == "gauss" else bd.GammaPosterior(p1, p2)


def _near(rng, x, rel=0.05):
    """x jittered by up to ``rel``.  Seeds change the inputs but not their
    cost: quadrature node counts and iteration counts, and so the timings,
    depend on the shape parameters, which stay within a few percent."""
    return float(x * rng.uniform(1.0 - rel, 1.0 + rel))


def _levels(rng, levels):
    return [float(q + rng.uniform(-0.02, 0.02)) for q in levels]


def _epl_close(got, want):
    return abs(got - want) <= 1e-6 * abs(want) + 1e-10


# --------------------------------------------------------------------------
# parametric


def _param_closed_form(desc, dist):
    """The optimal action by formula, or None when there is no closed form."""
    kind = desc[0]
    m, s = orc.mean(dist), orc.sd(dist)
    gamma = dist[0] == "gamma"
    if kind == "SEL" or (kind == "PWD" and desc[1] == -1.0):
        return m
    if kind == "MTC" and desc[1] == 1.0:
        return orc.quantile(dist, 0.5)
    if kind == "ZERO_ONE":
        return (dist[1] - 1.0) / dist[2] if gamma else m
    if kind == "QTL":
        return orc.quantile(dist, desc[1])
    if kind == "LNX":
        return orc.linex_action(desc[1], dist)
    if kind == "GAM" or (kind == "PWD" and desc[1] == 1.0):
        return (dist[1] - 1.0) / dist[2]   # 1/E(1/Y) for a Gamma
    if kind == "weighted" and desc[2] == ("SEL",):
        wkind, wpar = desc[1]
        if wkind == "power" and gamma:
            return (dist[1] + wpar) / dist[2]
        if wkind == "exp" and not gamma:
            return m + wpar * s * s
    return None


def _probe(epl_of, a, delta, epl_reported):
    """Local optimality: EPL(a +- delta) >= EPL(a), and the reported EPL."""
    e0 = epl_of(a)
    if not _epl_close(epl_reported, e0):
        return _miss("epl", epl_reported, e0)
    for b in (a - delta, a + delta):
        eb = epl_of(b)
        if eb < e0 - 1e-11 * abs(e0):
            return f"not a local minimum: EPL({b!r})={eb!r} < EPL({a!r})={e0!r}"
    return None


def _decision_check(desc, dist, symmetric_center=False):
    exact = _param_closed_form(desc, dist)
    s = orc.sd(dist)

    def check(d):
        a = d.action
        if exact is not None:
            if not _close(a, exact, 1e-7 * (abs(exact) + s)):
                return _miss("action", a, exact)
            want = 1.0 if desc[0] == "ZERO_ONE" else orc.epl_param(desc, dist, a)
            return None if _epl_close(d.epl, want) else _miss("epl", d.epl, want)
        if symmetric_center and not _close(a, orc.mean(dist), 1e-4 * s):
            return _miss("action (symmetric loss, Gaussian centre)", a, orc.mean(dist))
        delta = 1e-3 * s
        return _probe(lambda b: orc.epl_param(desc, dist, b), a, delta, d.epl)
    return check


def _parametric(bd, rng):
    u = rng.uniform

    def near(x):
        return _near(rng, x)
    pairs = [(("gauss", u(-1.0, 1.0), near(1.0)), ("gamma", near(5.0), near(1.0)))
             for _ in range(3)]
    g, gm = pairs[0]
    # LINEX near the exponent limit: psi * sd spans the point (about 29.5)
    # where the quadrature tail probes overflow the loss guard.  Raising the
    # documented NumericError there is allowed by the error contract.
    g_edge = ("gauss", u(-1.0, 1.0), near(1.0))
    psi_edge = u(24.0, 32.0) / g_edge[2]
    q = _levels(rng, (0.2, 0.8, 0.7, 0.3, 0.6, 0.9, 0.25, 0.75))

    # the closed forms run on three posterior pairs, so that the median
    # call falls inside the cluster of quantile-type closed forms rather
    # than on the edge between two clusters of different cost
    closed = []
    for pg, pgm in pairs:
        closed += [
            (("SEL",), pg), (("SEL",), pgm),
            (("MTC", 1.0), pg), (("MTC", 1.0), pgm),
            (("ZERO_ONE",), pg), (("ZERO_ONE",), pgm),
            (("QTL", q[0]), pg), (("QTL", q[1]), pgm),
            (("LNX", near(0.8)), pg),
            (("LNX", near(0.5)), pgm),
            (("GAM", near(1.0), near(2.0)), pgm),
            (("PWD", 1.0), pgm), (("PWD", -1.0), pgm),
            (("weighted", ("exp", near(0.3)), ("SEL",)), pg),
            (("weighted", ("power", near(1.0)), ("SEL",)), pgm),
        ]
    numeric = [
        (("MTC", near(0.5)), g, True),            # rho < 1
        (("PTL", near(1.5)), g, True),
        (("PWD", near(0.5)), gm, False),
        (("sum", ("QTL", q[2]), ("SEL",)), g, False),
        (("product", ("QTL", q[3]), ("SEL",)), gm, False),
        (("power", ("QTL", q[4]), near(1.5)), g, False),
    ]

    ops, slow = [], []
    for desc, dist in closed:
        spec, post = to_spec(bd, desc), _to_post(bd, dist)
        ops.append(Op(f"optimize/{dist[0]}/{desc[0]}",
                      lambda s=spec, p=post: bd.optimize(s, p),
                      _decision_check(desc, dist)))
    spec, post = to_spec(bd, ("LNX", psi_edge)), _to_post(bd, g_edge)
    ops.append(Op("optimize/gauss/LNX-edge", lambda s=spec, p=post: bd.optimize(s, p),
                  _decision_check(("LNX", psi_edge), g_edge),
                  accepted=(bd.NumericError,)))
    for desc, dist, sym in numeric:
        spec, post = to_spec(bd, desc), _to_post(bd, dist)
        slow.append(Op(f"optimize/{dist[0]}/{desc[0]}",
                       lambda s=spec, p=post: bd.optimize(s, p),
                       _decision_check(desc, dist, symmetric_center=sym)))

    # functional prediction: SEL pushes the mean through g(Y) = Y^2 (closed
    # form); QTL of exp(Y) is searched numerically and equals exp(quantile)
    post = _to_post(bd, gm)
    want_sq = gm[1] * (gm[1] + 1.0) / gm[2] ** 2
    ops.append(Op("optimize_functional/gamma/SEL-square",
                  lambda p=post: bd.optimize_functional(
                      bd.LossSpec.sel(), p, lambda y: np.asarray(y) ** 2),
                  lambda d: None if _close(d.action, want_sq, 1e-7 * want_sq)
                  else _miss("action", d.action, want_sq)))
    post = _to_post(bd, g)
    qf = q[5]
    f_qtl = orc.loss_fn(("QTL", qf))
    # sd of exp(Y), Y ~ N(mean, sd^2)
    sd_exp = math.sqrt(math.expm1(g[2] ** 2)) * math.exp(g[1] + 0.5 * g[2] ** 2)

    def epl_fexp(b):
        return orc.expect(g, lambda y: f_qtl(b, np.exp(y)), points=(math.log(b),))

    # numeric: the local-optimality probe, as for the other numeric calls.
    # The search minimises a quadrature whose error flattens the EPL near
    # its minimum, so the action is exp(quantile) only to about 1e-5.
    def check_fexp(d):
        return _probe(epl_fexp, d.action, 1e-3 * sd_exp, d.epl)
    slow.append(Op("optimize_functional/gauss/QTL-exp",
                  lambda p=post: bd.optimize_functional(
                      bd.LossSpec.qtl(qf), p, lambda y: np.exp(np.asarray(y))),
                  check_fexp))

    # BMA over mixed families: Gaussian member under LINEX, Gamma under QTL
    psi_m, q_m, p_m = near(0.6), q[6], near(0.5)
    members = [(("LNX", psi_m), g), (("QTL", q_m), gm)]
    ens = bd.ModelEnsemble(
        [bd.EnsembleMember(f"M{i}", _to_post(bd, dist), to_spec(bd, desc))
         for i, (desc, dist) in enumerate(members)], [p_m, 1.0 - p_m])

    def mix_epl(a):
        return (p_m * orc.epl_param(members[0][0], g, a)
                + (1.0 - p_m) * orc.epl_param(members[1][0], gm, a))
    delta = 1e-3 * min(orc.sd(g), orc.sd(gm))
    slow.append(Op("bma_predict_general/mixed",
                  lambda e=ens: bd.bma_predict_general(e),
                  lambda d: _probe(mix_epl, d.action, delta, d.epl)))

    # tail-risk curve at the QTL action, and the lower envelope on a Gamma
    qt = q[7]
    spec, post = to_spec(bd, ("QTL", qt)), _to_post(bd, g)
    a_t = orc.quantile(g, qt)
    kappas = np.linspace(g[1] - 4 * g[2], g[1] + 4 * g[2], 40)
    ops.append(Op("tail_risk_curve/gauss/QTL",
                  lambda s=spec, p=post: bd.tail_risk_curve(s, p, a_t, kappas),
                  _curve_check(("QTL", qt), g, kappas, np.array([a_t]))))
    spec, post = to_spec(bd, ("QTL", qt)), _to_post(bd, gm)
    kappas_g = np.linspace(0.2, orc.mean(gm) + 4 * orc.sd(gm), 40)
    a_grid = np.linspace(0.1, orc.mean(gm) + 3 * orc.sd(gm), 60)
    ops.append(Op("lower_envelope/gamma/QTL",
                  lambda s=spec, p=post: bd.lower_envelope(s, p, kappas_g, a_grid),
                  _curve_check(("QTL", qt), gm, kappas_g, a_grid)))
    # each round of the fast calls between other slow calls, so that an op's
    # median is over moments spread across the pass
    return _interleave(ops * FAST_REPEATS, slow)


def _interleave(fast, slow):
    """The fast calls spread evenly between the slow ones.

    A pass of this workload is run once; spreading the fast calls over its
    whole length makes their latency percentiles an average over the
    host's speed during the pass, not a sample of one moment of it.
    """
    out = []
    step = len(fast) / (len(slow) + 1)
    for i, op in enumerate(slow):
        out.extend(fast[round(i * step):round((i + 1) * step)])
        out.append(op)
    out.extend(fast[round(len(slow) * step):])
    return out


def _curve_check(desc, dist, kappas, actions):
    f = orc.loss_fn(desc)

    def check(curve):
        if len(curve.points) != len(kappas):
            return _miss("points", len(curve.points), len(kappas))
        for (k, tp, lv), kw in zip(curve.points, kappas):
            want_tp = orc.sf(dist, kw)
            want_lv = float(np.min(f(actions, kw)))
            if k != kw or not _close(tp, want_tp, 1e-10) or not _close(
                    lv, want_lv, 1e-12 * (1 + abs(want_lv))):
                return _miss(f"point at kappa={kw!r}", (k, tp, lv), (kw, want_tp, want_lv))
        return None
    return check


# --------------------------------------------------------------------------
# samples


def _write_cloud(path, values, weights):
    with open(path, "w") as fh:
        fh.write("# value,weight\n")
        if weights is None:
            fh.writelines(f"{v!r}\n" for v in values.tolist())
        else:
            fh.writelines(f"{v!r},{w!r}\n" for v, w in zip(values.tolist(), weights.tolist()))


def _cloud_closed_form(desc, v, w):
    kind = desc[0]
    wn = w / w.sum()
    if kind == "SEL" or (kind == "PWD" and desc[1] == -1.0):
        return float(wn @ v)
    if kind == "LNX":
        psi = desc[1]
        x = -psi * v
        mx = float(x.max())
        return -(mx + math.log(float(wn @ np.exp(x - mx)))) / psi
    if kind == "GAM" or (kind == "PWD" and desc[1] == 1.0):
        return 1.0 / float(wn @ (1.0 / v))
    if kind == "ZERO_ONE":
        return orc.fd_mode(v, w)
    if kind == "weighted":
        p = desc[1][1]
        return float(wn @ v ** (p + 1.0)) / float(wn @ v ** p)
    return None


def _cloud_check(desc, v, w):
    wn = w / w.sum()
    scale = float(np.quantile(v, 0.75) - np.quantile(v, 0.25))

    def check(d):
        a = d.action
        e_at = float(orc.cloud_epl(desc, v, wn, a)[0])
        if not abs(d.epl - e_at) <= 1e-9 * abs(e_at) + 1e-12:
            return _miss("epl", d.epl, e_at)
        if desc[0] in ("QTL", "MTC") and (desc[0] == "QTL" or desc[1] == 1.0):
            level = desc[1] if desc[0] == "QTL" else 0.5
            ok = orc.cloud_quantile_ok(v, w, level, a)
            return None if ok else _miss(f"action ({level}-quantile)", a, "a draw at that level")
        exact = _cloud_closed_form(desc, v, w)
        if exact is not None:
            return None if _close(a, exact, 1e-9 * (abs(exact) + scale)) else _miss(
                "action", a, exact)
        # numeric: brute-force grid over the bulk plus a fine local grid
        lo, hi = np.quantile(v, [0.001, 0.999])
        grid = np.concatenate([np.linspace(lo, hi, 301),
                               np.linspace(a - 0.01 * scale, a + 0.01 * scale, 101)])
        if orc.positive_domain(desc):
            grid = grid[grid > 0]
        e_grid = orc.cloud_epl(desc, v, wn, grid)
        best = float(e_grid.min())
        if e_at > best + 1e-9 * abs(best) + 1e-12:
            b = float(grid[int(np.argmin(e_grid))])
            return f"not the minimum: EPL({a!r})={e_at!r} > EPL({b!r})={best!r}"
        return None
    return check


def _samples(bd, rng, workdir):
    def near(x):
        return _near(rng, x)
    ops = []
    clouds = []
    for n, weighted in ((1000, False), (10000, True), (100000, False)):
        v = rng.lognormal(near(1.0), near(0.45), size=n)
        w = rng.uniform(0.5, 1.5, size=n) if weighted else None
        path = os.path.join(workdir, f"cloud-{n}.txt")
        _write_cloud(path, v, w)
        post = bd.load_samples(path)
        # the oracle sees the values exactly as written and read back
        clouds.append((n, post, v, np.ones(n) if w is None else w))

    for n, post, v, w in clouds:
        q = _levels(rng, (0.8, 0.3, 0.7, 0.6))
        descs = [
            ("SEL",), ("MTC", 1.0), ("ZERO_ONE",), ("QTL", q[0]),
            ("LNX", near(0.4)),
            ("GAM", near(1.0), near(2.0)), ("PWD", 1.0), ("PWD", -1.0),
            ("weighted", ("power", near(1.0)), ("SEL",)),
            ("MTC", near(0.5)), ("MTC", near(1.5)), ("PTL", near(1.5)),
            ("PWD", near(0.5)),
            ("sum", ("QTL", q[1]), ("SEL",)),
            ("product", ("QTL", q[2]), ("SEL",)),
            ("power", ("QTL", q[3]), near(1.5)),
        ]
        for desc in descs:
            spec = to_spec(bd, desc)
            op = Op(f"optimize/cloud{n}/{desc[0]}", lambda s=spec, p=post: bd.optimize(s, p),
                    _cloud_check(desc, v, w), known_defect=_defect(desc))
            ops.extend([op] * (FAST_REPEATS if n < 100000 else 1))

    # Eight eigenspace calls, so that the median call falls inside a run of
    # calls of similar cost rather than on the edge between two clusters.
    for dim in (8, 12, 16, 24, 32, 48, 48, 48):
        draws = _vector_draws(rng, dim, 50 * dim)
        qs = [float(x) for x in rng.uniform(0.1, 0.9, size=dim)]
        ops.append(Op(f"eigen/N{dim}", _eigen_run(bd, draws, qs),
                      _eigen_check(draws, qs)))
    return ops


NON_UNIMODAL = ("the numeric search brackets from the median and assumes a "
                "unimodal EPL; on a draw cloud MTC(rho<1) has a local minimum at "
                "every draw")


def _defect(desc):
    return NON_UNIMODAL if desc[0] == "MTC" and desc[1] < 1.0 else None


def _vector_draws(rng, dim, n):
    """Correlated Gaussian draws from a random two-factor model."""
    load = rng.normal(size=(dim, 2))
    z = rng.normal(size=(n, 2)) @ load.T + rng.normal(size=(n, dim)) * rng.uniform(0.5, 1.5, dim)
    return z + rng.normal(0.0, 2.0, size=dim)


def _eigen_run(bd, draws, qs):
    specs = [bd.LossSpec.qtl(q) for q in qs]

    def run():
        corr = bd.estimate_correlation(draws)
        decomp = bd.spectral_decompose(corr)
        post = bd.VectorPosterior(draws)
        action = bd.optimize_eigen(decomp, post, specs)
        value = bd.epl_multivariate(decomp, post, specs, action)
        return corr.entries, decomp.eigenvalues, decomp.eigenvectors, action, value
    return run


def _eigen_check(draws, qs):
    x = draws - draws.mean(axis=0)
    cov = x.T @ x
    d = np.sqrt(np.diag(cov))
    corr_ref = cov / np.outer(d, d)
    vals_ref = np.sort(np.linalg.eigvalsh(corr_ref))[::-1]
    n, dim = draws.shape
    w = np.full(n, 1.0 / n)

    def check(res):
        corr, vals, vecs, action, value = res
        if np.max(np.abs(corr - corr_ref)) > 1e-10:
            return "correlation matrix differs from the sample correlation"
        if np.max(np.abs(vals - vals_ref)) > 1e-9 * dim:
            return _miss("eigenvalues", vals.tolist(), vals_ref.tolist())
        if (np.max(np.abs(corr_ref @ vecs - vecs * vals)) > 1e-8
                or np.max(np.abs(vecs.T @ vecs - np.eye(dim))) > 1e-9):
            return "eigenvectors are not orthonormal eigenvectors"
        for i in range(dim):
            col = vecs[:, i]
            if col[np.nonzero(np.abs(col) > 1e-12)[0][0]] < 0:
                return f"eigenvector {i} breaks the sign convention"
        gammas = vecs.T @ action
        total = 0.0
        for i in range(dim):
            proj = draws @ vecs[:, i]
            # the action is reassembled through V, so allow its rounding
            idx = int(np.argmin(np.abs(proj - gammas[i])))
            if abs(proj[idx] - gammas[i]) > 1e-9 * (1 + abs(gammas[i])):
                return f"eigenspace {i}: optimum {gammas[i]!r} is not a projected draw"
            if not orc.cloud_quantile_ok(proj, w, qs[i], proj[idx]):
                return f"eigenspace {i}: not the {qs[i]}-quantile"
            total += float(orc.cloud_epl(("QTL", qs[i]), proj, w, gammas[i])[0])
        if not abs(value - total) <= 1e-9 * abs(total):
            return _miss("multivariate epl", value, total)
        return None
    return check


# --------------------------------------------------------------------------
# design-mc


def _design(bd, rng):
    u = rng.uniform

    def near(x):
        return _near(rng, x)
    ops = []
    specs = []
    # replicate budgets chosen so that every call takes about the same time
    # (about 0.2 s on the baseline machine): latency percentiles then fall
    # inside one cluster instead of between two call kinds
    for q in (0.3, 0.7):
        specs.append(("gkv-n", dict(prior_mean=u(-1, 1), prior_sd=near(1.5),
                                   noise_sd=near(1.0)),
                      dict(n_grid=[0, 1, 2, 4, 8], n_mc=450, tau=near(10.0),
                           per_unit=near(0.05))))
        specs.append(("gkv-voi", dict(prior_mean=u(-1, 1), prior_sd=near(1.5),
                                     noise_sd=near(1.0)),
                      dict(n_existing=int(rng.integers(1, 4)),
                           n_extra=int(rng.integers(1, 5)), n_mc=2000)))
        specs.append(("bb-n", dict(a=near(2.0), b=near(2.0)),
                      dict(n_grid=[0, 2, 5, 10], n_mc=50, tau=near(10.0),
                           per_unit=near(0.01), q=_levels(rng, (q,))[0])))
        specs.append(("bb-voi", dict(a=near(2.0), b=near(2.0)),
                      dict(n_existing=int(rng.integers(1, 4)),
                           n_extra=int(rng.integers(1, 5)), n_mc=100)))
    n_checks = sum(len(s[2]["n_grid"]) if "n_grid" in s[2] else 1 for s in specs)
    z = orc.bonferroni_z(n_checks)
    for kind, prm, cfg in specs:
        seed = int(rng.integers(0, 2 ** 31))
        ops.append(_design_op(bd, kind, prm, cfg, seed, z))
    return ops


def _design_op(bd, kind, prm, cfg, seed, z):
    if kind.endswith("-voi"):
        def run():
            if kind == "gkv-voi":
                model = bd.gaussian_known_variance(
                    prm["prior_mean"], prm["prior_sd"], prm["noise_sd"],
                    n_existing=cfg["n_existing"], n_extra=cfg["n_extra"])
            else:
                model = bd.beta_bernoulli(prm["a"], prm["b"], n_existing=cfg["n_existing"],
                                          n_extra=cfg["n_extra"])
            return bd.voi(model, bd.neg_posterior_variance, cfg["n_mc"], seed)

        def check(res):
            est, se = res
            if kind == "gkv-voi":
                ne, nx = cfg["n_existing"], cfg["n_extra"]
                want = (orc.gkv_post_var(prm["prior_sd"], prm["noise_sd"], ne)
                        - orc.gkv_post_var(prm["prior_sd"], prm["noise_sd"], ne + nx))
                slack = 0.0
            else:
                want, slack = orc.bb_voi(prm["a"], prm["b"], cfg["n_existing"],
                                         cfg["n_extra"], 4000)
            tol = z * math.hypot(se, slack) + 1e-9 * abs(want)
            if not (math.isfinite(se) and se >= 0 and abs(est - want) <= tol):
                return _miss(f"voi (tol {tol:.3g})", (est, se), want)
            return None
        return Op(f"voi/{kind}", run, check, replicates=cfg["n_mc"])

    def run():
        if kind == "gkv-n":
            model = bd.gaussian_known_variance(prm["prior_mean"], prm["prior_sd"],
                                               prm["noise_sd"])
            loss = bd.LossSpec.sel()
        else:
            model = bd.beta_bernoulli(prm["a"], prm["b"])
            loss = bd.LossSpec.qtl(cfg["q"])
        cost = bd.CostFunction(per_unit=cfg["per_unit"])
        return bd.optimal_sample_size(model, loss, cfg["tau"], cost, cfg["n_grid"],
                                      cfg["n_mc"], seed)

    def check(res):
        n_star, curve = res
        if [row[0] for row in curve] != sorted(cfg["n_grid"]):
            return _miss("n grid", [row[0] for row in curve], cfg["n_grid"])
        for n, obj, ejl, c in curve:
            if kind == "gkv-n":
                want = orc.gkv_post_var(prm["prior_sd"], prm["noise_sd"], n)
                sd_rep = math.sqrt(2.0) * want
            else:
                want, sd_rep = orc.bb_qtl_ejl(prm["a"], prm["b"], cfg["q"], n)
            tol = z * sd_rep / math.sqrt(cfg["n_mc"]) + 1e-12
            if abs(ejl - want) > tol:
                return _miss(f"E_JL at n={n} (tol {tol:.3g})", ejl, want)
            want_c = cfg["per_unit"] * n
            if not (_close(c, want_c, 1e-12) and _close(obj, cfg["tau"] * ejl + want_c,
                                                         1e-9 * (1 + abs(obj)))):
                return _miss(f"objective at n={n}", (obj, c), (cfg["tau"] * ejl + want_c, want_c))
        best = min(curve, key=lambda row: (row[1], row[0]))[0]
        return None if n_star == best else _miss("n_star", n_star, best)
    return Op(f"optimal_sample_size/{kind}", run, check,
              replicates=cfg["n_mc"] * len(cfg["n_grid"]))


# --------------------------------------------------------------------------
# cli


CLI_CASES = (
    # (verb, fixture, csv files)
    ("predict", "predict.yaml", ("predict.csv",)),
    ("predict", "predict_mtc_half.yaml", ("predict.csv",)),
    ("predict", "predict_linex_edge.yaml", ("predict.csv",)),
    ("compare-models", "compare_models.yaml", ("model_choice.csv",)),
    ("multivar", "multivar.yaml", ("multivar.csv",)),
    ("bma", "bma.yaml", ("bma.csv",)),
    ("calibrate", "calibrate.yaml", ("calibrate.csv",)),
    ("risk-curve", "risk_curve.yaml", ("risk_curve.csv", "risk_envelope.csv")),
    ("design-n", "design_n.yaml", ("design_n.csv",)),
    ("voi", "voi.yaml", ("voi.csv",)),
)


def _cli(rng, workdir, in_process):
    import yaml   # a dependency of the library's scenario layer

    n = 5000
    v = rng.lognormal(_near(rng, 0.5), _near(rng, 0.45), size=n)
    w = rng.uniform(0.5, 1.5, size=n)
    _write_cloud(os.path.join(workdir, "draws.txt"), v, w)
    dim, n_vec = 6, 300
    draws = _vector_draws(rng, dim, n_vec)
    with open(os.path.join(workdir, "vector_draws.csv"), "w") as fh:
        fh.write(",".join(f"y{i}" for i in range(dim)) + "\n")
        fh.writelines(",".join(repr(float(x)) for x in row) + "\n" for row in draws)
    for _, fixture, _ in CLI_CASES:
        shutil.copyfile(os.path.join(FIXTURES, fixture), os.path.join(workdir, fixture))
    seed = int(rng.integers(0, 2 ** 31))
    docs = {}
    for _, fixture, _ in CLI_CASES:
        with open(os.path.join(FIXTURES, fixture)) as fh:
            docs[fixture] = yaml.safe_load(fh)

    ops = []
    runner = _in_process_runner if in_process else _subprocess_runner
    for verb, fixture, csvs in CLI_CASES:
        check = _cli_check(verb, docs[fixture], csvs, v, w, draws, seed)
        args = [verb, "--scenario", os.path.join(workdir, fixture)]
        if verb != "calibrate":
            args += ["--seed", str(seed)]
        for rep in range(2):
            ops.append(Op(f"cli/{verb}/{fixture}#{rep}", runner(args, csvs, workdir),
                          check, key=f"cli/{verb}/{fixture}", fingerprint=cli_fingerprint,
                          known_defect=_defect(_fixture_loss(docs[fixture])),
                          in_process=in_process))
    return ops


def _collect(out, csvs):
    files = {}
    for name in csvs:
        p = os.path.join(out, name)
        if os.path.exists(p):
            with open(p, "rb") as fh:
                files[name] = fh.read()
    shutil.rmtree(out, ignore_errors=True)
    return files


def _subprocess_runner(args, csvs, workdir):
    """The verb in a fresh interpreter, which inherits the worker's PYTHONPATH."""
    def run():
        out = tempfile.mkdtemp(dir=workdir)
        proc = subprocess.run([sys.executable, "-m", "bayesdecide.cli"] + args + ["--out", out],
                              cwd=workdir, capture_output=True)
        return proc.returncode, _collect(out, csvs), proc.stderr.decode(errors="replace")
    return run


def _in_process_runner(args, csvs, workdir):
    """The verb through click in this interpreter, so a trace sees it."""
    def run():
        from bayesdecide import cli

        out = tempfile.mkdtemp(dir=workdir)
        code = 0
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                cli.main.main(args=args + ["--out", out], prog_name="bayesdecide",
                              standalone_mode=False)
            except SystemExit as exc:
                code = exc.code or 0
        return code, _collect(out, csvs), err.getvalue()
    return run


def cli_fingerprint(res):
    """Repeated invocations must agree byte for byte on their CSVs."""
    code, files, _ = res
    return code, tuple(sorted(files.items()))


def _cli_check(verb, doc, csvs, v, w, draws, seed):
    wn = w / w.sum()

    def check(res):
        code, files, err = res
        if fixture_allows_numeric_error(doc) and code == 3:
            return None
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        if set(files) != set(csvs):
            return _miss("csv files", sorted(files), sorted(csvs))
        tables = {name: _parse_csv(data) for name, data in files.items()}
        return _CLI_CHECKS[verb](doc, tables, v, wn, draws, seed)
    return check


def _parse_csv(data):
    """Rows as dicts.  The ``method`` column of predict.csv and bma.csv holds
    unquoted commas, so columns after it are taken from the end of the line."""
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if "method" in header and len(fields) > len(header):
            k = header.index("method")
            tail = len(header) - k - 1
            fields = (fields[:k] + [",".join(fields[k:len(fields) - tail])]
                      + fields[len(fields) - tail:])
        rows.append(dict(zip(header, fields)))
    return rows


def fixture_allows_numeric_error(doc):
    """The LINEX-near-overflow fixture may end in the documented exit code 3."""
    return doc.get("loss", {}).get("family") == "LNX"


def _fixture_loss(doc):
    loss = doc.get("loss", {"family": "SEL"})
    return (loss["family"],) + tuple(float(x) for x in loss.get("params", {}).values())


def _check_predict(doc, tables, v, wn, draws, seed):
    row = tables["predict.csv"][0]
    a, e = float(row["action"]), float(row["epl"])
    if int(row["seed"]) != seed:
        return _miss("seed", row["seed"], seed)
    desc = _fixture_loss(doc)
    post = doc["posterior"]
    if post["kind"] == "gaussian":
        dist = ("gauss", float(post["mean"]), float(post["sd"]))
        want_a = orc.linex_action(desc[1], dist)
        if not _close(a, want_a, 1e-9 * (1 + abs(want_a))):
            return _miss("action", a, want_a)
        want = orc.linex_epl(desc[1], dist, a)
        return None if _epl_close(e, want) else _miss("epl", e, want)
    return _cloud_check(desc, v, wn)(_Decision(a, e))


@dataclass
class _Decision:
    action: float
    epl: float


def _check_models(doc, tables, v, wn, draws, seed):
    models = doc["model_choice"]["models"]
    ll = np.array([m["log_likelihood"] for m in models], dtype=float)
    prior = np.array([m["prior"] for m in models], dtype=float)
    p = np.exp(ll - ll.max()) * prior
    p /= p.sum()
    table = np.array(doc["model_choice"]["decision_table"], dtype=float)
    epl = table @ p
    chosen = models[int(np.argmin(epl))]["label"]
    rows = tables["model_choice.csv"]
    for m, pk, ek, row in zip(models, p, epl, rows):
        if (row["label"] != m["label"] or not _close(float(row["posterior_prob"]), pk, 1e-12)
                or not _close(float(row["epl"]), ek, 1e-12) or row["chosen"] != chosen):
            return _miss("model row", row, (m["label"], pk, ek, chosen))
    return None if len(rows) == len(models) else _miss("rows", len(rows), len(models))


def _check_multivar(doc, tables, v, wn, draws, seed):
    rows = tables["multivar.csv"]
    x = draws - draws.mean(axis=0)
    cov = x.T @ x
    d = np.sqrt(np.diag(cov))
    vals_ref = np.sort(np.linalg.eigvalsh(cov / np.outer(d, d)))[::-1]
    mean = draws.mean(axis=0)   # SEL in every eigenspace: the mean vector
    for i, row in enumerate(rows):
        if not _close(float(row["action"]), mean[i], 1e-9 * (1 + abs(mean[i]))):
            return _miss(f"action[{i}]", row["action"], mean[i])
        if not _close(float(row["eigenvalue"]), vals_ref[i], 1e-9):
            return _miss(f"eigenvalue[{i}]", row["eigenvalue"], vals_ref[i])
    return None if len(rows) == draws.shape[1] else _miss("rows", len(rows), draws.shape[1])


def _check_bma(doc, tables, v, wn, draws, seed):
    ens = doc["ensemble"]
    means = []
    for m in ens["members"]:
        p = m["posterior"]
        means.append(p["mean"] if p["kind"] == "gaussian" else p["shape"] / p["rate"])
    want = float(np.dot(ens["probabilities"], means))
    a = float(tables["bma.csv"][0]["action"])
    return None if _close(a, want, 1e-12 * (1 + abs(want))) else _miss("action", a, want)


def _check_calibrate(doc, tables, v, wn, draws, seed):
    blk = doc["calibrate"]
    row = tables["calibrate.csv"][0]
    share, sigma = float(blk["prevention_share"]), float(blk["sigma"])
    z = NormalDist().inv_cdf(1.0 - share)
    if blk.get("paper_exact"):
        z = round(z, 2)
    want_q, want_psi = 1.0 - share, -2.0 * z / sigma
    if not (_close(float(row["q"]), want_q, 1e-15) and _close(float(row["psi"]), want_psi,
                                                               1e-12 * abs(want_psi))):
        return _miss("q, psi", (row["q"], row["psi"]), (want_q, want_psi))
    return None


def _grid(blk):
    if isinstance(blk, list):
        return np.array(blk, dtype=float)
    return np.linspace(blk["start"], blk["stop"], blk["num"])


def _check_risk(doc, tables, v, wn, draws, seed):
    post = doc["posterior"]
    dist = ("gauss", float(post["mean"]), float(post["sd"]))
    q = float(doc["loss"]["params"]["q"])
    blk = doc["risk_curve"]
    kappas = _grid(blk["kappa_grid"])
    a_opt = orc.quantile(dist, q)
    f = orc.loss_fn(("QTL", q))
    for name, actions in (("risk_curve.csv", np.array([a_opt])),
                          ("risk_envelope.csv", _grid(blk["a_grid"]))):
        rows = tables[name]
        if len(rows) != kappas.size:
            return _miss(f"{name} rows", len(rows), kappas.size)
        for row, k in zip(rows, kappas):
            want_tp, want_l = orc.sf(dist, k), float(np.min(f(actions, k)))
            # the curve's action is a closed-form quantile: allow its rounding
            if not (_close(float(row["kappa"]), k, 1e-12 * (1 + abs(k)))
                    and _close(float(row["tail_prob"]), want_tp, 1e-10)
                    and _close(float(row["loss"]), want_l, 1e-9 * (1 + abs(want_l)))):
                return _miss(f"{name} at kappa={k!r}", row, (want_tp, want_l))
    return None


def _check_design(doc, tables, v, wn, draws, seed):
    blk = doc["design"]
    prm = blk["params"]
    n_mc = int(blk["n_mc"])
    rows = tables["design_n.csv"]
    z = orc.bonferroni_z(len(rows))
    for row in rows:
        n = int(row["n"])
        want = orc.gkv_post_var(prm["prior_sd"], prm["noise_sd"], n)
        tol = z * math.sqrt(2.0) * want / math.sqrt(n_mc)
        ejl = float(row["e_jl"])
        if abs(ejl - want) > tol:
            return _miss(f"E_JL at n={n} (tol {tol:.3g})", ejl, want)
        c = blk["cost"]["c0"] + blk["cost"]["per_unit"] * n
        if not (_close(float(row["cost"]), c, 1e-12)
                and _close(float(row["objective"]), blk["tau"] * ejl + c, 1e-9)):
            return _miss(f"objective at n={n}", row, blk["tau"] * ejl + c)
    return None if len(rows) == len(blk["n_grid"]) else _miss("rows", len(rows), blk["n_grid"])


def _check_voi(doc, tables, v, wn, draws, seed):
    blk = doc["voi"]
    prm = blk["params"]
    row = tables["voi.csv"][0]
    ne, nx = int(blk["n_existing"]), int(blk["n_extra"])
    want = (orc.gkv_post_var(prm["prior_sd"], prm["noise_sd"], ne)
            - orc.gkv_post_var(prm["prior_sd"], prm["noise_sd"], ne + nx))
    est, se = float(row["voi"]), float(row["std_err"])
    if int(row["seed"]) != seed or int(row["n_mc"]) != int(blk["n_mc"]):
        return _miss("seed, n_mc", (row["seed"], row["n_mc"]), (seed, blk["n_mc"]))
    tol = orc.bonferroni_z(1) * se + 1e-9 * abs(want)
    return None if abs(est - want) <= tol else _miss("voi", est, want)


_CLI_CHECKS = {
    "predict": _check_predict, "compare-models": _check_models,
    "multivar": _check_multivar, "bma": _check_bma, "calibrate": _check_calibrate,
    "risk-curve": _check_risk, "design-n": _check_design, "voi": _check_voi,
}


# --------------------------------------------------------------------------


def build(name, bd, seed, workdir, in_process=False):
    """The op list of a workload.  ``in_process`` runs cli verbs through
    click in this interpreter instead of a fresh process (traced runs)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), WORKLOADS.index(name)]))
    if name == "parametric":
        ops = _parametric(bd, rng)
    elif name == "samples":
        ops = _samples(bd, rng, workdir)
    elif name == "design-mc":
        ops = _design(bd, rng)
    else:
        ops = _cli(rng, workdir, in_process)
    for i, op in enumerate(ops):
        if op.key == op.name:
            op.key = f"{op.name}#{i}"
    return ops
