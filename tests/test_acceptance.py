"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line on
success (run with ``pytest -s`` or read the captured output); a failing
criterion fails its test outright.
"""

import math
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from _search import searched
from bayesdecide import (CalibrationTarget, CorrelationMatrix, DecisionTable,
                         DivergentMgfError, EnsembleMember, GammaPosterior,
                         GaussianPosterior, LossSpec, ModelEvidence,
                         ModelEnsemble, SamplePosterior, ValidationError,
                         Weight, bma_predict, bma_predict_general,
                         calibrate_linex, calibrate_quantile, choose_baf,
                         choose_epl, compose, epl,
                         gaussian_known_variance, optimal_sample_size,
                         optimize, optimize_eigen, spectral_decompose,
                         CostFunction, JointModel, VectorPosterior,
                         neg_posterior_variance, voi)
from bayesdecide.cli import main as cli_main
from bayesdecide.losses import GeneralizedGaussian


def _ok(n, message):
    print(f"[acceptance {n}] PASS - {message}")


def test_criterion_1_calibration_numbers():
    start = time.monotonic()
    q = calibrate_quantile(0.03)
    target = CalibrationTarget(posterior_sd=1.0, tail_mass=0.03, rounded=True)
    psi = calibrate_linex(target)
    assert q == 0.97
    assert psi == -3.76
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f"q=0.97 and psi=-3.76 reproduced in {elapsed:.3f}s")


# --- criterion 2: closed-form vs numeric agreement ------------------------

def _lnx_action(post, psi):
    return (-1.0 / psi) * post.log_mgf_neg(psi)


def _ratio_action(post):
    return 1.0 / post.expect(lambda y: 1.0 / np.asarray(y, dtype=float))


def _wsel_action(post, c):
    num = post.expect(lambda y: np.exp(c * np.asarray(y)) * np.asarray(y))
    den = post.expect(lambda y: np.exp(c * np.asarray(y)))
    return num / den


_WSEL_C = 0.5

# (label, spec, closed-form action, sample standard error of the estimator)
CASES = [
    ("SEL", LossSpec.sel(),
     lambda p: p.moments()[0],
     lambda p, d: d.std() / math.sqrt(d.size)),
    ("MTC(1)", LossSpec.mtc(1),
     lambda p: p.quantile(0.5),
     lambda p, d: _quantile_se(p, d, 0.5)),
    ("QTL(0.25)", LossSpec.qtl(0.25),
     lambda p: p.quantile(0.25),
     lambda p, d: _quantile_se(p, d, 0.25)),
    ("QTL(0.5)", LossSpec.qtl(0.5),
     lambda p: p.quantile(0.5),
     lambda p, d: _quantile_se(p, d, 0.5)),
    ("QTL(0.97)", LossSpec.qtl(0.97),
     lambda p: p.quantile(0.97),
     lambda p, d: _quantile_se(p, d, 0.97)),
    ("LNX(-0.5)", LossSpec.linex(-0.5),
     lambda p: _lnx_action(p, -0.5),
     lambda p, d: _lnx_se(p, d, -0.5)),
    ("LNX(0.5)", LossSpec.linex(0.5),
     lambda p: _lnx_action(p, 0.5),
     lambda p, d: _lnx_se(p, d, 0.5)),
    ("LNX(-2)", LossSpec.linex(-2.0),
     lambda p: _lnx_action(p, -2.0),
     lambda p, d: _lnx_se(p, d, -2.0)),
    ("LNX(2)", LossSpec.linex(2.0),
     lambda p: _lnx_action(p, 2.0),
     lambda p, d: _lnx_se(p, d, 2.0)),
    ("GAM", LossSpec.gam(1.0, 2.0),
     lambda p: _ratio_action(p),
     lambda p, d: _ratio_se(d)),
    ("PWD(1)", LossSpec.pwd(1.0),
     lambda p: _ratio_action(p),
     lambda p, d: _ratio_se(d)),
    ("PWD(-1)", LossSpec.pwd(-1.0),
     lambda p: p.moments()[0],
     lambda p, d: d.std() / math.sqrt(d.size)),
    ("wSEL", LossSpec.weighted(Weight.exp(_WSEL_C), LossSpec.sel()),
     lambda p: _wsel_action(p, _WSEL_C),
     lambda p, d: _wsel_se(d, _WSEL_C)),
]


def _quantile_se(post, draws, q):
    f = float(post.pdf(post.quantile(q)))
    return math.sqrt(q * (1 - q) / draws.size) / f


def _lnx_se(post, draws, psi):
    # analytic delta-method SE when the second exponential moment exists;
    # the empirical plug-in badly underestimates heavy-tailed cases
    w = np.exp(-psi * draws)
    plug_in = w.std() / (abs(psi) * w.mean() * math.sqrt(draws.size))
    try:
        log_m1 = post.log_mgf_neg(psi)
        log_m2 = post.log_mgf_neg(2 * psi)
        var = math.exp(log_m2) - math.exp(2 * log_m1)
        analytic = math.sqrt(var / draws.size) / (abs(psi) * math.exp(log_m1))
    except (DivergentMgfError, OverflowError):
        analytic = 0.0
    return max(plug_in, analytic)


def _ratio_se(draws):
    r = 1.0 / draws
    m = r.mean()
    return r.std() / (m * m * math.sqrt(draws.size))


def _wsel_se(draws, c):
    w = np.exp(c * draws)
    est = float(np.dot(w, draws) / w.sum())
    resid = w * (draws - est)
    return resid.std() / (w.mean() * math.sqrt(draws.size))


def test_criterion_2_closed_form_vs_numeric():
    start = time.monotonic()
    rng = np.random.default_rng(20220901)
    n_draws = 100_000
    posteriors = [
        (GaussianPosterior(0.0, 1.0), rng.normal(0.0, 1.0, n_draws)),
        (GaussianPosterior(3.0, 2.0), rng.normal(3.0, 2.0, n_draws)),
        (GammaPosterior(3.0, 1.0), rng.gamma(3.0, 1.0, size=n_draws)),
    ]
    checked = 0
    for post, draws in posteriors:
        gamma_post = isinstance(post, GammaPosterior)
        for label, spec, action_fn, se_fn in CASES:
            ratio_like = label in ("GAM", "PWD(1)", "PWD(-1)")
            if ratio_like and not gamma_post:
                # ratio losses have an empty action domain when the
                # posterior support reaches nonpositive values
                with pytest.raises(ValidationError):
                    optimize(spec, post)
                continue
            if label == "LNX(-2)" and gamma_post:
                # expected LINEX loss diverges: rate + psi <= 0
                with pytest.raises(DivergentMgfError):
                    optimize(spec, post)
                continue
            closed = action_fn(post)
            numeric = searched(spec, post)
            assert numeric.method.kind == "numeric"
            assert abs(numeric.action - closed) <= 1e-6 * (1 + abs(closed)), \
                f"{label} on {post}: parametric numeric {numeric.action} " \
                f"vs closed {closed}"
            cloud = SamplePosterior(draws)
            sample_numeric = searched(spec, cloud)
            tol = 3.0 * se_fn(post, draws) + 1e-6
            assert abs(sample_numeric.action - closed) <= tol, \
                f"{label} on {post}: sample numeric {sample_numeric.action} " \
                f"vs closed {closed} (tol {tol})"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(2, f"{checked} loss/posterior pairs agree on both paths in {elapsed:.1f}s")


def test_criterion_3_ordering_properties():
    post = GammaPosterior(3.0, 1.0)
    mode = optimize(LossSpec.zero_one(), post).action
    median = optimize(LossSpec.mtc(1), post).action
    mean = optimize(LossSpec.sel(), post).action
    assert mode == pytest.approx(2.0)
    assert mean == pytest.approx(3.0)
    assert mode < median < mean

    for p in (GaussianPosterior(0, 1), GaussianPosterior(3, 2),
              GammaPosterior(3, 1), GammaPosterior(8, 2)):
        for psi in (-0.5, -0.9):
            assert optimize(LossSpec.linex(psi), p).action > p.moments()[0]

    actions = [optimize(LossSpec.qtl(q), post).action
               for q in np.linspace(0.1, 0.9, 9)]
    assert all(b >= a for a, b in zip(actions, actions[1:]))
    _ok(3, "mode < median < mean, LINEX psi<0 overshoot, QTL monotone in q")


def test_criterion_4_model_selection():
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        loglik = rng.uniform(-30.0, 0.0, size=m)
        ev_uniform = ModelEvidence(log_likelihoods=loglik)
        k_epl, _ = choose_epl(ev_uniform, DecisionTable.zero_one(m))
        assert k_epl == choose_baf(ev_uniform)
        agree += 1

        # scaling every likelihood by 1e3 changes neither rule
        prior = rng.dirichlet(np.ones(m))
        ev = ModelEvidence(log_likelihoods=loglik, prior=prior)
        ev_scaled = ModelEvidence(log_likelihoods=loglik + math.log(1e3),
                                  prior=prior)
        assert choose_baf(ev) == choose_baf(ev_scaled)
        t = DecisionTable.zero_one(m)
        assert choose_epl(ev, t)[0] == choose_epl(ev_scaled, t)[0]

    # constructed counterexample: likelihoods (0.6, 0.4), prior (0.3, 0.7);
    # products (0.18, 0.28) flip the posterior argmax away from the
    # likelihood argmax
    ev = ModelEvidence(log_likelihoods=np.log([0.6, 0.4]), prior=[0.3, 0.7])
    assert choose_baf(ev) == 0
    assert choose_epl(ev, DecisionTable.zero_one(2))[0] == 1
    _ok(4, f"{agree} uniform-prior instances agree; counterexample and "
           "likelihood-scale invariance hold")


def _random_correlation(rng, n):
    while True:
        a = rng.normal(size=(n, n + 2))
        c = a @ a.T
        d = np.sqrt(np.diag(c))
        c = c / np.outer(d, d)
        c = 0.5 * (c + c.T)
        np.fill_diagonal(c, 1.0)
        try:
            return CorrelationMatrix(c)
        except ValidationError:
            continue


def test_criterion_5_eigenspace_predictor():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        corr = _random_correlation(rng, n)
        decomp = spectral_decompose(corr)
        p = decomp.eigenvectors
        assert np.max(np.abs(p.T @ p - np.eye(n))) <= 1e-10
        recon = p @ np.diag(decomp.eigenvalues) @ p.T
        assert np.max(np.abs(recon - corr.entries)) <= 1e-10
        assert abs(decomp.eigenvalues.sum() - n) <= 1e-10

        mean = rng.normal(scale=2.0, size=n)
        draws = rng.multivariate_normal(mean, corr.entries, size=10_000)
        post = VectorPosterior(draws)
        action = optimize_eigen(decomp, post, [LossSpec.sel()] * n)
        assert np.max(np.abs(action - post.mean())) <= 1e-8
    _ok(5, "100 random correlation matrices: orthonormal spectra, trace N, "
           "SEL action equals the posterior mean vector")


def test_criterion_6_bma():
    members = [
        EnsembleMember("m1", GaussianPosterior(0.0, 1.0), LossSpec.sel()),
        EnsembleMember("m2", GaussianPosterior(2.0, 1.0), LossSpec.sel()),
    ]
    even = bma_predict(ModelEnsemble(members, [0.5, 0.5]))
    assert abs(even.action - 1.0) <= 1e-12
    skew = bma_predict(ModelEnsemble(members, [0.8, 0.2]))
    assert abs(skew.action - 0.4) <= 1e-12

    general = bma_predict_general(ModelEnsemble(members, [0.8, 0.2]))
    assert abs(general.action - 0.4) <= 1e-6

    linex_members = [
        EnsembleMember("m1", GaussianPosterior(0.0, 1.0), LossSpec.linex(-2.0)),
        EnsembleMember("m2", GaussianPosterior(2.0, 1.0), LossSpec.linex(-2.0)),
    ]
    ens = ModelEnsemble(linex_members, [0.5, 0.5])
    got = bma_predict_general(ens).action
    grid = np.arange(-1.0, 5.0, 1e-3)
    values = np.array([
        0.5 * epl(LossSpec.linex(-2.0), linex_members[0].posterior, a)
        + 0.5 * epl(LossSpec.linex(-2.0), linex_members[1].posterior, a)
        for a in grid
    ])
    brute = grid[int(np.argmin(values))]
    assert abs(got - brute) <= 1e-3
    _ok(6, "weighted-mean arithmetic exact, general path matches closed form "
           "and the 1e-3 brute-force LINEX grid")


def test_criterion_7_sampling_design():
    start = time.monotonic()
    model = gaussian_known_variance(0.0, 1.0, 1.0)

    n_star, _ = optimal_sample_size(
        model, LossSpec.sel(), tau=100.0, cost=CostFunction(c0=1.0, per_unit=1.0),
        n_grid=list(range(0, 16)), n_mc=1500, seed=20220901)
    assert abs(n_star - 9) <= 1  # +/- one grid step

    # an extra arm the posterior builder ignores is worth exactly zero
    blind = JointModel(
        prior_sampler=model.prior_sampler,
        data_sampler=model.data_sampler,
        posterior_builder=lambda z, z_extra=None: model.posterior_builder(z, None),
        extra_data_sampler=model.extra_data_sampler,
    )
    est0, se0 = voi(blind, neg_posterior_variance, n_mc=200, seed=1)
    assert est0 == 0.0 and se0 == 0.0

    est, se = voi(model, neg_posterior_variance, n_mc=10_000, seed=20220901)
    assert abs(est - 1.0 / 6.0) <= max(3.0 * se, 1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok(7, f"n*={n_star}, self-arm VOI exactly 0, conjugate VOI=1/6 "
           f"in {elapsed:.1f}s")


def test_criterion_8_loss_property_suite():
    rng = np.random.default_rng(8)
    specs = [LossSpec.sel(), LossSpec.mtc(1), LossSpec.mtc(0.7),
             LossSpec.zero_one(), LossSpec.qtl(0.25), LossSpec.qtl(0.97),
             LossSpec.linex(-2.0), LossSpec.linex(0.5),
             LossSpec.potential(GeneralizedGaussian(1.5))]
    cases = 0
    for spec in specs:
        loss = compose(spec)
        a = rng.uniform(-20, 20, size=1000)
        y = rng.uniform(-20, 20, size=1000)
        assert np.all(loss(a, y) >= 0)
        assert np.all(loss(y, y) == 0)
        cases += 2000
    for spec in (LossSpec.pwd(-2.0), LossSpec.pwd(1.0), LossSpec.gam(1, 3)):
        loss = compose(spec)
        a = rng.uniform(0.05, 20, size=1000)
        y = rng.uniform(0.05, 20, size=1000)
        assert np.all(loss(a, y) >= -1e-14)
        assert np.max(np.abs(loss(y, y))) < 1e-12
        cases += 2000

    # documented asymmetry directions
    for _ in range(1000):
        y = rng.uniform(-5, 5)
        d = rng.uniform(0.01, 3)
        q = rng.uniform(0.51, 0.99)
        psi = -rng.uniform(0.01, 3)
        assert compose(LossSpec.qtl(q))(y - d, y) > compose(LossSpec.qtl(q))(y + d, y)
        assert compose(LossSpec.linex(psi))(y - d, y) > compose(LossSpec.linex(psi))(y + d, y)
        cases += 2

    # analytic-limit continuity of the ratio family at lambda in {0, -1}
    for _ in range(1000):
        a = rng.uniform(0.1, 10)
        y = rng.uniform(0.1, 10)
        for lam in (0.0, -1.0):
            exact = compose(LossSpec.pwd(lam))(a, y)
            near = compose(LossSpec.pwd(lam + 1e-7))(a, y)
            assert abs(exact - near) <= 1e-6 * (1 + abs(exact))
        cases += 2

    # potential loss under a generalized Gaussian is MTC(omega), exactly |d|^omega
    grid = rng.uniform(-10, 10, size=1000)
    for omega in (0.5, 1.0, 2.0, 3.3):
        spec = LossSpec.potential(GeneralizedGaussian(omega))
        assert spec == LossSpec.mtc(omega)
        assert np.max(np.abs(compose(spec)(grid, 0.0) - np.abs(grid) ** omega)) <= 1e-12
        cases += 1000
    assert cases >= 10_000
    _ok(8, f"{cases} randomized loss-property cases passed")


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("""
schema_version: 1
seed: 123
posterior: {kind: gaussian, mean: 0.3, sd: 1.7}
loss: {family: LNX, params: {psi: -0.8}}
design:
  template: gaussian-known-variance
  params: {prior_mean: 0.0, prior_sd: 1.0, noise_sd: 1.0}
  tau: 10.0
  cost: {per_unit: 0.5}
  n_grid: [0, 2, 4]
  n_mc: 100
""")
    artifacts = {}
    for rep in ("one", "two"):
        out = tmp_path / rep
        for verb, name in (("predict", "predict.csv"),
                           ("design-n", "design_n.csv")):
            result = runner.invoke(cli_main, [verb, "--scenario", str(scenario),
                                              "--out", str(out)])
            assert result.exit_code == 0, result.output
        for name in ("predict.csv", "design_n.csv"):
            artifacts.setdefault(name, []).append((out / name).read_bytes())
    for name, (first, second) in artifacts.items():
        assert first == second, f"{name} differs between identical runs"
    _ok(9, "repeat runs produce byte-identical predict and design CSVs")
