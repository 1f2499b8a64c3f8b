import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import bayesdecide
from bayesdecide.cli import main

Z97 = 1.8807936081512495


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(out_dir, name):
    with open(os.path.join(str(out_dir), name)) as fh:
        return fh.read()


class TestPredict:
    def test_gaussian_sel_closed_form(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
schema_version: 1
posterior: {kind: gaussian, mean: 1.5, sd: 0.2}
loss: {family: SEL}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "action  1.5" in result.output
        assert "closed_form(posterior_mean)" in result.output
        csv = read_csv(tmp_path / "out", "predict.csv")
        assert csv.splitlines()[0] == "action,epl,method,seed"
        assert csv.splitlines()[1].startswith("1.5,")

    def test_quantile_prediction(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
loss: {family: QTL, params: {q: 0.97}}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        action = float(result.output.splitlines()[0].split()[1])
        assert action == pytest.approx(Z97, abs=1e-8)

    def test_sample_posterior_file(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        draws = rng.normal(2.0, 1.0, size=5000)
        write(tmp_path, "draws.txt", "\n".join(repr(float(v)) for v in draws))
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: samples, path: draws.txt}
loss: {family: SEL}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        action = float(result.output.splitlines()[0].split()[1])
        assert action == pytest.approx(2.0, abs=0.05)

    def test_functional_prediction(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
loss: {family: SEL}
functional: {name: square}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        action = float(result.output.splitlines()[0].split()[1])
        assert action == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("posterior, loss, functional, want", [
        ("{kind: gaussian, mean: 0, sd: 0.5}", "{family: MTC, params: {rho: 1}}",
         "{name: exp}", 1.0),
        ("{kind: gaussian, mean: 0.25, sd: 1.5}", "{family: MTC, params: {rho: 1}}",
         "{name: affine, slope: 2, intercept: -1}", -0.5),
        ("{kind: gamma, shape: 3, rate: 2}", "{family: QTL, params: {q: 0.3}}",
         "{name: affine, slope: -1}", -1.8077838329329956),
        ("{kind: gaussian, mean: 0, sd: 3}", "{family: QTL, params: {q: 0.7}}",
         "{name: exp}", math.exp(3.0 * 0.5244005127080407)),
    ], ids=["exp-median", "affine-median", "affine-decreasing-quantile", "exp-wide-quantile"])
    def test_functional_quantile_is_g_of_the_quantile(self, runner, tmp_path, posterior,
                                                       loss, functional, want):
        # the median of g(Y) is g(median of Y) for a monotone g; a decreasing g
        # maps the 0.3-quantile of g(Y) to the 0.7-quantile of Y (scipy.stats ppf)
        scenario = write(tmp_path, "s.yaml", f"posterior: {posterior}\nloss: {loss}\n"
                                             f"functional: {functional}\n")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        assert "closed_form(pushforward_quantile)" in result.output
        action = float(result.output.splitlines()[0].split()[1])
        assert abs(action - want) <= 1e-7

    def test_indicator_functional_gives_tail_probability(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
loss: {family: SEL}
functional: {name: indicator_above, kappa: 0.5}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        action = float(result.output.splitlines()[0].split()[1])
        assert action == pytest.approx(0.3085375387259869, abs=1e-9)  # Pr(Y > 0.5)

    @pytest.mark.parametrize("loss,want", [("{family: SEL}", 0.31822242500251646),
                                           ("{family: MTC, params: {rho: 1}}", 0.0)],
                             ids=["sel", "mtc1"])
    def test_indicator_functional_cut_at_its_jump(self, runner, tmp_path, loss, want):
        # Pr(Y > kappa) = 0.318...; the start E g(Y) is cut at kappa, where
        # an uncut rule once handed over to a QUADPACK fallback, which gave up (exit 3)
        scenario = write(tmp_path, "s.yaml", f"""
posterior: {{kind: gamma, shape: 13.390230504285748, rate: 3.924224014410591}}
loss: {loss}
functional: {{name: indicator_above, kappa: 3.781119781620137}}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        action = float(result.output.splitlines()[0].split()[1])
        assert abs(action - want) <= 1e-9

    def test_validation_error_exits_2(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: -1.0}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 2
        assert "error" in result.output

    def test_leaf_missing_parameter_exits_2(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
loss: {family: QTL}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 2, result.output
        assert "QTL loss is missing parameter 'q'" in result.output

    def test_numeric_failure_exits_3(self, runner, tmp_path):
        # LINEX with psi <= -rate has a divergent expected loss
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gamma, shape: 3.0, rate: 1.0}
loss: {family: LNX, params: {psi: -2.0}}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 3
        assert "numeric failure" in result.output

    def test_divergent_power_divergence_exits_3(self, runner, tmp_path):
        # PWD(lam) with lam >= shape has E Y^-lam = infinity on a Gamma
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gamma, shape: 2.0, rate: 1.0}
loss: {family: PWD, params: {lam: 2.0}}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "Traceback" not in result.output
        assert "numeric failure" in result.output
        assert "E(Y^-2.0) diverges" in result.output

    @pytest.mark.parametrize("loss", ["{family: GAM, params: {alpha: 1, nu: 2}}",
                                      "{family: PWD, params: {lam: 0.5}}"])
    def test_positive_domain_loss_on_gaussian_exits_2(self, runner, tmp_path, loss):
        scenario = write(tmp_path, "s.yaml", "posterior: {kind: gaussian, mean: 10, sd: 1}\n"
                                             f"loss: {loss}\n")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "Traceback" not in result.output
        assert "loss requires y > 0" in result.output

    @pytest.mark.parametrize("base", ["{family: SEL}", "{family: MTC, params: {rho: 1.5}}"])
    def test_weight_nan_below_zero_exits_2(self, runner, tmp_path, base):
        # the reweighted mean under SEL checks its weight as MTC(1.5) does
        scenario = write(tmp_path, "s.yaml", "posterior: {kind: gaussian, mean: 0, sd: 1}\n"
                                             f"loss: {_WEIGHTED % base}\n")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "Traceback" not in result.output
        assert "loss weight function must be finite and > 0" in result.output

    def test_out_under_a_file_exits_2(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
""")
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        result = runner.invoke(main, ["predict", "--scenario", scenario,
                                      "--out", str(blocker / "out")])
        assert result.exit_code == 2, result.output
        assert "cannot make directory" in result.output

    def test_byte_identical_reruns(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.3, sd: 1.7}
loss: {family: LNX, params: {psi: -0.8}}
""")
        texts = []
        for d in ("o1", "o2"):
            result = runner.invoke(main, ["predict", "--scenario", scenario,
                                          "--out", str(tmp_path / d)])
            assert result.exit_code == 0
            texts.append(read_csv(tmp_path / d, "predict.csv"))
        assert texts[0] == texts[1]


class TestCompareModels:
    SCENARIO = """
model_choice:
  models:
    - {label: simple, log_likelihood: -4.0}
    - {label: rich, log_likelihood: -3.0}
  decision_table:
    - [0.0, 1.0]
    - [100.0, 0.0]
"""

    def test_rules_can_disagree(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", self.SCENARIO)
        result = runner.invoke(main, ["compare-models", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "choice_bayes_factor    rich" in result.output
        assert "choice_decision_table  simple" in result.output
        csv = read_csv(tmp_path / "out", "model_choice.csv")
        assert csv.splitlines()[0] == "label,posterior_prob,epl,chosen"
        assert "simple" in csv

    def test_without_table(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
model_choice:
  models:
    - {label: a, log_likelihood: -1.0, prior: 0.5}
    - {label: b, log_likelihood: -1.5, prior: 0.5}
""")
        result = runner.invoke(main, ["compare-models", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        assert "choice_bayes_factor  a" in result.output


class TestMultivar:
    def test_two_component_sel(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        draws = rng.multivariate_normal([1.0, -1.0], cov, size=20_000)
        lines = ["y1,y2"] + [f"{float(a)!r},{float(b)!r}" for a, b in draws]
        write(tmp_path, "draws.csv", "\n".join(lines))
        scenario = write(tmp_path, "s.yaml", """
multivar:
  draws: {path: draws.csv}
  correlation: {matrix: [[1.0, 0.6], [0.6, 1.0]]}
  losses:
    - {family: SEL}
""")
        result = runner.invoke(main, ["multivar", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        csv = read_csv(tmp_path / "out", "multivar.csv")
        rows = csv.splitlines()
        assert rows[0] == "component,action,eigenvalue"
        actions = [float(r.split(",")[1]) for r in rows[1:]]
        assert actions[0] == pytest.approx(1.0, abs=0.05)
        assert actions[1] == pytest.approx(-1.0, abs=0.05)
        eigvals = [float(r.split(",")[2]) for r in rows[1:]]
        assert eigvals == pytest.approx([1.6, 0.4])

    @staticmethod
    def _vector_draws(tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 3)) @ np.array([[1.0, 0.4, 0.1], [0, 1.0, 0.3], [0, 0, 1.0]])
        write(tmp_path, "vector_draws.csv", "y0,y1,y2\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in x))

    def test_sel_fixture_output_pinned(self, runner, tmp_path):
        # the benchmark's SEL fixture, on 60 seeded draws: every eigenspace
        # takes the closed-form mean
        self._vector_draws(tmp_path)
        fixture = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "perfbench", "fixtures", "multivar.yaml")
        with open(fixture) as fh:
            scenario = write(tmp_path, "multivar.yaml", fh.read())
        result = runner.invoke(main, ["multivar", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert result.output == (
            "action       0.03996119169009511 0.08760430494271977 0.00958265232232831\n"
            "epl          3.3818291497258315\n"
            "eigenvalues  1.4230723905241032 0.8998658874247835 0.6770617220511131\n"
            "method       closed_form(eigenspace)\n"
            "seed         20220901\n")
        assert read_csv(tmp_path / "out", "multivar.csv") == (
            "component,action,eigenvalue\n"
            "1,0.03996119169009511,1.4230723905241032\n"
            "2,0.08760430494271977,0.8998658874247835\n"
            "3,0.00958265232232831,0.6770617220511131\n")

    @pytest.mark.parametrize("losses, tag", [
        ("[{family: MTC, params: {rho: 0.5}}]", "numeric(eigenspace: golden_section x3)"),
        ("[{family: SEL}, {family: MTC, params: {rho: 0.5}}, {family: QTL, params: {q: 0.3}}]",
         "numeric(eigenspace: closed_form x2, golden_section x1)"),
        ("[{family: QTL, params: {q: 0.3}}]", "closed_form(eigenspace)"),
    ])
    def test_method_names_what_ran(self, runner, tmp_path, losses, tag):
        self._vector_draws(tmp_path)
        scenario = write(tmp_path, "s.yaml", "multivar:\n  draws: {path: vector_draws.csv}\n"
                         f"  losses: {losses}\n")
        result = runner.invoke(main, ["multivar", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        assert f"method       {tag}\n" in result.output

    def test_estimated_correlation_fallback(self, runner, tmp_path):
        rng = np.random.default_rng(5)
        draws = rng.normal(size=(2000, 2))
        write(tmp_path, "draws.csv",
              "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in draws))
        scenario = write(tmp_path, "s.yaml", """
multivar:
  draws: {path: draws.csv}
""")
        result = runner.invoke(main, ["multivar", "--scenario", scenario])
        assert result.exit_code == 0, result.output


class TestBma:
    def test_closed_form_weighted_mean(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
ensemble:
  members:
    - {label: a, posterior: {kind: gaussian, mean: 0.0, sd: 1.0}}
    - {label: b, posterior: {kind: gaussian, mean: 4.0, sd: 2.0}}
  probabilities: [0.3, 0.7]
""")
        result = runner.invoke(main, ["bma", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        action = float(result.output.splitlines()[0].split()[1])
        assert action == pytest.approx(2.8)
        assert "bma_weighted_mean" in result.output

    def test_mtc_two_members_take_the_weighted_mean(self, runner, tmp_path):
        # MTC(2) is squared error, as optimize reads it
        scenario = write(tmp_path, "s.yaml", """
ensemble:
  members:
    - label: a
      posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
      loss: {family: MTC, params: {rho: 2.0}}
    - label: b
      posterior: {kind: gaussian, mean: 4.0, sd: 2.0}
      loss: {family: MTC, params: {rho: 2}}
  probabilities: [0.3, 0.7]
""")
        result = runner.invoke(main, ["bma", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        assert float(result.output.splitlines()[0].split()[1]) == pytest.approx(2.8)
        assert "closed_form(bma_weighted_mean)" in result.output

    def test_general_path_for_mixed_losses(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
ensemble:
  members:
    - label: a
      posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
      loss: {family: QTL, params: {q: 0.9}}
    - label: b
      posterior: {kind: gaussian, mean: 2.0, sd: 1.0}
      loss: {family: SEL}
  probabilities: [0.5, 0.5]
""")
        result = runner.invoke(main, ["bma", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        assert "numeric(" in result.output

    def test_models_evidence_gives_the_posterior_model_probabilities(self, runner, tmp_path):
        from bayesdecide import ModelEvidence, posterior_models

        members = """
ensemble:
  members:
    - label: a
      posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
      loss: {family: QTL, params: {q: 0.8}}
    - {label: b, posterior: {kind: gamma, shape: 3.0, rate: 1.0}}
"""
        ev = ModelEvidence(log_likelihoods=[-1.0, -2.5], prior=[0.3, 0.7], labels=["a", "b"])
        probs = posterior_models(ev).probabilities
        assert probs[0] != pytest.approx(0.3, abs=0.05)  # evidence moves the prior
        outputs = []
        for block in ("  models: [{label: a, log_likelihood: -1.0, prior: 0.3}, "
                      "{label: b, log_likelihood: -2.5, prior: 0.7}]\n",
                      f"  probabilities: [{probs[0]!r}, {probs[1]!r}]\n"):
            scenario = write(tmp_path, "s.yaml", members + block)
            out = tmp_path / f"out{len(outputs)}"
            result = runner.invoke(main, ["bma", "--scenario", scenario, "--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append((result.output, read_csv(out, "bma.csv")))
        assert outputs[0] == outputs[1]


class TestCalibrate:
    def test_flags_paper_exact(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
calibrate: {prevention_share: 0.03, sigma: 1.0, paper_exact: true}
""")
        result = runner.invoke(main, ["calibrate", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "q       0.97" in result.output
        assert "psi     -3.76" in result.output
        csv = read_csv(tmp_path / "out", "calibrate.csv")
        assert csv.splitlines()[1] == "0.97,-3.76,1.0"

    def test_unrounded_multiple(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", "calibrate: {prevention_share: 0.03}\n")
        result = runner.invoke(main, ["calibrate", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        psi = float([l for l in result.output.splitlines()
                     if l.startswith("psi")][0].split()[1])
        assert psi == pytest.approx(-2 * Z97, abs=1e-9)

    def test_scenario_block(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
calibrate: {gaussian_multiple: 1.88, sigma: 2.0}
""")
        result = runner.invoke(main, ["calibrate", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        psi = float([l for l in result.output.splitlines()
                     if l.startswith("psi")][0].split()[1])
        assert psi == pytest.approx(-1.88)

    def test_no_input_exits_2(self, runner):
        result = runner.invoke(main, ["calibrate"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("block", ["{prevention_share: 0.03, gaussian_multiple: 1.0}",
                                       "{sigma: 2.0}"], ids=["both", "neither"])
    def test_exactly_one_target_or_exit_2(self, runner, tmp_path, block):
        scenario = write(tmp_path, "s.yaml", f"calibrate: {block}\n")
        result = runner.invoke(main, ["calibrate", "--scenario", scenario])
        assert result.exit_code == 2, (result.output, result.exception)
        assert ("calibrate: give exactly one of prevention_share and gaussian_multiple"
                in result.output)
        assert "psi" not in result.output


class TestRiskCurve:
    def test_curve_and_envelope(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
loss: {family: SEL}
risk_curve:
  kappa_grid: {start: -2.0, stop: 2.0, num: 9}
  a_grid: {start: -3.0, stop: 3.0, num: 13}
""")
        result = runner.invoke(main, ["risk-curve", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        curve = read_csv(tmp_path / "out", "risk_curve.csv").splitlines()
        env = read_csv(tmp_path / "out", "risk_envelope.csv").splitlines()
        assert curve[0] == env[0] == "kappa,tail_prob,loss"
        assert len(curve) == len(env) == 10
        probs = [float(r.split(",")[1]) for r in curve[1:]]
        assert all(b <= a for a, b in zip(probs, probs[1:]))
        for c, e in zip(curve[1:], env[1:]):
            assert float(e.split(",")[2]) <= float(c.split(",")[2]) + 1e-12

    def test_fixed_action(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
risk_curve:
  action: 0.5
  kappa_grid: [0.0, 1.0]
""")
        result = runner.invoke(main, ["risk-curve", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        assert "fixed_action" in result.output

    @pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
    @pytest.mark.parametrize("a_grid, message", [
        ("[]", "risk_curve.a_grid must be nonempty"),
        ("{start: 0, stop: 1, num: 0}", "risk_curve.a_grid: num must be >= 1"),
        ("[0, .inf]", "risk_curve.a_grid must be nonempty and finite"),
    ], ids=["empty", "num-0", "inf"])
    def test_malformed_a_grid_exits_2_before_any_work(self, runner, tmp_path, a_grid,
                                                       message, out):
        scenario = write(tmp_path, "s.yaml",
                         GAUSS + f"risk_curve: {{kappa_grid: [0, 1], a_grid: {a_grid}}}\n")
        args = ["risk-curve", "--scenario", scenario]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out")] if out else args)
        assert result.exit_code == 2, (result.output, result.exception)
        assert message in result.output
        assert "points" not in result.output  # the table was never printed
        assert not list(tmp_path.rglob("*.csv"))


class TestDesignN:
    SCENARIO = """
design:
  template: gaussian-known-variance
  params: {prior_mean: 0.0, prior_sd: 1.0, noise_sd: 1.0}
  tau: 100.0
  cost: {c0: 1.0, per_unit: 1.0}
  n_grid: [1, 3, 9, 27]
  n_mc: 200
"""

    def test_selects_oracle_n(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", self.SCENARIO)
        result = runner.invoke(main, ["design-n", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "n_star  9" in result.output
        csv = read_csv(tmp_path / "out", "design_n.csv")
        assert csv.splitlines()[0] == "n,objective,e_jl,cost"
        assert len(csv.splitlines()) == 5

    def test_seed_override_changes_estimates(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", self.SCENARIO)
        outputs = []
        for seed in ("1", "2"):
            result = runner.invoke(main, ["design-n", "--scenario", scenario,
                                          "--seed", seed,
                                          "--out", str(tmp_path / f"o{seed}")])
            assert result.exit_code == 0
            outputs.append(read_csv(tmp_path / f"o{seed}", "design_n.csv"))
        assert outputs[0] != outputs[1]

    def test_reruns_byte_identical(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", self.SCENARIO)
        outputs = []
        for d in ("r1", "r2"):
            result = runner.invoke(main, ["design-n", "--scenario", scenario,
                                          "--out", str(tmp_path / d)])
            assert result.exit_code == 0
            outputs.append(read_csv(tmp_path / d, "design_n.csv"))
        assert outputs[0] == outputs[1]


    def test_a_concave_loss_on_a_u_shaped_beta_prior(self, runner, tmp_path):
        # at n = 0 each replicate decides on Beta(0.2, 0.2) itself, where every
        # EPL of MTC(0.3) is singular at both ends of the support
        scenario = write(tmp_path, "s.yaml", """
loss: {family: MTC, params: {rho: 0.3}}
design:
  template: beta-bernoulli
  params: {a: 0.2, b: 0.2}
  tau: 1.0
  cost: {c0: 0.0, per_unit: 0.01}
  n_grid: [0, 1, 2]
  n_mc: 3
""")
        result = runner.invoke(main, ["design-n", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        rows = read_csv(tmp_path / "out", "design_n.csv").splitlines()
        assert [r.split(",")[0] for r in rows] == ["n", "0", "1", "2"]
        assert np.all(np.isfinite([float(r.split(",")[2]) for r in rows[1:]]))


class TestVoi:
    def test_conjugate_exact_value(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
voi:
  template: gaussian-known-variance
  params: {prior_mean: 0.0, prior_sd: 1.0, noise_sd: 1.0}
  n_existing: 1
  n_extra: 1
  n_mc: 50
""")
        result = runner.invoke(main, ["voi", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        est = float(result.output.splitlines()[0].split()[1])
        assert est == pytest.approx(1.0 / 6.0, abs=1e-12)
        csv = read_csv(tmp_path / "out", "voi.csv")
        assert csv.splitlines()[0] == "voi,std_err,n_mc,seed"
        assert csv.splitlines()[1].endswith(",50,20220901")

    def test_beta_bernoulli_matches_conjugate_value(self, runner, tmp_path):
        # the fixture voi.yaml is Gaussian, whose gain does not depend on the
        # data; a beta-bernoulli gain does, so this sees the replicates
        scenario = write(tmp_path, "s.yaml", """
voi:
  template: beta-bernoulli
  params: {a: 5.0, b: 1.0}
  n_existing: 2
  n_extra: 3
  n_mc: 4000
""")
        result = runner.invoke(main, ["voi", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        rows = dict(line.split() for line in result.output.splitlines())
        est, se = float(rows["voi"]), float(rows["std_err"])
        # E Var(Y | s successes of n) = Var(Y) (a + b) / (a + b + n)
        prior_var = 5.0 / (36.0 * 7.0)
        want = prior_var * 6.0 * (1.0 / 8.0 - 1.0 / 11.0)
        assert 0.0 < se and abs(est - want) <= 4.0 * se

    def test_beta_bernoulli_tiny_b_keeps_its_failures(self, runner, tmp_path):
        # every draw is a success, and (1e-300 + 2) - 2 would leave b = 0
        scenario = write(tmp_path, "s.yaml", "voi: {template: beta-bernoulli, params: "
                                             "{a: 1e308, b: 1e-300}, n_existing: 2, "
                                             "n_extra: 3, n_mc: 20}\n")
        result = runner.invoke(main, ["voi", "--scenario", scenario])
        assert result.exit_code == 0, (result.output, result.exception)
        assert "Traceback" not in result.output

    def test_unknown_value_function_exits_2(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
voi:
  template: gaussian-known-variance
  value: maximize_profit
""")
        result = runner.invoke(main, ["voi", "--scenario", scenario])
        assert result.exit_code == 2


class TestScenarioValidation:
    def test_bad_yaml_exits_2(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", "posterior: {kind: [unclosed")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 2

    def test_wrong_schema_version_exits_2(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
schema_version: 99
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 2

    def test_default_seed_recorded(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
""")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 0
        assert "seed    20220901" in result.output


GAUSS = "posterior: {kind: gaussian, mean: 0.0, sd: 1.0}\n"
GKV = "template: gaussian-known-variance"


class TestMalformedFields:
    """A field of the wrong type exits 2 and names the field, never a traceback."""

    @pytest.mark.parametrize("verb, text, field", [
        ("predict", "posterior: {kind: gaussian, mean: abc, sd: 1.0}", "posterior.mean"),
        ("design-n", f"design: {{{GKV}, params: [1], tau: 1.0, n_grid: [0, 1]}}",
         "design.params"),
        ("voi", f"voi: {{{GKV}, n_mc: abc}}", "voi.n_mc"),
        ("design-n", f"design: {{{GKV}, tau: 1.0, n_grid: [0, 1], n_mc: abc}}",
         "design.n_mc"),
        ("risk-curve", GAUSS + "risk_curve: {kappa_grid: [a, 1]}",
         "risk_curve.kappa_grid[0]"),
        ("risk-curve", GAUSS + "risk_curve: {kappa_grid: [0, 1], action: x}",
         "risk_curve.action"),
        ("bma", "ensemble: {members: [{posterior: {kind: gaussian, mean: 0, sd: 1}}], "
                "probabilities: 5}", "ensemble.probabilities"),
        ("compare-models", "model_choice: {models: [{log_likelihood: x}]}",
         "model_choice.models[0].log_likelihood"),
        ("calibrate", "calibrate: {prevention_share: 0.03, paper_exact: 'false'}",
         "calibrate.paper_exact"),
    ], ids=["posterior-mean", "design-params", "voi-n_mc", "design-n_mc",
            "kappa_grid", "action", "probabilities", "log_likelihood", "paper_exact"])
    def test_exits_2_naming_the_field(self, runner, tmp_path, verb, text, field):
        scenario = write(tmp_path, "s.yaml", text + "\n")
        result = runner.invoke(main, [verb, "--scenario", scenario])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert field in result.output

    def test_design_without_replicates_exits_2(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml",
                         f"design: {{{GKV}, tau: 1.0, n_grid: [0, 1], n_mc: 0}}\n")
        result = runner.invoke(main, ["design-n", "--scenario", scenario])
        assert result.exit_code == 2, result.output
        assert "n_mc must be >= 1" in result.output


DRAWS_CSV = "y0,y1\n0.1,0.2\n0.3,0.1\n-0.2,0.4\n0.5,-0.1\n"
MULTIVAR = "multivar: {draws: {path: draws.csv}, correlation: %s}"


class TestMalformedInputs:
    """Ragged matrices, non-whole integers and bad files exit 2 without a traceback."""

    @pytest.mark.parametrize("verb, text, files, message", [
        ("compare-models", "model_choice: {models: [{log_likelihood: -1}, "
                           "{log_likelihood: -2}], decision_table: [[0, 1], [1]]}", {},
         "model_choice.decision_table[1]"),
        ("multivar", MULTIVAR % "{matrix: [[1, 0.5], [0.5]]}", {}, "correlation.matrix[1]"),
        ("multivar", MULTIVAR % "{path: corr.csv}", {"corr.csv": "1,0.5\n0.5\n"},
         "corr.csv data rows[1]"),
        ("voi", f"voi: {{{GKV}, n_mc: 2.7}}", {}, "voi.n_mc"),
        ("voi", f"voi: {{{GKV}, n_mc: true}}", {}, "voi.n_mc"),
        ("design-n", f"design: {{{GKV}, tau: 1.0, n_grid: [1.5]}}", {}, "design.n_grid[0]"),
        ("design-n", f"design: {{{GKV}, tau: 1.0, n_grid: [1], cost: {{table: {{1.5: 1}}}}}}",
         {}, "design.cost.table key"),
        ("voi", f"voi: {{{GKV}, n_existing: -2}}", {}, "n_existing"),
        ("voi", f"voi: {{{GKV}, params: {{prior_sd: .inf}}}}", {}, "prior_sd"),
        ("voi", "voi: {template: beta-bernoulli, params: {a: .inf}}", {},
         "a and b must be finite and > 0 with a finite sum, got a=inf, b=1.0"),
        ("predict", "seed: true\n" + GAUSS, {}, "seed"),
        ("predict", "posterior: {kind: samples, path: 5}", {}, "posterior.path"),
        ("predict", "posterior: {kind: samples, path: .}", {}, "file"),
        ("predict", "posterior: {kind: samples, path: bin.txt}", {"bin.txt": b"\xff\xfe\x01"},
         "bad sample line"),
        ("multivar", "multivar: {draws: {path: head.csv}}", {"head.csv": "y0,weight\n"},
         "no draws found"),
        ("risk-curve", GAUSS + "risk_curve: {kappa_grid: [0, 1], action: .nan}", {},
         "action must be finite"),
        ("design-n", f"design: {{{GKV}, tau: 1.0, n_grid: {{start: 0, stop: 4, step: 0}}}}",
         {}, "design.n_grid.step must be nonzero"),
        ("design-n", f"design: {{{GKV}, tau: 1.0, n_grid: [{10 ** 30}]}}", {},
         "design.n_grid[0]: expected a 64-bit integer"),
        ("voi", f"voi: {{template: beta-bernoulli, n_existing: {10 ** 30}}}", {},
         "voi.n_existing: expected a 64-bit integer"),
    ], ids=["decision_table", "matrix", "correlation-file", "n_mc-fraction", "n_mc-bool",
            "n_grid-fraction", "cost-key-fraction", "n_existing-negative", "prior_sd-inf", "a-inf",
            "seed-bool", "path-number", "path-directory", "binary-draws", "header-only",
            "action-nan", "n_grid-step-zero", "n_grid-past-int64", "n_existing-past-int64"])
    def test_exits_2(self, runner, tmp_path, verb, text, files, message):
        write(tmp_path, "draws.csv", DRAWS_CSV)
        for name, content in files.items():
            path = tmp_path / name
            path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
        scenario = write(tmp_path, "s.yaml", text + "\n")
        result = runner.invoke(main, [verb, "--scenario", scenario])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "Traceback" not in result.output
        assert message in result.output

    def test_integers_fit_in_int64(self):
        from bayesdecide.scenario import read
        assert read({"n": 2 ** 63 - 1}, "n", "w", int) == 2 ** 63 - 1
        assert read({"n": -(2 ** 63 - 1)}, "n", "w", int) == -(2 ** 63 - 1)
        with pytest.raises(bayesdecide.ValidationError, match="w.n: expected a 64-bit"):
            read({"n": 2 ** 63}, "n", "w", int)

    def test_descending_n_grid_runs(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", f"design: {{{GKV}, tau: 1.0, n_mc: 5, "
                                             "n_grid: {start: 4, stop: 0, step: -2}}\n")
        result = runner.invoke(main, ["design-n", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        ns = [line.split(",")[0] for line in
              read_csv(tmp_path / "out", "design_n.csv").splitlines()[1:]]
        assert sorted(ns, key=int) == ["0", "2", "4"]  # stop included, as ascending

    def test_whole_float_is_an_integer(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", f"voi: {{{GKV}, n_mc: 3.0}}\n")
        result = runner.invoke(main, ["voi", "--scenario", scenario])
        assert result.exit_code == 0, result.output
        assert "n_mc     3\n" in result.output

    def test_indented_comments_are_skipped(self, runner, tmp_path):
        corr = "1,0.5\n0.5,1\n"
        write(tmp_path, "draws.csv", DRAWS_CSV)
        write(tmp_path, "corr.csv", corr)
        write(tmp_path, "draws_c.csv", "  # a comment\n" + DRAWS_CSV + "\t# another\n")
        write(tmp_path, "corr_c.csv", "   # a comment\n" + corr)
        outputs = []
        for draws, corr_file in (("draws.csv", "corr.csv"), ("draws_c.csv", "corr_c.csv")):
            scenario = write(tmp_path, "s.yaml", "multivar: {draws: {path: %s}, "
                             "correlation: {path: %s}}\n" % (draws, corr_file))
            result = runner.invoke(main, ["multivar", "--scenario", scenario])
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
        assert outputs[0] == outputs[1]


def _loss_key(value, indent=""):
    """A ``loss:`` line holding ``value``, or no line when ``value`` is None."""
    return "" if value is None else f"{indent}loss: {value}\n"


_DESIGN = ("design:\n  template: gaussian-known-variance\n  tau: 50.0\n"
           "  n_grid: [1, 4]\n  n_mc: 40\n")
# each place a loss is read: (verb, CSV it writes, scenario with the loss
# given as the YAML text ``value``, or absent when ``value`` is None)
_LOSS_SITES = {
    "predict": ("predict", "predict.csv",
                lambda value: GAUSS + _loss_key(value)),
    "risk-curve": ("risk-curve", "risk_curve.csv",
                   lambda value: GAUSS + "risk_curve: {kappa_grid: [0, 1], a_grid: [0, 1]}\n"
                   + _loss_key(value)),
    "design-n": ("design-n", "design_n.csv", lambda value: _DESIGN + _loss_key(value)),
    "design-n-design.loss": ("design-n", "design_n.csv",
                             lambda value: _DESIGN + _loss_key(value, "  ")),
    "bma-member": ("bma", "bma.csv", lambda value: (
        "ensemble:\n  members:\n    - label: a\n"
        "      posterior: {kind: gaussian, mean: 0.0, sd: 1.0}\n" + _loss_key(value, "      ")
        + "    - {label: b, posterior: {kind: gaussian, mean: 4.0, sd: 2.0}}\n"
        "  probabilities: [0.3, 0.7]\n")),
    "multivar-losses-entry": ("multivar", "multivar.csv", lambda value: (
        "multivar: {draws: {path: draws.csv}%s}\n"
        % ("" if value is None else f", losses: [{value}]"))),
}


class TestDefaultLoss:
    """An absent or null loss is SEL wherever a loss is read; any other value
    is parsed as written."""

    @staticmethod
    def _run(runner, tmp_path, site, value, out=None):
        verb, _, scenario = _LOSS_SITES[site]
        write(tmp_path, "draws.csv", DRAWS_CSV)
        path = write(tmp_path, "s.yaml", scenario(value))
        return runner.invoke(main, [verb, "--scenario", path]
                             + ([] if out is None else ["--out", str(tmp_path / out)]))

    @pytest.mark.parametrize("site", list(_LOSS_SITES))
    def test_absent_and_null_write_the_sel_bytes(self, runner, tmp_path, site):
        name = _LOSS_SITES[site][1]
        texts = []
        for i, value in enumerate(["{family: SEL}", None, "null"]):
            result = self._run(runner, tmp_path, site, value, out=f"out{i}")
            assert result.exit_code == 0, result.output
            texts.append(read_csv(tmp_path / f"out{i}", name))
        assert texts[1] == texts[0] and texts[2] == texts[0]

    @pytest.mark.parametrize("value, message", [
        ("{}", "loss: missing required field 'family'"),
        ("0", "loss: expected a mapping, got 0"),
        ("false", "loss: expected a mapping, got False"),
    ], ids=["empty-mapping", "zero", "false"])
    @pytest.mark.parametrize("site", list(_LOSS_SITES))
    def test_other_values_exit_2_naming_the_field(self, runner, tmp_path, site, value,
                                                  message):
        result = self._run(runner, tmp_path, site, value)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert message in result.output


def _run_python(args, **kwargs):
    """Run a fresh interpreter that imports this checkout's package, with a
    RuntimeWarning an error, as pytest's own filter makes it in process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bayesdecide.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], env=env,
                          capture_output=True, text=True, timeout=120, **kwargs)


class TestProcess:
    def test_divergent_gamma_linex_exits_3_without_traceback(self, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gamma, shape: 3.0, rate: 1.0}
loss: {family: LNX, params: {psi: -2.0}}
""")
        result = _run_python(["-m", "bayesdecide.cli", "predict",
                              "--scenario", scenario], cwd=str(tmp_path))
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        assert "numeric failure" in result.stdout + result.stderr

    def test_overflowing_loss_exits_3_without_a_warning(self, tmp_path):
        # E exp((a - Y)^2) - 1 diverges on N(0, 1): the rule's integrand
        # overflows, and numpy must not warn on the way to the NumericError
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0, sd: 1}
loss: {compose: exp_minus_one, base: {family: SEL}}
""")
        result = _run_python(["-m", "bayesdecide.cli", "predict",
                              "--scenario", scenario], cwd=str(tmp_path))
        output = result.stdout + result.stderr
        assert result.returncode == 3, output
        assert "numeric failure" in output
        assert "Warning" not in output and "Traceback" not in output

    @pytest.mark.parametrize("block", [
        "draws: {path: missing.csv}",
        "draws: {path: draws.csv}\n  correlation: {path: missing.csv}",
    ])
    def test_missing_multivar_file_exits_2_without_traceback(self, tmp_path, block):
        write(tmp_path, "draws.csv", "0.1,0.2\n0.3,0.1\n-0.2,0.4\n")
        scenario = write(tmp_path, "s.yaml", f"multivar:\n  {block}\n")
        result = _run_python(["-m", "bayesdecide.cli", "multivar",
                              "--scenario", scenario], cwd=str(tmp_path))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        assert "missing.csv" in result.stderr

    # 1e17 elements, 711 PiB or more, exceed even a 57-bit address space, so
    # each allocation is refused at once and takes no memory
    BB = "template: beta-bernoulli, params: {a: 2, b: 3}, tau: 1"
    BIG = 10 ** 17

    @pytest.mark.parametrize("verb, text", [
        ("risk-curve", "posterior: {kind: gaussian, mean: 0, sd: 1}\n"
                       f"risk_curve: {{kappa_grid: {{start: 0, stop: 1, num: {BIG}}}}}"),
        ("design-n", f"design: {{{BB}, n_grid: {{start: 0, stop: {BIG}}}, n_mc: 2}}"),
        ("design-n", f"design: {{{BB}, n_grid: [0, 1], n_mc: {BIG}}}"),
        ("design-n", f"design: {{{BB}, n_grid: [0, {BIG}], n_mc: 2}}"),
        ("voi", f"voi: {{{BB}, n_mc: {BIG}}}"),
    ], ids=["kappa_grid-num", "n_grid-range", "design-n_mc", "n_grid-entry", "voi-n_mc"])
    def test_a_size_too_large_for_memory_exits_2_without_traceback(self, tmp_path, verb,
                                                                    text):
        scenario = write(tmp_path, "s.yaml", text + "\n")
        result = _run_python(["-m", "bayesdecide.cli", verb, "--scenario", scenario],
                             cwd=str(tmp_path))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stdout + result.stderr

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        result = _run_python(["-c", "import sys, bayesdecide.cli; "
                                    "print('scipy.stats' in sys.modules)"])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize("loss", [
        None,                                   # import only
        "{family: SEL}",                        # closed form
        "{family: MTC, params: {rho: 0.5}}",    # numeric search over EPLs
    ])
    def test_cli_leaves_scipy_integrate_unloaded(self, tmp_path, loss):
        code = "import sys, bayesdecide.cli\n"
        if loss is not None:
            scenario = write(tmp_path, "s.yaml", "posterior: {kind: gaussian, "
                                                 f"mean: 1.0, sd: 2.0}}\nloss: {loss}\n")
            code += ("bayesdecide.cli.main.main(args=['predict', '--scenario', "
                     f"{scenario!r}, '--out', {str(tmp_path / 'out')!r}], "
                     "standalone_mode=False)\n")
        code += "print('scipy.integrate' in sys.modules, 'scipy.optimize' in sys.modules)"
        result = _run_python(["-c", code], cwd=str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "False False"
        if loss is not None:
            assert (tmp_path / "out" / "predict.csv").exists()

    @pytest.mark.parametrize("module", ["bayesdecide", "bayesdecide.cli"])
    def test_import_leaves_scipy_special_unloaded(self, module):
        result = _run_python(["-c", f"import sys, {module}; "
                                    "print('scipy.special' in sys.modules)"])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize("verb, fixture", [
        ("predict", "predict.yaml"),              # QTL on draws: closed form
        ("predict", "predict_mtc_half.yaml"),     # MTC(0.5) on draws: numeric search
        ("predict", "predict_linex_edge.yaml"),   # LINEX on a Gaussian: closed form
        ("compare-models", "compare_models.yaml"),
        ("multivar", "multivar.yaml"),
        ("bma", "bma.yaml"),                      # SEL members: the mixture mean
        ("design-n", "design_n.yaml"),
        ("voi", "voi.yaml"),
    ])
    def test_fixture_verb_leaves_scipy_special_unloaded(self, tmp_path, verb, fixture):
        _copy_fixtures(tmp_path)
        result = _run_python(["-c", _RUN_VERB, verb, "--scenario", fixture, "--out", "out"],
                             cwd=str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"
        assert os.listdir(tmp_path / "out")

    @pytest.mark.parametrize("verb, fixture", [("calibrate", "calibrate.yaml"),
                                               ("risk-curve", "risk_curve.yaml")])
    def test_scipy_special_on_first_use_gives_the_eager_bytes(self, tmp_path, verb, fixture):
        # the verb with scipy.special imported by its first call, and with it
        # imported before the package, as by a caller that already uses scipy
        _copy_fixtures(tmp_path)
        runs = []
        for first in ("", "import scipy.special\n"):
            out = tmp_path / f"out{len(runs)}"
            result = _run_python(["-c", first + _RUN_VERB, verb, "--scenario", fixture,
                                  "--out", str(out)], cwd=str(tmp_path))
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines()[-1] == "True"
            runs.append((result.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0] == runs[1]
        assert runs[0][1]

    @pytest.mark.parametrize("verb, args", [
        ("predict", ["--scenario", "."]),
        ("calibrate", ["--scenario", "."]),
        ("voi", ["--scenario", "voi.yaml", "--out", "voi.yaml"]),
        ("calibrate", ["--scenario", "calibrate.yaml", "--out", "voi.yaml"]),
        ("voi", ["--scenario", "voi.yaml", "--out", "voi.yaml/sub"]),
        ("calibrate", ["--scenario", "calibrate.yaml", "--out", "voi.yaml/sub"]),
        ("predict", ["--scenario", "predict.yaml", "--seed", "-1"]),
        ("design-n", ["--scenario", "design_n.yaml", "--seed", "-1"]),
        ("voi", ["--scenario", "voi.yaml", "--seed", "-1"]),
    ], ids=["predict-scenario-dir", "calibrate-scenario-dir", "voi-out-file",
            "calibrate-out-file", "voi-out-under-file", "calibrate-out-under-file",
            "predict-seed-negative", "design-n-seed-negative",
            "voi-seed-negative"])
    def test_bad_argument_exits_2_without_traceback(self, tmp_path, verb, args):
        _copy_fixtures(tmp_path)
        bad_value = args[-1]
        if "--out" not in args:
            args = args + ["--out", "out"]
        before = sorted(tmp_path.rglob("*"))
        result = _run_python(["-m", "bayesdecide.cli", verb, *args], cwd=str(tmp_path))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        assert result.stdout == ""  # rejected before the verb's work
        assert f"'{bad_value}'" in result.stderr or f" {bad_value} " in result.stderr
        assert sorted(tmp_path.rglob("*")) == before  # no CSV, no --out directory


FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "fixtures")
# the CLI in a fresh interpreter (``python -c _RUN_VERB verb ...``), which then
# prints whether scipy.special was imported
_RUN_VERB = ("import sys\nfrom bayesdecide.cli import main\n"
             "main.main(args=sys.argv[1:], standalone_mode=False)\n"
             "print('scipy.special' in sys.modules)\n")


def _copy_fixtures(tmp_path):
    """The benchmark's CLI fixtures in ``tmp_path``, with small seeded draw files
    in place of the ones the benchmark writes (draws.txt, vector_draws.csv)."""
    for name in os.listdir(FIXTURES):
        shutil.copy(os.path.join(FIXTURES, name), tmp_path / name)
    rng = np.random.default_rng(5)
    write(tmp_path, "draws.txt", "".join(
        f"{float(v)!r},{float(w)!r}\n" for v, w in zip(rng.lognormal(0.5, 0.45, 200),
                                         rng.uniform(0.5, 1.5, 200))))
    TestMultivar._vector_draws(tmp_path)


_SEL = "{family: SEL}"
_QTL = "{family: QTL, params: {q: 0.7}}"
_LNX = "{family: LNX, params: {psi: 0.2}}"
_POWER = "{compose: power, p: 1.5, base: {family: MTC, params: {rho: 1}}}"
_WEIGHTED = "{compose: weighted, weight: {name: power, p: 0.5}, base: %s}"
_EXPM1 = "{compose: exp_minus_one, base: %s}" % _LNX


def _library_specs():
    from bayesdecide import GeneralizedGaussian, LossSpec as L, Weight
    power = L.power_of(L.mtc(1), 1.5)
    weighted = L.weighted(Weight.power(0.5), L.sel())
    expm1 = L.exp_minus_one(L.linex(0.2))
    return {
        "sum": L.sum_of(L.qtl(0.7), L.linex(0.2)),
        "product": L.product_of(L.potential(GeneralizedGaussian(1.5)), L.gam(1, 2)),
        "weighted": L.weighted(Weight.power(0.5), L.mtc(1.5)),
        "power": power,
        "exp_minus_one": expm1,
        "nested": L.sum_of(L.qtl(0.7), power, weighted, expm1),
    }


class TestYamlCompositions:
    """A composition read from YAML predicts exactly what the same spec built
    with the static constructors does."""

    YAML = {
        "sum": "{compose: sum, components: [%s, %s]}" % (_QTL, _LNX),
        "product": "{compose: product, components: [{family: PTL, params: {omega: 1.5}}, "
                   "{family: GAM, params: {alpha: 1, nu: 2}}]}",
        "weighted": _WEIGHTED % "{family: MTC, params: {rho: 1.5}}",
        "power": _POWER,
        "exp_minus_one": _EXPM1,
        "nested": "{compose: sum, components: [%s, %s, %s, %s]}" % (
            _QTL, _POWER, _WEIGHTED % _SEL, _EXPM1),
    }

    @pytest.mark.parametrize("name", list(YAML))
    def test_predict_matches_optimize(self, runner, tmp_path, name):
        from bayesdecide import load_samples, optimize

        rng = np.random.default_rng(3)
        write(tmp_path, "draws.txt", "\n".join(repr(float(v)) for v in
                                               rng.lognormal(0.3, 0.4, size=300)))
        scenario = write(tmp_path, "s.yaml", "posterior: {kind: samples, path: draws.txt}\n"
                                             f"loss: {self.YAML[name]}\n")
        result = runner.invoke(main, ["predict", "--scenario", scenario,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        row = read_csv(tmp_path / "out", "predict.csv").splitlines()[1].split(",")
        want = optimize(_library_specs()[name], load_samples(str(tmp_path / "draws.txt")))
        assert (float(row[0]), float(row[1])) == (want.action, want.epl)

    @pytest.mark.parametrize("loss, message", [
        ("{compose: max, base: {family: SEL}}", "unknown composition 'max'"),
        ("{compose: power, base: {family: SEL}}", "missing parameter 'p'"),
        ("{compose: power, p: -1, base: {family: SEL}}", "p must be > 0"),
        ("{compose: exp_minus_one}", "exp_minus_one loss takes 1 component(s), got 0"),
        ("{compose: sum, p: 2, components: [{family: SEL}]}", "takes no parameter 'p'"),
        ("{family: SEL, params: {q: 0.5}}", "takes no parameter 'q'"),
        ("{family: PTL, params: {omega: 0}}", "omega must be > 0"),
        ("{family: PTL, params: {omega: 1.5, rho: 2}}", "PTL loss takes no parameter 'rho'"),
        ("{family: PTL}", "loss.params: missing required field 'omega'"),
    ])
    def test_malformed_composition_exits_2(self, runner, tmp_path, loss, message):
        scenario = write(tmp_path, "s.yaml", GAUSS + f"loss: {loss}\n")
        result = runner.invoke(main, ["predict", "--scenario", scenario])
        assert result.exit_code == 2, (result.output, result.exception)
        assert message in result.output


class TestNonFiniteAndBooleanNumbers:
    """A boolean or non-finite scalar where a finite number belongs exits 2."""

    COST = "design: {%s, tau: %s, n_grid: [0, 1], n_mc: 5, cost: %s}"

    @pytest.mark.parametrize("verb, text, message", [
        ("predict", "posterior: {kind: gaussian, mean: true, sd: 1}", "posterior.mean"),
        ("predict", "posterior: {kind: gaussian, mean: 0, sd: 1}\n"
                    "loss: {family: QTL, params: {q: false}}", "loss.params.q"),
        ("design-n", COST % (GKV, ".inf", "{per_unit: 0.1}"), "tau must be finite"),
        ("design-n", COST % (GKV, "1.0", "{per_unit: .nan}"), "costs must be finite"),
        ("design-n", COST % (GKV, "1.0", "{c0: .inf}"), "costs must be finite"),
        ("design-n", COST % (GKV, "1.0", "{table: {0: 0, 1: .inf}}"),
         "cost table must be finite"),
        ("calibrate", "calibrate: {prevention_share: 0.03, sigma: .inf}",
         "posterior sd must be finite"),
        ("calibrate", "calibrate: {gaussian_multiple: .inf}", "gaussian multiple must be finite"),
    ], ids=["mean-true", "q-false", "tau-inf", "per_unit-nan", "c0-inf", "table-inf",
            "sigma-inf", "multiple-inf"])
    def test_scenario_exits_2(self, runner, tmp_path, verb, text, message):
        scenario = write(tmp_path, "s.yaml", text + "\n")
        result = runner.invoke(main, [verb, "--scenario", scenario])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "Traceback" not in result.output
        assert message in result.output


class TestOutOfRangeNumbers:
    """Finite numbers whose posterior moments overflow, and NaN model
    probabilities, exit 2 naming the field, never a traceback or an answer."""

    @pytest.mark.parametrize("verb, text, message", [
        ("predict", "posterior: {kind: gaussian, mean: 0, sd: 1e200}", "sd=1e+200"),
        ("predict", "posterior: {kind: gaussian, mean: 0, sd: 1e160}\n"
                    "loss: {family: LNX, params: {psi: 1}}", "sd=1e+160"),
        ("predict", "posterior: {kind: gaussian, mean: 0, sd: 1e160}\n"
                    "loss: {family: MTC, params: {rho: 1}}", "sd=1e+160"),
        ("predict", "posterior: {kind: gaussian, mean: 1e308, sd: 1e308}\n"
                    "loss: {family: MTC, params: {rho: 1.5}}", "sd=1e+308"),
        *[("predict", "posterior: {kind: gamma, shape: 3, rate: 1e-200}\n" + loss,
           "shape=3.0, rate=1e-200") for loss in (
               "", "loss: {family: MTC, params: {rho: 1}}",
               "loss: {family: QTL, params: {q: 0.3}}", "loss: {family: LNX, params: {psi: 1}}")],
        ("compare-models", "model_choice: {models: [{label: a, log_likelihood: -1, prior: .nan}, "
                           "{label: b, log_likelihood: -2, prior: .nan}]}",
         "prior must be nonnegative and sum to 1"),
        ("bma", "ensemble: {members: [{posterior: {kind: gaussian, mean: 0, sd: 1}}, "
                "{posterior: {kind: gaussian, mean: 1, sd: 1}}], probabilities: [.nan, .nan]}",
         "probabilities must be nonnegative"),
    ], ids=["sd-1e200", "lnx-sd-1e160", "mtc1-sd-1e160", "mtc-1.5-1e308", "gamma-sel",
            "gamma-mtc1", "gamma-qtl", "gamma-lnx", "nan-priors", "nan-probabilities"])
    def test_exits_2(self, runner, tmp_path, verb, text, message):
        scenario = write(tmp_path, "s.yaml", text + "\n")
        result = runner.invoke(main, [verb, "--scenario", scenario])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "Traceback" not in result.output
        assert message in result.output


def test_compare_models_prints_plain_floats(runner, tmp_path):
    from bayesdecide import DecisionTable, ModelEvidence, choose_epl

    scenario = write(tmp_path, "s.yaml", TestCompareModels.SCENARIO)
    result = runner.invoke(main, ["compare-models", "--scenario", scenario])
    assert result.exit_code == 0, result.output
    rows = dict(line.split(None, 1) for line in result.output.splitlines())
    ev = ModelEvidence(log_likelihoods=[-4.0, -3.0], labels=["simple", "rich"])
    _, epl_vec = choose_epl(ev, DecisionTable([[0.0, 1.0], [100.0, 0.0]]))
    assert rows["epl_vector"] == " ".join(f"{label}={float(v)!r}" for label, v in
                                          zip(["simple", "rich"], epl_vec))
    assert "np." not in result.output


# each verb's options, pinned so that a new knob shows up as a diff here
VERB_OPTIONS = {
    **{verb: {"--scenario", "--seed", "--out"}
       for verb in ("predict", "compare-models", "multivar", "bma", "risk-curve",
                    "design-n", "voi")},
    "calibrate": {"--scenario", "--out"},
}


class TestSurface:
    def test_each_verb_takes_its_pinned_options(self):
        assert {name: {opt for param in cmd.params for opt in param.opts}
                for name, cmd in main.commands.items()} == VERB_OPTIONS

    @pytest.mark.parametrize("verb", sorted(VERB_OPTIONS))
    def test_format_is_no_option(self, runner, verb):
        result = runner.invoke(main, [verb, "--format", "csv"])
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output

    def test_readme_cli_examples_run(self, runner, tmp_path, monkeypatch):
        """Each ``bayesdecide <verb> ...`` line of the README's CLI block, with
        ``s.yaml`` the verb's benchmark fixture, run in a directory of fixtures."""
        with open(os.path.join(os.path.dirname(os.path.dirname(FIXTURES)), "README.md")) as fh:
            text = fh.read()
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split() for line in block.splitlines() if line.strip()]
        assert {words[1] for words in lines} == set(VERB_OPTIONS)
        _copy_fixtures(tmp_path)
        monkeypatch.chdir(tmp_path)
        for words in lines:
            assert words[0] == "bayesdecide", words
            fixture = words[1].replace("-", "_") + ".yaml"
            args = [fixture if w == "s.yaml" else w for w in words[1:]]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (words, result.output, result.exception)

    def test_readme_library_quick_start_runs(self):
        """Each line of the README's library quick start runs, and each one
        ending in a ``# value`` comment gives that value to the digits shown."""
        with open(os.path.join(os.path.dirname(os.path.dirname(FIXTURES)), "README.md")) as fh:
            text = fh.read()
        block = text.split("## Quick start (library)", 1)[1]
        block = block.split("```python\n", 1)[1].split("```", 1)[0]
        # a statement continued on the next line ends once its brackets close
        statements, pending = [], ""
        for line in block.splitlines():
            pending += line + "\n"
            if pending.count("(") == pending.count(")"):
                statements.append(pending.strip())
                pending = ""
        namespace, checked = {}, 0
        for statement in filter(None, statements):
            code, _, comment = statement.partition(" # ")
            if not comment:
                exec(code, namespace)
                continue
            got, want = eval(code, namespace), comment.split()[0]
            if want in ("True", "False"):
                assert got is (want == "True"), statement
            else:
                digits = len(want.partition(".")[2])
                assert round(got, digits) == float(want), (statement, got)
            checked += 1
        assert checked == 6
