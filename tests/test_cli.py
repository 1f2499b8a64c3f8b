import os
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

    def test_format_table_writes_no_csv(self, runner, tmp_path):
        scenario = write(tmp_path, "s.yaml", """
posterior: {kind: gaussian, mean: 0.0, sd: 1.0}
""")
        out = tmp_path / "out"
        result = runner.invoke(main, ["predict", "--scenario", scenario,
                                      "--out", str(out), "--format", "table"])
        assert result.exit_code == 0
        assert not (out / "predict.csv").exists()

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


class TestCalibrate:
    def test_flags_paper_exact(self, runner, tmp_path):
        result = runner.invoke(main, ["calibrate", "--prevention-share", "0.03",
                                      "--sigma", "1.0", "--paper-exact",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "q       0.97" in result.output
        assert "psi     -3.76" in result.output
        csv = read_csv(tmp_path / "out", "calibrate.csv")
        assert csv.splitlines()[1] == "0.97,-3.76,1.0"

    def test_unrounded_multiple(self, runner, tmp_path):
        result = runner.invoke(main, ["calibrate", "--prevention-share", "0.03"])
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


def _run_python(args, **kwargs):
    """Run a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bayesdecide.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


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

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        result = _run_python(["-c", "import sys, bayesdecide.cli; "
                                    "print('scipy.stats' in sys.modules)"])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
