"""The scenario layer's parsers, called directly: weights, grids, evidence,
vector draws and the document itself."""

import math

import numpy as np
import pytest

from bayesdecide import LossSpec, ValidationError
from bayesdecide.scenario import (load_scenario, load_vector_draws, parse_ensemble,
                                  parse_evidence, parse_functional, parse_grid,
                                  parse_int_grid, parse_loss, parse_weight)


def test_scenario_must_be_a_mapping(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("- predict\n- 1\n")
    with pytest.raises(ValidationError, match="s.yaml: scenario must be a mapping"):
        load_scenario(str(path))


class TestWeights:
    Y = np.array([0.5, 1.0, 2.0])

    def test_identity(self):
        w = parse_weight({"name": "identity"})
        assert (w.kind, w.param) == ("power", 1.0)
        assert np.array_equal(w.fn(self.Y), self.Y)

    def test_exp(self):
        w = parse_weight({"name": "exp", "c": 0.5})
        assert (w.kind, w.param) == ("exp", 0.5)
        assert np.array_equal(w.fn(self.Y), np.exp(0.5 * self.Y))

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="weight: unknown name 'cube'"):
            parse_weight({"name": "cube"})


def test_no_loss_is_sel():
    assert parse_loss(None) == LossSpec.sel()
    # a composition's parts are losses too
    block = {"compose": "sum", "components": [None, {"family": "MTC", "params": {"rho": 1}}]}
    assert parse_loss(block) == LossSpec.sum_of(LossSpec.sel(), LossSpec.mtc(1))


def test_functional_unknown_name():
    with pytest.raises(ValidationError, match="functional: unknown name 'cube'"):
        parse_functional({"name": "cube"})


def test_ensemble_needs_probabilities_or_models():
    members = [{"label": "A", "posterior": {"kind": "gaussian", "mean": 0.0, "sd": 1.0}}]
    with pytest.raises(ValidationError,
                       match="ensemble: need probabilities or models evidence"):
        parse_ensemble({"members": members})


class TestGrids:
    def test_float_grid_needs_a_point(self):
        with pytest.raises(ValidationError, match="kappa_grid: num must be >= 1"):
            parse_grid({"start": 0.0, "stop": 1.0, "num": 0}, "kappa_grid")

    @pytest.mark.parametrize("block", [5, "0:1", None])
    def test_float_grid_is_a_list_or_a_mapping(self, block):
        with pytest.raises(ValidationError, match="grid: expected a list or start/stop/num"):
            parse_grid(block)

    @pytest.mark.parametrize("block", [5, "0:4", None])
    def test_int_grid_is_a_list_or_a_mapping(self, block):
        with pytest.raises(ValidationError, match="n_grid: expected a list or start/stop"):
            parse_int_grid(block)

    @pytest.mark.parametrize("start, stop, step, want", [
        (0, 4, 2, [0, 2, 4]), (4, 0, -2, [4, 2, 0]), (1, 4, 2, [1, 3]),
        (4, 1, -2, [4, 2]), (3, 3, -1, [3]), (3, 3, 1, [3]),
    ])
    def test_int_grid_includes_a_stop_it_lands_on(self, start, stop, step, want):
        assert parse_int_grid({"start": start, "stop": stop, "step": step}) == want


class TestEvidence:
    def test_needs_a_model(self):
        with pytest.raises(ValidationError, match="model_choice: need at least one model"):
            parse_evidence({"models": []})

    def test_priors_all_or_none(self):
        models = [{"log_likelihood": -1.0, "prior": 0.5}, {"log_likelihood": -2.0}]
        with pytest.raises(ValidationError, match="give a prior for every model or none"):
            parse_evidence({"models": models})


def test_vector_draws_take_a_trailing_weight_column(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text("y0,y1,weight\n0.1,0.2,1\n0.3,0.1,3\n-0.2,0.4,4\n")
    vp = load_vector_draws(str(path))
    assert vp.draws.tolist() == [[0.1, 0.2], [0.3, 0.1], [-0.2, 0.4]]
    assert vp.weights.tolist() == [0.125, 0.375, 0.5]
    assert math.fsum(vp.weights) == 1.0
