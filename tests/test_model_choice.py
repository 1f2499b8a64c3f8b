import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdecide import (DecisionTable, ModelEvidence, ValidationError,
                         bayes_factor, choose_baf, choose_epl,
                         posterior_models)


class TestEvidence:
    def test_posterior_hand_computed(self):
        ev = ModelEvidence(log_likelihoods=np.log([0.2, 0.6]), prior=[0.5, 0.5])
        post = posterior_models(ev)
        assert post.probabilities == (pytest.approx(0.25), pytest.approx(0.75))

    def test_prior_defaults_to_uniform(self):
        ev = ModelEvidence(log_likelihoods=np.log([1.0, 1.0, 2.0]))
        assert np.allclose(ev.prior, 1 / 3)

    def test_log_scale_underflow_is_safe(self):
        # direct exponentiation of these would underflow a double
        ev = ModelEvidence(log_likelihoods=[-100000.0, -100001.0])
        post = posterior_models(ev)
        want = 1.0 / (1.0 + math.exp(-1.0))
        assert post.probabilities[0] == pytest.approx(want, abs=1e-12)

    def test_prior_shift_moves_posterior(self):
        lik = [0.2, 0.6]
        flat = posterior_models(ModelEvidence(log_likelihoods=np.log(lik), prior=[0.5, 0.5]))
        tilted = posterior_models(ModelEvidence(log_likelihoods=np.log(lik), prior=[0.9, 0.1]))
        assert tilted.probabilities[0] > flat.probabilities[0]

    def test_positional_evidence_is_refused(self):
        # evidence is read on the log scale only, and by keyword: a positional
        # list (say of linear likelihoods) is never taken as logs
        with pytest.raises(TypeError):
            ModelEvidence([0.2, 0.6])

    def test_bad_prior_rejected(self):
        with pytest.raises(ValidationError):
            ModelEvidence(log_likelihoods=np.log([1.0, 2.0]), prior=[0.7, 0.7])

    @pytest.mark.parametrize("kwargs, message", [
        ({"log_likelihoods": []}, "at least one model"),
        ({"log_likelihoods": [0.0, math.nan]}, "log-likelihoods must be finite"),
        ({"log_likelihoods": np.log([1.0, 2.0]), "prior": [1.0]}, "prior must match"),
        ({"log_likelihoods": np.log([1.0, 2.0]), "prior": [1.5, -0.5]}, "nonnegative and sum to 1"),
        ({"log_likelihoods": np.log([1.0, 2.0]), "prior": [math.nan, math.nan]}, "nonnegative and sum to 1"),
        ({"log_likelihoods": np.log([1.0, 2.0]), "prior": [math.nan, 1.0]}, "nonnegative and sum to 1"),
        ({"log_likelihoods": np.log([1.0, 2.0]), "labels": ["only"]}, "labels must match"),
    ])
    def test_malformed_evidence_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            ModelEvidence(**kwargs)

    def test_labels_kept(self):
        ev = ModelEvidence(log_likelihoods=np.log([1.0, 2.0]), labels=["a", "b"])
        assert ev.labels == ("a", "b")
        assert posterior_models(ev).labels == ("a", "b")

    def test_all_zero_products_rejected(self):
        # the only likely model has prior 0; the other's ratio underflows to 0
        ev = ModelEvidence(log_likelihoods=[0.0, -1000.0], prior=[0.0, 1.0])
        with pytest.raises(ValidationError, match="products are zero"):
            posterior_models(ev)

    def test_immutable(self):
        ev = ModelEvidence(log_likelihoods=np.log([1.0, 2.0]))
        with pytest.raises(AttributeError, match="immutable"):
            ev.prior = np.array([1.0, 0.0])


class TestBayesFactor:
    def test_ratio(self):
        ev = ModelEvidence(log_likelihoods=np.log([0.2, 0.6]))
        assert bayes_factor(ev, 1, 0) == pytest.approx(3.0)
        assert bayes_factor(ev, 0, 1) == pytest.approx(1.0 / 3.0)

    def test_self_ratio_is_one(self):
        ev = ModelEvidence(log_likelihoods=[-3.0, 0.0])
        assert bayes_factor(ev, 0, 0) == 1.0

    def test_index_out_of_range(self):
        ev = ModelEvidence(log_likelihoods=np.log([1.0, 2.0]))
        with pytest.raises(ValidationError):
            bayes_factor(ev, 2, 0)


class TestChooseBaf:
    def test_argmax_likelihood(self):
        ev = ModelEvidence(log_likelihoods=np.log([0.2, 0.6, 0.1]))
        assert choose_baf(ev) == 1

    def test_ignores_prior(self):
        # the likelihood-ratio rule is prior-free by construction
        ev = ModelEvidence(log_likelihoods=np.log([0.2, 0.6]), prior=[0.99, 0.01])
        assert choose_baf(ev) == 1

    def test_tie_goes_to_smallest_index(self):
        ev = ModelEvidence(log_likelihoods=np.log([0.5, 0.5, 0.2]))
        assert choose_baf(ev) == 0


class TestChooseEpl:
    def test_zero_one_table_matches_map(self):
        ev = ModelEvidence(log_likelihoods=np.log([0.2, 0.6, 0.1]), prior=[0.3, 0.3, 0.4])
        k, epl_vec = choose_epl(ev, DecisionTable.zero_one(3))
        post = posterior_models(ev)
        assert k == post.argmax()
        # under 0-1 losses the expected loss of choice j is 1 - p_j
        for j in range(3):
            assert epl_vec[j] == pytest.approx(1.0 - post.probabilities[j])

    def test_asymmetric_table_overrides_likelihood(self):
        # model 2 is more likely, but mistaking it for model 1 is cheap
        # while the reverse mistake is ruinous
        ev = ModelEvidence(log_likelihoods=np.log([0.4, 0.6]))
        table = DecisionTable([[0.0, 1.0], [100.0, 0.0]])
        k, _ = choose_epl(ev, table)
        assert choose_baf(ev) == 1
        assert k == 0

    def test_epl_vector_hand_computed(self):
        ev = ModelEvidence(log_likelihoods=np.log([0.25, 0.75]))
        table = DecisionTable([[0.0, 4.0], [2.0, 0.0]])
        k, epl_vec = choose_epl(ev, table)
        assert epl_vec[0] == pytest.approx(3.0)   # 4 * 0.75
        assert epl_vec[1] == pytest.approx(0.5)   # 2 * 0.25
        assert k == 1

    def test_dimension_mismatch(self):
        ev = ModelEvidence(log_likelihoods=np.log([1.0, 2.0]))
        with pytest.raises(ValidationError):
            choose_epl(ev, DecisionTable.zero_one(3))

    @given(st.lists(st.integers(-500, 0), min_size=2, max_size=6, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_uniform_prior_zero_one_agrees_with_baf(self, steps):
        # distinct well-separated log-likelihoods: near-ties below float
        # resolution make the two tie-break orders legitimately disagree
        ev = ModelEvidence(log_likelihoods=[s / 10.0 for s in steps])
        k, _ = choose_epl(ev, DecisionTable.zero_one(ev.m))
        assert k == choose_baf(ev)


class TestDecisionTable:
    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValidationError):
            DecisionTable([[0.0, 1.0], [1.0, 0.5]])

    def test_must_be_square(self):
        with pytest.raises(ValidationError):
            DecisionTable([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            DecisionTable([[0.0, -1.0], [1.0, 0.0]])
