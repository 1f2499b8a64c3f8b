import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdecide import (DiscretePosterior, DivergentMgfError, GammaPosterior, GaussianPosterior,
                         SamplePosterior, ValidationError, load_samples)

# standard-normal 0.97 quantile, frozen from a bisection-on-erf oracle
Z97 = 1.8807936081512495


class TestMoments:
    def test_two_point_sample(self):
        post = SamplePosterior([0.0, 2.0], [0.5, 0.5])
        assert post.moments() == (1.0, 1.0)

    def test_gaussian_identity(self):
        assert GaussianPosterior(1.5, 0.2).moments() == (1.5, pytest.approx(0.04))

    def test_gamma_density_oracle(self):
        # mean 3 and variance 3, frozen from direct density integration
        mean, var = GammaPosterior(3.0, 1.0).moments()
        assert mean == pytest.approx(3.0)
        assert var == pytest.approx(3.0)

    def test_degenerate_sample_has_zero_variance(self):
        assert SamplePosterior([4.0]).moments() == (4.0, 0.0)


class TestQuantile:
    def test_gaussian_median_by_symmetry(self):
        assert GaussianPosterior(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_097(self):
        assert GaussianPosterior(0, 1).quantile(0.97) == pytest.approx(Z97, abs=1e-9)

    def test_weighted_empirical_left_continuous(self):
        post = SamplePosterior([1.0, 2.0, 3.0], [0.25, 0.25, 0.5])
        assert post.quantile(0.5) == 2.0

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_level(self, q):
        with pytest.raises(ValidationError):
            GaussianPosterior(0, 1).quantile(q)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_q(self, values):
        post = SamplePosterior(values)
        qs = np.linspace(0.05, 0.95, 19)
        out = [post.quantile(q) for q in qs]
        assert all(b >= a for a, b in zip(out, out[1:]))


class TestMode:
    def test_gamma_analytic(self):
        # d/dx log density = 0 at (shape - 1)/rate
        assert GammaPosterior(3, 1).mode() == 2.0

    def test_gaussian_symmetric_unimodal(self):
        assert GaussianPosterior(-4, 2).mode() == -4.0

    def test_sample_mode_matches_parametric(self):
        rng = np.random.default_rng(7)
        post = SamplePosterior(rng.gamma(3.0, 1.0, size=100_000))
        assert post.mode() == pytest.approx(2.0, abs=0.15)

    def test_sample_mode_of_a_constant_cloud(self):
        assert SamplePosterior([2.5] * 5).mode() == 2.5

    def test_sample_mode_with_zero_iqr(self):
        # Freedman-Diaconis gives width 0; ceil(sqrt(11)) = 4 bins of 1.25 instead
        assert SamplePosterior([0.0] * 10 + [5.0]).mode() == 0.625

    def test_mode_median_mean_ordering_for_skewed_gamma(self):
        post = GammaPosterior(3, 1)
        assert post.mode() < post.quantile(0.5) < post.moments()[0]


class TestExpect:
    def test_identity(self):
        assert GaussianPosterior(2, 1).expect(lambda y: y) == pytest.approx(2.0)

    def test_reciprocal_on_gamma(self):
        # E(1/Y) = rate / (shape - 1), frozen from density integration
        got = GammaPosterior(3, 1).expect(lambda y: 1.0 / y)
        assert got == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("shape", [1.05, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("rate", [0.05, 0.3, 10.0])
    def test_reciprocal_on_gamma_below_shape_two(self, shape, rate):
        # 1/y times the density grows like y^(shape - 2) at 0: unbounded here
        got = GammaPosterior(shape, rate).expect(lambda y: 1.0 / y)
        want = rate / (shape - 1.0)
        assert abs(got - want) <= 1e-9 * want, (got, want)

    def test_gaussian_mgf_oracle(self):
        got = GaussianPosterior(0, 1).expect(lambda y: np.exp(-2.0 * y))
        assert got == pytest.approx(math.e ** 2, rel=1e-8)

    def test_nonfinite_h_reported(self):
        post = SamplePosterior([0.0, 1.0])
        with pytest.raises(Exception, match="y=0.0"), np.errstate(divide="ignore"):
            post.expect(lambda y: 1.0 / y)


class TestLogMgfNeg:
    def test_gaussian_closed_form(self):
        assert GaussianPosterior(0, 1).log_mgf_neg(-2) == pytest.approx(2.0)

    def test_degenerate_draw(self):
        assert SamplePosterior([3.0]).log_mgf_neg(1.5) == pytest.approx(-4.5)

    def test_gamma_closed_form(self):
        # (rate/(rate+psi))^shape = 8 at psi = -0.5, frozen from integration
        assert GammaPosterior(3, 1).log_mgf_neg(-0.5) == pytest.approx(math.log(8.0))

    def test_gamma_divergence(self):
        with pytest.raises(DivergentMgfError):
            GammaPosterior(3, 1).log_mgf_neg(-1.0)

    @pytest.mark.parametrize("post", [GaussianPosterior(1, 2), GammaPosterior(4, 2)])
    def test_log_mgf_curvature_matches_variance(self, post):
        # numeric second derivative of log E(exp{-psi Y}) at 0 is the variance
        h = 1e-4
        second = (post.log_mgf_neg(h) - 2 * 0.0 + post.log_mgf_neg(-h)) / h ** 2
        assert second == pytest.approx(post.moments()[1], abs=1e-4)


class TestReweight:
    def test_identity_weight(self):
        post = SamplePosterior([1.0, 3.0], [0.5, 0.5])
        out = post.reweight(lambda y: np.ones_like(y))
        assert np.allclose(out.weights, post.weights)

    def test_hand_normalization(self):
        post = SamplePosterior([1.0, 3.0], [0.5, 0.5])
        out = post.reweight(lambda y: y)
        assert np.allclose(out.weights, [0.25, 0.75])

    def test_size_biased_gamma_mean(self):
        rng = np.random.default_rng(11)
        post = SamplePosterior(rng.gamma(3.0, 1.0, size=200_000))
        mean = post.reweight(lambda y: y).moments()[0]
        assert mean == pytest.approx(4.0, abs=0.05)  # shape+1 over rate

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_constant_weight_is_identity(self, c):
        post = SamplePosterior([1.0, 2.0, 5.0], [0.2, 0.3, 0.5])
        out = post.reweight(lambda y: np.full_like(y, c))
        assert np.array_equal(out.weights, post.weights)

    def test_all_zero_rejected(self):
        post = SamplePosterior([1.0, 2.0])
        with pytest.raises(ValidationError):
            post.reweight(lambda y: np.zeros_like(y))

    def test_scalar_weight_is_broadcast(self):
        post = SamplePosterior([1.0, 2.0, 5.0], [0.2, 0.3, 0.5])
        assert np.array_equal(post.reweight(lambda y: 2.0).weights, post.weights)


class TestValidation:
    def test_gaussian_sd_positive(self):
        with pytest.raises(ValidationError):
            GaussianPosterior(0, 0)

    def test_gamma_shape_above_one(self):
        with pytest.raises(ValidationError):
            GammaPosterior(1.0, 1.0)

    def test_sample_needs_draws(self):
        with pytest.raises(ValidationError):
            SamplePosterior([])

    def test_sample_weights_positive(self):
        with pytest.raises(ValidationError):
            SamplePosterior([1.0, 2.0], [1.0, 0.0])

    def test_normalization_within_tolerance(self):
        post = SamplePosterior([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert abs(post.weights.sum() - 1.0) < 1e-12

    def test_sample_posterior_immutable(self):
        post = SamplePosterior([1.0, 2.0])
        with pytest.raises(AttributeError, match="immutable"):
            post.values = np.array([3.0, 4.0])

    @pytest.mark.parametrize("probs, message", [
        ([], "at least one probability"),
        ([1.5, -0.5], "nonnegative"),
        ([0.5, 0.6], "sum to 1"),
    ])
    def test_discrete_posterior_rejects(self, probs, message):
        with pytest.raises(ValidationError, match=message):
            DiscretePosterior(probs)


def _signed_ties(seed, n=300):
    """Draws with many ties and zeros of random sign."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size=n).astype(float)
    return np.where(x == 0.0, rng.choice([0.0, -0.0], size=n), x)


class TestSampleStorage:
    @pytest.mark.parametrize("weights", [None, [1.0, 2.0, 3.0]])
    @pytest.mark.parametrize("attr", ["values", "weights", "_cumw"])
    def test_arrays_are_read_only(self, attr, weights):
        post = SamplePosterior([3.0, 1.0, 2.0], weights)
        with pytest.raises(ValueError):
            getattr(post, attr)[0] = 99.0

    def test_input_array_is_copied_not_frozen(self):
        draws = np.array([2.0, 1.0])
        post = SamplePosterior(draws)
        draws[0] = 5.0
        assert post.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 1.0, -0.0, 0.0],
        [-0.0, 0.0],
        [0.0, -0.0],
        [0.0],
        [2.0, 1.0, 2.0, 1.0, 3.0, 1.0],
        [-1.0, -0.0, -2.0, 0.0, 0.0, -0.0, 5.0, -1.0],
        _signed_ties(1),
        _signed_ties(2),
    ], ids=lambda v: f"n{len(v)}")
    def test_unweighted_sort_matches_stable_argsort(self, values):
        values = np.asarray(values, dtype=float)
        order = np.argsort(values, kind="stable")
        weights = np.ones_like(values)[order]
        weights = weights / weights.sum()
        post = SamplePosterior(values)
        assert post.values.tobytes() == values[order].tobytes()
        assert post.weights.tobytes() == weights.tobytes()
        assert post._cumw.tobytes() == np.cumsum(weights).tobytes()

    @staticmethod
    def _assert_matches_argsort(values, weights):
        """The posterior's arrays are byte for byte those of a stable argsort."""
        values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
        order = np.argsort(values, kind="stable")
        w = weights[order] / weights[order].sum()
        post = SamplePosterior(values, weights)
        assert post.values.tobytes() == values[order].tobytes()
        assert post.weights.tobytes() == w.tobytes()
        assert post._cumw.tobytes() == np.cumsum(w).tobytes()

    # forced ties, both zeros, and a few distinct values
    TIED = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, 7.0]),
                    min_size=1, max_size=40)
    WEIGHT = st.one_of(st.just(None), st.floats(1e-3, 1e3))  # None: 1/n

    @given(TIED, WEIGHT)
    @settings(max_examples=300, deadline=None)
    def test_equal_weights_match_stable_argsort(self, values, c):
        c = 1.0 / len(values) if c is None else c
        self._assert_matches_argsort(values, np.full(len(values), c))

    @given(TIED, WEIGHT, st.integers(0, 39), st.floats(0.1, 10.0).filter(lambda f: f != 1.0))
    @settings(max_examples=300, deadline=None)
    def test_unequal_weights_match_stable_argsort(self, values, c, j, factor):
        if len(values) < 2:
            values = values + [-0.0]
        c = 1.0 / len(values) if c is None else c
        weights = np.full(len(values), c)
        weights[j % len(values)] *= factor
        self._assert_matches_argsort(values, weights)

    def test_projection_weights_match_stable_argsort(self):
        values = _signed_ties(3)
        self._assert_matches_argsort(values, np.full(values.size, 1.0 / values.size))


class TestCdf:
    POST = [SamplePosterior([2.0, 1.0, 2.0, -0.0, 0.0, 3.0], [1.0, 2.0, 3.0, 1.0, 1.0, 2.0]),
            SamplePosterior([5.0]),
            SamplePosterior(_signed_ties(5, n=50))]
    POINTS = [-10.0, -3.0, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 10.0]

    @staticmethod
    def _reference(post, y):
        # the cumulative weights with a leading 0, indexed by the draws <= y
        idx = np.searchsorted(post.values, y, side="right")
        return np.concatenate(([0.0], post._cumw))[idx]

    @pytest.mark.parametrize("k", range(3))
    def test_scalars_match_reference(self, k):
        post = self.POST[k]
        for y in self.POINTS + [float(v) for v in post.values]:
            for arg in (y, np.float64(y), np.array(y)):
                got, want = post.cdf(arg), self._reference(post, arg)
                assert type(got) is type(want) is np.float64
                assert got.tobytes() == want.tobytes()
            assert post.tail_prob(y) == 1.0 - float(self._reference(post, y))

    @pytest.mark.parametrize("k", range(3))
    def test_arrays_match_reference(self, k):
        post = self.POST[k]
        for ys in (self.POINTS, np.array(self.POINTS).reshape(11, 1), post.values, []):
            got, want = post.cdf(ys), self._reference(post, ys)
            assert isinstance(got, np.ndarray) and got.shape == want.shape
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSampleFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("# posterior draws\n1.0\n2.0,2\n\n3.0, 1\n")
        post = load_samples(path)
        assert len(post) == 3
        assert post.moments()[0] == pytest.approx((1 + 4 + 3) / 4)

    def test_bad_line_diagnosed(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("1.0\noops\n")
        with pytest.raises(ValidationError, match="2"):
            load_samples(path)

    def test_unweighted_file_is_an_unweighted_cloud(self, tmp_path):
        values = [2.0, -0.0, 1.0, 0.0, 2.0, -3.5]
        path = tmp_path / "draws.txt"
        path.write_text("  # indented comment\n" + "\n".join(map(repr, values)) + "\n")
        post = load_samples(path)
        ref = SamplePosterior(values, [1.0] * len(values))
        assert post.values.tobytes() == ref.values.tobytes()
        assert post.weights.tobytes() == ref.weights.tobytes()
