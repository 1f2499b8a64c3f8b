import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdecide import (BetaPosterior, DiscretePosterior, DivergentMgfError, GammaPosterior,
                         GaussianPosterior, NumericError, SamplePosterior, ValidationError,
                         load_samples)
from bayesdecide.posteriors import almost_surely_positive

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


class TestLinearLoss:
    CLOUD = SamplePosterior(np.random.default_rng(3).gamma(2.0, 1.5, 400),
                            np.random.default_rng(4).uniform(0.5, 1.5, 400))

    @pytest.mark.parametrize("post, a", [
        (GaussianPosterior(0.3, 1.2), -2.0), (GaussianPosterior(0.3, 1.2), 0.3),
        (GaussianPosterior(0.3, 1.2), 4.0), (GammaPosterior(3.5, 2.0), -0.5),
        (GammaPosterior(3.5, 2.0), 0.0), (GammaPosterior(3.5, 2.0), 1.4),
        (GammaPosterior(3.5, 2.0), 6.0), (BetaPosterior(2.5, 4.0), -0.2),
        (BetaPosterior(2.5, 4.0), 0.0), (BetaPosterior(2.5, 4.0), 0.3),
        (BetaPosterior(2.5, 4.0), 1.0), (BetaPosterior(2.5, 4.0), 1.5),
        (CLOUD, -1.0), (CLOUD, 2.5), (CLOUD, 40.0),
    ], ids=lambda x: f"{x:g}" if isinstance(x, float) else type(x).__name__)
    def test_matches_the_expectation(self, post, a):
        # Raiffa & Schlaifer's integrals E(a - Y)^+ and E(Y - a)^+
        below, above = post.linear_loss(a)
        want_below = post.expect(lambda y: np.maximum(a - y, 0.0), breakpoints=(a,))
        want_above = post.expect(lambda y: np.maximum(y - a, 0.0), breakpoints=(a,))
        assert below == pytest.approx(want_below, rel=1e-9, abs=1e-12)
        assert above == pytest.approx(want_above, rel=1e-9, abs=1e-12)


class TestLossIntegrals:
    """E(a - Y)^2, E(a - Y)^+ and E(Y - a)^+ are written once, about each
    posterior's centre and its split at a."""

    POSTS = [GaussianPosterior(0.3, 1.2), GammaPosterior(3.5, 2.0), BetaPosterior(2.5, 4.0),
             TestLinearLoss.CLOUD]

    @settings(max_examples=60, deadline=None)
    @given(i=st.integers(0, 3), z=st.floats(-8.0, 8.0))
    def test_match_the_expectation(self, i, z):
        post = self.POSTS[i]
        mean, var = post.moments()
        a = mean + z * math.sqrt(var)
        scale = abs(a - mean) + math.sqrt(var)
        below, above = post.linear_loss(a)
        for got, h, size in ((post.squared_loss(a), lambda y: (a - y) ** 2, scale * scale),
                             (below, lambda y: np.maximum(a - y, 0.0), scale),
                             (above, lambda y: np.maximum(y - a, 0.0), scale)):
            assert abs(got - post.expect(h, breakpoints=(a,))) <= 1e-9 * size
        assert abs((below - above) - (a - mean)) <= 1e-9 * scale

    def test_a_gamma_split_where_r_a_overflows(self):
        # x = r a is inf: all the mass lies below a, and none above it
        assert GammaPosterior(3.0, 1e150).linear_loss(1e160) == (1e160, 0.0)

    def test_no_posterior_writes_its_own(self):
        for cls in (GaussianPosterior, GammaPosterior, BetaPosterior, SamplePosterior):
            assert not {"linear_loss", "squared_loss"} & set(vars(cls)), cls


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

    @pytest.mark.parametrize("psi", [-800.0, 800.0])
    def test_beta_overflow(self, psi):
        # E e^{-psi Y} is about e^{|psi|} on either side: past the double range
        with pytest.raises(NumericError, match="1F1 overflows"):
            BetaPosterior(2.0, 3.0).log_mgf_neg(psi)

    @pytest.mark.parametrize("post", [GaussianPosterior(1, 2), GammaPosterior(4, 2)])
    def test_log_mgf_curvature_matches_variance(self, post):
        # numeric second derivative of log E(exp{-psi Y}) at 0 is the variance
        h = 1e-4
        second = (post.log_mgf_neg(h) - 2 * 0.0 + post.log_mgf_neg(-h)) / h ** 2
        assert second == pytest.approx(post.moments()[1], abs=1e-4)


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

    @pytest.mark.parametrize("wrap", [float, np.float64, np.array], ids=["float", "np.float64",
                                                                     "0-d"])
    def test_scalar_checks_accept_numpy_scalars(self, wrap):
        g, k = GaussianPosterior(wrap(0.5), wrap(2.0)), GammaPosterior(wrap(3.0), wrap(1.5))
        assert g.quantile(wrap(0.5)) == 0.5
        assert k.log_mgf_neg(wrap(0.5)) == pytest.approx(-3.0 * math.log1p(0.5 / 1.5))

    @pytest.mark.parametrize("wrap", [float, np.float64, np.array], ids=["float", "np.float64",
                                                                     "0-d"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_checks_refuse_nonfinite_values(self, wrap, bad):
        bad = wrap(bad)
        for build, message in (
                (lambda: GaussianPosterior(bad, 1.0), "mean must be finite"),
                (lambda: GaussianPosterior(0.0, bad), "sd must be > 0"),
                (lambda: GammaPosterior(bad, 1.0), "shape must be > 1"),
                (lambda: GammaPosterior(3.0, bad), "rate must be > 0"),
                (lambda: GaussianPosterior(0.0, 1.0).quantile(bad), "quantile level must lie"),
                (lambda: GammaPosterior(3.0, 1.0).log_mgf_neg(bad), "psi must be finite")):
            with pytest.raises(ValidationError, match=message):
                build()

    def test_log_moment_of_draws_needs_every_draw_above_zero(self):
        with pytest.raises(ValidationError, match="log y needs draws > 0"):
            SamplePosterior([-1.0, 2.0]).log_moment(0.5)

    def test_sample_posterior_immutable(self):
        post = SamplePosterior([1.0, 2.0])
        with pytest.raises(AttributeError, match="immutable"):
            post.values = np.array([3.0, 4.0])

    @pytest.mark.parametrize("probs, message", [
        ([], "at least one probability"),
        ([1.5, -0.5], "nonnegative"),
        ([0.5, 0.6], "sum to 1"),
        ([math.nan, math.nan], "nonnegative"),
        ([0.5, math.nan], "nonnegative"),
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


    def test_three_fields_refused(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("1.0\n2.0,1,3\n")
        with pytest.raises(ValidationError, match="draws.txt:2: .*too many fields"):
            load_samples(path)

    def test_comments_only_refused(self, tmp_path):
        path = tmp_path / "draws.txt"
        path.write_text("# nothing\n\n")
        with pytest.raises(ValidationError, match="no draws found"):
            load_samples(path)


class TestSupportStart:
    @pytest.mark.parametrize("post, lower, positive", [
        (GaussianPosterior(10.0, 1.0), -math.inf, False),
        (GaussianPosterior(40.0, 1.0), -math.inf, False),  # its cdf(0) is 0.0 in floats
        (GammaPosterior(1.5, 1.0), 0.0, True),
        (SamplePosterior([2.0, 0.0, 1.0]), 0.0, False),
        (SamplePosterior([2.0, -0.0, 1.0]), 0.0, False),
        (SamplePosterior([3.0, -1.0]), -1.0, False),
        (SamplePosterior([1e-300, 2.0]), 1e-300, True),
    ], ids=["N(10,1)", "N(40,1)", "Gamma", "draws-0", "draws-minus-0", "draws-neg",
            "draws-1e-300"])
    def test_lower_and_the_positive_rule(self, post, lower, positive):
        assert post.lower == lower
        assert almost_surely_positive(post) == positive

    def test_draws_support_is_their_range(self):
        assert SamplePosterior([2.0, -1.5, 0.5], [1.0, 2.0, 3.0]).support() == (-1.5, 2.0)


class TestParameterRanges:
    """Construction refuses what no later call could use, naming the parameter."""

    @pytest.mark.parametrize("make, message", [
        (lambda: GaussianPosterior(0.0, 1e200), "sd=1e\\+200"),
        (lambda: GaussianPosterior(0.0, 1e160), "sd=1e\\+160"),
        (lambda: GaussianPosterior(1e308, 1e308), "sd=1e\\+308"),
        (lambda: GammaPosterior(3.0, 1e-200), "shape=3.0, rate=1e-200"),
        (lambda: GammaPosterior(3.0, 1e-160), "shape=3.0, rate=1e-160"),
        (lambda: GammaPosterior(1e308, 1e-10), "shape=1e\\+308, rate=1e-10"),
    ], ids=["sd-1e200", "sd-1e160", "mean-and-sd-1e308", "rate-1e-200", "rate-1e-160",
            "mean-overflows"])
    def test_moments_must_be_finite_floats(self, make, message):
        with pytest.raises(ValidationError, match="mean or variance is not a finite float "
                                                  "for " + message):
            make()

    def test_largest_moments_accepted(self):
        assert GaussianPosterior(1e308, 1e154).moments() == (1e308, 1e154 ** 2)
        assert math.isfinite(GammaPosterior(3.0, 1e-150).moments()[1])

    @pytest.mark.parametrize("make, message", [
        (lambda: GaussianPosterior(math.nan, 1.0), "mean must be finite"),
        (lambda: GammaPosterior(3.0, 0.0), "rate must be > 0"),
        (lambda: GammaPosterior(3.0, math.inf), "rate must be > 0"),
        (lambda: SamplePosterior([1.0, math.nan]), "draw values must be finite"),
        (lambda: SamplePosterior([1.0, 2.0], [1.0]), "weights must match values"),
        (lambda: GaussianPosterior(0.0, 1.0).log_mgf_neg(0.0), "psi must be finite"),
    ], ids=["mean-nan", "rate-0", "rate-inf", "draw-nan", "weights-shape", "psi-0"])
    def test_refused(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()

    def test_default_labels(self):
        assert DiscretePosterior([0.25, 0.75]).labels == ("M1", "M2")
