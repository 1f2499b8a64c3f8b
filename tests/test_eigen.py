import numpy as np
import pytest

from bayesdecide import (CorrelationMatrix, EigenDecomposition, LossSpec, SolverPath,
                         ValidationError, VectorPosterior, default_eigen_weights, eigen,
                         eigenspace_decisions, epl, epl_multivariate,
                         estimate_correlation, optimize, optimize_eigen, project,
                         spectral_decompose)

# spectrum of the 2x2 equicorrelation matrix with rho = 0.6
RHO = 0.6
LAMBDAS_2X2 = (1.6, 0.4)


def corr2(rho=RHO):
    return CorrelationMatrix([[1.0, rho], [rho, 1.0]])


class TestSpectralDecompose:
    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        draws = rng.multivariate_normal(np.zeros(8), np.eye(8) + 0.3, size=200)
        corr = estimate_correlation(draws)
        d = spectral_decompose(corr)
        vals, vecs = d.eigenvalues, d.eigenvectors
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, corr.entries, atol=1e-12)
        assert np.allclose(vecs.T @ vecs, np.eye(8), atol=1e-12)

    def test_agrees_with_characteristic_roots(self):
        # 2x2 equicorrelation: roots of (1-l)^2 = rho^2
        vals = spectral_decompose(corr2()).eigenvalues
        assert vals == pytest.approx(LAMBDAS_2X2, rel=1e-14)

    def test_descending_order_and_sign(self):
        d = spectral_decompose(corr2())
        assert d.eigenvalues == pytest.approx(LAMBDAS_2X2)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(d.eigenvectors[:, 0], [s, s])
        assert np.allclose(np.abs(d.eigenvectors[:, 1]), [s, s])
        # first nonzero entry of each column is positive
        assert d.eigenvectors[0, 1] > 0

    def test_identity_spectrum(self):
        d = spectral_decompose(CorrelationMatrix(np.eye(4)))
        assert np.allclose(d.eigenvalues, 1.0)
        assert np.allclose(d.eigenvectors, np.eye(4))

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        draws = rng.multivariate_normal(
            np.zeros(5), np.eye(5) * 2 + 0.5, size=4000)
        corr = estimate_correlation(draws)
        d = spectral_decompose(corr)
        assert d.eigenvalues.sum() == pytest.approx(5.0, abs=1e-9)


class TestCorrelationValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            CorrelationMatrix([[1.0, 0.5], [0.3, 1.0]])

    def test_rejects_nonunit_diagonal(self):
        with pytest.raises(ValidationError):
            CorrelationMatrix([[2.0, 0.0], [0.0, 1.0]])

    def test_rejects_singular(self):
        with pytest.raises(ValidationError, match="positive-definite"):
            CorrelationMatrix([[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_oversize(self):
        with pytest.raises(ValidationError, match="64"):
            CorrelationMatrix(np.eye(65))

    @pytest.mark.parametrize("entries", [np.eye(3)[:2], np.ones(3), np.ones((1, 2, 2))],
                             ids=["2x3", "1-d", "3-d"])
    def test_rejects_non_square(self, entries):
        with pytest.raises(ValidationError, match="correlation matrix must be square"):
            CorrelationMatrix(entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValidationError, match="correlation entries must be finite"):
            CorrelationMatrix([[1.0, bad], [bad, 1.0]])

    def test_n_is_the_dimension(self):
        assert CorrelationMatrix(np.eye(3)).n == 3


class TestProjection:
    def _post(self, n=20_000, seed=1, rho=RHO):
        rng = np.random.default_rng(seed)
        cov = np.array([[1.0, rho], [rho, 1.0]])
        return VectorPosterior(rng.multivariate_normal([1.0, 2.0], cov, size=n))

    def test_projection_variances_match_spectrum(self):
        post = self._post()
        d = spectral_decompose(corr2())
        v0 = project(d, post, 0).moments()[1]
        v1 = project(d, post, 1).moments()[1]
        assert v0 == pytest.approx(LAMBDAS_2X2[0], abs=0.05)
        assert v1 == pytest.approx(LAMBDAS_2X2[1], abs=0.02)

    def test_projections_nearly_uncorrelated(self):
        post = self._post()
        d = spectral_decompose(corr2())
        s0 = project(d, post, 0)
        s1 = project(d, post, 1)
        # draws keep their pairing through the stable sort only if we
        # project manually, so correlate the raw projections instead
        z0 = post.draws @ d.eigenvectors[:, 0]
        z1 = post.draws @ d.eigenvectors[:, 1]
        assert abs(np.corrcoef(z0, z1)[0, 1]) < 0.02
        assert s0.moments()[0] == pytest.approx(np.mean(z0))
        assert s1.moments()[0] == pytest.approx(np.mean(z1))

    def test_index_out_of_range(self):
        post = self._post(n=100)
        d = spectral_decompose(corr2())
        with pytest.raises(ValidationError):
            project(d, post, 2)

    def test_dimension_mismatch(self):
        post = VectorPosterior(np.ones((4, 3)))
        d = spectral_decompose(corr2())
        with pytest.raises(ValidationError,
                           match="posterior dimension does not match the decomposition"):
            project(d, post, 0)


class TestOptimizeEigen:
    def test_all_sel_recovers_vector_mean(self):
        rng = np.random.default_rng(9)
        cov = np.array([[1.0, RHO], [RHO, 1.0]])
        post = VectorPosterior(
            rng.multivariate_normal([1.0, -2.0], cov, size=30_000))
        d = spectral_decompose(corr2())
        action = optimize_eigen(d, post, [LossSpec.sel(), LossSpec.sel()])
        assert np.allclose(action, post.mean(), atol=1e-6)

    def test_asymmetric_loss_shifts_along_eigenvector(self):
        rng = np.random.default_rng(10)
        cov = np.array([[1.0, RHO], [RHO, 1.0]])
        post = VectorPosterior(
            rng.multivariate_normal([0.0, 0.0], cov, size=30_000))
        d = spectral_decompose(corr2())
        action = optimize_eigen(d, post, [LossSpec.qtl(0.9), LossSpec.sel()])
        # shift = (q90 of first projection) * eigenvector 0
        shift = action - post.mean()
        direction = shift / np.linalg.norm(shift)
        assert np.allclose(np.abs(direction), d.eigenvectors[:, 0], atol=0.05)
        assert np.linalg.norm(shift) > 1.0  # q90 of sd-1.26 projection

    def test_action_minimizes_joint_epl(self):
        rng = np.random.default_rng(11)
        cov = np.array([[1.0, RHO], [RHO, 1.0]])
        post = VectorPosterior(
            rng.multivariate_normal([1.0, 2.0], cov, size=5_000))
        d = spectral_decompose(corr2())
        losses = [LossSpec.sel(), LossSpec.qtl(0.7)]
        a_star = optimize_eigen(d, post, losses)
        base = epl_multivariate(d, post, losses, a_star)
        rng2 = np.random.default_rng(0)
        for _ in range(20):
            perturbed = a_star + rng2.normal(scale=0.1, size=2)
            assert epl_multivariate(d, post, losses, perturbed) >= base - 1e-9

    def test_loss_count_mismatch(self):
        post = VectorPosterior(np.zeros((5, 2)) + [[1.0, 2.0]] * 5)
        d = spectral_decompose(corr2())
        with pytest.raises(ValidationError):
            optimize_eigen(d, post, [LossSpec.sel()])


class TestVectorPosteriorValidation:
    @pytest.mark.parametrize("draws", [np.empty((0, 2)), np.ones(3), [[]]],
                             ids=["no-rows", "1-d", "no-columns"])
    def test_rejects_empty_or_not_2d(self, draws):
        with pytest.raises(ValidationError, match="draws must be a nonempty"):
            VectorPosterior(draws)

    def test_rejects_nonfinite_draws(self):
        with pytest.raises(ValidationError, match="draws must be finite"):
            VectorPosterior([[1.0, np.nan], [0.0, 1.0]])

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]],
                             ids=["short", "long", "2-d"])
    def test_rejects_misshaped_weights(self, weights):
        with pytest.raises(ValidationError, match="weights must have one entry per draw"):
            VectorPosterior(np.ones((2, 2)), weights)

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [1.0, -2.0], [1.0, np.nan],
                                         [1.0, np.inf]], ids=["zero", "negative", "nan", "inf"])
    def test_rejects_nonpositive_or_nonfinite_weights(self, weights):
        with pytest.raises(ValidationError, match="weights must be finite and > 0"):
            VectorPosterior(np.ones((2, 2)), weights)


class TestVectorPosteriorStorage:
    def test_source_arrays_are_copied(self):
        draws = np.array([[1.0, 2.0], [3.0, 5.0]])
        weights = np.array([1.0, 3.0])
        vp = VectorPosterior(draws, weights)
        mean = vp.mean()
        draws[0, 0] = 1e6
        weights[0] = 1e6
        assert vp.draws is not draws
        assert vp.draws.tolist() == [[1.0, 2.0], [3.0, 5.0]]
        assert vp.weights.tolist() == [0.25, 0.75]
        assert vp.mean().tolist() == mean.tolist() == [2.5, 4.25]

    @pytest.mark.parametrize("weights", [None, [1.0, 3.0]])
    @pytest.mark.parametrize("attr", ["draws", "weights"])
    def test_arrays_are_read_only(self, attr, weights):
        vp = VectorPosterior([[1.0, 2.0], [3.0, 5.0]], weights)
        with pytest.raises(ValueError):
            getattr(vp, attr)[0] = 99.0

    def test_immutable(self):
        vp = VectorPosterior([[1.0, 2.0], [3.0, 5.0]])
        with pytest.raises(AttributeError, match="immutable"):
            vp.draws = np.zeros((2, 2))

    def test_fortran_order_is_kept(self):
        draws = np.asfortranarray(np.random.default_rng(6).normal(size=(50, 3)))
        assert VectorPosterior(draws).draws.flags.f_contiguous


# float.hex digits of the N = 48 decision below, from the argsort of every
# projection; the equal-weight sort must give the same bits
N48_ACTION = [
    "-0x1.bc1c3e284de2dp-2", "-0x1.08d961497f933p+0", "0x1.76b3d5b7fa0dfp+0", "0x1.05b5ce3decf0fp+1",
    "-0x1.0e29691fb4ce8p-1", "0x1.6243400be0fffp-2", "-0x1.2349dd1466029p+1", "-0x1.9dcee3e2c68f7p+0",
    "0x1.038c15eb778aap-1", "0x1.50f40acbdb6c3p+0", "0x1.9243ff05913d3p-2", "-0x1.faf29b8ce1c32p-2",
    "0x1.e0da326f789ccp+0", "0x1.7cf70c55a6259p+0", "-0x1.053f90bd935b8p+1", "-0x1.2a4e5a1b40e04p+0",
    "-0x1.079e66094ba08p+1", "0x1.9820200918cd2p+0", "0x1.d48b57554c91ep-1", "-0x1.8bf2cc7ce85d2p+0",
    "-0x1.0815078e0507ep+1", "0x1.392372b4ed3a1p+0", "-0x1.50253ff7150d7p-2", "-0x1.2b0dfacc39921p-2",
    "-0x1.83253446afaccp-2", "-0x1.16dc55317006bp+1", "0x1.c038daf4337acp+0", "0x1.5cafaf1db5353p-1",
    "-0x1.462ca60e88e3bp+0", "-0x1.122819e8f814ap+0", "0x1.8a5b72fd79854p+0", "0x1.2fb382486e1b8p+1",
    "-0x1.79813e0f7a93ep-1", "-0x1.86340fb451ed5p+0", "-0x1.3031b5575a8f6p-1", "0x1.6d6d236a7d512p-1",
    "0x1.48fab35bebf83p-1", "0x1.385537691685ep-1", "0x1.b5d7a20a36cb9p-1", "-0x1.c087fb88dbc1cp+0",
    "-0x1.396b8706eb23cp-1", "-0x1.c214111b8be46p+0", "-0x1.168f0e9f99dc3p+0", "0x1.24d52a2e2730ep+0",
    "0x1.f197138449234p-2", "0x1.4946bcdd25548p-1", "-0x1.c517c1dddf133p-1", "0x1.3f9a4f6281726p-2",
]
N48_EPL = "0x1.5003f9b3759d0p+6"


class TestEigenspaceDecisions:
    @staticmethod
    def _n48():
        rng = np.random.default_rng(48)
        load = rng.normal(size=(48, 2))
        draws = rng.normal(size=(400, 2)) @ load.T + rng.normal(size=(400, 48))
        losses = [LossSpec.qtl(float(q)) if i % 3 else LossSpec.sel()
                  for i, q in enumerate(np.linspace(0.05, 0.95, 48))]
        decomp = spectral_decompose(estimate_correlation(draws))
        return decomp, VectorPosterior(draws), losses

    def test_n48_pinned_digits(self):
        decomp, post, losses = self._n48()
        action = optimize_eigen(decomp, post, losses)
        assert [float(a).hex() for a in action] == N48_ACTION
        assert epl_multivariate(decomp, post, losses, action).hex() == N48_EPL

    def test_decisions_are_the_scalar_optima(self):
        decomp, post, losses = self._n48()
        decisions = eigenspace_decisions(decomp, post, losses)
        assert len(decisions) == 48
        for i in (0, 1, 47):
            assert decisions[i] == optimize(losses[i], project(decomp, post, i))
        gammas = np.array([d.action for d in decisions])
        assert (decomp.eigenvectors @ gammas).tobytes() == \
            optimize_eigen(decomp, post, losses).tobytes()

    def test_numeric_eigenspaces_report_their_search(self):
        rng = np.random.default_rng(8)
        post = VectorPosterior(rng.normal(size=(300, 2)))
        decomp = spectral_decompose(corr2())
        decisions = eigenspace_decisions(decomp, post, [LossSpec.sel(), LossSpec.mtc(0.5)])
        assert decisions[0].method == SolverPath("closed_form", "posterior_mean")
        assert decisions[1].method.kind == "numeric"
        assert decisions[1].method.name == "golden_section"

    def test_loss_count_mismatch(self):
        post = VectorPosterior(np.zeros((5, 2)) + [[1.0, 2.0]] * 5)
        with pytest.raises(ValidationError):
            eigenspace_decisions(spectral_decompose(corr2()), post, [LossSpec.sel()])


class TestEplMultivariate:
    def test_weights_scale_terms(self):
        rng = np.random.default_rng(12)
        post = VectorPosterior(rng.normal(size=(2_000, 2)))
        d = spectral_decompose(CorrelationMatrix(np.eye(2)))
        losses = [LossSpec.sel(), LossSpec.sel()]
        a = np.array([0.5, 0.5])
        plain = epl_multivariate(d, post, losses, a)
        doubled = epl_multivariate(d, post, losses, a, weights=[2.0, 2.0])
        assert doubled == pytest.approx(2.0 * plain)

    def test_action_shape_checked(self):
        post = VectorPosterior(np.ones((3, 2)) * [[1.0, 2.0]])
        d = spectral_decompose(corr2())
        with pytest.raises(ValidationError, match=r"action must have shape \(2,\)"):
            epl_multivariate(d, post, [LossSpec.sel()] * 2, [1.0, 2.0, 3.0])

    def test_loss_count_checked(self):
        post = VectorPosterior(np.ones((3, 2)) * [[1.0, 2.0]])
        d = spectral_decompose(corr2())
        with pytest.raises(ValidationError, match="need 2 losses, got 3"):
            epl_multivariate(d, post, [LossSpec.sel()] * 3, [1.0, 2.0])

    def test_default_weights_are_eigenvalues(self):
        d = spectral_decompose(corr2())
        assert np.allclose(default_eigen_weights(d), LAMBDAS_2X2)

    def test_nonpositive_weight_rejected(self):
        post = VectorPosterior(np.ones((3, 2)) * [[1.0, 2.0]])
        d = spectral_decompose(corr2())
        with pytest.raises(ValidationError):
            epl_multivariate(d, post, [LossSpec.sel()] * 2, [1.0, 2.0],
                             weights=[1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weight_rejected(self, bad):
        # these once made the joint EPL nan or inf
        post = VectorPosterior(np.ones((3, 2)) * [[1.0, 2.0]])
        d = spectral_decompose(corr2())
        with pytest.raises(ValidationError, match="finite and positive"):
            epl_multivariate(d, post, [LossSpec.sel()] * 2, [1.0, 2.0],
                             weights=[bad, 1.0])


class TestOneProjectionPerEigenspace:
    """optimize_eigen and epl_multivariate on one (decomposition, posterior)
    pair project each eigenspace once, and answer as if each projected anew."""

    @staticmethod
    def _problem(seed=5, dim=6):
        rng = np.random.default_rng(seed)
        draws = rng.normal(size=(300, 2)) @ rng.normal(size=(dim, 2)).T + rng.normal(size=(300, dim))
        losses = [LossSpec.qtl(0.2 + 0.1 * i) if i % 2 else LossSpec.sel() for i in range(dim)]
        return spectral_decompose(estimate_correlation(draws)), draws, losses

    @pytest.fixture
    def calls(self, monkeypatch):
        """The eigenspace index of every ``eigen.project`` call, from a clear cache."""
        made, orig = [], eigen.project

        def counted(decomp, post, i):
            made.append(i)
            return orig(decomp, post, i)

        monkeypatch.setattr(eigen, "project", counted)
        eigen._projections.cache_clear()
        return made

    def test_a_pair_projects_each_eigenspace_once(self, calls):
        decomp, draws, losses = self._problem()
        post = VectorPosterior(draws)
        action = optimize_eigen(decomp, post, losses)
        epl_multivariate(decomp, post, losses, action)
        eigenspace_decisions(decomp, post, losses)
        assert calls == list(range(decomp.n))

    def test_a_new_pair_projects_anew(self, calls):
        decomp, draws, losses = self._problem()
        post = VectorPosterior(draws)
        optimize_eigen(decomp, post, losses)
        other = VectorPosterior(draws + 1.0)
        action = optimize_eigen(decomp, other, losses)
        assert calls == 2 * list(range(decomp.n))
        # a decomposition equal to the first, but another object
        twin = EigenDecomposition(decomp.eigenvalues, decomp.eigenvectors)
        epl_multivariate(twin, other, losses, action)
        assert calls == 3 * list(range(decomp.n))

    def test_results_equal_one_projection_per_call(self, calls):
        decomp, draws, losses = self._problem(seed=6)
        post = VectorPosterior(draws, np.random.default_rng(7).uniform(0.5, 1.5, 300))
        action = optimize_eigen(decomp, post, losses)
        value = epl_multivariate(decomp, post, losses, action, weights=[2.0] * decomp.n)
        fresh = [eigen.project(decomp, post, i) for i in range(decomp.n)]
        gammas = np.array([optimize(loss, p).action for loss, p in zip(losses, fresh)])
        assert action.tobytes() == (decomp.eigenvectors @ gammas).tobytes()
        want = 0.0
        for i, (loss, p) in enumerate(zip(losses, fresh)):
            want += 2.0 * epl(loss, p, float(decomp.eigenvectors[:, i] @ action))
        assert value.hex() == want.hex()

    def test_decomposition_arrays_are_read_only_copies(self):
        vals, vecs = np.array([1.5, 0.5]), np.eye(2)
        d = EigenDecomposition(vals, vecs)
        vecs[0, 0] = 9.0
        assert d.eigenvectors[0, 0] == 1.0
        for arr in (d.eigenvalues, d.eigenvectors):
            with pytest.raises(ValueError):
                arr[0] = 3.0


class TestEstimateCorrelation:
    def test_recovers_known_correlation(self):
        rng = np.random.default_rng(21)
        cov = np.array([[1.0, RHO], [RHO, 1.0]])
        draws = rng.multivariate_normal([0, 0], cov, size=50_000)
        corr = estimate_correlation(draws)
        assert corr.entries[0, 1] == pytest.approx(RHO, abs=0.01)

    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(22)
        corr = estimate_correlation(rng.normal(size=(500, 4)))
        assert np.all(np.diag(corr.entries) == 1.0)

    @pytest.mark.parametrize("draws", [np.ones(5), np.ones((2, 2, 2))], ids=["1-d", "3-d"])
    def test_not_2d_rejected(self, draws):
        with pytest.raises(ValidationError, match=r"draws must be an \(n, N\) array"):
            estimate_correlation(draws)

    def test_too_few_draws(self):
        with pytest.raises(ValidationError):
            estimate_correlation(np.ones((3, 3)) + np.eye(3))

    def test_constant_coordinate_rejected(self):
        rng = np.random.default_rng(23)
        draws = rng.normal(size=(100, 2))
        draws[:, 1] = 5.0
        with pytest.raises(ValidationError, match="zero variance"):
            estimate_correlation(draws)

    def test_duplicated_coordinate_rejected(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=100)
        with pytest.raises(ValidationError):
            estimate_correlation(np.column_stack([x, x]))

    @pytest.mark.parametrize("seed", range(8))
    def test_near_collinear_estimate_is_the_sample_correlation_or_rejected(self, seed):
        # the estimate is never altered to make it positive-definite: it is
        # the symmetrized sample correlation, or it is refused
        rng = np.random.default_rng(seed)
        draws = rng.normal(size=(12, 4))
        for eps in 10.0 ** np.arange(-9.0, -2.0):
            draws[:, 3] = draws[:, 0] + eps * rng.normal(size=12)
            want = np.corrcoef(draws, rowvar=False)
            want = 0.5 * (want + want.T)
            np.fill_diagonal(want, 1.0)
            try:
                got = estimate_correlation(draws).entries
            except ValidationError as exc:
                assert "not positive-definite" in str(exc)
                assert np.linalg.eigvalsh(want)[0] <= 1e-9
            else:
                assert got.tobytes() == want.tobytes()

    def test_single_coordinate(self):
        draws = np.random.default_rng(2).normal(size=(50, 1))
        assert estimate_correlation(draws).entries.tolist() == [[1.0]]
