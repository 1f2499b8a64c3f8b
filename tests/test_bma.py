import numpy as np
import pytest

from bayesdecide import engine
from bayesdecide import (EnsembleMember, GammaPosterior, GaussianPosterior,
                         LossSpec, ModelEnsemble, SamplePosterior,
                         ValidationError, bma_predict_general,
                         bma_predict_sel, epl, optimize)


def gaussian_pair(p1=0.3, m1=0.0, m2=4.0):
    members = [
        EnsembleMember("narrow", GaussianPosterior(m1, 1.0), LossSpec.sel()),
        EnsembleMember("wide", GaussianPosterior(m2, 2.0), LossSpec.sel()),
    ]
    return ModelEnsemble(members, [p1, 1.0 - p1])


class TestSelClosedForm:
    def test_weighted_mean(self):
        ens = gaussian_pair(p1=0.3)
        d = bma_predict_sel(ens)
        assert d.action == pytest.approx(0.3 * 0.0 + 0.7 * 4.0)
        assert d.method.kind == "closed_form"

    def test_epl_is_mixture_variance_plus_bias(self):
        # mixture SEL EPL at a: sum p_k (var_k + (a - mean_k)^2)
        ens = gaussian_pair(p1=0.5, m1=0.0, m2=2.0)
        d = bma_predict_sel(ens)
        want = 0.5 * (1.0 + 1.0) + 0.5 * (4.0 + 1.0)
        assert d.epl == pytest.approx(want)

    def test_single_member_reduces_to_plain_optimum(self):
        post = GaussianPosterior(1.7, 0.4)
        ens = ModelEnsemble(
            [EnsembleMember("only", post, LossSpec.sel())], [1.0])
        assert bma_predict_sel(ens).action == pytest.approx(1.7)

    def test_sel_grid_optimality(self):
        ens = gaussian_pair(p1=0.4)
        d = bma_predict_sel(ens)
        sel = LossSpec.sel()
        p = ens.model_posterior.probabilities
        for a in np.linspace(-2, 6, 33):
            mix = sum(pk * epl(sel, m.posterior, a)
                      for pk, m in zip(p, ens.members))
            assert d.epl <= mix + 1e-10


class TestGeneral:
    def test_matches_closed_form_when_all_sel(self):
        ens = gaussian_pair(p1=0.3)
        closed = bma_predict_sel(ens)
        numeric = bma_predict_general(ens)
        assert numeric.action == pytest.approx(closed.action, abs=1e-7)

    def test_mixed_losses_grid_optimality(self):
        members = [
            EnsembleMember("a", GaussianPosterior(0.0, 1.0), LossSpec.qtl(0.9)),
            EnsembleMember("b", GaussianPosterior(3.0, 1.5), LossSpec.sel()),
        ]
        ens = ModelEnsemble(members, [0.4, 0.6])
        d = bma_predict_general(ens)
        p = ens.model_posterior.probabilities
        lossfns = [m.loss for m in ens.members]
        for a in np.linspace(-2, 6, 81):
            mix = sum(pk * epl(lf, m.posterior, a)
                      for pk, m, lf in zip(p, ens.members, lossfns))
            assert d.epl <= mix + 1e-9

    def test_degenerate_posterior_short_circuits(self):
        members = [
            EnsembleMember("dead", GaussianPosterior(0.0, 1.0), LossSpec.sel()),
            EnsembleMember("live", GaussianPosterior(5.0, 1.0), LossSpec.sel()),
        ]
        ens = ModelEnsemble(members, [0.0, 1.0])
        d = bma_predict_general(ens)
        assert d.action == pytest.approx(5.0)
        assert d.method.kind == "closed_form"

    def test_positive_domain_member_restricts_search(self):
        members = [
            EnsembleMember("ratio", GammaPosterior(3.0, 1.0), LossSpec.gam(1, 2)),
            EnsembleMember("loc", GammaPosterior(5.0, 1.0), LossSpec.sel()),
        ]
        ens = ModelEnsemble(members, [0.5, 0.5])
        d = bma_predict_general(ens)
        assert d.action > 0

    def test_positive_domain_start_falls_back_to_largest_member_median(self, monkeypatch):
        # the weighted median sum, 0.5 * 2.67 - 0.5 * 20, is no positive start
        members = [
            EnsembleMember("ratio", GammaPosterior(3.0, 1.0), LossSpec.gam(1, 2)),
            EnsembleMember("far", GaussianPosterior(-20.0, 1.0), LossSpec.sel()),
        ]
        ens = ModelEnsemble(members, [0.5, 0.5])
        starts, search = [], engine.minimize

        def recorded(f, x0, *args):
            starts.append(x0)
            return search(f, x0, *args)

        monkeypatch.setattr(engine, "minimize", recorded)
        d = bma_predict_general(ens)
        assert starts == [GammaPosterior(3.0, 1.0).quantile(0.5)]
        grid = np.linspace(0.005, 1.0, 200)
        mix = [0.5 * epl(LossSpec.gam(1, 2), members[0].posterior, a)
               + 0.5 * epl(LossSpec.sel(), members[1].posterior, a) for a in grid]
        assert 0 < d.action and d.epl <= min(mix) + 1e-9

    def test_positive_domain_with_gaussian_member_rejected(self):
        members = [
            EnsembleMember("ratio", GaussianPosterior(3.0, 1.0), LossSpec.gam(1, 2)),
        ]
        ens = ModelEnsemble(members, [1.0])
        with pytest.raises(ValidationError):
            bma_predict_general(ens)

    def test_positive_domain_with_far_positive_gaussian_member_rejected(self):
        # N(10, 1) has a positive 1e-10 quantile but no positive support
        members = [
            EnsembleMember("ratio", GaussianPosterior(10.0, 1.0), LossSpec.gam(1, 2)),
            EnsembleMember("loc", GammaPosterior(5.0, 1.0), LossSpec.sel()),
        ]
        ens = ModelEnsemble(members, [0.5, 0.5])
        with pytest.raises(ValidationError, match="member 'ratio'.*reaches -inf"):
            bma_predict_general(ens)

    def test_asymmetric_member_pulls_action_up(self):
        sym = ModelEnsemble(
            [EnsembleMember("a", GaussianPosterior(0, 1), LossSpec.sel()),
             EnsembleMember("b", GaussianPosterior(2, 1), LossSpec.sel())],
            [0.5, 0.5])
        tilted = ModelEnsemble(
            [EnsembleMember("a", GaussianPosterior(0, 1), LossSpec.qtl(0.95)),
             EnsembleMember("b", GaussianPosterior(2, 1), LossSpec.sel())],
            [0.5, 0.5])
        assert (bma_predict_general(tilted).action
                > bma_predict_general(sym).action)

    def test_sample_members_supported(self):
        rng = np.random.default_rng(6)
        members = [
            EnsembleMember("s1", SamplePosterior(rng.normal(0, 1, 20_000)),
                           LossSpec.sel()),
            EnsembleMember("s2", SamplePosterior(rng.normal(3, 1, 20_000)),
                           LossSpec.sel()),
        ]
        ens = ModelEnsemble(members, [0.5, 0.5])
        d = bma_predict_general(ens)
        assert d.action == pytest.approx(1.5, abs=0.05)


    @pytest.mark.parametrize("cloud_loss,method", [
        (LossSpec.mtc(1.5), "brent"),
        (LossSpec.mtc(0.5), "golden_section"),   # a local minimum at every draw
    ], ids=["convex", "nonconvex"])
    def test_search_follows_the_members_shapes(self, cloud_loss, method):
        cloud = SamplePosterior(np.random.default_rng(8).lognormal(0.5, 0.4, 500))
        ens = ModelEnsemble(
            [EnsembleMember("cloud", cloud, cloud_loss),
             EnsembleMember("gauss", GaussianPosterior(1.5, 1.0), LossSpec.mtc(0.5))],
            [0.6, 0.4])
        d = bma_predict_general(ens)
        assert d.method.name == method
        want = 0.6 * epl(cloud_loss, cloud, d.action) + 0.4 * epl(
            LossSpec.mtc(0.5), GaussianPosterior(1.5, 1.0), d.action)
        assert d.epl == want


class TestEnsembleValidation:
    def test_needs_members(self):
        with pytest.raises(ValidationError):
            ModelEnsemble([], [])

    def test_probability_count_must_match(self):
        members = [EnsembleMember("a", GaussianPosterior(0, 1), LossSpec.sel())]
        with pytest.raises(ValidationError):
            ModelEnsemble(members, [0.5, 0.5])

    def test_probabilities_must_normalize(self):
        members = [EnsembleMember("a", GaussianPosterior(0, 1), LossSpec.sel()),
                   EnsembleMember("b", GaussianPosterior(1, 1), LossSpec.sel())]
        with pytest.raises(ValidationError):
            ModelEnsemble(members, [0.5, 0.6])

    def test_immutable(self):
        ens = gaussian_pair()
        with pytest.raises(AttributeError, match="immutable"):
            ens.members = ()
