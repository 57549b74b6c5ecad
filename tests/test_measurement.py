import json

import numpy as np
import pytest
from scipy.stats import norm

from reclaim import measurement as ms
from reclaim.errors import ParameterError, RankError


class TestChannelConstruction:
    def test_additive_rejects_nonpositive_variance(self):
        with pytest.raises(ParameterError):
            ms.GaussianAdditiveChannel(np.array([0.1, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_both_channels_reject_non_finite_variance(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            ms.GaussianAdditiveChannel(np.array([0.1, bad]))
        with pytest.raises(ParameterError, match="finite"):
            ms.LinearChannel(np.eye(2), np.array([0.1, bad]))

    @pytest.mark.parametrize("make", [
        lambda: ms.GaussianAdditiveChannel(np.array([])),
        lambda: ms.LinearChannel(np.zeros((0, 0)), np.array([])),
        lambda: ms.LinearChannel(np.zeros((1, 0)), np.array([0.1])),
    ], ids=["additive", "linear-0x0", "linear-1x0"])
    def test_both_channels_reject_no_latents(self, make):
        with pytest.raises(ParameterError, match=r"^need at least one latent \(d=0\)$"):
            make()

    def test_linear_rejects_wide_matrix(self):
        with pytest.raises(ParameterError):
            ms.LinearChannel(np.ones((2, 3)), np.ones(2))

    def test_linear_rejects_rank_deficiency(self):
        A = np.ones((4, 2))
        with pytest.raises(RankError):
            ms.LinearChannel(A, np.ones(4))

    @pytest.mark.parametrize("scale", [1e-11, 1.0, 1e9])
    def test_rank_test_is_relative_to_the_scale_of_a(self, scale):
        # A well-conditioned matrix passes at any scale; condition number 1e16 fails.
        ms.LinearChannel(scale * np.eye(3), np.ones(3))
        with pytest.raises(RankError):
            ms.LinearChannel(scale * np.diag([1e7, 1e-9]), np.ones(2))

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        chan = ms.LinearChannel(rng.normal(size=(5, 3)), rng.uniform(0.1, 1.0, 5))
        back = ms.channel_from_json(ms.channel_to_json(chan))
        assert np.allclose(back.mixing, chan.mixing)
        assert np.allclose(back.noise_var, chan.noise_var)


class TestChannelFromDict:
    @pytest.mark.parametrize("chan", [
        ms.GaussianAdditiveChannel(np.array([0.1, 0.2, 0.3])),
        ms.LinearChannel(np.random.default_rng(1).normal(size=(5, 3)), np.linspace(0.1, 0.5, 5)),
    ], ids=["gan", "linear"])
    def test_round_trip_through_channel_to_json(self, chan):
        back = ms.channel_from_dict(json.loads(ms.channel_to_json(chan)))
        assert type(back) is type(chan)
        assert ms.channel_to_json(back) == ms.channel_to_json(chan)

    @pytest.mark.parametrize("spec", [{"type": "probit", "sigma_sq": [0.1]},
                                      {"sigma_sq": [0.1]}], ids=["unknown", "missing"])
    def test_rejects_a_type_it_does_not_know(self, spec):
        with pytest.raises(ParameterError, match=r"^unknown channel type (None|'probit')"):
            ms.channel_from_dict(spec)

    @pytest.mark.parametrize("spec, key", [({"type": "gan"}, "sigma_sq"),
                                           ({"type": "linear", "sigma_sq": [0.1, 0.2]}, "A")])
    def test_names_the_missing_key(self, spec, key):
        with pytest.raises(ParameterError, match=f"has no '{key}'$"):
            ms.channel_from_dict(spec)


class TestMeasure:
    def test_vanishing_noise_additive(self):
        chan = ms.GaussianAdditiveChannel(np.full(3, 1e-20))
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(ms.measure(chan, x, seed=0), x, atol=1e-8)

    def test_vanishing_noise_identity_mixing(self):
        chan = ms.LinearChannel(np.eye(3), np.full(3, 1e-20))
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(ms.measure(chan, x, seed=0), x, atol=1e-8)

    def test_residual_covariance_matches_noise(self):
        rng = np.random.default_rng(1)
        A = rng.normal(0, np.sqrt(1.5), size=(15, 10))
        var = rng.uniform(0.1, 0.5, 15)
        chan = ms.LinearChannel(A, var)
        X = rng.normal(size=(20_000, 10))
        Y = ms.measure(chan, X, seed=2)
        resid = Y - X @ A.T
        cov = np.cov(resid.T)
        assert np.max(np.abs(np.diag(cov) - var)) < 0.03
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.02


class TestChannelLogpdf:
    def test_at_mean(self):
        chan = ms.GaussianAdditiveChannel(np.array([0.5, 2.0]))
        x = np.array([1.0, -1.0])
        expected = -0.5 * np.sum(np.log(2 * np.pi * chan.noise_var))
        assert ms.channel_logpdf(chan, x, x) == pytest.approx(expected)

    def test_unit_scalar_case(self):
        chan = ms.GaussianAdditiveChannel(np.array([1.0]))
        val = ms.channel_logpdf(chan, np.array([1.0]), np.array([0.0]))
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi) - 0.5)

    def test_matches_product_of_univariate_densities(self):
        from scipy.stats import norm
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 2))
        chan = ms.LinearChannel(A, rng.uniform(0.2, 1.5, 4))
        x = rng.normal(size=2)
        y = rng.normal(size=4)
        mean = A @ x
        expected = sum(norm.logpdf(y[j], mean[j], np.sqrt(chan.noise_var[j]))
                       for j in range(4))
        assert ms.channel_logpdf(chan, y, x) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        chan = ms.GaussianAdditiveChannel(np.ones(3))
        with pytest.raises(ParameterError):
            ms.channel_logpdf(chan, np.zeros(2), np.zeros(3))

    def test_density_integrates_to_one(self):
        chan = ms.GaussianAdditiveChannel(np.array([0.37]))
        grid = np.linspace(-8, 8, 20_001)
        dens = np.exp([ms.channel_logpdf(chan, np.array([g]), np.array([0.3]))
                       for g in grid])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_average_logpdf_matches_entropy_term(self):
        chan = ms.GaussianAdditiveChannel(np.array([0.4, 0.9]))
        rng = np.random.default_rng(4)
        x = np.array([0.7, -0.3])
        ys = ms.measure(chan, np.tile(x, (40_000, 1)), seed=5)
        avg = float(np.mean(ms.channel_logpdf(chan, ys, np.tile(x, (40_000, 1)))))
        expected = -0.5 * np.sum(np.log(2 * np.pi * chan.noise_var) + 1.0)
        assert avg == pytest.approx(expected, abs=0.02)


class TestAdditiveIsIdentityMixing:
    """The additive channel's arithmetic is y = x + eps exactly, not up to rounding."""

    @staticmethod
    def batches():
        rng = np.random.default_rng(7)
        x = rng.normal(size=(9, 4))
        x[2, 1], x[5, 3], x[7] = -0.0, 0.0, -0.0
        return [x, x[:1], x[4]]  # a batch, a single row and a (d,) vector

    def test_mean_is_x(self):
        chan = ms.GaussianAdditiveChannel(np.array([0.2, 0.5, 0.3, 0.9]))
        for x in self.batches():
            assert np.array_equal(ms.channel_mean(chan, x), x)

    def test_measure_adds_the_noise_to_x(self):
        var = np.array([0.2, 0.5, 0.3, 0.9])
        chan = ms.GaussianAdditiveChannel(var)
        for x in self.batches():
            noise = np.random.default_rng(11).normal(0.0, np.sqrt(var), size=x.shape)
            assert np.array_equal(ms.measure(chan, x, seed=11), x + noise)

    def test_logpdf_is_the_diagonal_density_of_y_minus_x(self):
        var = np.array([0.2, 0.5, 0.3, 0.9])
        chan = ms.GaussianAdditiveChannel(var)
        rng = np.random.default_rng(12)
        for x in self.batches():
            y = x + rng.normal(size=x.shape)
            y[..., 0] = x[..., 0]  # a zero residual
            expected = ms.diag_gauss_logpdf(y - x, var)
            assert np.array_equal(ms.channel_logpdf(chan, y, x), expected)


class TestDiagGaussLogpdf:
    @pytest.mark.parametrize("var", [0.7, np.array([0.3, 1.0, 2.5])],
                             ids=["scalar-var", "vector-var"])
    def test_matches_sum_of_univariate_densities(self, var):
        resid = np.random.default_rng(5).normal(size=(4, 2, 3))
        expected = norm.logpdf(resid, scale=np.sqrt(var)).sum(axis=-1)
        got = ms.diag_gauss_logpdf(resid, var)
        assert got.shape == (4, 2)
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_single_vector_gives_a_scalar(self):
        var = np.array([0.3, 1.0, 2.5])
        resid = np.array([0.4, -1.2, 0.0])
        got = ms.diag_gauss_logpdf(resid, var)
        assert got.shape == ()
        assert got == pytest.approx(norm.logpdf(resid, scale=np.sqrt(var)).sum(), rel=1e-12)

    @pytest.mark.parametrize("shape", [(4, 0), (2, 3, 0), (0,), (0, 3)])
    def test_empty_axes(self, shape):
        # A zero-width last axis is a regime that clamps every node: log 1 = 0 per row.
        got = ms.diag_gauss_logpdf(np.zeros(shape), 0.5)
        assert got.shape == shape[:-1]
        assert np.all(got == 0.0)
