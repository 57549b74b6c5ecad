import dataclasses
import json

import numpy as np
import pytest
from scipy.special import expit

from oracles import linear_latent_logpdf_oracle, masked_forward
from reclaim import em, model
from reclaim.errors import ConvergenceError, ParameterError
from reclaim.scm import InterventionRegime


def linear_map_params(W, sigma_z=1.0):
    """Identity-activation model whose masked mechanism is x -> W'x."""
    d = W.shape[0]
    assert np.all(np.diag(W) == 0)
    return model.ModelParams(w_in=np.eye(d), b_in=np.zeros(d), w_out=W,
                             b_out=np.zeros(d), edge_logits=np.full((d, d), 40.0),
                             sigma_z=sigma_z, activation="identity")


def full_mask(d):
    m = np.ones((d, d))
    np.fill_diagonal(m, 0.0)
    return m


def two_node_weights():
    # X1 <- 0.7 X2, X2 <- -0.8 X1 as a weight matrix (edge j -> i in [j, i])
    return np.array([[0.0, -0.8], [0.7, 0.0]])


class TestSpectralNormalize:
    def test_zero_weights_unchanged(self):
        p = model.ModelParams(w_in=np.zeros((3, 3)), b_in=np.zeros(3),
                              w_out=np.zeros((3, 3)), b_out=np.zeros(3),
                              edge_logits=np.zeros((3, 3)))
        out = model.spectral_normalize(p)
        assert np.all(out.w_in == 0) and np.all(out.w_out == 0)

    def test_unit_norm_layers_scaled_to_budget(self):
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        W = u @ np.diag([1.0, 0.3, 0.2, 0.1]) @ v.T
        p = model.ModelParams(w_in=W, b_in=np.zeros(4), w_out=W.T, b_out=np.zeros(4),
                              edge_logits=np.zeros((4, 4)), lipschitz_target=0.81)
        out = model.spectral_normalize(p)
        assert np.linalg.norm(out.w_in, 2) == pytest.approx(0.9, abs=1e-12)
        assert np.linalg.norm(out.w_out, 2) == pytest.approx(0.9, abs=1e-12)

    def test_wide_random_layers_end_inside_the_budget(self):
        # Close singular values: five power-iteration steps from the ones vector
        # underestimated both norms here, leaving their product at 1.108.
        p = model.init_params(30, seed=0, weight_scale=1.0)
        bound = np.sqrt(p.lipschitz_target) + 1e-12
        assert np.linalg.norm(p.w_in, 2) <= bound
        assert np.linalg.norm(p.w_out, 2) <= bound

    def test_contractive_layers_untouched(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(3, 3))
        W *= 0.5 / np.linalg.norm(W, 2)
        p = model.ModelParams(w_in=W, b_in=np.zeros(3), w_out=W.copy(),
                              b_out=np.zeros(3), edge_logits=np.zeros((3, 3)))
        out = model.spectral_normalize(p)
        assert np.array_equal(out.w_in, W)

    def test_lipschitz_probe_bound(self):
        # The unmasked network x -> w_out' tanh(w_in' x + b_in): its Jacobian
        # w_out' diag(tanh') w_in' at any probe stays within the target.
        p = model.init_params(4, seed=2, weight_scale=1.0)
        X = np.random.default_rng(0).normal(scale=3.0, size=(1000, 4))
        deriv = 1.0 - np.tanh(X @ p.w_in + p.b_in) ** 2
        jacs = np.einsum("hi,sh,jh->sij", p.w_out, deriv, p.w_in)
        assert np.max(np.linalg.norm(jacs, 2, axis=(1, 2))) <= p.lipschitz_target + 1e-3


class TestSampleMask:
    def test_saturated_logits(self):
        logits = np.full((3, 3), 40.0)
        ms = model.sample_mask(logits, seed=0)
        off = ~np.eye(3, dtype=bool)
        assert np.all(ms.values[off] >= 1 - 1e-6)
        ms_neg = model.sample_mask(np.full((3, 3), -40.0), seed=0)
        assert np.all(ms_neg.values[off] <= 1e-6)

    def test_diagonal_exactly_zero(self):
        ms = model.sample_mask(np.zeros((4, 4)), seed=1)
        assert np.all(np.diag(ms.values) == 0.0)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ParameterError):
            model.sample_mask(np.zeros((2, 2)), temperature=0.0)


class TestEdgeScores:
    def test_saturated(self):
        logits = np.full((3, 3), 40.0)
        scores = model.edge_scores(model.ModelParams(
            w_in=np.zeros((3, 3)), b_in=np.zeros(3), w_out=np.zeros((3, 3)),
            b_out=np.zeros(3), edge_logits=logits))
        off = ~np.eye(3, dtype=bool)
        assert np.all(scores[off] == 1.0)
        assert np.all(np.diag(scores) == 0.0)

    def test_zero_logits_give_half(self):
        scores = model.expected_mask(np.zeros((3, 3)))
        off = ~np.eye(3, dtype=bool)
        assert np.all(scores[off] == 0.5)

    def test_monotone_in_logits(self):
        lo = model.expected_mask(np.full((2, 2), -1.0))
        hi = model.expected_mask(np.full((2, 2), 2.0))
        assert hi[0, 1] > lo[0, 1]


def test_expit_is_bit_equal_to_scipy():
    """The package's sigmoid, which keeps scipy out of its import, gives scipy's
    value to the last bit at every scale, near both overflow edges and at +-inf, +-0."""
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(0.0, 1.0, 20000), rng.normal(0.0, 3.0, 20000),
                        rng.uniform(-10.0, 10.0, 20000), rng.uniform(-800.0, 800.0, 20000),
                        np.linspace(-750.0, -700.0, 20000), np.linspace(30.0, 40.0, 20000),
                        [np.inf, -np.inf, 0.0, -0.0]]).reshape(-1, 4)
    assert np.array_equal(model.expit(x).view(np.int64), expit(x).view(np.int64))


class TestMaskedForward:
    def test_zero_mask_blocks_input(self):
        p = model.init_params(3, seed=3)
        M = np.zeros((3, 3))
        x = np.random.default_rng(0).normal(size=3)
        base = masked_forward(p, M, x)
        moved = masked_forward(p, M, x + 1.7)
        assert np.allclose(base, moved)

    def test_single_node_output_constant(self):
        p = model.init_params(1, seed=4)
        M = np.zeros((1, 1))
        vals = [masked_forward(p, M, np.array([v]))[0] for v in (-2.0, 0.0, 3.0)]
        assert np.allclose(vals, vals[0])

    def test_matches_per_coordinate_reference(self):
        rng = np.random.default_rng(5)
        p = model.init_params(4, seed=5)
        ms = model.sample_mask(p.edge_logits, seed=6)
        X = rng.normal(size=(7, 4))
        batched = masked_forward(p, ms, X)
        for s in range(7):
            for i in range(4):
                masked_in = ms.values[:, i] * X[s]
                hidden = np.tanh(masked_in @ p.w_in + p.b_in)
                ref = hidden @ p.w_out[:, i] + p.b_out[i]
                assert batched[s, i] == pytest.approx(ref, abs=1e-12)

    def test_masked_jacobian_entries_vanish(self):
        rng = np.random.default_rng(6)
        p = model.init_params(3, seed=7)
        M = (rng.random((3, 3)) > 0.5).astype(float)
        np.fill_diagonal(M, 0.0)
        x = rng.normal(size=3)
        eps = 1e-6
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = eps
            diff = (masked_forward(p, M, x + dx) - masked_forward(p, M, x - dx)) / (2 * eps)
            for i in range(3):
                if M[j, i] == 0.0:
                    assert abs(diff[i]) < 1e-6


class TestJacobian:
    def test_zero_mask(self):
        p = model.init_params(3, seed=8)
        x = np.zeros(3)
        assert np.allclose(model.jacobian(p, np.zeros((3, 3)), x), 0.0)

    def test_linear_mode_equals_masked_weights(self):
        W = two_node_weights()
        p = linear_map_params(W)
        jac = model.jacobian(p, full_mask(2), np.array([0.3, -0.4]))
        assert np.allclose(jac, W.T)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        p = model.init_params(4, seed=9)
        ms = model.sample_mask(p.edge_logits, seed=10)
        x = rng.normal(size=4)
        jac = model.jacobian(p, ms, x, targets=(1,))
        eps = 1e-6
        free = np.ones(4)
        free[1] = 0.0
        num = np.zeros((4, 4))
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            num[:, j] = free * (masked_forward(p, ms, x + dx)
                                - masked_forward(p, ms, x - dx)) / (2 * eps)
        assert np.max(np.abs(jac - num)) <= 1e-5


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: per-layer norms do not bound the "
                                        "masked map")
def test_spectral_normalize_makes_the_masked_map_contractive():
    """Per-layer norms bound ||w_in w_out||_2 by lipschitz_target, but the mask zeroes
    the product's diagonal, which can raise its norm. With the reflection w_in =
    I - (2/d) 11' and w_out = I, the masked product is -0.9 * 0.25 (11' - I), whose
    norm is 0.9 * 1.75 = 1.575 at d = 8."""
    d = 8
    params = model.spectral_normalize(model.ModelParams(
        w_in=np.eye(d) - (2 / d) * np.ones((d, d)), b_in=np.zeros(d), w_out=np.eye(d),
        b_out=np.zeros(d), edge_logits=np.zeros((d, d)), activation="identity"))
    assert np.linalg.norm(model.jacobian(params, full_mask(d), np.zeros(d)), 2) < 1.0


def noise_logpdf(p, mask, x):
    """Closed-form noise term of an observational row: sum log N(x - F(x); 0, sigma_z^2)."""
    z = x - masked_forward(p, mask, x)
    return np.sum(-0.5 * (np.log(2 * np.pi * p.sigma_z ** 2) + z ** 2 / p.sigma_z ** 2))


class TestLogDetExact:
    """The log-det term of a one-row latent_logpdf_batch: its value minus the noise term."""

    def test_zero_mask_gives_zero(self):
        p = model.init_params(3, seed=11)
        x = np.array([0.4, -1.1, 0.7])
        M = np.zeros((3, 3))
        val = model.latent_logpdf_batch(p, M, InterventionRegime(), 1.0, x[None])[0]
        assert val - noise_logpdf(p, M, x) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_linear_example(self):
        p = linear_map_params(two_node_weights())
        x = np.array([0.3, -0.4])
        val = model.latent_logpdf_batch(p, full_mask(2), InterventionRegime(), 1.0, x[None])[0]
        assert val - noise_logpdf(p, full_mask(2), x) == pytest.approx(np.log(1.56), abs=1e-9)

    def test_full_intervention_masks_everything(self):
        p = model.init_params(3, seed=12)
        ms = model.sample_mask(p.edge_logits, seed=13)
        x = np.ones(3)
        val = model.latent_logpdf_batch(p, ms, InterventionRegime((0, 1, 2), 1.0), 1.0,
                                        x[None])[0]
        clamp = np.sum(-0.5 * (np.log(2 * np.pi) + x ** 2))
        assert val - clamp == pytest.approx(0.0, abs=1e-12)

    def test_orientation_reversing_jacobian_raises(self):
        # det(I - J) = 1 - 1.5 * 1.5 < 0: the map x -> x - F(x) flips orientation.
        p = linear_map_params(np.array([[0.0, 1.5], [1.5, 0.0]]))
        x = np.array([[0.2, -0.1]])
        with pytest.raises(ConvergenceError):
            model.latent_logpdf_batch(p, full_mask(2), InterventionRegime(), 1.0, x)
        with pytest.raises(ConvergenceError):
            model.latent_logpdf_grads(p, full_mask(2), InterventionRegime(), 1.0, x)



class TestScoringInputShape:
    """Both scoring kernels name a bad X's shape before any work."""

    P = model.init_params(3, seed=12)

    def test_grads_of_no_rows_raise(self):
        with pytest.raises(ParameterError, match=r"\(0, 3\).*at least one row"):
            model.latent_logpdf_grads(self.P, full_mask(3), InterventionRegime(), 1.0,
                                      np.empty((0, 3)))

    @pytest.mark.parametrize("kernel", ["latent_logpdf_batch", "latent_logpdf_grads"])
    def test_a_column_count_other_than_d_raises(self, kernel):
        with pytest.raises(ParameterError, match=r"\(5, 4\).*d=3"):
            getattr(model, kernel)(self.P, full_mask(3), InterventionRegime((1,)), 1.0,
                                   np.zeros((5, 4)))

    def test_batch_of_no_rows_is_empty(self):
        ll = model.latent_logpdf_batch(self.P, full_mask(3), InterventionRegime((1,)), 1.0,
                                       np.empty((0, 3)))
        assert ll.shape == (0,)

def _unit_diagonal_stack(rng, n, d, scale=0.5):
    """n random blocks B = I - J, J with a zero diagonal and entries of sd scale/sqrt(d)."""
    J = rng.normal(0.0, scale / np.sqrt(max(d, 1)), size=(n, d, d))
    J[:, np.arange(d), np.arange(d)] = 0.0
    return np.eye(d) - J


class TestEliminationKernel:
    """``model._logdet`` on batch-last stacks against ``np.linalg``, with rows that
    the unpivoted elimination must hand back to LAPACK."""

    @staticmethod
    def _run(B, invert):
        A = np.ascontiguousarray(B.transpose(1, 2, 0))
        rescored = []
        logdet = model._logdet(A, lambda rows: rescored.append(rows) or B[rows], invert=invert)
        return logdet, A.transpose(2, 0, 1), rescored

    @pytest.mark.parametrize("invert", [False, True], ids=["lu", "gauss-jordan"])
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 10])
    def test_matches_linalg_and_rescores_exactly_the_rows_below_the_floor(self, d, invert):
        rng = np.random.default_rng(60 + d)
        B = _unit_diagonal_stack(rng, 40, d)
        low = []
        if d >= 2:
            # Second pivot 1 - 2 * 0.4975 = 0.005, under the floor; det B = 0.005 > 0.
            B[3] = np.eye(d)
            B[3, 0, 1], B[3, 1, 0] = 2.0, 0.4975
            low.append(3)
        if d >= 3:
            # An exact zero second pivot (1 - 2 * 0.5) in a block of determinant 1.
            B[17] = np.eye(d)
            B[17, :3, :3] = [[1.0, 2.0, 0.0], [0.5, 1.0, 1.0], [0.0, -1.0, 1.0]]
            low.append(17)
        logdet, inverse, rescored = self._run(B, invert)
        sign, want = np.linalg.slogdet(B)
        assert np.all(sign == 1)
        assert np.max(np.abs(logdet - want), initial=0.0) <= 1e-12
        assert [list(rows) for rows in rescored] == ([low] if low else [])
        if invert:
            ref = np.linalg.inv(B)
            assert np.max(np.abs(inverse - ref), initial=0.0) <= 1e-12 * max(np.max(np.abs(ref),
                                                                                  initial=0.0), 1.0)

    def test_rows_above_the_floor_are_not_rescored(self):
        # ||J||_2 < 1 bounds every pivot below by 1 - ||J||_2 = 0.05 > the floor.
        B = _unit_diagonal_stack(np.random.default_rng(70), 200, 10)
        J = np.eye(10) - B
        B = np.eye(10) - 0.95 * J / np.linalg.norm(J, 2, axis=(1, 2))[:, None, None]
        for invert in (False, True):
            logdet, _, rescored = self._run(B, invert)
            assert rescored == []
            assert np.max(np.abs(logdet - np.linalg.slogdet(B)[1])) <= 1e-12

    @pytest.mark.parametrize("invert", [False, True], ids=["lu", "gauss-jordan"])
    @pytest.mark.parametrize("block", [[[1.0, 1.5], [1.5, 1.0]], [[1.0, 2.0], [0.5, 1.0]]],
                             ids=["negative", "singular"])
    def test_a_non_positive_determinant_raises(self, block, invert):
        B = _unit_diagonal_stack(np.random.default_rng(71), 5, 2)
        B[2] = block
        with pytest.raises(ConvergenceError):
            self._run(B, invert)


class TestSmallPivotFallback:
    """Both public kernels on a map whose free block has a pivot below the floor.

    With W[0, 1] = W[1, 0] = a, a^2 = 0.995, an observational row's second pivot
    is 1 - a^2 = 0.005 and its determinant 0.005 + 0.06 a > 0; the map is left
    unnormalized. A row that clamps node 0 has unit pivots and is not rescored.
    """

    A = np.sqrt(0.995)
    REGIMES = (InterventionRegime(), InterventionRegime((0,), 0.7, mean=0.3))
    INDEX = np.array([0, 1, 1, 0, 1, 0, 0])

    @classmethod
    def params(cls):
        W = np.array([[0.0, cls.A, 0.0], [cls.A, 0.0, -0.2], [0.3, 0.0, 0.0]])
        return W, linear_map_params(W, sigma_z=np.array([1.0, 0.8, 1.3]))

    @staticmethod
    def _record_rescored(monkeypatch) -> list:
        rescored, logdet = [], model._logdet

        def recording(A, rebuild, invert=False):
            return logdet(A, lambda rows: rescored.append(list(rows)) or rebuild(rows), invert)

        monkeypatch.setattr(model, "_logdet", recording)
        return rescored

    def test_batch_density_matches_the_closed_form(self, monkeypatch):
        W, p = self.params()
        X = np.random.default_rng(80).normal(size=(5, 3))
        rescored = self._record_rescored(monkeypatch)
        for regime in self.REGIMES:
            got = model.latent_logpdf_batch(p, full_mask(3), regime, regime.variance, X)
            want = [linear_latent_logpdf_oracle(W, p.sigma_z, regime, x) for x in X]
            assert np.max(np.abs(got - want)) <= 1e-9
        assert rescored == [list(range(5))]  # the observational rows only

    def test_mixed_regime_gradients_match_central_differences(self, monkeypatch):
        _, p = self.params()
        M = full_mask(3)
        X = np.random.default_rng(81).normal(size=(len(self.INDEX), 3))
        variances = [r.variance for r in self.REGIMES]

        def value(params, mask=M):
            return model.latent_logpdf_grads(params, mask, self.REGIMES, variances, X,
                                             self.INDEX)[0]

        rescored = self._record_rescored(monkeypatch)
        _, grads = model.latent_logpdf_grads(p, M, self.REGIMES, variances, X, self.INDEX)
        assert rescored == [list(np.flatnonzero(self.INDEX == 0))]
        numeric = {name: central_diff(lambda a: value(dataclasses.replace(p, **{name: a})),
                                      getattr(p, name))
                   for name in ("w_in", "b_in", "w_out", "b_out")}
        # The mask diagonal must stay zero, so its entries are left out.
        off = ~np.eye(3, dtype=bool)
        numeric["mask"] = central_diff(lambda m: value(p, m), M, off)
        grads["mask"][~off] = 0.0
        for name, num in numeric.items():
            assert np.max(np.abs(grads[name] - num)) <= 1e-6 * np.max(np.abs(num))


def central_diff(f, arr, where=None, eps=1e-6):
    """Central differences of the scalar f at each entry of arr where ``where``
    holds (everywhere by default), zero elsewhere."""
    out = np.zeros_like(arr)
    for idx in zip(*np.nonzero(np.ones(arr.shape, bool) if where is None else where)):
        up, down = arr.copy(), arr.copy()
        up[idx] += eps
        down[idx] -= eps
        out[idx] = (f(up) - f(down)) / (2 * eps)
    return out


class TestLatentLogpdf:
    def test_zero_network_observational_standard_normal(self):
        p = model.init_params(3, seed=21)
        p = dataclasses.replace(p, w_out=np.zeros((3, 3)), b_out=np.zeros(3))
        x = np.random.default_rng(1).normal(size=3)
        val = model.latent_logpdf_batch(p, full_mask(3), InterventionRegime(), 1.0, x[None])[0]
        expected = np.sum(-0.5 * (np.log(2 * np.pi) + x ** 2))
        assert val == pytest.approx(expected)

    def test_linear_mode_matches_closed_form_oracle(self):
        rng = np.random.default_rng(22)
        for trial in range(100):
            d = int(rng.integers(2, 5))
            W = rng.normal(size=(d, d))
            np.fill_diagonal(W, 0.0)
            W *= rng.uniform(0.3, 0.9) / np.linalg.norm(W, 2)
            sigma_z = rng.uniform(0.5, 2.0, d)
            targets = tuple(rng.choice(d, size=rng.integers(0, d), replace=False))
            regime = InterventionRegime(targets, 1.3, mean=0.2)
            x = rng.normal(size=d)
            p = linear_map_params(W, sigma_z=sigma_z)
            ours = model.latent_logpdf_batch(p, full_mask(d), regime, 1.3, x[None])[0]
            oracle = linear_latent_logpdf_oracle(W, sigma_z, regime, x)
            assert ours == pytest.approx(oracle, abs=1e-8)

    def test_full_intervention_only_clamp_terms(self):
        p = model.init_params(2, seed=23)
        regime = InterventionRegime((0, 1), 2.0, mean=-0.3)
        x = np.array([0.5, 1.0])
        val = model.latent_logpdf_batch(p, full_mask(2), regime, 2.0, x[None])[0]
        expected = np.sum(-0.5 * (np.log(2 * np.pi * 2.0) + (x + 0.3) ** 2 / 2.0))
        assert val == pytest.approx(expected)


class TestGradients:
    @pytest.mark.parametrize("d,hidden,activation,targets", [
        pytest.param(3, 3, "tanh", (2,), id="exact"),
        *[pytest.param(d, h, act, targets,
                       id=f"exact-d{d}h{h}-{act}-{'int' if targets else 'obs'}")
          for d, h in ((3, 5), (4, 2))
          for act in ("tanh", "identity")
          for targets in ((), (2,))],
        pytest.param(4, 3, "tanh", (1, 3), id="exact-d4h3-tanh-two-targets"),
        pytest.param(3, 3, "tanh", (0, 1, 2), id="exact-d3h3-tanh-full"),
    ])
    def test_parameter_gradients_match_finite_differences(self, d, hidden, activation,
                                                           targets):
        p = model.init_params(d, hidden=hidden, seed=24, activation=activation)
        ms = model.sample_mask(p.edge_logits, seed=25)
        regime = InterventionRegime(targets, 1.0)
        X = np.random.default_rng(2).normal(size=(5, d))

        def value(pp):
            v, _ = model.latent_logpdf_grads(pp, ms, regime, 1.0, X)
            return v

        _, grads = model.latent_logpdf_grads(p, ms, regime, 1.0, X)
        for name in ("w_in", "b_in", "w_out", "b_out"):
            num = central_diff(lambda a: value(dataclasses.replace(p, **{name: a})),
                               getattr(p, name))
            scale = max(np.max(np.abs(num)), 1e-8)
            assert np.max(np.abs(num - grads[name])) / scale < 1e-4

    def test_edge_logit_gradient_through_frozen_gumbel(self):
        p = model.init_params(3, seed=26)
        regime = InterventionRegime()
        X = np.random.default_rng(3).normal(size=(4, 3))
        rng = np.random.default_rng(31)
        g1 = rng.gumbel(size=(3, 3))
        g0 = rng.gumbel(size=(3, 3))

        def mask_for(logits):
            soft = expit((logits + g1 - g0) / 1.0)
            np.fill_diagonal(soft, 0.0)
            return model.MaskSample(soft, 1.0)

        ms = mask_for(p.edge_logits)
        _, grads = model.latent_logpdf_grads(p, ms, regime, 1.0, X)
        eps = 1e-6
        num = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                plus = p.edge_logits.copy()
                plus[i, j] += eps
                minus = p.edge_logits.copy()
                minus[i, j] -= eps
                vp, _ = model.latent_logpdf_grads(p, mask_for(plus), regime, 1.0, X)
                vm, _ = model.latent_logpdf_grads(p, mask_for(minus), regime, 1.0, X)
                num[i, j] = (vp - vm) / (2 * eps)
        scale = max(np.max(np.abs(num)), 1e-8)
        assert np.max(np.abs(num - grads["edge_logits"])) / scale < 1e-4


# ---------------------------------------------------------------------------
# Reference: the kernels as contractions over named indices (s: sample,
# j: input, i: output, h: hidden), written out independently of the matmul
# kernels in the model so a transposed or mis-reshaped operand shows.


def _reference_forward(p, M, X):
    pre = np.einsum("sj,ji,jh->sih", X, M, p.w_in) + p.b_in
    hid = np.tanh(pre) if p.activation == "tanh" else pre
    return np.einsum("sih,hi->si", hid, p.w_out) + p.b_out, hid


def _reference_jacobian(p, M, hid, free):
    """(deriv, core, jac) with jac[s, i, j] = dF_i/dx_j of the intervened map."""
    deriv = 1.0 - hid ** 2 if p.activation == "tanh" else np.ones_like(hid)
    core = np.einsum("jh,hi,sih->sij", p.w_in, p.w_out, deriv)
    return deriv, core, free[None, :, None] * core * M.T[None, :, :]


def _reference_grads(p, mask, regime, var, X, weights):
    """Per-row log-densities, their weighted sum and its gradients (exact log-det)."""
    M = mask.values
    n, d = X.shape
    free = regime.free_mask(d).astype(float)
    out, hid = _reference_forward(p, M, X)
    deriv, core, jac = _reference_jacobian(p, M, hid, free)
    Z = X - free * out
    rows = np.zeros(n)
    if regime.targets:
        idx = list(regime.targets)
        rows += np.sum(-0.5 * (np.log(2 * np.pi * var) + (X[:, idx] - regime.mean) ** 2 / var),
                       axis=1)
    f = free.astype(bool)
    rows += np.sum(-0.5 * (np.log(2 * np.pi * p.sigma_z[f] ** 2)
                           + Z[:, f] ** 2 / p.sigma_z[f] ** 2), axis=1)
    B = np.eye(d)[None] - jac
    rows += np.linalg.slogdet(B)[1]
    dD = -weights[:, None, None] * np.transpose(np.linalg.inv(B), (0, 2, 1))
    dF = weights[:, None] * free[None, :] * Z / p.sigma_z[None, :] ** 2

    dJ_full = free[None, :, None] * dD
    dM = np.einsum("sij,sij->ij", dJ_full, core).T
    dK = dJ_full * M.T[None, :, :]
    dw_in = np.einsum("sij,hi,sih->jh", dK, p.w_out, deriv)
    dw_out = np.einsum("sij,jh,sih->hi", dK, p.w_in, deriv)
    dderiv = np.einsum("sij,jh,hi->sih", dK, p.w_in, p.w_out)
    dhid = -2.0 * hid * dderiv if p.activation == "tanh" else np.zeros_like(hid)
    dw_out += np.einsum("si,sih->hi", dF, hid)
    dhid += np.einsum("si,hi->sih", dF, p.w_out)
    dpre = dhid * deriv if p.activation == "tanh" else dhid
    dw_in += np.einsum("sih,sj,ji->jh", dpre, X, M)
    dM += np.einsum("sih,sj,jh->ji", dpre, X, p.w_in)
    dlogits = dM * M * (1.0 - M) / mask.temperature
    np.fill_diagonal(dlogits, 0.0)
    grads = {"w_in": dw_in, "b_in": dpre.sum(axis=(0, 1)), "w_out": dw_out,
             "b_out": dF.sum(axis=0), "mask": dM, "edge_logits": dlogits}
    return rows, float(weights @ rows), grads


def _assert_rel_close(ours, ref, rtol=1e-12):
    ours, ref = np.asarray(ours), np.asarray(ref)
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) <= rtol * max(np.max(np.abs(ref)), 1e-300)


class TestKernelsMatchReference:
    """The matmul kernels against the contraction reference, with hidden != d."""

    @pytest.fixture(params=[(3, 5), (4, 2)], ids=["d3h5", "d4h2"])
    def shape(self, request):
        return request.param

    @pytest.fixture(params=["tanh", "identity"])
    def params(self, request, shape):
        d, h = shape
        rng = np.random.default_rng(40 + d)
        p = model.init_params(d, hidden=h, seed=41, weight_scale=0.8,
                              activation=request.param, sigma_z=rng.uniform(0.5, 1.5, d))
        return dataclasses.replace(p, b_in=rng.normal(size=h), b_out=rng.normal(size=d),
                                   edge_logits=rng.normal(size=(d, d)))

    @pytest.fixture(params=["obs", "int", "two", "all"])
    def regime(self, request, shape):
        # With every node clamped the reference gives the clamp term alone and
        # all-zero gradients, so the gradient checks demand exact zeros.
        d, _ = shape
        targets = {"obs": (), "int": (1,), "two": (0, 2), "all": tuple(range(d))}
        return InterventionRegime(targets[request.param], 1.3, mean=0.2)

    @pytest.fixture
    def batch(self, params):
        rng = np.random.default_rng(42)
        mask = model.sample_mask(params.edge_logits, temperature=0.7, seed=43)
        X = rng.normal(size=(6, params.d))
        return mask, X

    def test_forward(self, params, batch):
        mask, X = batch
        ref, _ = _reference_forward(params, mask.values, X)
        _assert_rel_close(masked_forward(params, mask, X), ref)

    def test_jacobian(self, params, regime, batch):
        mask, X = batch
        free = regime.free_mask(params.d).astype(float)
        _, hid = _reference_forward(params, mask.values, X)
        _, _, ref = _reference_jacobian(params, mask.values, hid, free)
        for s in range(X.shape[0]):
            _assert_rel_close(model.jacobian(params, mask, X[s], regime.targets), ref[s])

    def test_latent_logpdf_batch(self, params, regime, batch):
        mask, X = batch
        rows, _, _ = _reference_grads(params, mask, regime, 1.3, X, np.ones(len(X)))
        _assert_rel_close(model.latent_logpdf_batch(params, mask, regime, 1.3, X), rows)

    def test_latent_logpdf_batch_across_row_blocks(self, params, regime):
        d = params.d
        step = model._BLOCK_FLOATS // (d * max(d, params.hidden))
        X = np.random.default_rng(44).normal(size=(2 * step + 3, d))
        mask = model.sample_mask(params.edge_logits, seed=45)
        rows, _, _ = _reference_grads(params, mask, regime, 1.3, X, np.ones(len(X)))
        _assert_rel_close(model.latent_logpdf_batch(params, mask, regime, 1.3, X), rows)

    def test_every_gradient_entry(self, params, regime, batch):
        mask, X = batch
        mean = np.full(len(X), 1.0 / len(X))
        _, value, ref = _reference_grads(params, mask, regime, 1.3, X, mean)
        ours_value, ours = model.latent_logpdf_grads(params, mask, regime, 1.3, X)
        _assert_rel_close(ours_value, value)
        assert set(ours) == set(ref)
        for name in ref:
            _assert_rel_close(ours[name], ref[name])

    def test_linear_batch_matches_closed_form_oracle(self, shape, regime):
        d, h = shape
        rng = np.random.default_rng(46)
        p = model.init_params(d, hidden=h, seed=47, weight_scale=0.8, activation="identity",
                              sigma_z=rng.uniform(0.5, 1.5, d))
        mask = model.sample_mask(p.edge_logits, seed=48)
        weights = mask.values * (p.w_in @ p.w_out)  # x -> weights' x, edge j -> i at [j, i]
        X = rng.normal(size=(7, d))
        ours = model.latent_logpdf_batch(p, mask, regime, regime.variance, X)
        oracle = [linear_latent_logpdf_oracle(weights, p.sigma_z, regime, x) for x in X]
        _assert_rel_close(ours, oracle)


@pytest.mark.parametrize("hidden", [10, 2])
@pytest.mark.parametrize("targets", [(), (4,)], ids=["obs", "int"])
def test_latent_logpdf_batch_scores_rows_as_one_at_a_time_across_a_short_last_block(hidden,
                                                                                   targets):
    # The block buffers are reused, and the last block of 7 rows is a short prefix of them.
    d = 10
    rng = np.random.default_rng(80 + hidden)
    p = model.init_params(d, hidden=hidden, seed=81, weight_scale=0.8)
    p = dataclasses.replace(p, b_in=rng.normal(size=hidden), edge_logits=rng.normal(size=(d, d)))
    mask = model.sample_mask(p.edge_logits, seed=82)
    regime = InterventionRegime(targets, 1.3, mean=0.2)
    step = model._BLOCK_FLOATS // (d * max(d, hidden))
    X = rng.normal(size=(2 * step + 7, d))
    whole = model.latent_logpdf_batch(p, mask, regime, 1.3, X)
    one_by_one = [model.latent_logpdf_batch(p, mask, regime, 1.3, x[None])[0] for x in X]
    _assert_rel_close(whole, one_by_one)


class TestCheckpointIO:
    def test_round_trip_preserves_everything(self):
        p = model.init_params(3, seed=31)
        back = model.params_from_dict(json.loads(json.dumps(model.params_to_dict(p))))
        assert np.array_equal(back.w_in, p.w_in)
        assert np.array_equal(back.edge_logits[np.eye(3, dtype=bool)],
                              p.edge_logits[np.eye(3, dtype=bool)])
        assert np.isneginf(back.edge_logits[0, 0])
        assert back.activation == p.activation

    def test_dict_has_one_key_per_field(self):
        assert list(model.params_to_dict(model.init_params(3))) == \
            [f.name for f in dataclasses.fields(model.ModelParams)]

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_z_must_be_positive_and_finite(self, bad):
        obj = {**model.params_to_dict(model.init_params(3)), "sigma_z": [1.0, bad, 1.0]}
        with pytest.raises(ParameterError,
                           match=rf"^sigma_z must be positive and finite, got {bad!r}$"):
            model.params_from_dict(obj)

    def test_checkpoint_with_power_iteration_vectors_loads(self):
        p = model.init_params(3, seed=31)
        obj = {**model.params_to_dict(p), "pow_u_in": [0.6, 0.0, 0.8], "pow_u_out": None}
        back, trace = em.checkpoint_from_json(json.dumps({"params": obj, "trace": []}))
        assert np.array_equal(back.w_out, p.w_out)
        assert np.array_equal(back.sigma_z, p.sigma_z)
        assert trace == []
