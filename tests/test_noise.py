import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import nnls as scipy_nnls

from reclaim import graphs, measurement, noise, scm
from reclaim.errors import (ConvergenceError, IdentifiabilityError, ParameterError,
                            RankError, SamplingFailureError)


def make_family(d, targets_list):
    regimes = [scm.InterventionRegime(tuple(t), 1.0) for t in targets_list]
    return scm.InterventionFamily(tuple(regimes))


class TestIdentifiability:
    def test_observational_only_is_not(self):
        datasets = [np.random.default_rng(0).normal(size=(20, 3))]
        with pytest.raises(IdentifiabilityError, match=r"nodes \[0, 1, 2\] "):
            noise.estimate_channel_noise(datasets, make_family(3, [()]), "gan")

    def test_uncovered_node_detected(self):
        A, _, fam, datasets = simulate_linear(4, 3, 300, seed=5)
        keep = [k for k, r in enumerate(fam.regimes) if 1 not in r.targets]
        with pytest.raises(IdentifiabilityError, match=r"nodes \[1\] "):
            noise.estimate_channel_noise([datasets[k] for k in keep],
                                         scm.InterventionFamily(fam.regimes[k] for k in keep),
                                         "linear", A)

    @pytest.mark.parametrize("channel", ["gan", "linear"])
    def test_a_covering_regime_of_one_row_is_not_counted(self, channel):
        """One row has no sample variance (ddof=1 gives NaN): it must not enter an estimate."""
        if channel == "gan":
            A, (datasets, fam, _) = None, simulate_gan(3, np.full(3, 0.5), 300, seed=5)
        else:
            A, _, fam, datasets = simulate_linear(4, 3, 300, seed=5)
        single = scm.InterventionFamily(fam.regimes + (scm.InterventionRegime((0,), 1.0),))
        est = noise.estimate_channel_noise(datasets + [datasets[1][:1]], single, channel, A)
        assert np.array_equal(est, noise.estimate_channel_noise(datasets, fam, channel, A))

    def test_a_node_covered_only_by_one_row_is_not_identifiable(self):
        A, _, fam, datasets = simulate_linear(4, 3, 300, seed=5)
        datasets[3] = datasets[3][:1]  # the regime that clamps node 2
        with pytest.raises(IdentifiabilityError, match=r"nodes \[2\]"):
            noise.estimate_channel_noise(datasets, fam, "linear", A)


def simulate_gan(d, sigma, n, seed, graph_seed=0):
    g = graphs.erdos_renyi(d, 2.0, seed=graph_seed)
    truth = scm.sample_benchmark_scm(g, seed=seed)
    fam = scm.single_node_family(d)
    chan = measurement.GaussianAdditiveChannel(sigma ** 2)
    datasets = [measurement.measure(chan, scm.sample_latents(truth, reg, n, seed=seed * 100 + k),
                                    seed=seed * 100 + 50 + k)
                for k, reg in enumerate(fam)]
    return datasets, fam, sigma ** 2


class TestGanEstimator:
    def test_noiseless_data_clips_to_floor(self):
        # noiseless measurements: the intervened column carries exactly the
        # pinned variance, so the subtraction leaves nothing above the floor
        d = 3
        g = graphs.erdos_renyi(d, 1.0, seed=0)
        truth = scm.sample_benchmark_scm(g, seed=0)
        fam = scm.single_node_family(d)
        datasets = []
        for k, reg in enumerate(fam):
            X = scm.sample_latents(truth, reg, 3000, seed=k)
            for i in reg.targets:
                X[:, i] /= X[:, i].std(ddof=1)  # unit sample variance, no noise
            datasets.append(X)
        est = noise.estimate_gan_variances(datasets, fam)
        assert np.all(est == noise.VARIANCE_FLOOR)

    def test_subtraction_identity(self):
        # a column with variance 1.25 under unit interventional variance
        rng = np.random.default_rng(0)
        col = rng.normal(0, np.sqrt(1.25), size=200_000)
        datasets = [np.column_stack([col, rng.normal(size=200_000)])]
        fam = make_family(2, [(0, 1)])
        est = noise.estimate_gan_variances(datasets, fam)
        assert est[0] == pytest.approx(0.25, abs=0.01)

    def test_monte_carlo_consistency(self):
        # the 5% band is roughly one standard error of the sample-variance
        # subtraction at this n, so the check is pinned to a fixed draw
        rng = np.random.default_rng(5)
        sigma = rng.uniform(0.3, 0.6, 10)
        datasets, fam, true_var = simulate_gan(10, sigma, 100_000, seed=2)
        est = noise.estimate_gan_variances(datasets, fam)
        assert np.max(np.abs(est - true_var) / true_var) <= 0.05

    def test_error_shrinks_with_sample_size(self):
        rng = np.random.default_rng(6)
        sigma = rng.uniform(0.3, 0.6, 4)
        errs = []
        for n in (1000, 100_000):
            per_seed = []
            for seed in range(8):
                datasets, fam, true_var = simulate_gan(4, sigma, n, seed=seed + 1)
                est = noise.estimate_gan_variances(datasets, fam)
                per_seed.append(np.median(np.abs(est - true_var) / true_var))
            errs.append(np.median(per_seed))
        assert errs[1] < errs[0]

    def test_identifiability_enforced(self):
        with pytest.raises(IdentifiabilityError):
            noise.estimate_gan_variances([np.zeros((10, 2))], make_family(2, [(0,)]))


class TestNullSpaceBasis:
    def test_identity_mixing_single_coordinate(self):
        A = np.eye(3)
        basis = noise.null_space_basis(np.delete(A, 0, axis=1).T)
        assert basis.shape == (3, 1)
        assert np.allclose(np.abs(basis[:, 0]), [1.0, 0.0, 0.0])

    def test_padded_identity_two_directions(self):
        d = 3
        A = np.vstack([np.eye(d), np.zeros((1, d))])
        basis = noise.null_space_basis(np.delete(A, 0, axis=1).T)
        assert basis.shape == (4, 2)
        span = basis @ basis.T
        for vec in (np.eye(4)[0], np.eye(4)[3]):
            assert np.allclose(span @ vec, vec, atol=1e-10)

    def test_random_tall_matrix_residual(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(15, 10))
        for i in range(10):
            basis = noise.null_space_basis(np.delete(A, i, axis=1).T)
            assert basis.shape == (15, 6)
            assert np.max(np.abs(np.delete(A, i, axis=1).T @ basis)) <= 1e-10

    def test_rank_deficient_rejected(self):
        A = np.ones((4, 3))
        with pytest.raises(RankError):
            noise.null_space_basis(np.delete(A, 0, axis=1).T)


class TestProjectionSampler:
    def test_padded_identity_full_rank(self):
        A = np.vstack([np.eye(2), np.zeros((1, 2))])
        ps = noise.sample_projection_vectors(A, m=6, seed=0)
        assert np.linalg.matrix_rank(ps.squares) == 3

    def test_square_case_one_row_per_node(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 6))
        ps = noise.sample_projection_vectors(A, seed=1)
        assert ps.m == 6
        assert sorted(ps.source_node.tolist()) == list(range(6))
        assert np.linalg.matrix_rank(ps.squares) == 6

    def test_random_tall_matrices_rank_certified(self):
        for s in range(100):
            A = np.random.default_rng(900 + s).normal(0, np.sqrt(1.5), size=(15, 10))
            ps = noise.sample_projection_vectors(A, seed=s)
            assert np.linalg.matrix_rank(ps.squares) == 15

    @pytest.mark.parametrize("shape, m, delta, cap", [
        ((12, 8), 24, noise.DELTA_DIVERSITY, None),
        ((20, 10), noise.PIPELINE_ROWS_PER_MEASUREMENT * 20, noise.PIPELINE_DELTA,
         noise.PIPELINE_SIGNAL_CAP),
    ], ids=["defaults", "pipeline"])
    def test_acceptance_tests_hold_post_hoc(self, shape, m, delta, cap):
        A = np.random.default_rng(3).normal(0, np.sqrt(1.5), size=shape)
        ps = noise.sample_projection_vectors(A, m=m, delta=delta, signal_cap=cap, seed=4)
        d = shape[1]
        assert ps.m == m
        assert np.array_equal(np.bincount(ps.source_node, minlength=d), np.full(d, m // d))
        for t, i in zip(ps.vectors, ps.source_node):
            assert abs(np.linalg.norm(t) - 1.0) < 1e-12
            assert np.max(np.abs(np.delete(A, i, axis=1).T @ t)) <= 1e-8
            assert noise.EPS_SIG <= abs(A[:, i] @ t) <= (np.inf if cap is None else cap)
        unit = ps.squares / np.linalg.norm(ps.squares, axis=1, keepdims=True)
        cos = (unit @ unit.T)[np.triu_indices(ps.m, k=1)]
        assert np.max(cos) <= 1.0 - delta + 1e-12

    def test_m_below_p_rejected(self):
        A = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ParameterError):
            noise.sample_projection_vectors(A, m=4, seed=0)

    @pytest.mark.parametrize("A", [
        # Column 2 is column 0 plus column 1: every column-deleted matrix keeps
        # full rank, yet no vector can isolate a latent, so sampling would
        # spend its whole draw budget.
        np.random.default_rng(1).normal(size=(5, 2)) @ [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        # Two columns along one direction leave a genuinely deficient system.
        np.column_stack([np.eye(3)[:, :2], np.eye(3)[:, :2] @ [1.0, 1e-7]]),
    ], ids=["column-sum", "near-parallel-columns"])
    def test_rank_deficient_mixing_rejected_before_any_draw(self, A):
        with pytest.raises(RankError, match=r"rank 2 < d=3"):
            noise.sample_projection_vectors(A, seed=0)

    @pytest.mark.parametrize("A, m, rank", [
        # Node 2's only admissible direction has a signal of 1e-9: below
        # EPS_SIG, and too weak for the fallback.
        (np.diag([1.0, 1.0, 1e-9]), 3, 2),
        # Both isolating directions, (1, 1) and (1, -1), have the same
        # squares: the fallback keeps node 1's, and the top-up, past the m
        # rows, finds nothing diverse.
        (np.array([[1.0, 1.0], [1.0, -1.0]]), 2, 1),
    ], ids=["weak-signal", "equal-squares"])
    def test_budget_exhaustion_reports_rank(self, A, m, rank):
        with pytest.raises(SamplingFailureError, match=rf"rank {rank} < {A.shape[0]}") as err:
            noise.sample_projection_vectors(A, m=m, seed=0)
        assert err.value.achieved_rank == rank

class TestNnls:
    def test_matches_scipy_on_random_problems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T = rng.normal(size=(12, 6))
            b = rng.normal(size=12)
            ours = noise.nnls_projected_gradient(T, b)
            ref, _ = scipy_nnls(T, b)
            assert np.allclose(ours, ref, atol=1e-6)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(8)
        T = rng.random((20, 8))
        b = rng.normal(size=20)
        x = noise.nnls_projected_gradient(T, b)
        assert np.all(x >= 0)
        grad = T.T @ (T @ x - b)
        assert np.max(np.abs(x - np.maximum(x - grad, 0.0))) <= 1e-8

    def test_zero_design_gives_zeros(self):
        assert np.array_equal(noise.nnls_projected_gradient(np.zeros((4, 3)), np.ones(4)),
                              np.zeros(3))

    def test_an_iteration_cap_is_a_convergence_error(self, monkeypatch):
        def capped(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        with pytest.raises(ConvergenceError, match="Maximum number of iterations"):
            noise.nnls_projected_gradient(np.eye(2), np.ones(2))


def simulate_linear(p, d, n, seed, sigma_range=(0.3, 0.6)):
    rng = np.random.default_rng(seed)
    A = rng.normal(0, np.sqrt(1.5), size=(p, d))
    sigma_sq = rng.uniform(*sigma_range, p) ** 2
    g = graphs.erdos_renyi(d, 2.0, seed=seed + 1)
    truth = scm.sample_benchmark_scm(g, seed=seed + 2)
    fam = scm.single_node_family(d)
    chan = measurement.LinearChannel(A, sigma_sq)
    datasets = [measurement.measure(chan, scm.sample_latents(truth, reg, n, seed=seed * 100 + k),
                                    seed=seed * 100 + 50 + k)
                for k, reg in enumerate(fam)]
    return A, sigma_sq, fam, datasets


class TestLinearEstimator:
    def test_identity_system_matches_additive_estimator(self):
        d = 3
        rng = np.random.default_rng(9)
        fam = scm.single_node_family(d)
        sigma_sq = np.array([0.2, 0.3, 0.4])
        chan = measurement.LinearChannel(np.eye(d), sigma_sq)
        g = graphs.erdos_renyi(d, 1.0, seed=0)
        truth = scm.sample_benchmark_scm(g, seed=0)
        datasets = [measurement.measure(chan, scm.sample_latents(truth, reg, 50_000, seed=k),
                                        seed=100 + k)
                    for k, reg in enumerate(fam)]
        proj = noise.ProjectionSet(vectors=np.eye(d), source_node=np.arange(d))
        lin = noise.estimate_linear_variances(datasets, fam, np.eye(d), proj)
        gan = noise.estimate_gan_variances(datasets, fam)
        assert np.allclose(lin, gan, atol=1e-8)

    def test_exact_interpolation_on_consistent_system(self):
        rng = np.random.default_rng(10)
        p, d = 6, 4
        A = rng.normal(size=(p, d))
        ps = noise.sample_projection_vectors(A, m=p, seed=1)
        sigma_true = rng.uniform(0.1, 0.8, p)
        x = noise.nnls_projected_gradient(ps.squares, ps.squares @ sigma_true)
        assert np.allclose(x, sigma_true, atol=1e-8)

    def test_row_rescaling_invariance_on_consistent_system(self):
        rng = np.random.default_rng(11)
        p = 5
        T = rng.random((p, p)) + np.eye(p)
        sigma_true = rng.uniform(0.1, 1.0, p)
        b = T @ sigma_true
        base = noise.nnls_projected_gradient(T, b)
        T2, b2 = T.copy(), b.copy()
        T2[2] *= 7.5
        b2[2] *= 7.5
        rescaled = noise.nnls_projected_gradient(T2, b2)
        assert np.allclose(base, rescaled, atol=1e-8)

    def test_per_node_products_match_a_per_row_loop(self):
        """The reference: one projected sample variance per (row, covering regime).
        The estimator sums in another order, so the two agree to rounding."""
        A, _, fam, datasets = simulate_linear(6, 4, 2000, seed=20)
        ps = noise.sample_projection_vectors(A, m=24, seed=3)
        rhs, weight = np.empty(ps.m), np.empty(ps.m)
        for r, (t, node) in enumerate(zip(ps.vectors, ps.source_node)):
            covering = [k for k, reg in enumerate(fam.regimes) if node in reg.targets]
            var_k = [np.var(datasets[k] @ t, ddof=1) for k in covering]
            pinned = [(t @ A[:, node]) ** 2 * fam.regimes[k].variance for k in covering]
            rhs[r] = np.mean(np.subtract(var_k, pinned))
            weight[r] = 1.0 / max(np.mean(var_k), noise.VARIANCE_FLOOR)
        ref = noise.nnls_projected_gradient(ps.squares * weight[:, None], rhs * weight)
        est = noise.estimate_linear_variances(datasets, fam, A, ps)
        np.testing.assert_allclose(est, np.maximum(ref, noise.VARIANCE_FLOOR), rtol=1e-12)

    def test_monte_carlo_accuracy(self):
        A, sigma_sq, fam, datasets = simulate_linear(15, 10, 50_000, seed=11)
        est = noise.estimate_channel_noise(datasets, fam, "linear", A)
        assert np.max(np.abs(est - sigma_sq) / sigma_sq) <= 0.10

    def test_error_decreases_with_sample_size(self):
        med = []
        for n in (1000, 30_000):
            errs = []
            for seed in range(20, 26):
                A, sigma_sq, fam, datasets = simulate_linear(6, 4, n, seed=seed)
                est = noise.estimate_channel_noise(datasets, fam, "linear", A)
                errs.append(np.median(np.abs(est - sigma_sq) / sigma_sq))
            med.append(np.median(errs))
        assert med[1] < med[0]

    def test_rank_deficient_design_rejected(self):
        fam = scm.single_node_family(2)
        proj = noise.ProjectionSet(vectors=np.array([[1.0, 0.0], [1.0, 0.0]]),
                                   source_node=np.array([0, 1]))
        with pytest.raises(RankError):
            noise.estimate_linear_variances([np.zeros((10, 2))] * 3, fam, np.eye(2), proj)
