
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


CONSISTENCY_NS = (500, 2000, 8000)


def assert_root_n_consistent(rel_err):
    """``rel_err[n]`` holds one vector of relative errors est / true - 1 per seed, at
    n rows per regime. A consistent estimator at the sqrt(n) rate has a mean error
    over seeds within 3 standard errors of 0 at the largest n, and its RMSE falls
    by half, here by a ratio in [0.35, 0.7], at each 4x step in n."""
    per_seed = np.mean(rel_err[CONSISTENCY_NS[-1]], axis=1)
    assert abs(per_seed.mean()) <= 3 * per_seed.std(ddof=1) / np.sqrt(per_seed.size)
    rmse = [np.sqrt(np.mean(np.square(rel_err[n]))) for n in CONSISTENCY_NS]
    for small, large in zip(rmse, rmse[1:]):
        assert 0.35 <= large / small <= 0.7


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
        sigma = np.random.default_rng(6).uniform(0.3, 0.6, 5)
        rel_err = {}
        for n in CONSISTENCY_NS:
            rel_err[n] = []
            for seed in range(1, 21):
                datasets, fam, true_var = simulate_gan(5, sigma, n, seed=seed)
                est = noise.estimate_channel_noise(datasets, fam, "gan")
                rel_err[n].append(est / true_var - 1.0)
        assert_root_n_consistent(rel_err)

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

    @pytest.mark.parametrize("scale", [1e-11, 1e6, 1e9])
    def test_tolerances_are_relative_to_the_scale(self, scale):
        # check_mixing accepts every multiple of a well-conditioned matrix, and
        # deleting a column cannot raise the condition number.
        A = _normal_mixing((20, 10), 0) * scale
        for i in range(10):
            basis = noise.null_space_basis(np.delete(A, i, axis=1).T)
            assert basis.shape == (20, 11)
            assert np.max(np.abs(np.delete(A, i, axis=1).T @ basis)) <= 1e-12 * scale

    def test_one_latent_leaves_the_whole_space(self):
        basis = noise.null_space_basis(np.empty((0, 3)))
        assert np.array_equal(basis @ basis.T, np.eye(3))


def _normal_mixing(shape, a_seed):
    return np.random.default_rng(a_seed).normal(0, np.sqrt(1.5), size=shape)


def _window(A, cap):
    """The sampler's signal window on |a_i' t|: EPS_SIG and the cap in units of A's RMS entry."""
    unit = np.linalg.norm(A) / np.sqrt(A.size)
    return noise.EPS_SIG * unit, cap * unit


_DELTA = 0.05  # the diversity margin most sampler tests run at


def _sample(A, m=None, delta=_DELTA, signal_cap=np.inf, seed=None):
    """The sampler at the settings most of its tests run at: 2p rows, the margin
    ``_DELTA`` and no signal cap. Its defaults are the pipeline's settings."""
    return noise.sample_projection_vectors(A, m=2 * len(A) if m is None else m, delta=delta,
                                           signal_cap=signal_cap, seed=seed)


_PIPELINE = (noise.PIPELINE_DELTA, noise.PIPELINE_SIGNAL_CAP)
# (A, m, delta, signal_cap, sampler seed): ``_sample``'s and the pipeline's
# settings on tall and square matrices, delta = 0 on square ones (each node's
# one direction is still its one row), a narrow signal window at m = p, and
# pipeline settings on 200 A, whose window is 200 times A's.
_SAMPLER_GRID = {
    **{f"defaults-{s[0]}x{s[1]}-{a}": (_normal_mixing(s, a), 2 * s[0], _DELTA, np.inf, a + 10)
       for s in [(12, 8), (20, 10), (8, 5), (5, 2), (6, 6), (3, 3)] for a in range(2)},
    **{f"pipeline-{s[0]}x{s[1]}-{a}": (_normal_mixing(s, a),
                                       noise.PIPELINE_ROWS_PER_MEASUREMENT * s[0], *_PIPELINE, a)
       for s in [(20, 10), (12, 6), (30, 4), (10, 10)] for a in range(2)},
    **{f"square-delta0-{p}x{p}": (_normal_mixing((p, p), 0), 2 * p, 0.0, np.inf, p)
       for p in (6, 3, 10)},
    **{f"narrow-window-8x5-{a}": (_normal_mixing((8, 5), a), 8, _DELTA, 0.12, 0)
       for a in range(3)},
    **{f"pipeline-200A-12x8-{a}": (200 * _normal_mixing((12, 8), a),
                                   noise.PIPELINE_ROWS_PER_MEASUREMENT * 12, *_PIPELINE, a)
       for a in (1, 2)},
}


def _outputs_taken(rng, seed, limit):
    """How many 64-bit outputs ``rng`` has taken since ``np.random.default_rng(seed)``,
    or None if it is more than ``limit``."""
    fresh = np.random.default_rng(seed).bit_generator
    for taken in range(limit + 1):
        if fresh.state == rng.bit_generator.state:
            return taken
        fresh.random_raw()
    return None


class TestProjectionSampler:
    def test_padded_identity_full_rank(self):
        A = np.vstack([np.eye(2), np.zeros((1, 2))])
        ps = _sample(A, m=6, seed=0)
        assert np.linalg.matrix_rank(ps.squares) == 3

    def test_square_case_one_row_per_node(self):
        # p = d: each node's one direction is its one row, whatever m and delta ask.
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 6))
        for delta in (_DELTA, noise.PIPELINE_DELTA, 0.0):
            ps = _sample(A, m=12, delta=delta, seed=1)
            assert ps.m == 6
            assert sorted(ps.source_node.tolist()) == list(range(6))
            assert np.linalg.matrix_rank(ps.squares) == 6

    def test_random_tall_matrices_rank_certified(self):
        for s in range(100):
            A = np.random.default_rng(900 + s).normal(0, np.sqrt(1.5), size=(15, 10))
            ps = _sample(A, seed=s)
            assert np.linalg.matrix_rank(ps.squares) == 15

    @pytest.mark.parametrize("shape, m, delta, cap", [
        ((12, 8), 24, _DELTA, np.inf),
        ((20, 10), noise.PIPELINE_ROWS_PER_MEASUREMENT * 20, noise.PIPELINE_DELTA,
         noise.PIPELINE_SIGNAL_CAP),
    ], ids=["defaults", "pipeline"])
    def test_acceptance_tests_hold_post_hoc(self, shape, m, delta, cap):
        A = np.random.default_rng(3).normal(0, np.sqrt(1.5), size=shape)
        ps = noise.sample_projection_vectors(A, m=m, delta=delta, signal_cap=cap, seed=4)
        d = shape[1]
        assert ps.m == m
        assert np.array_equal(np.bincount(ps.source_node, minlength=d), np.full(d, m // d))
        lo, hi = _window(A, cap)
        for t, i in zip(ps.vectors, ps.source_node):
            assert abs(np.linalg.norm(t) - 1.0) < 1e-12
            assert np.max(np.abs(np.delete(A, i, axis=1).T @ t)) <= 1e-8
            assert lo <= abs(A[:, i] @ t) <= hi
        unit = ps.squares / np.linalg.norm(ps.squares, axis=1, keepdims=True)
        cos = (unit @ unit.T)[np.triu_indices(ps.m, k=1)]
        assert np.max(cos) <= 1.0 - delta + 1e-12

    def test_a_node_whose_null_space_is_below_the_window_falls_back_to_a_random_direction(self):
        # Node 1's null space is span(e2, e3), where its signal is at most
        # |a_1| = 0.0283, below the window's 0.0333 (A's RMS entry is 0.408):
        # it keeps one random direction (0, c, s), whose squares lift node 0's
        # squares, all in the plane of (1, 0, 0) and (0, 1, 1), to rank 3. Its
        # strongest direction, (0, 1, 1) / sqrt(2), would leave them at rank 2.
        A = np.array([[1.0, 0.0], [0.0, 0.02], [0.0, 0.02]])
        lo, _ = _window(A, np.inf)
        assert np.linalg.norm(A[:, 1]) < lo
        for seed in range(5):
            ps = _sample(A, seed=seed)
            assert np.linalg.matrix_rank(ps.squares) == 3
            assert ps.source_node.tolist() == [0, 0, 0, 1]
            assert abs(ps.vectors[3] @ A[:, 1]) < lo

    @pytest.mark.parametrize("A, cap, node", [
        # p = d: node 2's one direction, e3, has signal 0.02, below the
        # window's 0.0385 (A's RMS entry is 0.471).
        (np.diag([1.0, 1.0, 0.02]), np.inf, 2),
        # p = d: each node's one direction has signal 1, above the cap's 0.069.
        (np.eye(3), 0.12, 0),
    ], ids=["below-eps", "above-cap"])
    def test_the_fallback_keeps_a_row_outside_the_signal_window(self, A, cap, node):
        ps = _sample(A, signal_cap=cap, seed=0)
        assert ps.source_node.tolist() == [0, 1, 2]
        assert np.array_equal(np.abs(ps.vectors), np.eye(3))
        lo, hi = _window(A, cap)
        assert not lo <= abs(ps.vectors[node] @ A[:, node]) <= hi

    @pytest.mark.parametrize("shape, m, delta, cap", [
        ((12, 8), 24, _DELTA, np.inf),
        ((20, 10), noise.PIPELINE_ROWS_PER_MEASUREMENT * 20, noise.PIPELINE_DELTA,
         noise.PIPELINE_SIGNAL_CAP),
        ((6, 6), 12, 0.0, np.inf),
    ], ids=["defaults", "pipeline", "square-delta0"])
    def test_the_same_seed_gives_the_same_set_byte_for_byte(self, shape, m, delta, cap):
        A = _normal_mixing(shape, 0)
        first, again = (noise.sample_projection_vectors(A, m=m, delta=delta, signal_cap=cap,
                                                        seed=5) for _ in range(2))
        assert first.vectors.tobytes() == again.vectors.tobytes()
        assert first.source_node.tobytes() == again.source_node.tobytes()

    @pytest.mark.parametrize("case", list(_SAMPLER_GRID))
    def test_every_row_keeps_the_sampler_contract(self, case):
        A, m, delta, cap, seed = _SAMPLER_GRID[case]
        ps = noise.sample_projection_vectors(A, m=m, delta=delta, signal_cap=cap, seed=seed)
        again = noise.sample_projection_vectors(A, m=m, delta=delta, signal_cap=cap, seed=seed)
        assert ps.vectors.tobytes() == again.vectors.tobytes()
        assert ps.source_node.tobytes() == again.source_node.tobytes()
        p, d = A.shape
        assert ps.m >= p and np.linalg.matrix_rank(ps.squares) == p
        assert set(ps.source_node.tolist()) == set(range(d))
        unit = ps.squares / np.linalg.norm(ps.squares, axis=1, keepdims=True)
        lo, hi = _window(A, cap)
        for k, (t, i) in enumerate(zip(ps.vectors, ps.source_node)):
            assert abs(np.linalg.norm(t) - 1.0) < 1e-12
            assert np.max(np.abs(np.delete(A, i, axis=1).T @ t)) <= 1e-8
            # A row is inside the signal window and passed the diversity
            # test against every earlier row, or it is its node's first row:
            # the fallback, or the one direction at p = d.
            in_window = lo <= abs(A[:, i] @ t) <= hi
            diverse = k == 0 or np.max(unit[:k] @ unit[k]) <= 1.0 - delta + 1e-12
            assert (in_window and diverse) or i not in ps.source_node[:k]

    @pytest.mark.parametrize("scale", [1e6, 1e9, 1e-3, 1e-6])
    def test_a_large_multiple_of_the_mixing_gives_every_row(self, scale):
        A = _normal_mixing((20, 10), 0)
        ps = _sample(A * scale, seed=1)
        assert ps.m == 40
        assert np.linalg.matrix_rank(ps.squares) == 20

    @pytest.mark.parametrize("p", [3, 2, 1])
    def test_one_latent_gives_a_rank_p_design(self, p):
        A = np.arange(1.0, p + 1.0)[:, None]
        ps = _sample(A, seed=0)
        assert np.all(ps.source_node == 0)
        assert np.linalg.matrix_rank(ps.squares) == p

    def test_m_below_p_rejected(self):
        A = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ParameterError):
            _sample(A, m=4, seed=0)

    @pytest.mark.parametrize("A", [
        # Column 2 is column 0 plus column 1: every column-deleted matrix keeps
        # full rank, yet no vector can isolate a latent, so sampling would
        # spend its whole draw budget.
        np.random.default_rng(1).normal(size=(5, 2)) @ [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        # Two columns along one direction leave a genuinely deficient system.
        np.column_stack([np.eye(3)[:, :2], np.eye(3)[:, :2] @ [1.0, 1e-7]]),
        # Condition number 1e16: the smallest singular value, 1e-9, is above 1e-10
        # but only 1e-16 of the largest, so the sampler could never isolate node 1.
        np.diag([1e7, 1e-9]),
    ], ids=["column-sum", "near-parallel-columns", "condition-1e16"])
    def test_rank_deficient_mixing_rejected_before_any_draw(self, A):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(RankError, match=r"^mixing matrix is rank deficient \(smallest "):
            _sample(A, seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("A, m, rank", [
        # Node 2's only admissible direction has a signal of 1e-9: below the
        # window, and too weak (under 1e-8 units) for the fallback.
        (np.diag([1.0, 1.0, 1e-9]), 3, 2),
        # Both isolating directions, (1, 1) and (1, -1), have the same
        # squares, and at p = d each node's one direction is its one row.
        (np.array([[1.0, 1.0], [1.0, -1.0]]), 2, 1),
        # p > d: both nodes' squares, (a^2/2, a^2/2, b^2), span the same
        # plane, so the pass ends at rank 2.
        (np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]), 3, 2),
        # Each node's signal is at most 0.01 |a_i|, below the window: both
        # nodes fall back, and their squares, (1e-4 c^2, c^2, s^2) and
        # (0, c^2, s^2), span a plane.
        (np.array([[1.0, 1.0], [0.0, 0.01], [0.0, 0.0]]), 6, 2),
    ], ids=["weak-signal", "equal-squares", "budget-spent", "below-window-3x2"])
    def test_budget_exhaustion_reports_rank(self, A, m, rank):
        rng = np.random.default_rng(0)
        with pytest.raises(SamplingFailureError, match=rf"rank {rank} < {A.shape[0]}$"):
            _sample(A, m=m, seed=rng)
        # The failure ends the one pass, with nothing drawn at p = d. Each
        # node draws at most its share plus MAX_STREAK rows per row it keeps
        # and one more streak: rows of r normals and a signal, each of which
        # takes about one 64-bit output.
        p, d = A.shape
        r, rows = p - d + 1, m + (m + d) * noise.MAX_STREAK
        taken = _outputs_taken(rng, seed=0, limit=0 if p == d else 2 * (r + 1) * rows)
        assert taken is not None and (taken > 0) == (p > d)

    # Recorded sampler output: (A shape, seed of A, sampler seed) -> the source
    # nodes as (node, run length) pairs, the column sums of the vectors and the
    # last vector. A change to the random stream or to acceptance moves them,
    # so record them again only for a change meant to alter the sets.
    @pytest.mark.parametrize("shape, a_seed, seed, runs, colsum, last", [
        ((20, 10), 17, 3, [(i, 80) for i in range(10)],
         [-11.491532776914484, -5.50688636816816, -0.7996039513707222, 5.836474972254009,
          -8.079222591625546, -7.535023012385763, -0.6661389432179105, -1.989812975706677,
          4.508246786106014, -5.765935257316364, -3.4152647669249516, -2.0904727969596526,
          -0.9257779391125439, -2.8381470404058198, 5.199914822517051, 12.093679931358533,
          -2.894762551673604, 1.3590804692006193, -0.16531110397235083, 0.9324904740299661],
         [0.1898283888296086, 0.06570456772568983, 0.1865940020059499, 0.16798780607792718,
          -0.06942201132660786, -0.05818720353790966, 0.3237428239248227, 0.08567901645181049,
          0.2861411247623277, -0.07343821821355029, 0.2143251310008184, 0.17529400805368092,
          0.5919628267783547, 0.13901604985409569, 0.14598428833413016, 0.14945758927512198,
          0.10528020720586974, 0.2343463560444454, -0.22469384097101783, -0.2871207636923675]),
        ((12, 6), 29, 5, [(i, 80) for i in range(6)],
         [-9.523113321276954, -6.074301875307507, -7.669148064421606, -7.753821848466021,
          5.6845523875876935, 1.7382777431199432, 7.251800132810956, 1.4119412749403377,
          6.266853242595737, 5.470156395067237, 16.16033345688672, 9.372829834652704],
         [0.14020981899763899, -0.28371744169434504, -0.12553413407533942, -0.5950226051483054,
          0.1973701328416235, -0.30606940033707963, -0.25519310868271816, 0.08607468459561182,
          0.4738997985946925, 0.17326759045663143, 0.21336007430684883, 0.15730187841402155]),
        ((6, 6), 31, 7, [(i, 1) for i in range(6)],
         [-1.6340211613432365, 0.37020929471420516, 0.6513745420671591, 0.07994298785978327,
          -1.5239629761975424, 2.440766232133772],
         [-0.522657303845562, 0.1735107421938809, 0.2958795556583452, 0.7117698984698134,
          -0.30008682752278565, 0.11184883192603476]),
    ], ids=["20x10", "12x6", "square-6x6"])
    def test_pipeline_settings_reproduce_the_recorded_set(self, shape, a_seed, seed, runs,
                                                          colsum, last):
        A = np.random.default_rng(a_seed).normal(0, np.sqrt(1.5), size=shape)
        ps = noise.sample_projection_vectors(
            A, m=noise.PIPELINE_ROWS_PER_MEASUREMENT * shape[0], delta=noise.PIPELINE_DELTA,
            signal_cap=noise.PIPELINE_SIGNAL_CAP, seed=seed)
        nodes, counts = zip(*runs)
        assert np.array_equal(ps.source_node, np.repeat(nodes, counts))
        np.testing.assert_allclose(ps.vectors.sum(axis=0), colsum, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ps.vectors[-1], last, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_the_defaults_are_the_pipeline_settings(self, seed):
        A = _normal_mixing((20, 10), seed)
        default = noise.sample_projection_vectors(A, seed=seed)
        explicit = noise.sample_projection_vectors(
            A, m=noise.PIPELINE_ROWS_PER_MEASUREMENT * 20, delta=noise.PIPELINE_DELTA,
            signal_cap=noise.PIPELINE_SIGNAL_CAP, seed=seed)
        assert default.vectors.tobytes() == explicit.vectors.tobytes()
        assert default.source_node.tobytes() == explicit.source_node.tobytes()


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
        ps = _sample(A, m=p, seed=1)
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
        ps = _sample(A, m=24, seed=3)
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
        # The worst relative error moves with the projection rows drawn, so the
        # bound holds for its median over sampler seeds, not for one seed.
        A, sigma_sq, fam, datasets = simulate_linear(15, 10, 50_000, seed=11)
        worst = [np.max(np.abs(noise.estimate_channel_noise(datasets, fam, "linear", A,
                                                            seed=seed) - sigma_sq) / sigma_sq)
                 for seed in range(10)]
        assert np.median(worst) <= 0.10

    def test_error_decreases_with_sample_size(self):
        rel_err = {}
        for n in CONSISTENCY_NS:
            rel_err[n] = []
            for seed in range(20, 40):
                A, sigma_sq, fam, datasets = simulate_linear(10, 5, n, seed=seed)
                est = noise.estimate_channel_noise(datasets, fam, "linear", A)
                rel_err[n].append(est / sigma_sq - 1.0)
        assert_root_n_consistent(rel_err)

    @pytest.mark.parametrize("c", [1e-2, 1e3])
    def test_a_change_of_units_scales_the_estimate_by_its_square(self, c):
        # y = A x + eps is linear in A: c y = (c A) x + c eps, whose noise
        # variances are c^2 times those of eps.
        A, _, fam, datasets = simulate_linear(10, 5, 2000, seed=7)
        est = noise.estimate_channel_noise(datasets, fam, "linear", A, seed=3)
        scaled = noise.estimate_channel_noise([c * Y for Y in datasets], fam, "linear", c * A,
                                              seed=3)
        np.testing.assert_allclose(scaled, c * c * est, rtol=1e-12, atol=0)

    def test_the_linear_estimate_reproduces_the_recorded_one(self):
        # The estimate at the pipeline's sampler settings; record it again only for a
        # change meant to alter the estimate.
        A, _, fam, datasets = simulate_linear(10, 5, 2000, seed=7)
        est = noise.estimate_channel_noise(datasets, fam, "linear", A, seed=3)
        recorded = [0.2302738843715178, 0.10365893531235396, 0.17593288630207105,
                    0.13858180386336805, 0.12471850743155292, 0.26289463279687897,
                    0.17179519076964175, 0.3461870436069304, 0.22989719458321484,
                    0.21737933853311425]
        np.testing.assert_allclose(est, recorded, rtol=1e-12, atol=0)

    def test_rank_deficient_design_rejected(self):
        fam = scm.single_node_family(2)
        proj = noise.ProjectionSet(vectors=np.array([[1.0, 0.0], [1.0, 0.0]]),
                                   source_node=np.array([0, 1]))
        with pytest.raises(RankError):
            noise.estimate_linear_variances([np.zeros((10, 2))] * 3, fam, np.eye(2), proj)
