import numpy as np
import pytest

from reclaim import cli, graphs, scm
from reclaim.errors import ConvergenceError, ParameterError


def two_node_example(beta=0.0):
    """The stable 2-cycle example: X1 <- 0.7 X2, X2 <- -0.8 X1."""
    adj = np.array([[False, True], [True, False]])
    weights = np.array([[0.0, -0.8], [0.7, 0.0]])
    return scm.GroundTruthScm(graphs.DirectedGraph(adj), weights, beta=beta)


class TestRescale:
    def test_zero_matrix_unchanged(self):
        assert np.all(scm.rescale_to_contractive(np.zeros((3, 3)), 0.9) == 0)

    def test_large_matrix_hits_target_norm(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(5, 5))
        W *= 2.0 / np.linalg.norm(W, 2)
        out = scm.rescale_to_contractive(W, 0.9)
        assert np.linalg.norm(out, 2) == pytest.approx(0.9, abs=1e-6)

    def test_small_matrix_untouched(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(4, 4))
        W *= 0.5 / np.linalg.norm(W, 2)
        assert np.array_equal(scm.rescale_to_contractive(W, 0.9), W)


class TestMechanism:
    def test_linear_limit(self):
        model = two_node_example(beta=0.0)
        x = np.array([1.0, 2.0])
        assert np.allclose(scm.mechanism(model, x), x @ model.weights)

    def test_tanh_at_zero(self):
        model = two_node_example(beta=1.0)
        assert np.allclose(scm.mechanism(model, np.zeros(2)), 0.0)

    def test_mixed_beta_hand_value(self):
        model = two_node_example(beta=0.5)
        x = np.array([1.0, 1.0])
        wx = np.array([0.7 * 1.0, -0.8 * 1.0])  # W'x for this instance
        expected = 0.5 * wx + 0.5 * np.tanh(wx)
        assert np.allclose(scm.mechanism(model, x), expected)


class TestSolveFixedPoint:
    def test_no_mechanism_returns_noise(self):
        g = graphs.DirectedGraph(np.zeros((3, 3), dtype=bool))
        model = scm.GroundTruthScm(g, np.zeros((3, 3)))
        z = np.array([0.3, -1.0, 2.0])
        assert np.allclose(scm.solve_fixed_point(model, z[None]), z)

    def test_zero_rows_give_zero_rows(self):
        X = scm.solve_fixed_point(two_node_example(), np.zeros((0, 2)),
                                  scm.InterventionRegime((1,)), np.zeros((0, 1)))
        assert X.shape == (0, 2)

    def test_two_node_linear_example(self, monkeypatch):
        monkeypatch.setattr(scm, "FIXED_POINT_TOL", 1e-10)
        model = two_node_example(beta=0.0)
        x = scm.solve_fixed_point(model, np.array([[1.0, 3.0]]))[0]
        assert np.allclose(x, [1.9871795, 1.4102564], atol=1e-7)

    def test_full_intervention_clamps_exactly(self):
        model = two_node_example(beta=1.0)
        regime = scm.InterventionRegime((0, 1), 1.0)
        x = scm.solve_fixed_point(model, np.array([[5.0, 5.0]]), regime,
                                  values=np.array([[0.2, -0.4]]))[0]
        assert np.array_equal(x, [0.2, -0.4])

    def test_matches_direct_linear_solve_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            d = int(rng.integers(2, 11))
            g = graphs.erdos_renyi(d, min(2.0, d - 1), seed=trial)
            model = scm.sample_benchmark_scm(g, seed=1000 + trial, beta=0.0)
            z = rng.normal(size=d)
            targets = tuple(rng.choice(d, size=rng.integers(0, d // 2 + 1), replace=False))
            regime = scm.InterventionRegime(targets, 1.0)
            values = rng.normal(size=len(targets))
            x = scm.solve_fixed_point(model, z[None], regime, values[None])[0]
            free = regime.free_mask(d).astype(float)
            lhs = np.eye(d) - free[:, None] * model.weights.T
            rhs = free * z
            rhs[list(targets)] = values
            assert np.allclose(x, np.linalg.solve(lhs, rhs), atol=1e-8)

    def test_contraction_rate_bound(self):
        model = two_node_example(beta=0.0)
        rate = np.linalg.norm(model.weights, 2)
        z = np.array([1.0, 3.0])
        x = z.copy()
        prev_delta = None
        for _ in range(20):
            nxt = scm.mechanism(model, x) + z
            delta = np.linalg.norm(nxt - x)
            if prev_delta is not None and prev_delta > 1e-12:
                assert delta <= rate * prev_delta + 1e-12
            prev_delta = delta
            x = nxt

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(scm, "FIXED_POINT_MAX_ITER", 50)
        g = graphs.DirectedGraph(np.array([[False, True], [True, False]]))
        diverging = scm.GroundTruthScm.__new__(scm.GroundTruthScm)
        object.__setattr__(diverging, "graph", g)
        object.__setattr__(diverging, "weights", np.array([[0.0, 2.0], [2.0, 0.0]]))
        object.__setattr__(diverging, "beta", 0.0)
        object.__setattr__(diverging, "noise_std", np.ones(2))
        with pytest.raises(ConvergenceError,
                           match=r"stalled at residual \S+ after 50 iterations$"):
            scm.solve_fixed_point(diverging, np.ones((1, 2)))

    def test_an_update_that_rises_past_the_tolerance_does_not_stall(self, monkeypatch,
                                                                      tmp_path):
        # In regime (2,) of this simulation the infinity norm of the 36th update
        # is 8.9e-9 and of the 37th 1.07e-8: a stop after one small update left an
        # iterate whose residual was above the tolerance.
        residuals, solve = [], scm.solve_fixed_point

        def recording(model, Z, regime, values):
            X = solve(model, Z, regime, values)
            # The clamped coordinates equal their values exactly, so their residual is 0.
            free = regime.free_mask(model.d)
            residuals.append(np.max(np.abs(free * (X - (scm.mechanism(model, X) + Z)))))
            return X

        monkeypatch.setattr(scm, "solve_fixed_point", recording)
        cli.run_simulate({"d": 10, "n_per_regime": 500, "seed": 1973748834}, tmp_path)
        assert len(residuals) == 11 and max(residuals) <= scm.FIXED_POINT_TOL


class TestSampleLatents:
    def test_identity_covariance_without_edges(self):
        g = graphs.DirectedGraph(np.zeros((3, 3), dtype=bool))
        model = scm.GroundTruthScm(g, np.zeros((3, 3)))
        X = scm.sample_latents(model, scm.InterventionRegime(), 4000, seed=0)
        cov = np.cov(X.T)
        assert np.max(np.abs(cov - np.eye(3))) < 3 / np.sqrt(4000)

    def test_full_intervention_ignores_mechanism(self):
        model = two_node_example(beta=1.0)
        regime = scm.InterventionRegime((0, 1), 1.0)
        X = scm.sample_latents(model, regime, 4000, seed=1)
        cov = np.cov(X.T)
        assert np.max(np.abs(cov - np.eye(2))) < 3 / np.sqrt(4000)

    def test_linear_observational_covariance(self):
        model = two_node_example(beta=0.0)
        n = 40_000
        X = scm.sample_latents(model, scm.InterventionRegime(), n, seed=2)
        B = np.linalg.inv(np.eye(2) - model.weights.T)
        expected = B @ B.T
        assert np.max(np.abs(np.cov(X.T) - expected)) < 6 / np.sqrt(n)

    def test_intervened_coordinate_variance_and_severed_parents(self):
        model = two_node_example(beta=1.0)
        regime = scm.InterventionRegime((0,), 1.0)
        X = scm.sample_latents(model, regime, 10_000, seed=3)
        assert abs(np.var(X[:, 0], ddof=1) - 1.0) < 0.05
        # X0's parent X1 must decorrelate from X0's own injected value only
        # through the severed edge; direct correlation reflects X0 -> X1.
        # Check instead against fresh parent draws: intervened values are
        # independent of the exogenous noise of other nodes by construction.
        regime_full = scm.InterventionRegime((0, 1), 1.0)
        Xf = scm.sample_latents(model, regime_full, 10_000, seed=4)
        corr = np.corrcoef(Xf[:, 0], Xf[:, 1])[0, 1]
        assert abs(corr) < 3 / np.sqrt(10_000)

    def test_deterministic_given_seed(self):
        model = two_node_example(beta=1.0)
        a = scm.sample_latents(model, scm.InterventionRegime((0,), 1.0), 50, seed=9)
        b = scm.sample_latents(model, scm.InterventionRegime((0,), 1.0), 50, seed=9)
        assert np.array_equal(a, b)


class TestInterventionTypes:
    def test_duplicate_targets_rejected(self):
        with pytest.raises(ParameterError):
            scm.InterventionRegime((1, 1), 1.0)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ParameterError):
            scm.InterventionRegime((0,), 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_noise_std_must_be_positive_and_finite(self, bad):
        with pytest.raises(ParameterError,
                           match=rf"^noise_std must be positive and finite, got {bad!r}$"):
            scm.GroundTruthScm(two_node_example().graph, np.zeros((2, 2)),
                               noise_std=np.array([1.0, bad]))

    def test_single_node_family_covers_all(self):
        fam = scm.single_node_family(4)
        assert len(fam) == 5
        assert [r.targets for r in fam.regimes] == [(), (0,), (1,), (2,), (3,)]


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        fam = scm.single_node_family(2)
        datasets = [np.random.default_rng(k).normal(size=(5, 2)) for k in range(len(fam))]
        scm.write_dataset(tmp_path, datasets, fam)
        loaded, fam2 = scm.read_dataset(tmp_path)
        assert len(fam2) == len(fam)
        assert fam2.regimes[1].targets == (0,)
        for a, b in zip(datasets, loaded):
            assert np.array_equal(a, b)  # %.17g round-trips a float exactly

    def test_empty_dataset_keeps_header(self, tmp_path):
        fam = scm.InterventionFamily((scm.InterventionRegime(),))
        scm.write_dataset(tmp_path, [np.zeros((0, 3))], fam)
        text = (tmp_path / "regime_0.csv").read_text()
        assert text.splitlines()[0] == "y0,y1,y2"
        loaded, _ = scm.read_dataset(tmp_path)
        assert loaded[0].shape == (0, 3)

    def test_a_header_and_blank_lines_load_as_no_rows(self, tmp_path):
        fam = scm.InterventionFamily((scm.InterventionRegime(), scm.InterventionRegime((0,))))
        scm.write_dataset(tmp_path, [np.ones((2, 3)), np.zeros((0, 3))], fam)
        (tmp_path / "regime_1.csv").write_text("y0,y1,y2\n\n  \n\n")
        assert scm.read_regime_csv(tmp_path / "regime_1.csv").shape == (0, 3)
        loaded, _ = scm.read_dataset(tmp_path)
        assert [data.shape for data in loaded] == [(2, 3), (0, 3)]

    @pytest.mark.parametrize("data", [
        np.array([[-0.0, 5e-324, -5e-324], [1.7976931348623157e308, -1.7976931348623157e308, 1 / 3],
                  [np.nan, np.inf, -np.inf], [0.1, -2.5e-300, 123456789.0]]),
        np.zeros((0, 3)),
        np.zeros((0, 1)),
        np.array([[1 / 3], [-0.0], [2.0 ** 60]]),
        np.random.default_rng(0).normal(size=(scm._CSV_BLOCK_ROWS, 1)),
        np.random.default_rng(1).normal(scale=1e5, size=(2 * scm._CSV_BLOCK_ROWS + 1, 2)),
    ], ids=["extremes", "no-rows", "no-rows-p1", "p1", "one-full-block", "past-two-blocks"])
    def test_csv_bytes_equal_numpy_savetxt(self, tmp_path, data):
        header = ",".join(f"y{j}" for j in range(data.shape[1]))
        np.savetxt(tmp_path / "oracle.csv", data, delimiter=",", header=header, comments="",
                   fmt="%.17g")
        scm.write_regime_csv(tmp_path / "regime.csv", data)
        assert (tmp_path / "regime.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_an_interrupted_write_leaves_the_earlier_files_whole(self, tmp_path, monkeypatch):
        fam = scm.single_node_family(2)
        scm.write_dataset(tmp_path, [np.full((6, 2), k) for k in range(len(fam))], fam)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        class Interrupted(Exception):
            pass

        class CutAfterOneBlock:
            """regime_1's file: the header and one block are written, then a write raises."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if self.writes > 2:
                    raise Interrupted
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        def cut_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return CutAfterOneBlock(fh) if path.name == "regime_1.csv.tmp" else fh

        monkeypatch.setattr(scm, "_CSV_BLOCK_ROWS", 2)
        monkeypatch.setattr(scm, "open", cut_open, raising=False)
        with pytest.raises(Interrupted):
            scm.write_dataset(tmp_path, [np.full((6, 2), -1.0)] * len(fam), fam)
        after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        # family.json, the set's commit marker, is gone, and no .tmp file is left behind.
        assert sorted(after) == sorted(set(before) - {"family.json"})
        assert after["regime_0.csv"] != before["regime_0.csv"]  # written before the cut
        for name in ("regime_1.csv", "regime_2.csv"):
            assert after[name] == before[name]
        with pytest.raises(FileNotFoundError):  # the mixed set does not load
            scm.read_dataset(tmp_path)
