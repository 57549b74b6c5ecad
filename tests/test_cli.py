import json

import numpy as np
import pytest

from reclaim import cli, em, graphs, measurement, model, noise, scm
from reclaim.errors import ConvergenceError, EStepError

TINY_EM = {"em_rounds": 1, "m_steps_per_round": 2, "batch_size": 16,
           "n_proposals": 8, "n_resample": 2}


@pytest.mark.parametrize("exc", [EStepError("12/40 observations degenerate (> 5%)"),
                                 ConvergenceError("model fixed point stalled")],
                         ids=lambda e: type(e).__name__)
def test_numerical_failure_exits_5_with_one_line_error(tmp_path, monkeypatch, capsys, exc):
    cli.run_simulate({"d": 3, "n_per_regime": 5}, tmp_path / "data")
    config = tmp_path / "em.json"
    config.write_text(json.dumps({"em_rounds": 1}))

    def failing_fit(*args, **kwargs):
        raise exc

    monkeypatch.setattr(em, "fit", failing_fit)
    code = cli.main(["fit", "--data-dir", str(tmp_path / "data"), "--config", str(config)])
    assert code == cli.EXIT_NUMERICAL == 5
    err = capsys.readouterr().err
    assert err == f"error: {exc}\n"


def test_sweep_cache_is_recomputed_when_the_seed_changes(tmp_path, monkeypatch):
    fits = []
    run_fit = cli.run_fit

    def counting_fit(data_dir, em_config, *args, **kwargs):
        fits.append(em_config["seed"])
        return run_fit(data_dir, em_config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_fit", counting_fit)
    monkeypatch.delenv("RECLAIM_SEED", raising=False)
    config = {"sweep": "beta", "grid": [1.0], "n_trials": 1, "out_dir": str(tmp_path),
              "base": {"d": 3, "n_per_regime": 20, "seed": 1, "em": TINY_EM}}

    first = cli.run_sweep(config)
    assert cli.run_sweep(config) == first and len(fits) == 1  # same inputs: cached

    config["base"]["seed"] = 2
    cli.run_sweep(config)
    assert len(fits) == 2 and fits[1] != fits[0]  # new seed: recomputed
    assert len(list(tmp_path.glob("cell_beta_1.0_0_*.json"))) == 2

    config["base"]["em"] = {**TINY_EM, "m_steps_per_round": 3}
    cli.run_sweep(config)
    assert len(fits) == 3  # new EM config: recomputed


def test_sweep_trials_fit_with_their_own_seeds_under_reclaim_seed(tmp_path, monkeypatch):
    sim_seeds, fit_seeds = [], []
    run_simulate = cli.run_simulate

    def recording_simulate(config, out_dir):
        sim_seeds.append(config["seed"])
        return run_simulate(config, out_dir)

    def stub_fit(datasets, family, spec, cfg, **kwargs):
        fit_seeds.append(cfg.seed)
        theta = model.init_params(datasets[0].shape[1])
        return em.FitReport(edge_scores=model.edge_scores(theta), theta=theta, phi_hat=None,
                            diagnostics={"rounds_completed": 0, "trace": []})

    monkeypatch.setattr(cli, "run_simulate", recording_simulate)
    monkeypatch.setattr(em, "fit", stub_fit)
    monkeypatch.setenv("RECLAIM_SEED", "5")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweep": "beta", "grid": [1.0], "n_trials": 2,
                                  "out_dir": str(tmp_path / "out"),
                                  "base": {"d": 3, "n_per_regime": 5, "em": TINY_EM}}))

    assert cli.main(["sweep", "--config", str(config)]) == cli.EXIT_OK
    expected = [int(np.random.SeedSequence((5, trial)).generate_state(1)[0]) for trial in (0, 1)]
    assert sim_seeds == expected  # RECLAIM_SEED still sets the sweep's base seed
    assert fit_seeds == sim_seeds and fit_seeds[0] != fit_seeds[1]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, n_cells, workers", [(64, 2, [2]), (2, 3, [2]), (1, 3, [])])
def test_sweep_pool_has_no_more_workers_than_cells(tmp_path, monkeypatch, jobs, n_cells,
                                                   workers):
    monkeypatch.setattr(_SerialPool, "max_workers", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli, "_run_cell", lambda task: {
        "sweep_param": task[1], "value": task[2], "trial": task[3], "auprc": 0.5, "shd": 1,
        "seconds": 0.0})
    config = tmp_path / "sweep.json"
    grid = [0.5 * (k + 1) for k in range(n_cells)]
    config.write_text(json.dumps({"sweep": "beta", "grid": grid, "out_dir": str(tmp_path / "out"),
                                  "base": {"d": 3}}))
    assert cli.main(["sweep", "--config", str(config), "--jobs", str(jobs)]) == cli.EXIT_OK
    assert _SerialPool.max_workers == workers
    assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 1 + n_cells


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_with_fewer_than_one_job_exits_2_before_any_output(tmp_path, capsys, jobs):
    config, out = tmp_path / "sweep.json", tmp_path / "out"
    config.write_text(json.dumps({"sweep": "beta", "grid": [0.5], "out_dir": str(out),
                                  "base": {"d": 3, "n_per_regime": 5}}))
    assert cli.main(["sweep", "--config", str(config), "--jobs", str(jobs)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: jobs must be >= 1, got {jobs}\n")
    assert not out.exists()


def test_unknown_em_config_key_exits_2(tmp_path, capsys):
    cli.run_simulate({"d": 3, "n_per_regime": 5}, tmp_path / "data")
    config = tmp_path / "em.json"
    config.write_text(json.dumps({"em_rounds": 1, "logdet_mode": "unbiased"}))
    code = cli.main(["fit", "--data-dir", str(tmp_path / "data"), "--config", str(config)])
    assert code == cli.EXIT_CONFIG == 2
    assert capsys.readouterr().err == "error: unknown EM config keys: logdet_mode\n"


def test_fit_with_missing_data_dir_exits_3(tmp_path, capsys):
    config = tmp_path / "em.json"
    config.write_text(json.dumps(TINY_EM))
    missing = tmp_path / "missing"
    code = cli.main(["fit", "--data-dir", str(missing), "--config", str(config)])
    assert code == cli.EXIT_IO == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert not missing.exists()  # a failed fit does not create the directory it read


def test_estimate_noise_without_coverage_of_a_node_exits_4(tmp_path, capsys):
    cli.run_simulate({"d": 3, "n_per_regime": 20}, tmp_path / "full")
    datasets, family = scm.read_dataset(tmp_path / "full")
    # Drop the regime that clamps node 2: no regime targets it any more.
    keep = [k for k, r in enumerate(family.regimes) if 2 not in r.targets]
    scm.write_dataset(tmp_path / "data", [datasets[k] for k in keep],
                      scm.InterventionFamily(tuple(family.regimes[k] for k in keep)))
    channel = (tmp_path / "full" / "channel.json").read_text()
    (tmp_path / "data" / "channel.json").write_text(channel)
    code = cli.main(["estimate-noise", "--data-dir", str(tmp_path / "data")])
    assert code == cli.EXIT_IDENTIFIABILITY == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[2]" in err and err.count("\n") == 1


def test_em_config_takes_its_fields_and_leaves_use_true_noise_to_the_fit():
    cfg = cli._em_config_from_dict({"em_rounds": 3, "seed": 7, "use_true_noise": True})
    assert cfg == em.EmConfig(em_rounds=3, seed=7)


@pytest.mark.parametrize("use_true_noise", [False, True])
def test_fit_uses_channel_json_noise_only_under_use_true_noise(tmp_path, use_true_noise):
    data = tmp_path / "data"
    cli.run_simulate({"d": 3, "n_per_regime": 50}, data)
    report = cli.run_fit(data, {**TINY_EM, "em_rounds": 0, "use_true_noise": use_true_noise},
                         tmp_path / "out")
    cli.run_estimate_noise(data)
    want = "channel.json" if use_true_noise else "phi_hat.json"
    assert measurement.channel_to_json(report.phi_hat) == (data / want).read_text()


def test_em_config_names_every_unknown_key():
    with pytest.raises(cli.ConfigError, match=r"^unknown EM config keys: em_round, logdet$"):
        cli._em_config_from_dict({"logdet": {"n_probes": 2}, "em_round": 3, "seed": 1})


def _fit_argv(tmp_path, data, out, **config):
    path = tmp_path / "em.json"
    path.write_text(json.dumps({**TINY_EM, **config}))
    return ["fit", "--data-dir", str(data), "--config", str(path), "--out-dir", str(out)]


@pytest.mark.parametrize("key, value, message", [
    ("em_rounds", "2", "em_rounds must be an integer, got '2'"),
    ("learning_rate", "0.01", "learning_rate must be a real number, got '0.01'"),
    ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
    ("init_weight_scale", -0.1, "init_weight_scale must be >= 0"),
    ("elbo_proposals", 0, "elbo_proposals must be >= 2"),
    ("elbo_proposals", 1, "elbo_proposals must be >= 2"),
    ("skip_tolerance", -0.5, "skip_tolerance must lie in [0, 1)"),
    ("skip_tolerance", 1.0, "skip_tolerance must lie in [0, 1)"),
    ("elbo_every", -1, "elbo_every must be >= 0"),
    ("hidden", 0, "hidden must be >= 1"),
])
def test_em_config_field_of_the_wrong_type_exits_2(tmp_path, capsys, key, value, message):
    cli.run_simulate({"d": 3, "n_per_regime": 5}, tmp_path / "data")
    code = cli.main(_fit_argv(tmp_path, tmp_path / "data", tmp_path / "out", **{key: value}))
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, config, message", [
    ("simulate", {"d": 3, "n_per_regime": 5, "seed": "one"}, "seed must be an integer, got 'one'"),
    ("simulate", {"n_per_regime": 5}, "config has no 'd'"),
    ("fit", {**TINY_EM, "seed": "one"}, "seed must be an integer, got 'one'"),
    ("sweep", {"sweep": "beta", "grid": [0.5], "base": {"d": 3, "seed": 2.5}},
     "seed must be an integer, got 2.5"),
], ids=["simulate-seed", "simulate-no-d", "fit-seed", "sweep-seed"])
def test_config_without_d_or_with_a_non_integer_seed_exits_2(tmp_path, capsys, command,
                                                             config, message):
    path, out = tmp_path / "config.json", tmp_path / "out"
    argv = {"simulate": ["simulate", "--out-dir", str(out)],
            "fit": ["fit", "--data-dir", str(tmp_path / "data"), "--out-dir", str(out)],
            "sweep": ["sweep"]}[command]
    if command == "sweep":
        config = {**config, "out_dir": str(out)}
    path.write_text(json.dumps(config))
    assert cli.main([*argv, "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("sweep", {"sweep": "beta", "grid": ["a"]}, "beta grid value must be a real number, got 'a'"),
    ("sweep", {"sweep": "n_nodes", "grid": [3, 2.5]},
     "n_nodes grid value must be an integer, got 2.5"),
    ("sweep", {"sweep": "beta", "grid": 0.5}, "sweep grid must be a non-empty list"),
    ("simulate", {"channel": {"type": "gan", "sigma_min": "x"}},
     "sigma_min must be a real number, got 'x'"),
    ("simulate", {"channel": {"type": "gan", "sigma_max": 0}}, "sigma_max must be positive, got 0.0"),
    ("simulate", {"weight_range": "ab"}, "weight_range must be two numbers [lo, hi], got 'ab'"),
    ("simulate", {"weight_range": [0.9, 0.2]}, "weight_range must have lo <= hi, got [0.9, 0.2]"),
    ("simulate", {"weight_range": [0.2, "x"]}, "weight_range must be a real number, got 'x'"),
    ("simulate", {"sigma_z": "x"}, "sigma_z must be a real number, got 'x'"),
    ("simulate", {"channel": {"type": "linear", "p": 4, "mixing_var": -1}},
     "mixing_var must be positive, got -1.0"),
    ("simulate", {"n_per_regime": -1}, "n_per_regime must be >= 0, got -1"),
], ids=["grid-string", "grid-non-integer", "grid-not-a-list", "sigma_min", "sigma_max",
        "weight_range-string", "weight_range-reversed", "weight_range-entry", "sigma_z",
        "mixing_var", "n_per_regime"])
def test_bad_simulate_or_sweep_number_exits_2_before_any_output(tmp_path, capsys, command,
                                                                config, message):
    path, out = tmp_path / "config.json", tmp_path / "out"
    if command == "sweep":
        config = {**config, "base": {"d": 3, "n_per_regime": 5}, "out_dir": str(out)}
        argv = ["sweep"]
    else:
        config = {"d": 3, "n_per_regime": 5, **config}
        argv = ["simulate", "--out-dir", str(out)]
    path.write_text(json.dumps(config))
    assert cli.main([*argv, "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "estimate-noise"])
def test_regimes_of_one_observation_exit_4_naming_the_nodes(tmp_path, capsys, command):
    """One row per regime has no sample variance: the noise is not identifiable."""
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 1}, data)
    argv = _fit_argv(tmp_path, data, out) if command == "fit" else \
        ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")]
    assert cli.main(argv) == cli.EXIT_IDENTIFIABILITY
    err = capsys.readouterr().err
    assert err.startswith("error: nodes [0, 1, 2] ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "fit-true-noise", "estimate-noise"])
def test_rank_deficient_mixing_exits_2_before_any_output(tmp_path, capsys, command):
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 20, "channel": {"type": "linear", "p": 4}}, data)
    spec = json.loads((data / "channel.json").read_text())
    A = np.asarray(spec["A"])
    A[:, 2] = A[:, 0] + A[:, 1]
    (data / "channel.json").write_text(json.dumps({**spec, "A": A.tolist()}))
    if command == "estimate-noise":
        argv = ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")]
    else:
        argv = _fit_argv(tmp_path, data, out, use_true_noise=command == "fit-true-noise")
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: mixing matrix is rank deficient") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('{"sigma_sq": [0.1, 0.2, 0.3]}', "error: unknown channel type None"),
    ('{"type": "gan", "sigma_sq": [0.1, ', "error: malformed JSON in "),
], ids=["no-type", "malformed-json"])
@pytest.mark.parametrize("command", ["fit", "estimate-noise"])
def test_bad_channel_json_exits_2(tmp_path, capsys, text, message, command):
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    (data / "channel.json").write_text(text)
    argv = _fit_argv(tmp_path, data, out) if command == "fit" else \
        ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_evaluate_against_a_truth_graph_with_no_edges_exits_2(tmp_path, capsys):
    report, truth = tmp_path / "report.json", tmp_path / "truth_graph.json"
    scores = np.full((3, 3), 0.5)
    np.fill_diagonal(scores, 0.0)
    report.write_text(json.dumps({"edge_scores": scores.tolist()}))
    truth.write_text(graphs.graph_to_json(graphs.DirectedGraph(np.zeros((3, 3), dtype=bool))))
    code = cli.main(["evaluate", "--report", str(report), "--truth", str(truth)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: truth graph has no edges; AUPRC is undefined\n"



@pytest.mark.parametrize("truth_text, report_text, message", [
    ('{"d": 3, "edges": [[0, 1]', None, "error: malformed truth graph {truth}: Expecting"),
    ('{"edges": [[0, 1]]}', None, "error: malformed truth graph {truth}: no key 'd'"),
    ('{"d": 3}', None, "error: malformed truth graph {truth}: no key 'edges'"),
    ('{"d": 3, "edges": [[0, 3]]}', None,
     "error: malformed truth graph {truth}: edge [0, 3] is not a pair of node indices"),
    ('{"d": 3, "edges": [[0, -1]]}', None,
     "error: malformed truth graph {truth}: edge [0, -1] is not a pair of node indices"),
    (None, '{"scores": []}', "error: malformed report {report}: no key 'edge_scores'"),
    (None, '{"edge_scores": ', "error: malformed report {report}: Expecting value"),
], ids=["truth-not-json", "truth-without-d", "truth-without-edges", "edge-out-of-range",
        "negative-edge-index", "report-without-edge-scores", "report-not-json"])
def test_evaluate_with_a_malformed_truth_graph_or_report_exits_2(tmp_path, capsys, truth_text,
                                                                 report_text, message):
    report, truth = tmp_path / "report.json", tmp_path / "truth_graph.json"
    scores = np.full((3, 3), 0.5)
    np.fill_diagonal(scores, 0.0)
    report.write_text(report_text or json.dumps({"edge_scores": scores.tolist()}))
    truth.write_text(truth_text or '{"d": 3, "edges": [[0, 1]]}')
    code = cli.main(["evaluate", "--report", str(report), "--truth", str(truth)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message.format(truth=truth, report=report)) and err.count("\n") == 1


@pytest.mark.parametrize("missing", ["report", "truth"])
def test_evaluate_with_a_missing_truth_graph_or_report_exits_3(tmp_path, capsys, missing):
    paths = {"report": tmp_path / "report.json", "truth": tmp_path / "truth_graph.json"}
    paths["report"].write_text(json.dumps({"edge_scores": np.zeros((3, 3)).tolist()}))
    paths["truth"].write_text('{"d": 3, "edges": [[0, 1]]}')
    paths[missing].unlink()
    code = cli.main(["evaluate", "--report", str(paths["report"]), "--truth", str(paths["truth"])])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1


def _nan_in_one_cell(data):
    values = scm.read_regime_csv(data / "regime_1.csv")
    values[3, 2] = np.nan
    scm.write_regime_csv(data / "regime_1.csv", values)


def _one_column_fewer(data):
    scm.write_regime_csv(data / "regime_2.csv", scm.read_regime_csv(data / "regime_2.csv")[:, :3])


def _mixing_one_row_short(data):
    spec = json.loads((data / "channel.json").read_text())
    (data / "channel.json").write_text(json.dumps({**spec, "A": spec["A"][:3]}))


@pytest.mark.parametrize("corrupt, message", [
    (_nan_in_one_cell, "malformed regime data in {data}: regime_1.csv holds a non-finite value"),
    (_one_column_fewer, "malformed regime data in {data}: regime_2.csv has 3 columns, "
                        "regime_0.csv 4"),
    (_mixing_one_row_short, "the mixing matrix has 3 rows, the regime data 4 columns"),
], ids=["nan-cell", "csv-one-column-fewer", "mixing-one-row-short"])
@pytest.mark.parametrize("command", ["fit", "estimate-noise"])
def test_malformed_regime_data_exits_2_before_any_output(tmp_path, capsys, corrupt, message,
                                                         command):
    """A linear d=3, p=4 data directory with one defect."""
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 20, "channel": {"type": "linear", "p": 4}}, data)
    corrupt(data)
    argv = _fit_argv(tmp_path, data, out) if command == "fit" else \
        ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message.format(data=data)}\n"
    assert not out.exists()


def test_a_pinned_channel_of_another_width_exits_2(tmp_path, capsys):
    """use_true_noise pins channel.json's variances: four of them for three columns."""
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 20}, data)
    spec = json.loads((data / "channel.json").read_text())
    (data / "channel.json").write_text(json.dumps({**spec, "sigma_sq": spec["sigma_sq"] + [0.2]}))
    assert cli.main(_fit_argv(tmp_path, data, out, use_true_noise=True)) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: the channel has p=4 measurements, the regime data 3 columns\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def binding_linear_data(tmp_path_factory):
    """A low-noise, small-p linear data set whose noise system has binding constraints."""
    data = tmp_path_factory.mktemp("binding") / "data"
    cli.run_simulate({"d": 10, "n_per_regime": 200, "seed": 4,
                      "channel": {"type": "linear", "p": 12, "sigma_min": 0.01,
                                  "sigma_max": 0.31}}, data)
    return data


def test_estimate_noise_solves_a_system_with_binding_constraints_exactly(
        binding_linear_data, tmp_path, monkeypatch):
    """The noise estimate is the floored exact NNLS solution of the weighted system."""
    systems, solve = [], noise.nnls_projected_gradient

    def recorded(design, rhs):
        systems.append((design, rhs, solve(design, rhs)))
        return systems[-1][2]

    monkeypatch.setattr(noise, "nnls_projected_gradient", recorded)
    out = tmp_path / "phi_hat.json"
    assert cli.main(["estimate-noise", "--data-dir", str(binding_linear_data),
                     "--out", str(out)]) == cli.EXIT_OK
    [(T, b, x)] = systems
    assert np.sum(x == 0.0) > 0  # the constraints bind
    grad = T.T @ (T @ x - b)
    assert np.max(np.abs(x - np.maximum(x - grad, 0.0))) <= 1e-10 * np.max(np.abs(T.T @ b))
    sigma_sq = json.loads(out.read_text())["sigma_sq"]
    assert np.array_equal(sigma_sq, np.maximum(x, noise.VARIANCE_FLOOR))


@pytest.mark.parametrize("text, message", [
    ('{"regimes": [', "Expecting value"),
    ('{"families": []}', "no key 'regimes'"),
    ('{"regimes": [{"targets": [0]}]}', "no key 'sigma_I_sq'"),
], ids=["not-json", "without-regimes", "regime-without-sigma_I_sq"])
@pytest.mark.parametrize("command", ["fit", "estimate-noise"])
def test_malformed_family_json_exits_2_from_fit_and_estimate_noise(tmp_path, capsys, text,
                                                                    message, command):
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    (data / "family.json").write_text(text)
    argv = _fit_argv(tmp_path, data, out) if command == "fit" else \
        ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed regime data in {data}: ")
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("targets", [3], "regime 1 targets [3], not all nodes in [0, 3)"),
    ("targets", [-1], "regime 1 targets [-1], not all nodes in [0, 3)"),
    ("targets", [0.5], "intervention targets must be integers, got [0.5]"),
    ("targets", [True], "intervention targets must be integers, got [True]"),
    ("mean", "x", "intervention mean must be a finite real number, got 'x'"),
    ("mean", float("nan"), "intervention mean must be a finite real number, got nan"),
    ("sigma_I_sq", float("nan"), "intervention variance must be a finite real number, got nan"),
    ("sigma_I_sq", float("inf"), "intervention variance must be a finite real number, got inf"),
], ids=["target-d", "target-negative", "target-fraction", "target-bool", "mean-string",
        "mean-nan", "variance-nan", "variance-inf"])
@pytest.mark.parametrize("command", ["fit", "fit-true-noise", "estimate-noise"])
def test_a_regime_that_is_not_a_regime_exits_2(tmp_path, capsys, key, value, message,
                                               command):
    """Regime 1 of a d=3 family, whose target is node 0, gets a bad field."""
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    family = json.loads((data / "family.json").read_text())
    family["regimes"][1][key] = value
    (data / "family.json").write_text(json.dumps(family))
    argv = ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")] \
        if command == "estimate-noise" else \
        _fit_argv(tmp_path, data, out, use_true_noise=command == "fit-true-noise")
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "include_observational", "false"),
    ("simulate", "include_observational", 0),
    ("fit", "use_true_noise", "false"),
    ("fit", "use_true_noise", 1),
])
def test_a_config_flag_that_is_not_a_json_boolean_exits_2(tmp_path, capsys, command, key,
                                                          value):
    data, out = tmp_path / "data", tmp_path / "out"
    if command == "simulate":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d": 3, "n_per_regime": 5, key: value}))
        argv = ["simulate", "--config", str(path), "--out-dir", str(out)]
    else:
        cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
        argv = _fit_argv(tmp_path, data, out, **{key: value})
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {key} must be true or false, got {value!r}\n"
    assert not out.exists()


def _resumable_fit(tmp_path, monkeypatch, **config):
    """Simulated data and a function ``fit(out, em_rounds, *flags)`` that runs ``reclaim fit``."""
    monkeypatch.delenv("RECLAIM_SEED", raising=False)
    data = tmp_path / "data"
    cli.run_simulate({"d": 3, "n_per_regime": 20, "seed": 2}, data)
    config = {"n_proposals": 32, "elbo_every": 2, "seed": 4, **config}

    def fit(out, em_rounds, *flags):
        argv = _fit_argv(tmp_path, data, tmp_path / out, em_rounds=em_rounds, **config)
        assert cli.main([*argv, *flags]) == cli.EXIT_OK
    return fit


def _same_files(tmp_path, names=("report.json", "checkpoint.json", "trace.csv")):
    for name in names:
        assert (tmp_path / "resumed" / name).read_bytes() == \
            (tmp_path / "straight" / name).read_bytes()


@pytest.mark.parametrize("tol, first, em_rounds, completed, converged", [
    (1e-12, 1, 3, 3, False),
    (0.1, 30, 30, 2, True),
    (0.1, 2, 2, 2, True),
], ids=["interrupted", "converged", "finished"])
def test_resumed_cli_fit_writes_the_straight_fits_files_byte_for_byte(
        tmp_path, monkeypatch, tol, first, em_rounds, completed, converged):
    """A resumed fit runs only the rounds the straight fit has and the checkpoint lacks."""
    fit = _resumable_fit(tmp_path, monkeypatch, convergence_tol=tol)
    fit("straight", em_rounds)
    fit("resumed", first)
    fit("resumed", em_rounds, "--resume")
    diagnostics = json.loads((tmp_path / "resumed" / "report.json").read_text())["diagnostics"]
    assert diagnostics["rounds_completed"] == completed
    assert diagnostics["converged"] is converged
    _same_files(tmp_path)


def test_a_checkpoint_with_round_count_and_q_history_resumes_like_a_straight_fit(
        tmp_path, monkeypatch):
    """Older checkpoints also hold "completed_rounds" and "q_history"; both repeat the trace."""
    fit = _resumable_fit(tmp_path, monkeypatch, convergence_tol=1e-12)
    fit("straight", 3)
    fit("resumed", 1)
    path = tmp_path / "resumed" / "checkpoint.json"
    state = json.loads(path.read_text())
    state["completed_rounds"] = len(state["trace"])
    state["q_history"] = [entry["q_value"] for entry in state["trace"]]
    path.write_text(json.dumps(state, sort_keys=True))
    fit("resumed", 3, "--resume")
    _same_files(tmp_path, ("report.json", "trace.csv"))


_PARAMS = json.dumps(model.params_to_dict(model.init_params(3)))


@pytest.mark.parametrize("text, message", [
    ('{"params": ', "Expecting value"),
    ('{"trace": []}', 'a checkpoint is an object with "params" and "trace"'),
    ('{"params": ' + _PARAMS + '}', 'a checkpoint is an object with "params" and "trace"'),
    ('{"params": {}, "trace": []}', "no key 'w_in'"),
    ('{"params": ' + _PARAMS + ', "trace": [{"round": 0}]}',
     "a checkpoint's trace is a list of round records"),
    ('[1, 2]', 'a checkpoint is an object with "params" and "trace"'),
], ids=["truncated", "no-params", "no-trace", "params-without-w_in", "trace-of-partial-records",
        "not-an-object"])
def test_resume_from_a_malformed_checkpoint_exits_2(tmp_path, capsys, text, message):
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 20}, data)
    out.mkdir()
    (out / "checkpoint.json").write_text(text)
    assert cli.main([*_fit_argv(tmp_path, data, out), "--resume"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed checkpoint {out / 'checkpoint.json'}: ")
    assert message in err and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json"]


@pytest.mark.parametrize("em_rounds", [1, 2], ids=["no-round-left", "a-round-left"])
def test_resume_from_a_checkpoint_of_another_dimension_exits_2(tmp_path, monkeypatch, capsys,
                                                               em_rounds):
    """A d=3 fit's checkpoint, finished after one round, resumed on d=4 data."""
    fit = _resumable_fit(tmp_path, monkeypatch)
    fit("out", 1)
    checkpoint = (tmp_path / "out" / "checkpoint.json").read_bytes()
    other = tmp_path / "other"
    cli.run_simulate({"d": 4, "n_per_regime": 20, "seed": 2}, other)
    argv = _fit_argv(tmp_path, other, tmp_path / "out", em_rounds=em_rounds)
    assert cli.main([*argv, "--resume"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: initial parameters are for d=3 nodes, the data has d=4\n"
    assert (tmp_path / "out" / "checkpoint.json").read_bytes() == checkpoint
