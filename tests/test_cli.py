import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reclaim import cli, em, graphs, measurement, model, noise, scm
from reclaim.errors import ConvergenceError, EStepError, ParameterError, RankError

TINY_EM = {"em_rounds": 1, "m_steps_per_round": 2, "batch_size": 16,
           "n_proposals": 8, "n_resample": 2}


def test_importing_the_cli_loads_no_scipy():
    """scipy was most of every command's start-up time; only the noise estimator's
    NNLS imports it, and only when it runs."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import reclaim.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert run.stdout == "[]\n"


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
    config = {"grid": [{"beta": 1.0}], "n_trials": 1, "out_dir": str(tmp_path),
              "base": {"d": 3, "n_per_regime": 20, "seed": 1, "em": TINY_EM}}

    first = cli.run_sweep(config)
    assert cli.run_sweep(config) == first and len(fits) == 1  # same inputs: cached

    config["base"]["seed"] = 2
    cli.run_sweep(config)
    assert len(fits) == 2 and fits[1] != fits[0]  # new seed: recomputed
    assert len(list(tmp_path.glob("cell_0_0_*.json"))) == 2

    config["base"]["em"] = {**TINY_EM, "m_steps_per_round": 3}
    cli.run_sweep(config)
    assert len(fits) == 3  # new EM config: recomputed


def test_sweep_cache_is_recomputed_when_an_em_default_changes(tmp_path, monkeypatch):
    """The cell config as written sets no n_proposals; once the default changes,
    a rerun into the same out_dir fits again rather than read the old cell."""
    proposals = []
    run_fit = cli.run_fit

    def recording_fit(data_dir, em_config, *args, **kwargs):
        proposals.append(cli._em_config_from_dict(em_config).n_proposals)
        return run_fit(data_dir, em_config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_fit", recording_fit)
    em_cfg = {k: v for k, v in TINY_EM.items() if k != "n_proposals"}
    config = {"grid": [{"em": {}}], "n_trials": 1, "out_dir": str(tmp_path),
              "base": {"d": 3, "n_per_regime": 20, "seed": 1, "em": em_cfg}}
    default = em.EmConfig().n_proposals
    cli.run_sweep(config)
    assert proposals == [default]

    @dataclasses.dataclass
    class MoreProposals(em.EmConfig):
        n_proposals: int = 2 * default

    monkeypatch.setattr(em, "EmConfig", MoreProposals)
    second = cli.run_sweep(config)
    assert proposals == [default, 2 * default]  # refitted at the new default
    assert len(list(tmp_path.glob("cell_0_0_*.json"))) == 2
    assert cli.run_sweep(config) == second and len(proposals) == 2  # same default: cached


def test_sweep_trials_fit_with_their_own_seeds_under_reclaim_seed(tmp_path, monkeypatch):
    sim_seeds, fit_seeds = [], []
    run_simulate = cli.run_simulate

    def recording_simulate(config, out_dir):
        sim_seeds.append(config["seed"])
        return run_simulate(config, out_dir)

    def stub_fit(datasets, family, spec, cfg, **kwargs):
        fit_seeds.append(cfg.seed)
        theta = model.init_params(datasets[0].shape[1])
        phi_hat = measurement.GaussianAdditiveChannel(np.ones(theta.d))
        return em.FitReport(edge_scores=model.edge_scores(theta), theta=theta, phi_hat=phi_hat,
                            diagnostics={"rounds_completed": 0, "trace": []})

    monkeypatch.setattr(cli, "run_simulate", recording_simulate)
    monkeypatch.setattr(em, "fit", stub_fit)
    monkeypatch.setenv("RECLAIM_SEED", "5")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"grid": [{"beta": 1.0}], "n_trials": 2,
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
        "cell": task[0], "trial": task[4], "auprc": 0.5, "shd": 1, "seconds": 0.0})
    config = tmp_path / "sweep.json"
    grid = [{"beta": 0.25 * (k + 1)} for k in range(n_cells)]
    config.write_text(json.dumps({"grid": grid, "out_dir": str(tmp_path / "out"),
                                  "base": {"d": 3}}))
    assert cli.main(["sweep", "--config", str(config), "--jobs", str(jobs)]) == cli.EXIT_OK
    assert _SerialPool.max_workers == workers
    assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 1 + n_cells


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_with_fewer_than_one_job_exits_2_before_any_output(tmp_path, capsys, jobs):
    config, out = tmp_path / "sweep.json", tmp_path / "out"
    config.write_text(json.dumps({"grid": [{"beta": 0.5}], "out_dir": str(out),
                                  "base": {"d": 3, "n_per_regime": 5}}))
    assert cli.main(["sweep", "--config", str(config), "--jobs", str(jobs)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: jobs must be >= 1, got {jobs}\n")
    assert not out.exists()


_SWEEP_BASE = {"d": 4, "n_per_regime": 5, "seed": 1, "em": TINY_EM,
               "channel": {"type": "linear", "p": 6, "mixing_var": 2.0}}


def _sweep_tasks(tmp_path, monkeypatch, grid, n_trials=1):
    """The tasks ``run_sweep`` hands its cells, which record nothing here."""
    tasks = []
    monkeypatch.setattr(cli, "_run_cell", lambda task: tasks.append(task) or {
        "cell": task[0], "trial": task[4], "auprc": 0.5, "shd": 1, "seconds": 0.0})
    cli.run_sweep({"base": _SWEEP_BASE, "grid": grid, "n_trials": n_trials,
                   "out_dir": str(tmp_path / "out")})
    return tasks


@pytest.mark.parametrize("entry, merged", [
    ({"d": 5}, {"d": 5}),
    ({"beta": 0.5}, {"beta": 0.5}),
    ({"graph_density": 1.5}, {"graph_density": 1.5}),
    ({"channel": {"p": 8}}, {"channel": {**_SWEEP_BASE["channel"], "p": 8}}),
    ({"channel": {"sigma_min": 0.5, "sigma_max": 0.8}},
     {"channel": {**_SWEEP_BASE["channel"], "sigma_min": 0.5, "sigma_max": 0.8}}),
], ids=["n_nodes", "beta", "density", "n_measurements", "sigma_min"])
def test_each_former_sweep_kind_is_a_cell_merged_over_the_base(tmp_path, monkeypatch, entry,
                                                                merged):
    [(index, override, sim_cfg, em_cfg, trial, _)] = _sweep_tasks(tmp_path, monkeypatch, [entry])
    seed = int(np.random.SeedSequence((1, 0)).generate_state(1)[0])
    base = {k: v for k, v in _SWEEP_BASE.items() if k != "em"}
    assert (index, override, trial) == (0, entry, 0)
    assert sim_cfg == {**base, **merged, "seed": seed}
    assert em_cfg == {**TINY_EM, "seed": seed}


def test_a_nested_override_keeps_the_bases_other_channel_and_em_keys(tmp_path, monkeypatch):
    entry = {"channel": {"p": 8}, "em": {"n_resample": 4, "use_true_noise": True}}
    tasks = _sweep_tasks(tmp_path, monkeypatch, [{}, entry], n_trials=2)
    assert [(t[0], t[4]) for t in tasks] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # Trial t runs every cell at one seed, so the cells' comparison is paired.
    assert tasks[0][2]["seed"] == tasks[2][2]["seed"] != tasks[1][2]["seed"]
    sim_cfg, em_cfg = tasks[2][2], tasks[2][3]
    assert sim_cfg["channel"] == {"type": "linear", "p": 8, "mixing_var": 2.0}
    assert em_cfg == {**TINY_EM, "n_resample": 4, "use_true_noise": True,
                      "seed": sim_cfg["seed"]}
    assert tasks[0][2]["channel"] == _SWEEP_BASE["channel"]


def test_sweep_writes_a_row_per_cell_and_trial_and_each_cells_override(tmp_path, monkeypatch):
    monkeypatch.delenv("RECLAIM_SEED", raising=False)
    out = tmp_path / "out"
    grid = [{}, {"em": {"use_true_noise": True}}]
    results = cli.run_sweep({"base": {"d": 3, "n_per_regime": 20, "em": TINY_EM},
                             "grid": grid, "n_trials": 2, "out_dir": str(out)})
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "cell,trial,auprc,shd,seconds,exit,error"
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "0"], ["0", "1"],
                                                           ["1", "0"], ["1", "1"]]
    for r in results:
        [cell_file] = out.glob(f"cell_{r['cell']}_{r['trial']}_*.json")
        assert json.loads(cell_file.read_text())["override"] == grid[r["cell"]]


def test_a_failing_sweep_cell_is_a_row_and_the_sweep_exits_with_its_code(tmp_path, monkeypatch,
                                                                          capsys):
    monkeypatch.delenv("RECLAIM_SEED", raising=False)
    fits = []
    run_fit = cli.run_fit

    def fit(data_dir, em_config, *args, **kwargs):
        fits.append(em_config["n_proposals"])
        if em_config["n_proposals"] == 3:
            raise EStepError("12/40 observations degenerate (> 5%)")
        return run_fit(data_dir, em_config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_fit", fit)
    config, out = tmp_path / "sweep.json", tmp_path / "out"
    config.write_text(json.dumps({"grid": [{}, {"em": {"n_proposals": 3}}, {"beta": 0.5}],
                                  "n_trials": 2, "out_dir": str(out),
                                  "base": {"d": 3, "n_per_regime": 20, "em": TINY_EM}}))
    argv = ["sweep", "--config", str(config)]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    message = "12/40 observations degenerate (> 5%)"
    assert capsys.readouterr().err == (f"error: cell 1 trial 0: {message}\n"
                                       f"error: cell 1 trial 1: {message}\n")
    # Every cell and trial has a row, the cells after the failed one among them.
    with open(out / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["cell"], r["trial"], r["exit"]) for r in rows] == [
        ("0", "0", "0"), ("0", "1", "0"), ("1", "0", "5"), ("1", "1", "5"),
        ("2", "0", "0"), ("2", "1", "0")]
    for r in rows:
        failed = r["cell"] == "1"
        assert (r["auprc"] == r["shd"] == "") is failed
        assert r["error"] == (message if failed else "")
        if not failed:
            assert 0.0 <= float(r["auprc"]) <= 1.0
    # The failed cells are not cached, so a rerun fits them alone again.
    fits.clear()
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert fits == [3, 3]


@pytest.mark.parametrize("config, message", [
    ({"sweep": "beta", "grid": [0.5]}, "unknown sweep config keys: sweep" + cli.SWEEP_FORM),
    ({"grid": [{"beta": 0.5}, 0.5]},
     "grid entry 1 must be a JSON object, got 0.5" + cli.SWEEP_FORM),
    ({"grid": [{"seed": 3}]},
     "grid entry 0 sets 'seed'; the sweep derives each trial's seed from the base's"),
    ({"grid": [{"em": {"seed": 3}}]},
     "grid entry 0 sets 'seed'; the sweep derives each trial's seed from the base's"),
    ({"grid": [{"beta": 0.5}, {"bta": 0.5}]}, "unknown simulate config keys: bta"),
    ({"grid": [{"channel": {"sigma_mn": 0.5}}]}, "unknown gan channel keys: sigma_mn"),
    ({"grid": [{"channel": {"p": 7}}]}, "a gan channel has p = d = 3 measurements, got p=7"),
    ({"grid": [{"em": {"em_round": 2}}]}, "unknown EM config keys: em_round"),
    ({"grid": [{"em": {"use_true_noise": "yes"}}]}, "use_true_noise must be true or false, "
                                                    "got 'yes'"),
    ({"grid": [{"em": {"n_resample": 0}}]}, "n_resample must be positive"),
], ids=["former-kind-form", "entry-not-an-object", "cell-seed", "cell-em-seed",
        "misspelled-key", "misspelled-channel-key", "gan-p", "misspelled-em-key",
        "use_true_noise-string", "em-value"])
def test_a_bad_sweep_cell_exits_2_before_any_output(tmp_path, capsys, config, message):
    path, out = tmp_path / "sweep.json", tmp_path / "out"
    path.write_text(json.dumps({"base": {"d": 3, "n_per_regime": 5}, "out_dir": str(out),
                                **config}))
    assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("command", ["simulate", "fit", "sweep"])
def test_a_negative_seed_exits_2_before_any_output(tmp_path, monkeypatch, capsys, command,
                                                   source):
    """numpy's seeding takes no negative seed, from any of the three sources."""
    monkeypatch.delenv("RECLAIM_SEED", raising=False)
    path, data, out = tmp_path / "config.json", tmp_path / "data", tmp_path / "out"
    seed = {"flag": -3, "config": -2, "env": -1}[source]
    config = {"simulate": {"d": 3, "n_per_regime": 5}, "fit": dict(TINY_EM),
              "sweep": {"base": {"d": 3, "n_per_regime": 5}, "grid": [{}],
                        "out_dir": str(out)}}[command]
    argv = {"simulate": ["simulate", "--out-dir", str(out)],
            "fit": ["fit", "--data-dir", str(data), "--out-dir", str(out)],
            "sweep": ["sweep"]}[command]
    if command == "fit":
        cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    if source == "flag":
        argv += ["--seed", str(seed)]
    elif source == "env":
        monkeypatch.setenv("RECLAIM_SEED", str(seed))
    else:
        (config["base"] if command == "sweep" else config)["seed"] = seed
    path.write_text(json.dumps(config))
    assert cli.main([*argv, "--config", str(path)]) == cli.EXIT_CONFIG
    name = {"flag": "--seed", "config": "seed", "env": "RECLAIM_SEED"}[source]
    assert capsys.readouterr().err == f"error: {name} must be >= 0, got {seed}\n"
    assert not out.exists()


def test_em_config_refuses_a_negative_seed():
    with pytest.raises(ParameterError, match="^seed must be >= 0$"):
        em.EmConfig(seed=-1)


@pytest.mark.parametrize("config, message", [
    ({"d": 3, "n_per_regim": 5, "channel": {"type": "gan", "p": 7, "sigma_mn": 0.9}},
     "unknown simulate config keys: n_per_regim"),
    ({"d": 3, "n_per_regime": 5, "channel": {"type": "gan", "p": 7, "sigma_mn": 0.9}},
     "unknown gan channel keys: sigma_mn"),
    ({"d": 3, "n_per_regime": 5, "channel": {"type": "gan", "p": 7}},
     "a gan channel has p = d = 3 measurements, got p=7"),
    ({"d": 3, "n_per_regime": 5, "channel": {"type": "gan", "A": [[1, 0], [0, 1]]}},
     "unknown gan channel keys: A"),
    ({"d": 3, "n_per_regime": 5, "channel": {"type": "linear", "p": 4, "mixng_var": 2}},
     "unknown linear channel keys: mixng_var"),
    ({"d": 3, "n_per_regime": 5, "em": {}, "sigma": 1.0}, "unknown simulate config keys: em, sigma"),
], ids=["top-level", "channel", "gan-p", "gan-A", "linear-channel", "two-keys"])
def test_simulate_refuses_a_key_it_does_not_read(tmp_path, capsys, config, message):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(path), "--out-dir", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_takes_a_gan_p_equal_to_d(tmp_path):
    cli.run_simulate({"d": 3, "n_per_regime": 5, "channel": {"type": "gan", "p": 3}}, tmp_path)
    assert len(json.loads((tmp_path / "channel.json").read_text())["sigma_sq"]) == 3


@pytest.mark.parametrize("command", ["fit", "fit-true-noise", "estimate-noise"])
def test_a_family_json_with_no_regimes_exits_2(tmp_path, capsys, command):
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    (data / "family.json").write_text('{"regimes": []}')
    argv = ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")] \
        if command == "estimate-noise" else \
        _fit_argv(tmp_path, data, out, use_true_noise=command == "fit-true-noise")
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: the intervention family (family.json) has no regimes\n"
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
    # report.json records the variances the fit used.
    assert json.loads((tmp_path / "out" / "report.json").read_text())["sigma_sq"] == \
        json.loads((data / want).read_text())["sigma_sq"]


def test_em_config_names_every_unknown_key():
    with pytest.raises(ParameterError, match=r"^unknown EM config keys: em_round, logdet$"):
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
    ("n_proposals", 2, "n_proposals must be 1 or above 2, since SIR keeps an observation "
                       "at ESS >= 2"),
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
    ("sweep", {"grid": [{"beta": 0.5}], "base": {"d": 3, "seed": 2.5}},
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
    # Each former sweep kind's bad grid value, as a cell; the last cell's fails first.
    ("sweep", {"grid": [{"beta": "a"}]}, "beta must be a real number, got 'a'"),
    ("sweep", {"grid": [{"d": 3}, {"d": 2.5}]}, "d must be an integer, got 2.5"),
    ("sweep", {"grid": {"beta": 0.5}}, "sweep grid must be a non-empty list"),
    ("sweep", {"grid": [{"beta": float("inf")}]}, "beta must be a finite real number, got inf"),
    ("simulate", {"channel": {"type": "gan", "sigma_min": "x"}},
     "sigma_min must be a real number, got 'x'"),
    ("simulate", {"channel": {"type": "gan", "sigma_max": 0}},
     "sigma_max must be positive and finite, got 0.0"),
    ("simulate", {"weight_range": "ab"}, "weight_range must be two numbers [lo, hi], got 'ab'"),
    ("simulate", {"weight_range": [0.9, 0.2]}, "weight_range must have lo <= hi, got [0.9, 0.2]"),
    ("simulate", {"weight_range": [0.2, "x"]}, "weight_range must be a real number, got 'x'"),
    ("simulate", {"weight_range": [-0.5, 0.5]}, "weight_range must have lo >= 0, got [-0.5, 0.5]"),
    # hi - lo overflows: the uniform draw would raise OverflowError.
    ("simulate", {"weight_range": [-1e308, 1e308]},
     "weight_range must have lo >= 0, got [-1e+308, 1e+308]"),
    ("simulate", {"sigma_z": "x"}, "sigma_z must be a real number, got 'x'"),
    ("simulate", {"channel": {"type": "linear", "p": 4, "mixing_var": -1}},
     "mixing_var must be positive and finite, got -1.0"),
    ("simulate", {"n_per_regime": -1}, "n_per_regime must be >= 0, got -1"),
    # A given "A" sets p and d, so a "p" or d beside it must agree.
    ("simulate", {"channel": {"type": "linear", "A": np.eye(4, 3).tolist(), "p": 3}},
     "channel 'A' must be 3x3 (p=3, d=3), got 4x3"),
    ("simulate", {"channel": {"type": "linear", "A": [[1, 0], [0, 1], [1, 1]]}},
     "channel 'A' must be 3x3 (p=3, d=3), got 3x2"),
    # At d = 2 a node has one possible child, so the default density of 2.0 cannot be met.
    ("simulate", {"d": 2}, "graph_density must lie in (0, d-1] = (0, 1] at d=2, "
                           "got the default 2.0"),
    ("simulate", {"graph_density": 2.5}, "graph_density must lie in (0, d-1] = (0, 2] at d=3, "
                                         "got 2.5"),
], ids=["grid-string", "grid-non-integer", "grid-not-a-list", "grid-inf", "sigma_min",
        "sigma_max", "weight_range-string", "weight_range-reversed", "weight_range-entry",
        "weight_range-negative", "weight_range-infinite-width",
        "sigma_z", "mixing_var", "n_per_regime", "A-against-p", "A-against-d",
        "graph_density-default-at-d2", "graph_density-above-d-1"])
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


@pytest.mark.parametrize("command, text, message", [
    ("simulate", '{"d": 3, "n_per_regime": 5, "sigma_z": 1e400}',
     "sigma_z must be a finite real number, got inf"),
    ("simulate", '{"d": 3, "n_per_regime": 5, "weight_range": [0.2, 1e400]}',
     "weight_range must be a finite real number, got inf"),
    ("simulate", '{"d": 3, "n_per_regime": 5, "sigma_I_sq": 1' + "0" * 400 + '}',
     f"sigma_I_sq must be a finite real number, got {10 ** 400}"),
    ("fit", '{"em_rounds": 1, "learning_rate": 1e400}',
     "learning_rate must be a finite real number, got inf"),
    ("fit", '{"em_rounds": 1, "convergence_tol": NaN}',
     "convergence_tol must be a finite real number, got nan"),
], ids=["simulate-sigma_z", "simulate-weight_range", "simulate-int-past-float-range",
        "fit-learning_rate", "fit-nan"])
def test_a_number_that_is_not_finite_exits_2_before_any_output(tmp_path, capsys, command,
                                                               text, message):
    """JSON reads 1e400 as inf, Python's reader takes NaN, and an int may lie past the
    float range."""
    path, data, out = tmp_path / "config.json", tmp_path / "data", tmp_path / "out"
    path.write_text(text)
    if command == "fit":
        cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    argv = ["simulate", "--out-dir", str(out)] if command == "simulate" else \
        ["fit", "--data-dir", str(data), "--out-dir", str(out)]
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
    with pytest.raises(RankError) as expected:
        measurement.check_mixing(A)
    assert cli.main(argv) == cli.EXIT_CONFIG
    # One check, so one message, whichever command meets the matrix first.
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert str(expected.value).startswith("mixing matrix is rank deficient")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "estimate-noise"])
def test_a_projection_design_short_of_rank_p_exits_5_before_any_output(tmp_path, capsys,
                                                                         command):
    # Both columns' isolating directions, (1, -1) and (1, 1), square to the
    # same row, so the squared projections have rank 1 < p = 2. In the 3x2 A
    # each node's signal is at most 0.01 |a_i|, below the sampler's window,
    # so they stay at rank 2 < p = 3.
    for A, rank in ([[1, 1], [1, -1]], "1 < 2"), ([[1, 1], [0, 0.01], [0, 0]], "2 < 3"):
        data, out = tmp_path / f"data-{len(A)}", tmp_path / f"out-{len(A)}"
        cli.run_simulate({"d": 2, "n_per_regime": 50, "seed": 1, "graph_density": 1.0,
                          "channel": {"type": "linear", "A": A}}, data)
        if command == "estimate-noise":
            argv = ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")]
        else:
            argv = _fit_argv(tmp_path, data, out)
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: projection sampling found no design of full rank") \
            and err.endswith(f"rank {rank}\n") and err.count("\n") == 1
        assert not out.exists()


def test_simulate_takes_p_from_the_rows_of_a_given_A(tmp_path):
    A = [[1.0, 1.0], [0.0, 0.01], [0.0, 0.0]]
    config, data = tmp_path / "simulate.json", tmp_path / "data"
    config.write_text(json.dumps({"d": 2, "n_per_regime": 50, "graph_density": 1.0,
                                  "channel": {"type": "linear", "A": A}}))
    assert cli.main(["simulate", "--config", str(config), "--out-dir", str(data)]) == cli.EXIT_OK
    spec = json.loads((data / "channel.json").read_text())
    assert spec["A"] == A and len(spec["sigma_sq"]) == 3


# Case id -> (channel.json text, the start of the error, the commands that read
# the bad field). "fit" estimates the noise, as estimate-noise does, and
# "fit-true-noise" reads "sigma_sq".
_BAD_CHANNEL_JSON = {
    "no-type": ('{"sigma_sq": [0.1, 0.2, 0.3]}', "error: unknown channel type None",
                ("fit", "estimate-noise")),
    "malformed-json": ('{"type": "gan", "sigma_sq": [0.1, ', "error: malformed JSON in ",
                       ("fit", "estimate-noise")),
    "non-numeric-A": ('{"type": "linear", "A": [[1, 0], [0, "one"], [1, 1]], '
                      '"sigma_sq": [0.1, 0.2, 0.3]}',
                      "error: linear channel's 'A' must be an array of numbers",
                      ("fit", "fit-true-noise", "estimate-noise")),
    "ragged-A": ('{"type": "linear", "A": [[1, 0], [0], [1, 1]], "sigma_sq": [0.1, 0.2, 0.3]}',
                 "error: linear channel's 'A' must be an array of numbers",
                 ("fit", "fit-true-noise", "estimate-noise")),
    "bool-in-A": ('{"type": "linear", "A": [[1, 0], [0, true], [1, 1]], '
                  '"sigma_sq": [0.1, 0.2, 0.3]}',
                  "error: linear channel's 'A' must be an array of numbers: true and false",
                  ("fit", "fit-true-noise", "estimate-noise")),
    "null-in-A": ('{"type": "linear", "A": [[1, 0], [0, null], [1, 1]], '
                  '"sigma_sq": [0.1, 0.2, 0.3]}',
                  "error: mixing matrix must be", ("fit", "fit-true-noise", "estimate-noise")),
    "empty-A": ('{"type": "linear", "A": [[]], "sigma_sq": [0.1]}',
                "error: need at least one latent (d=0)",
                ("fit", "fit-true-noise", "estimate-noise")),
    "non-numeric-sigma_sq": ('{"type": "gan", "sigma_sq": [0.1, "low", 0.3]}',
                             "error: gan channel's 'sigma_sq' must be an array of numbers",
                             ("fit-true-noise",)),
    "bool-in-sigma_sq": ('{"type": "gan", "sigma_sq": [true, 0.5, 0.3]}',
                         "error: gan channel's 'sigma_sq' must be an array of numbers: true and",
                         ("fit-true-noise",)),
    # A true-noise fit estimates no variances in place of missing ones.
    "gan-no-sigma_sq": ('{"type": "gan"}', "error: use_true_noise needs the channel's 'sigma_sq'",
                        ("fit-true-noise",)),
    "gan-null-sigma_sq": ('{"type": "gan", "sigma_sq": null}',
                          "error: use_true_noise needs the channel's 'sigma_sq'",
                          ("fit-true-noise",)),
    "linear-no-sigma_sq": ('{"type": "linear", "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
                           "error: use_true_noise needs the channel's 'sigma_sq'",
                           ("fit-true-noise",)),
    "linear-null-sigma_sq": ('{"type": "linear", "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
                             '"sigma_sq": null}',
                             "error: use_true_noise needs the channel's 'sigma_sq'",
                             ("fit-true-noise",)),
}


@pytest.mark.parametrize("command, text, message", [
    pytest.param(command, text, message, id=f"{command}-{case}")
    for case, (text, message, commands) in _BAD_CHANNEL_JSON.items() for command in commands])
def test_bad_channel_json_exits_2(tmp_path, capsys, text, message, command):
    data, out = tmp_path / "data", tmp_path / "out"
    cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    (data / "channel.json").write_text(text)
    if command == "estimate-noise":
        argv = ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")]
    else:
        argv = _fit_argv(tmp_path, data, out, use_true_noise=command == "fit-true-noise")
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("given, message", [
    *[({"A": A}, "mixing matrix must be 2-dimensional") for A in (2.0, [], [1.0, 0.5, 0.2], None)],
    ({}, "linear channel spec has no 'A'"),
], ids=["scalar", "empty", "1-d", "null", "absent"])
def test_a_linear_A_that_is_no_matrix_gives_one_error_from_every_command(tmp_path, capsys, given,
                                                                           message):
    data = tmp_path / "data"
    cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    (data / "channel.json").write_text(json.dumps(
        {"type": "linear", **given, "sigma_sq": [0.1, 0.2, 0.3]}))
    errors = []
    for command in ("fit", "fit-true-noise", "estimate-noise"):
        out = tmp_path / command
        if command == "estimate-noise":
            argv = ["estimate-noise", "--data-dir", str(data), "--out", str(out / "phi_hat.json")]
        else:
            argv = _fit_argv(tmp_path, data, out, use_true_noise=command == "fit-true-noise")
        assert cli.main(argv) == cli.EXIT_CONFIG
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors == [f"error: {message}\n"] * 3


def test_evaluate_against_a_truth_graph_with_no_edges_exits_2(tmp_path, capsys):
    report, truth = tmp_path / "report.json", tmp_path / "truth_graph.json"
    scores = np.full((3, 3), 0.5)
    np.fill_diagonal(scores, 0.0)
    report.write_text(json.dumps({"edge_scores": scores.tolist()}))
    truth.write_text(graphs.graph_to_json(graphs.DirectedGraph(np.zeros((3, 3), dtype=bool))))
    code = cli.main(["evaluate", "--report", str(report), "--truth", str(truth)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: truth graph has no edges; AUPRC is undefined\n"


def test_evaluate_of_a_report_with_a_nan_score_exits_2(tmp_path, capsys):
    report, truth = tmp_path / "report.json", tmp_path / "truth_graph.json"
    scores = np.full((3, 3), 0.5)
    np.fill_diagonal(scores, 0.0)
    scores[2, 0] = np.nan
    report.write_text(json.dumps({"edge_scores": scores.tolist()}))  # JSON's NaN
    truth.write_text('{"d": 3, "edges": [[0, 1]]}')
    code = cli.main(["evaluate", "--report", str(report), "--truth", str(truth)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: scores must lie in [0, 1]\n"


@pytest.mark.parametrize("truth_text, report_text, message", [
    ('{"d": 3, "edges": [[0, 1]', None, "error: malformed truth graph {truth}: Expecting"),
    ('{"edges": [[0, 1]]}', None, "error: malformed truth graph {truth}: no key 'd'"),
    ('{"d": 3}', None, "error: malformed truth graph {truth}: no key 'edges'"),
    ('{"d": 3, "edges": [[0, 3]]}', None,
     "error: malformed truth graph {truth}: edge [0, 3] is not a pair of node indices"),
    ('{"d": 3, "edges": [[0, -1]]}', None,
     "error: malformed truth graph {truth}: edge [0, -1] is not a pair of node indices"),
    ('{"d": 3, "edges": [[true, 2]]}', None,
     "error: malformed truth graph {truth}: edge [True, 2] is not a pair of node indices"),
    (None, '{"scores": []}', "error: malformed report {report}: no key 'edge_scores'"),
    (None, '{"edge_scores": ', "error: malformed report {report}: Expecting value"),
], ids=["truth-not-json", "truth-without-d", "truth-without-edges", "edge-out-of-range",
        "negative-edge-index", "bool-edge-index", "report-without-edge-scores",
        "report-not-json"])
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


@pytest.mark.parametrize("flag_seed, env_seed", [("0", None), ("1", None), (None, "5")],
                         ids=["default", "seed-1", "reclaim-seed"])
def test_estimate_noise_writes_the_noise_a_fit_at_any_seed_uses(tmp_path, monkeypatch,
                                                                 flag_seed, env_seed):
    """On linear d = 4, p = 7 data the estimate samples projection rows, at one
    seed of its own: a fit at --seed 0, the default, at --seed 1 or under
    RECLAIM_SEED estimates the variances ``estimate-noise`` writes."""
    if env_seed is None:
        monkeypatch.delenv("RECLAIM_SEED", raising=False)
    else:
        monkeypatch.setenv("RECLAIM_SEED", env_seed)
    data = tmp_path / "data"
    cli.run_simulate({"d": 4, "n_per_regime": 300, "seed": 3,
                      "channel": {"type": "linear", "p": 7}}, data)
    assert cli.main(["estimate-noise", "--data-dir", str(data)]) == cli.EXIT_OK
    argv = _fit_argv(tmp_path, data, tmp_path / "fit")
    if flag_seed is not None:
        argv += ["--seed", flag_seed]
    assert cli.main(argv) == cli.EXIT_OK
    sigma_sq = json.loads((data / "phi_hat.json").read_text())["sigma_sq"]
    assert sigma_sq == json.loads((tmp_path / "fit" / "report.json").read_text())["sigma_sq"]


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
    ("targets", [0.5], "intervention target must be an integer, got 0.5"),
    ("targets", [True], "intervention target must be an integer, got True"),
    ("mean", "x", "intervention mean must be a real number, got 'x'"),
    ("mean", float("nan"), "intervention mean must be a finite real number, got nan"),
    ("sigma_I_sq", float("nan"), "intervention variance must be a finite real number, got nan"),
    ("sigma_I_sq", float("inf"), "intervention variance must be a finite real number, got inf"),
    ("sigma_I_sq", 0, "intervention variance must be positive and finite, got 0.0"),
], ids=["target-d", "target-negative", "target-fraction", "target-bool", "mean-string",
        "mean-nan", "variance-nan", "variance-inf", "variance-zero"])
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


@pytest.mark.parametrize("command, config, message", [
    ("simulate", [1, 2], "{config} must hold a JSON object"),
    ("fit", "abc", "{config} must hold a JSON object"),
    ("sweep", 3, "{config} must hold a JSON object"),
    ("sweep", {"base": [], "out_dir": "{out}"}, "base must be a JSON object, got []"),
    ("sweep", {"base": {"d": 3, "em": "x"}, "out_dir": "{out}"},
     "em must be a JSON object, got 'x'"),
    ("sweep", {"base": {"d": 3, "channel": None}, "out_dir": "{out}"},
     "channel must be a JSON object, got None"),
    ("sweep", {"base": {"d": 3}, "out_dir": 5}, "out_dir must be a string, got 5"),
    ("simulate", {"d": 3, "channel": "gan"}, "channel must be a JSON object, got 'gan'"),
], ids=["simulate-top-level", "fit-top-level", "sweep-top-level", "sweep-base", "sweep-em",
        "sweep-channel", "sweep-out_dir", "simulate-channel"])
def test_a_config_part_that_is_not_an_object_exits_2_before_any_output(tmp_path, capsys,
                                                                       command, config,
                                                                       message):
    path, data, out = tmp_path / "config.json", tmp_path / "data", tmp_path / "out"
    if isinstance(config, dict) and command == "sweep":
        config = {"grid": [{"beta": 0.5}], **config}
        if config["out_dir"] == "{out}":
            config["out_dir"] = str(out)
    path.write_text(json.dumps(config))
    if command == "fit":
        cli.run_simulate({"d": 3, "n_per_regime": 5}, data)
    argv = {"simulate": ["simulate", "--out-dir", str(out)],
            "fit": ["fit", "--data-dir", str(data), "--out-dir", str(out)],
            "sweep": ["sweep"]}[command]
    assert cli.main([*argv, "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message.format(config=path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["config.json", *(["data"] if command == "fit" else [])]


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


def test_a_fit_of_empty_regimes_resumes_like_a_straight_fit(tmp_path, monkeypatch):
    """A round that keeps no observation has no median ESS: it is None, not NaN, which
    a checkpoint's round record refuses."""
    monkeypatch.delenv("RECLAIM_SEED", raising=False)
    data = tmp_path / "data"
    cli.run_simulate({"d": 3, "n_per_regime": 0}, data)
    for out, em_rounds, flags in [("straight", 2, []), ("resumed", 1, []),
                                  ("resumed", 2, ["--resume"])]:
        argv = _fit_argv(tmp_path, data, tmp_path / out, em_rounds=em_rounds,
                         use_true_noise=True)
        assert cli.main([*argv, *flags]) == cli.EXIT_OK
    _same_files(tmp_path)
    report = json.loads((tmp_path / "straight" / "report.json").read_text())
    assert [r["ess_median"] for r in report["diagnostics"]["trace"]] == [None, None]


_PARAMS = json.dumps(model.params_to_dict(model.init_params(3)))
_NAN_SIGMA_PARAMS = json.dumps({**model.params_to_dict(model.init_params(3)),
                                "sigma_z": [1.0, float("nan"), 1.0]})
_NAN_W_IN_PARAMS = model.params_to_dict(model.init_params(3))
_NAN_W_IN_PARAMS["w_in"][0][0] = float("nan")
_NAN_W_IN_PARAMS = json.dumps(_NAN_W_IN_PARAMS)
_RECORD = json.dumps({"round": 0, "q_value": -4.5, "elbo_estimate": None, "ess_median": 7.5,
                      "channel_term": -3.25, "n_skipped": 0})


@pytest.mark.parametrize("text, message", [
    ('{"params": ', "Expecting value"),
    ('{"trace": []}', 'a checkpoint is an object with "params" and "trace"'),
    ('{"params": ' + _PARAMS + '}', 'a checkpoint is an object with "params" and "trace"'),
    ('{"params": {}, "trace": []}', "no key 'w_in'"),
    ('{"params": ' + _PARAMS + ', "trace": [{"round": 0}]}',
     "a checkpoint's trace is a list of round records"),
    ('[1, 2]', 'a checkpoint is an object with "params" and "trace"'),
    ('{"params": ' + _PARAMS + ', "trace": [' + _RECORD + ', ' + _RECORD.replace(
        '"q_value": -4.5', '"q_value": "abc"') + ']}',
     "trace[1].q_value must be a real number, got 'abc'"),
    ('{"params": ' + _PARAMS + ', "trace": [' + _RECORD + ', ' + _RECORD.replace(
        '"q_value": -4.5', '"q_value": null') + ']}',
     "trace[1].q_value must be a real number, got None"),
    ('{"params": ' + _PARAMS + ', "trace": [' + _RECORD.replace(
        '"n_skipped": 0', '"n_skipped": 1.5') + ']}',
     "trace[0].n_skipped must be an integer, got 1.5"),
    ('{"params": ' + _PARAMS + ', "trace": [' + _RECORD.replace(
        '"ess_median": 7.5', '"ess_median": NaN') + ']}',
     "trace[0].ess_median must be a finite real number, got nan"),
    ('{"params": ' + _NAN_SIGMA_PARAMS + ', "trace": []}',
     "sigma_z must be positive and finite, got nan"),
    ('{"params": ' + _NAN_W_IN_PARAMS + ', "trace": []}',
     "w_in holds an entry that is not finite"),
], ids=["truncated", "no-params", "no-trace", "params-without-w_in", "trace-of-partial-records",
        "not-an-object", "string-q", "null-q", "non-integer-skips", "nan-ess", "nan-sigma_z",
        "nan-w_in"])
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


@pytest.mark.parametrize("key, value, message", [
    ("hidden", 2, "initial parameters have hidden width 3, the config 2"),
    ("lipschitz_target", 0.5, "initial parameters have lipschitz_target 0.9, the config 0.5"),
])
def test_resume_from_a_checkpoint_of_another_model_exits_2(tmp_path, monkeypatch, capsys,
                                                           key, value, message):
    """A checkpoint fitted at the default hidden width, d = 3, and Lipschitz target 0.9,
    resumed under a config that sets another."""
    fit = _resumable_fit(tmp_path, monkeypatch)
    fit("out", 1)
    checkpoint = (tmp_path / "out" / "checkpoint.json").read_bytes()
    argv = _fit_argv(tmp_path, tmp_path / "data", tmp_path / "out", em_rounds=2,
                     **{key: value})
    assert cli.main([*argv, "--resume"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (tmp_path / "out" / "checkpoint.json").read_bytes() == checkpoint
