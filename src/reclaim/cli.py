"""Command-line harness: simulate | estimate-noise | fit | evaluate | sweep.

Exit codes: 0 success, 2 usage/config error (including a config file that is
not a JSON object or whose "channel", sweep "base" or "em" is not one, a
simulate config key, or "channel" key of its type, that simulate does not
read, a fit config key that is no EmConfig field, an "n_proposals" of 2
(which keep an observation only at equal weights), a gan channel whose "p" is
not d, a negative seed from --seed, RECLAIM_SEED or the config, a number
that is not finite (JSON reads 1e400 as inf), a sweep config in another form
than the one below (the former "sweep" kind key among them), a grid entry
that is not a JSON object or sets "seed", a sweep "out_dir" that is not a
string, a channel.json that is malformed, names an unknown type, lacks a
key, has an "A" or "sigma_sq" that is not an array of numbers (a ragged one,
or one holding true or false, among them), an "A" that is not a matrix, has
no columns, has a non-finite entry or is rank deficient, a family.json or
regime CSV that does not parse, a family.json with no regimes, a regime CSV
with a non-finite entry or another number of columns than the others, a
channel whose p is not the data's column count, a simulated linear "A" that
is not p x d, a regime whose target is not an integer node index in [0, d)
or whose mean or variance is not a finite number, an
"include_observational" or "use_true_noise" that is not true or false, a
"use_true_noise" fit whose channel.json has no "sigma_sq" or a null one, a
checkpoint.json to resume from that is malformed, has a round record field of
the wrong type, a parameter that is not finite or a "sigma_z" not above 0, is
of another dimension than the data, or has another hidden width or
"lipschitz_target" than the fit config, a truth graph or report that does not
parse, an edge score outside [0, 1] or NaN, and an evaluation against a truth
graph with no edges), 3 I/O failure (a data directory without family.json
among them, which is what a cut ``simulate`` leaves), 4 unmet interventional-
coverage requirement, 5 numerical failure (too many degenerate observations in
an E-step, a fixed-point iteration that stalls, a forward map that fails the
orientation check, or a linear channel whose projection design cannot reach
rank p).

``fit`` writes ``checkpoint.json`` (the parameters and the per-round trace)
after every round. ``fit --resume`` continues from that checkpoint's trace,
so it writes the same ``report.json`` and ``trace.csv`` as an uninterrupted
fit; a fit whose trace has converged or holds ``em_rounds`` rounds runs no
new round. ``report.json`` also records the noise variances the fit used.
``estimate-noise`` writes the variances that every fit of the same data
estimates: the estimate reads the data alone, not the run seed.

A sweep config is ``{"base", "grid", "n_trials", "out_dir"}``. ``base`` is a
simulate config whose "em" key holds the fit config. Each grid entry is a
JSON object merged over ``base``, its "channel" and "em" key by key, to give
one cell; for example ``{"channel": {"sigma_min": 1.0, "sigma_max": 1.0}}``
or ``{"em": {"use_true_noise": true}}``. Trial t of every cell runs at one
seed derived from (the base's seed, t), so a cell may not set "seed". Every
cell is checked before any output exists. ``results.csv`` has a row
``cell,trial,auprc,shd,seconds,exit,error`` per cell and trial, ``cell`` being
the grid index; each cell's JSON file also records its grid entry as
"override". A cell that fails with exit 2, 4 or 5 is a row with that code and
its message and no metrics, and is not cached; the other cells still run, and
the sweep exits with the first failed row's code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import em, graphs, measurement, scm
from .errors import (ConvergenceError, EStepError, IdentifiabilityError,
                     ParameterError, RankError, SamplingFailureError,
                     UndefinedMetricError, check_number, check_positive)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_IDENTIFIABILITY = 4
EXIT_NUMERICAL = 5

# The exit code of each error type a command may raise.
_EXIT_CODES = (((ParameterError, RankError, UndefinedMetricError), EXIT_CONFIG),
               ((IdentifiabilityError,), EXIT_IDENTIFIABILITY),
               ((EStepError, ConvergenceError, SamplingFailureError), EXIT_NUMERICAL))
_ERRORS = tuple(t for types, _ in _EXIT_CODES for t in types)


def _exit_code(exc: Exception) -> int:
    return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


@contextlib.contextmanager
def _parsing(what: str):
    """Turn the ValueError, KeyError or TypeError of content that does not
    parse into a ParameterError naming ``what``; an OSError passes through."""
    try:
        yield
    except KeyError as exc:
        raise ParameterError(f"malformed {what}: no key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ParameterError(f"malformed {what}: {exc}") from exc


def _json_object(path: Path) -> dict:
    """The JSON object in the file ``path``; any other content is a ParameterError,
    and a missing file an OSError."""
    with _parsing(f"JSON in {path}"):
        obj = json.loads(path.read_text())
    if not isinstance(obj, dict):
        raise ParameterError(f"{path} must hold a JSON object")
    return obj


def _load_config(path) -> dict:
    """The JSON object in the config file ``path``; a missing file is a ParameterError."""
    path = Path(path)
    if not path.exists():
        raise ParameterError(f"config file not found: {path}")
    return _json_object(path)


def _config_number(config: dict, key: str, default=None, integral: bool = False,
                   positive: bool = False):
    """The number ``config[key]``, or ``default`` when the key is absent.

    A key without a default is required. A missing required key, a value
    that is not an integer (``integral``) or a real number, and a
    ``positive`` one not above 0 are each a ParameterError.
    """
    if key not in config:
        if default is None:
            raise ParameterError(f"config has no {key!r}")
        return default
    value = check_number(key, config[key], int if integral else float)
    if positive:
        check_positive(key, value)
    return value


def _config_object(config: dict, key: str, default: dict) -> dict:
    """The JSON object ``config[key]``, or ``default`` when the key is absent;
    any other value is a ParameterError."""
    value = config.get(key, default)
    if not isinstance(value, dict):
        raise ParameterError(f"{key} must be a JSON object, got {value!r}")
    return value


def _config_flag(config: dict, key: str, default: bool) -> bool:
    """The JSON boolean ``config[key]``, or ``default`` when the key is absent;
    any other value, such as the string "false", is a ParameterError."""
    value = config.get(key, default)
    if not isinstance(value, bool):
        raise ParameterError(f"{key} must be true or false, got {value!r}")
    return value


def _weight_range(config: dict) -> tuple[float, float]:
    """The config's "weight_range" [lo, hi] of edge-weight magnitudes, 0 <= lo <= hi;
    so the width hi - lo that the weights are drawn over is finite."""
    value = config.get("weight_range", [0.2, 0.9])
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParameterError(f"weight_range must be two numbers [lo, hi], got {value!r}")
    lo, hi = (check_number("weight_range", v) for v in value)
    if not lo >= 0:
        raise ParameterError(f"weight_range must have lo >= 0, got {value!r}")
    if not lo <= hi:
        raise ParameterError(f"weight_range must have lo <= hi, got {value!r}")
    return lo, hi


def _check_keys(config: dict, known, what: str, form: str = "") -> None:
    """A ParameterError naming every key of ``config`` not in ``known``, then ``form``."""
    unknown = sorted(set(config) - set(known))
    if unknown:
        raise ParameterError(f"unknown {what} keys: {', '.join(unknown)}{form}")


def _resolve_seed(config: dict, flag_seed) -> int:
    """Precedence: RECLAIM_SEED env var, then --seed flag, then config["seed"] (default 0).
    The seed used must be >= 0, as numpy's seeding requires."""
    source, seed = "seed", _config_number(config, "seed", 0, integral=True)
    env = os.environ.get("RECLAIM_SEED")
    if env is not None:
        try:
            source, seed = "RECLAIM_SEED", int(env)
        except ValueError as exc:
            raise ParameterError(f"RECLAIM_SEED must be an integer, got {env!r}") from exc
    elif flag_seed is not None:
        source, seed = "--seed", flag_seed
    if seed < 0:
        raise ParameterError(f"{source} must be >= 0, got {seed}")
    return seed


def _atomic_write(path, text):
    with scm.atomic_open(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# simulate


SIMULATE_KEYS = ("seed", "d", "graph_density", "n_per_regime", "beta", "weight_range",
                 "target_lipschitz", "sigma_z", "sigma_I_sq", "include_observational", "channel")
# The channel keys simulate reads, by channel type.
CHANNEL_KEYS = {"gan": ("type", "p", "sigma_sq", "sigma_min", "sigma_max")}
CHANNEL_KEYS["linear"] = (*CHANNEL_KEYS["gan"], "A", "mixing_var")


def _build_true_channel(channel_cfg: dict, d: int, rng) -> measurement.LinearChannel:
    """The simulated channel: the config's "A" and "sigma_sq", or random draws.
    A given "A" sets p to its row count; a "p" beside it, and d, must agree.
    A gan channel has p = d."""
    spec = {"type": "gan", **channel_cfg}
    kind = spec["type"]
    if kind in ("gan", "linear"):  # channel_from_dict names any other type
        _check_keys(spec, CHANNEL_KEYS[kind], f"{kind} channel")
    A = None
    if kind == "linear" and "A" in spec:
        A = spec["A"] = measurement.check_mixing(measurement.spec_field(spec, "A"))
    p = _config_number(spec, "p", d if A is None else A.shape[0], integral=True)
    if A is not None and A.shape != (p, d):
        raise ParameterError(f"channel 'A' must be {p}x{d} (p={p}, d={d}), "
                             f"got {A.shape[0]}x{A.shape[1]}")
    if kind == "linear" and A is None:
        mixing_var = _config_number(spec, "mixing_var", 1.5, positive=True)
        spec["A"] = rng.normal(0.0, np.sqrt(mixing_var), size=(p, d))
    if kind == "gan" and p != d:
        raise ParameterError(f"a gan channel has p = d = {d} measurements, got p={p}")
    if "sigma_sq" not in spec:
        spec["sigma_sq"] = rng.uniform(_config_number(spec, "sigma_min", 0.3, positive=True),
                                       _config_number(spec, "sigma_max", 0.6, positive=True),
                                       size=p) ** 2
    return measurement.channel_from_dict(spec)


def _read_simulation(config: dict):
    """Check a simulate config and build what it describes: ``(seed, n_per_regime,
    graph, truth SCM, family, channel)``.

    It samples no regime and writes nothing, so a sweep runs it on every cell
    before any output exists.
    """
    _check_keys(config, SIMULATE_KEYS, "simulate config")
    seed = _config_number(config, "seed", 0, integral=True)
    d = _config_number(config, "d", integral=True)
    density = _config_number(config, "graph_density", 2.0)
    if d >= 2 and not 0 < density <= d - 1:
        given = density if "graph_density" in config else f"the default {density}"
        raise ParameterError(f"graph_density must lie in (0, d-1] = (0, {d - 1}] at d={d}, "
                             f"got {given}")
    n = _config_number(config, "n_per_regime", 1000, integral=True)
    if n < 0:
        raise ParameterError(f"n_per_regime must be >= 0, got {n}")
    root = np.random.SeedSequence((seed, 2026))
    graph_seed, scm_seed, chan_seed, *_ = root.generate_state(4)

    graph = graphs.erdos_renyi(d, density, seed=int(graph_seed))
    truth = scm.sample_benchmark_scm(
        graph, seed=int(scm_seed), beta=_config_number(config, "beta", 1.0),
        weight_range=_weight_range(config),
        target_lipschitz=_config_number(config, "target_lipschitz", 0.9),
        noise_std=_config_number(config, "sigma_z", 1.0, positive=True))
    family = scm.single_node_family(
        d, variance=_config_number(config, "sigma_I_sq", 1.0),
        include_observational=_config_flag(config, "include_observational", True))
    channel = _build_true_channel(_config_object(config, "channel", {"type": "gan"}),
                                  d, np.random.default_rng(int(chan_seed)))
    return seed, n, graph, truth, family, channel


def run_simulate(config: dict, out_dir) -> None:
    seed, n, graph, truth, family, channel = _read_simulation(config)
    datasets = []
    for k, regime in enumerate(family):
        child = np.random.SeedSequence((seed, 2026, k)).generate_state(2)
        latents = scm.sample_latents(truth, regime, n, seed=int(child[0]))
        datasets.append(measurement.measure(channel, latents, seed=int(child[1]))
                        if n else np.zeros((0, channel.p)))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # family.json marks a whole set (see scm.write_dataset): it goes before
    # any file is replaced and comes back last.
    (out / "family.json").unlink(missing_ok=True)
    _atomic_write(out / "channel.json", measurement.channel_to_json(channel))
    _atomic_write(out / "truth_graph.json", graphs.graph_to_json(graph))
    _atomic_write(out / "scm.json", json.dumps({
        "weights": truth.weights.tolist(),
        "beta": truth.beta,
        "sigma_z": truth.noise_std.tolist(),
    }))
    scm.write_dataset(out, datasets, family)


# ---------------------------------------------------------------------------
# estimate-noise


def _read_data_dir(data_dir: Path):
    """``(datasets, family, channel spec)`` of a data directory, as ``fit`` and
    ``estimate-noise`` read it; a missing file is an I/O error."""
    with _parsing(f"regime data in {data_dir}"):
        datasets, family = scm.read_dataset(data_dir)
    return datasets, family, _json_object(data_dir / "channel.json")


def run_estimate_noise(data_dir, out_path=None) -> None:
    """Write the noise variances every fit of the data estimates."""
    data_dir = Path(data_dir)
    datasets, family, spec = _read_data_dir(data_dir)
    estimated = em.build_channel({**spec, "sigma_sq": None}, datasets, family)
    out_path = Path(out_path) if out_path else data_dir / "phi_hat.json"
    _atomic_write(out_path, measurement.channel_to_json(estimated))


# ---------------------------------------------------------------------------
# fit


def _em_config_from_dict(cfg_dict: dict) -> em.EmConfig:
    """EmConfig from a fit config; ``use_true_noise``, true or false, is the one
    key it may add."""
    _config_flag(cfg_dict, "use_true_noise", False)
    kwargs = {k: v for k, v in cfg_dict.items() if k != "use_true_noise"}
    _check_keys(kwargs, em.EmConfig.__dataclass_fields__, "EM config")
    return em.EmConfig(**kwargs)


def run_fit(data_dir, em_config: dict, out_dir=None, resume: bool = False) -> em.FitReport:
    data_dir = Path(data_dir)
    datasets, family, spec = _read_data_dir(data_dir)
    cfg = _em_config_from_dict(em_config)
    if not em_config.get("use_true_noise", False):
        spec.pop("sigma_sq", None)
    elif spec.get("sigma_sq") is None:  # build_channel would estimate it
        raise ParameterError(f"use_true_noise needs the channel's 'sigma_sq', and "
                             f"{data_dir / 'channel.json'} has none")
    # The output directory is made by the first write, after the channel is built.
    out_dir = Path(out_dir) if out_dir else data_dir

    init_theta, trace = None, None
    ckpt_path = out_dir / "checkpoint.json"
    if resume and ckpt_path.exists():
        with _parsing(f"checkpoint {ckpt_path}"):
            init_theta, trace = em.checkpoint_from_json(ckpt_path.read_text())

    def checkpoint(_round, theta, trace):
        _atomic_write(ckpt_path, em.checkpoint_to_json(theta, trace))

    report = em.fit(datasets, family, spec, cfg, init_theta=init_theta, trace=trace,
                    round_callback=checkpoint)
    checkpoint(None, report.theta, report.diagnostics["trace"])
    _atomic_write(out_dir / "report.json", em.report_to_json(report))
    em.write_trace_csv(out_dir / "trace.csv", report.diagnostics["trace"])
    return report


# ---------------------------------------------------------------------------
# evaluate


def run_evaluate(report_path, truth_path, out_path=None, threshold: float = 0.8) -> dict:
    with _parsing(f"report {report_path}"):
        scores = np.asarray(json.loads(Path(report_path).read_text())["edge_scores"], dtype=float)
    with _parsing(f"truth graph {truth_path}"):
        truth = graphs.graph_from_json(Path(truth_path).read_text())
    if scores.shape != (truth.d, truth.d):
        raise ParameterError(
            f"score matrix {scores.shape} does not match truth graph d={truth.d}")
    metrics = {
        "auprc": graphs.auprc(scores, truth),
        "shd": graphs.shd(graphs.threshold_edges(scores, threshold), truth),
    }
    if out_path:
        _atomic_write(out_path, json.dumps(metrics, sort_keys=True))
    return metrics


# ---------------------------------------------------------------------------
# sweep


SWEEP_KEYS = ("base", "grid", "n_trials", "out_dir")
SWEEP_FORM = ('; a sweep config is {"base", "grid", "n_trials", "out_dir"}, and each '
              'grid entry a JSON object merged over "base"')


def _cell(base: dict, index: int, entry) -> dict:
    """Grid entry ``index`` merged over ``base``; "channel" and "em" merge key by key."""
    if not isinstance(entry, dict):
        raise ParameterError(f"grid entry {index} must be a JSON object, got {entry!r}{SWEEP_FORM}")
    if "seed" in entry or "seed" in _config_object(entry, "em", {}):
        raise ParameterError(f"grid entry {index} sets 'seed'; the sweep derives each trial's "
                             f"seed from the base's")
    cell = {**base, **entry}
    for key in ("channel", "em"):
        if key in entry:
            cell[key] = {**_config_object(base, key, {}), **_config_object(entry, key, {})}
    return cell


def _run_cell(args):
    index, override, sim_cfg, em_cfg, trial, out_dir = args
    # A cached cell is reused only for the same simulation config, seed and EM config,
    # the EM config resolved with its defaults: a changed default changes the key.
    resolved = dataclasses.asdict(_em_config_from_dict(em_cfg)) | {
        "use_true_noise": em_cfg.get("use_true_noise", False)}
    key = hashlib.sha256(json.dumps({"cell": sim_cfg, "em": resolved},
                                    sort_keys=True).encode()).hexdigest()[:16]
    name = f"cell_{index}_{trial}_{key}"
    cell_dir = Path(out_dir) / name
    cell_file = Path(out_dir) / f"{name}.json"
    if cell_file.exists():
        return json.loads(cell_file.read_text())
    t0 = time.time()
    result = {"cell": index, "override": override, "trial": trial}
    try:
        run_simulate(sim_cfg, cell_dir)
        run_fit(cell_dir, em_cfg, cell_dir)
        metrics = run_evaluate(cell_dir / "report.json", cell_dir / "truth_graph.json")
    except _ERRORS as exc:  # a row, not a cache entry: a rerun tries the cell again
        return result | {"auprc": None, "shd": None, "seconds": round(time.time() - t0, 3),
                         "exit": _exit_code(exc), "error": str(exc)}
    result |= {"auprc": metrics["auprc"], "shd": metrics["shd"],
               "seconds": round(time.time() - t0, 3)}
    _atomic_write(cell_file, json.dumps(result, sort_keys=True))
    return result


def run_sweep(config: dict, jobs: int = 1) -> list[dict]:
    """Run every (grid entry, trial) cell, in at most ``jobs`` worker processes.

    Every cell's simulate and fit configs are checked before any output exists.
    A cell that fails is a row with its "exit" code and "error" message.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    _check_keys(config, SWEEP_KEYS, "sweep config", SWEEP_FORM)
    grid = config.get("grid")
    if not isinstance(grid, list) or not grid:
        raise ParameterError("sweep grid must be a non-empty list")
    n_trials = _config_number(config, "n_trials", 1, integral=True, positive=True)
    out_dir = config.get("out_dir", "sweep_out")
    if not isinstance(out_dir, (str, os.PathLike)):
        raise ParameterError(f"out_dir must be a string, got {out_dir!r}")
    out_dir = Path(out_dir)
    base = _config_object(config, "base", {})
    base_seed = _config_number(base, "seed", 0, integral=True)

    tasks = []
    for index, entry in enumerate(grid):
        cell = _cell(base, index, entry)
        for trial in range(n_trials):
            # One seed per trial (not per grid entry): cells within a trial
            # share the graph/SCM instance, pairing the comparison.
            seed = int(np.random.SeedSequence((base_seed, trial)).generate_state(1)[0])
            sim_cfg = {k: v for k, v in cell.items() if k != "em"} | {"seed": seed}
            em_cfg = _config_object(cell, "em", {}) | {"seed": seed}
            _read_simulation(sim_cfg)
            _em_config_from_dict(em_cfg)
            tasks.append((index, entry, sim_cfg, em_cfg, trial, str(out_dir)))
    out_dir.mkdir(parents=True, exist_ok=True)

    # A pool starts all its workers at the first submit, so it gets no more than there are cells.
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks))
    else:
        results = [_run_cell(t) for t in tasks]

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["cell", "trial", "auprc", "shd", "seconds", "exit", "error"])
    for r in results:
        writer.writerow([r["cell"], r["trial"], r["auprc"], r["shd"], r["seconds"],
                         r.get("exit", EXIT_OK), r.get("error")])
    _atomic_write(out_dir / "results.csv", text.getvalue())
    return results


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reclaim",
                                     description="Cyclic causal discovery from noisy measurements")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--seed", type=int, default=None)

    p_noise = sub.add_parser("estimate-noise", help="estimate measurement noise variances")
    p_noise.add_argument("--data-dir", required=True)
    p_noise.add_argument("--out", default=None)

    p_fit = sub.add_parser("fit", help="run the EM structure learner")
    p_fit.add_argument("--data-dir", required=True)
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--out-dir", default=None)
    p_fit.add_argument("--resume", action="store_true")
    p_fit.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("evaluate", help="score a report against the true graph")
    p_eval.add_argument("--report", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--threshold", type=float, default=0.8)

    p_sweep = sub.add_parser("sweep", help="run a grid of simulate+fit+evaluate cells")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            config = _load_config(args.config)
            config["seed"] = _resolve_seed(config, args.seed)
            run_simulate(config, args.out_dir)
        elif args.command == "estimate-noise":
            run_estimate_noise(args.data_dir, args.out)
        elif args.command == "fit":
            config = _load_config(args.config)
            config["seed"] = _resolve_seed(config, args.seed)
            run_fit(args.data_dir, config, args.out_dir, resume=args.resume)
        elif args.command == "evaluate":
            metrics = run_evaluate(args.report, args.truth, args.out, args.threshold)
            print(json.dumps(metrics, sort_keys=True))
        elif args.command == "sweep":
            config = _load_config(args.config)
            base = config["base"] = _config_object(config, "base", {})
            base["seed"] = _resolve_seed(base, args.seed)
            failed = [r for r in run_sweep(config, jobs=args.jobs) if r.get("exit")]
            for r in failed:
                print(f"error: cell {r['cell']} trial {r['trial']}: {r['error']}", file=sys.stderr)
            if failed:
                return failed[0]["exit"]
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
