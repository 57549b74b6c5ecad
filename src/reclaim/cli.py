"""Command-line harness: simulate | estimate-noise | fit | evaluate | sweep.

Exit codes: 0 success, 2 usage/config error (including a channel.json that
is malformed, names an unknown type, lacks a key or has a rank-deficient
mixing matrix, a family.json or regime CSV that does not parse, a regime
CSV with a non-finite entry or another number of columns than the others,
a channel whose p is not the data's column count, a regime whose target is
not an integer node index in [0, d) or whose mean or variance is not a
finite number, an "include_observational" or "use_true_noise" that is not
true or false, a checkpoint.json to resume from that is malformed or of
another dimension than the data, a truth graph or report that does not
parse, and an evaluation against a truth graph with no edges),
3 I/O failure, 4 unmet interventional-coverage requirement, 5 numerical
failure (too many degenerate observations in an E-step, a fixed-point
iteration that stalls, or a forward map that fails the orientation check).

``fit`` writes ``checkpoint.json`` (the parameters and the per-round trace)
after every round. ``fit --resume`` continues from that checkpoint's trace,
so it writes the same ``report.json`` and ``trace.csv`` as an uninterrupted
fit; a fit whose trace has converged or holds ``em_rounds`` rounds runs no
new round.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import em, graphs, measurement, scm
from .errors import (ConvergenceError, EStepError, IdentifiabilityError,
                     ParameterError, RankError, UndefinedMetricError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_IDENTIFIABILITY = 4
EXIT_NUMERICAL = 5


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _parsing(what: str):
    """Turn the ValueError, KeyError or TypeError of content that does not
    parse into a ConfigError naming ``what``; an OSError passes through."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"malformed {what}: no key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc


def _load_json(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with _parsing(f"JSON in {path}"):
        return json.loads(path.read_text())


def _number(name: str, value, integral: bool = False):
    """``value`` as an int (``integral``) or a float; any other value is a ConfigError."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integral else numbers.Real):
        raise ConfigError(f"{name} must be {'an integer' if integral else 'a real number'}, "
                          f"got {value!r}")
    return int(value) if integral else float(value)


def _config_number(config: dict, key: str, default=None, integral: bool = False,
                   positive: bool = False):
    """The number ``config[key]``, or ``default`` when the key is absent.

    A key without a default is required. A missing required key, a value
    that is not an integer (``integral``) or a real number, or a ``positive``
    one that is not above 0 is a ConfigError.
    """
    if key not in config:
        if default is None:
            raise ConfigError(f"config has no {key!r}")
        return default
    value = _number(key, config[key], integral)
    if positive and not value > 0:
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return value


def _config_flag(config: dict, key: str, default: bool) -> bool:
    """The JSON boolean ``config[key]``, or ``default`` when the key is absent;
    any other value, such as the string "false", is a ConfigError."""
    value = config.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _weight_range(config: dict) -> tuple[float, float]:
    """The config's "weight_range" [lo, hi] of edge-weight magnitudes, lo <= hi."""
    value = config.get("weight_range", [0.2, 0.9])
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"weight_range must be two numbers [lo, hi], got {value!r}")
    lo, hi = (_number("weight_range", v) for v in value)
    if not lo <= hi:
        raise ConfigError(f"weight_range must have lo <= hi, got {value!r}")
    return lo, hi


def _resolve_seed(config: dict, flag_seed):
    """Precedence: RECLAIM_SEED env var, then --seed flag, then config["seed"] (default 0)."""
    config_seed = _config_number(config, "seed", 0, integral=True)
    env = os.environ.get("RECLAIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"RECLAIM_SEED must be an integer, got {env!r}") from exc
    if flag_seed is not None:
        return flag_seed
    return config_seed


def _atomic_write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


# ---------------------------------------------------------------------------
# simulate


def _build_true_channel(channel_cfg: dict, d: int, rng) -> measurement.Channel:
    """The simulated channel: the config's "A" and "sigma_sq", or random draws."""
    spec = {"type": "gan", **channel_cfg}
    p = _config_number(spec, "p", d, integral=True) if spec["type"] == "linear" else d
    if spec["type"] == "linear" and "A" not in spec:
        mixing_var = _config_number(spec, "mixing_var", 1.5, positive=True)
        spec["A"] = rng.normal(0.0, np.sqrt(mixing_var), size=(p, d))
    if "sigma_sq" not in spec:
        spec["sigma_sq"] = rng.uniform(_config_number(spec, "sigma_min", 0.3, positive=True),
                                       _config_number(spec, "sigma_max", 0.6, positive=True),
                                       size=p) ** 2
    return measurement.channel_from_dict(spec)


def run_simulate(config: dict, out_dir) -> None:
    seed = _config_number(config, "seed", 0, integral=True)
    d = _config_number(config, "d", integral=True)
    density = _config_number(config, "graph_density", 2.0)
    n = _config_number(config, "n_per_regime", 1000, integral=True)
    if n < 0:
        raise ConfigError(f"n_per_regime must be >= 0, got {n}")
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
    channel = _build_true_channel(config.get("channel", {"type": "gan"}),
                                  d, np.random.default_rng(int(chan_seed)))

    datasets = []
    for k, regime in enumerate(family):
        child = np.random.SeedSequence((seed, 2026, k)).generate_state(2)
        latents = scm.sample_latents(truth, regime, n, seed=int(child[0]))
        datasets.append(measurement.measure(channel, latents, seed=int(child[1]))
                        if n else np.zeros((0, channel.p)))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scm.write_dataset(out, datasets, family)
    _atomic_write(out / "channel.json", measurement.channel_to_json(channel))
    _atomic_write(out / "truth_graph.json", graphs.graph_to_json(graph))
    _atomic_write(out / "scm.json", json.dumps({
        "weights": truth.weights.tolist(),
        "beta": truth.beta,
        "sigma_z": truth.noise_std.tolist(),
    }))


# ---------------------------------------------------------------------------
# estimate-noise


def _read_channel_spec(data_dir: Path) -> dict:
    """The data directory's ``channel.json`` object; a missing file is an I/O error."""
    path = data_dir / "channel.json"
    with _parsing(f"JSON in {path}"):
        spec = json.loads(path.read_text())
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return spec


def _read_data_dir(data_dir: Path):
    """``(datasets, family, channel spec)`` of a data directory, as ``fit`` and
    ``estimate-noise`` read it; a missing file is an I/O error."""
    with _parsing(f"regime data in {data_dir}"):
        datasets, family = scm.read_dataset(data_dir)
    return datasets, family, _read_channel_spec(data_dir)


def run_estimate_noise(data_dir, out_path=None) -> None:
    data_dir = Path(data_dir)
    datasets, family, spec = _read_data_dir(data_dir)
    estimated = em.build_channel({**spec, "sigma_sq": None}, datasets, family, seed=0)
    out_path = Path(out_path) if out_path else data_dir / "phi_hat.json"
    _atomic_write(out_path, measurement.channel_to_json(estimated))


# ---------------------------------------------------------------------------
# fit


def _em_config_from_dict(cfg_dict: dict) -> em.EmConfig:
    """EmConfig from a fit config; ``use_true_noise`` is the one key it may add."""
    kwargs = {k: v for k, v in cfg_dict.items() if k != "use_true_noise"}
    unknown = sorted(set(kwargs) - set(em.EmConfig.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"unknown EM config keys: {', '.join(unknown)}")
    return em.EmConfig(**kwargs)


def run_fit(data_dir, em_config: dict, out_dir=None, resume: bool = False) -> em.FitReport:
    data_dir = Path(data_dir)
    datasets, family, spec = _read_data_dir(data_dir)
    if not _config_flag(em_config, "use_true_noise", False):
        spec.pop("sigma_sq", None)
    # The output directory is made by the first write, after the channel is built.
    out_dir = Path(out_dir) if out_dir else data_dir
    cfg = _em_config_from_dict(em_config)

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
        raise ConfigError(
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


SWEEP_KINDS = ("sigma_min", "n_nodes", "n_measurements", "beta", "density")


def _cell_config(base: dict, kind: str, value) -> dict:
    cfg = json.loads(json.dumps(base))  # deep copy
    channel = cfg.setdefault("channel", {"type": "gan"})
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")
    value = _number(f"{kind} grid value", value, integral=kind in ("n_nodes", "n_measurements"))
    if kind == "sigma_min":
        channel["sigma_min"] = value
        channel["sigma_max"] = value + 0.3
    elif kind == "n_nodes":
        cfg["d"] = value
    elif kind == "n_measurements":
        if channel.get("type") != "linear":
            raise ConfigError("n_measurements sweep requires a linear channel")
        channel["p"] = value
    elif kind == "beta":
        cfg["beta"] = value
    else:
        cfg["graph_density"] = value
    return cfg


def _run_cell(args):
    base, kind, value, trial, seed, out_dir = args
    sim_cfg = _cell_config(base, kind, value)
    sim_cfg["seed"] = seed
    em_cfg = dict(base.get("em", {}))
    em_cfg["seed"] = seed
    # A cached cell is reused only for the same simulation config, EM config and seed.
    key = hashlib.sha256(json.dumps({"cell": sim_cfg, "em": em_cfg},
                                    sort_keys=True).encode()).hexdigest()[:16]
    name = f"cell_{kind}_{value}_{trial}_{key}"
    cell_dir = Path(out_dir) / name
    cell_file = Path(out_dir) / f"{name}.json"
    if cell_file.exists():
        return json.loads(cell_file.read_text())
    t0 = time.time()
    run_simulate(sim_cfg, cell_dir)
    run_fit(cell_dir, em_cfg, cell_dir)
    metrics = run_evaluate(cell_dir / "report.json", cell_dir / "truth_graph.json")
    result = {
        "sweep_param": kind, "value": value, "trial": trial,
        "auprc": metrics["auprc"], "shd": metrics["shd"],
        "seconds": round(time.time() - t0, 3),
    }
    _atomic_write(cell_file, json.dumps(result, sort_keys=True))
    return result


def run_sweep(config: dict, jobs: int = 1) -> list[dict]:
    """Run every (grid value, trial) cell, in at most ``jobs`` worker processes."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    kind = config.get("sweep")
    grid = config.get("grid", [])
    n_trials = _config_number(config, "n_trials", 1, integral=True, positive=True)
    out_dir = Path(config.get("out_dir", "sweep_out"))
    base = config.get("base", {})
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep grid must be a non-empty list")
    for value in grid:
        _cell_config(base, kind, value)  # a bad kind or grid value fails before any output
    out_dir.mkdir(parents=True, exist_ok=True)
    base_seed = _config_number(base, "seed", 0, integral=True)

    tasks = []
    for value in grid:
        for trial in range(n_trials):
            # One seed per trial (not per grid value): grid points within a
            # trial share the graph/SCM instance, pairing the comparison.
            cell_seed = int(np.random.SeedSequence((base_seed, trial)).generate_state(1)[0])
            tasks.append((base, kind, value, trial, cell_seed, str(out_dir)))

    # A pool starts all its workers at the first submit, so it gets no more than there are cells.
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks))
    else:
        results = [_run_cell(t) for t in tasks]

    lines = ["sweep_param,value,trial,auprc,shd,seconds"]
    for r in results:
        lines.append(f"{r['sweep_param']},{r['value']},{r['trial']},"
                     f"{r['auprc']!r},{r['shd']},{r['seconds']!r}")
    _atomic_write(out_dir / "results.csv", "\n".join(lines) + "\n")
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
            config = _load_json(args.config)
            config["seed"] = _resolve_seed(config, args.seed)
            run_simulate(config, args.out_dir)
        elif args.command == "estimate-noise":
            run_estimate_noise(args.data_dir, args.out)
        elif args.command == "fit":
            config = _load_json(args.config)
            config["seed"] = _resolve_seed(config, args.seed)
            run_fit(args.data_dir, config, args.out_dir, resume=args.resume)
        elif args.command == "evaluate":
            metrics = run_evaluate(args.report, args.truth, args.out, args.threshold)
            print(json.dumps(metrics, sort_keys=True))
        elif args.command == "sweep":
            config = _load_json(args.config)
            base = config.setdefault("base", {})
            base["seed"] = _resolve_seed(base, args.seed)
            run_sweep(config, jobs=args.jobs)
    except (ConfigError, ParameterError, RankError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IdentifiabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IDENTIFIABILITY
    except (EStepError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
