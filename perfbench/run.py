"""Offline benchmark of the reclaim EM pipeline: set-up, EM rounds, evaluation.

Run from the repository root:

    python3 perfbench/run.py --workload gan-d10 --seed 1 --seconds 20 --trace 0

One run fits three datasets of the workload, one simulated from ``--seed``
and two from seeds derived from it. It first sets up each dataset twice, in
one burst (simulate, write and read the dataset as the CLI does, estimate the
channel noise, initialise theta). It then repeats cycles of a fixed-length EM
fit plus an evaluation, one dataset after the other, until every dataset is
fitted once and ``--seconds`` have passed. Timings are rescaled by the host's
speed, which a reference kernel samples all through the run (see
``HostSpeed``). Correctness checks run after the timed part. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = 1  # pinned before numpy loads; at most nproc, and steadier than 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pin)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "runs"

# Every workload: single-node interventions plus the observational regime,
# EM defaults (64 proposals, 16 resampled, 50 M-steps of 256 rows).
WORKLOADS = {
    "gan-d10": {"d": 10, "n_per_regime": 500, "channel": {"type": "gan"}},
    "linear-d10-p20": {"d": 10, "n_per_regime": 500, "channel": {"type": "linear", "p": 20}},
    "gan-d15": {"d": 15, "n_per_regime": 100, "channel": {"type": "gan"}},
}
N_DATASETS = 3
SETUPS_PER_DATASET = 2
EM_ROUNDS = 2
# Relative change of the surrogate that would stop a fit early; far below
# anything two rounds produce, so every fit runs exactly EM_ROUNDS rounds.
CONVERGENCE_TOL = 1e-12


class HostSpeed:
    """Samples the host's speed with a fixed reference kernel, ten times a second.

    The host runs at two speeds about 1.9x apart, switching every one to
    twenty seconds, and CPU time slows as much as wall time. A SIGALRM handler
    in the main thread times one batched ``slogdet`` of fixed matrices every
    ``INTERVAL`` seconds. ``scale(a, b)`` is ``REFERENCE_S`` over the mean
    kernel time sampled within ``MARGIN`` seconds of [a, b]: multiplying a
    wall time by it gives the time at the speed where the kernel takes
    ``REFERENCE_S``. The samples are evenly spaced in time, so their mean
    follows the host's speed averaged over the interval.
    """

    INTERVAL = 0.1
    MARGIN = 0.5
    REFERENCE_S = 0.001

    def __init__(self):
        self._mats = np.random.default_rng(0).standard_normal((400, 10, 10))
        self.samples = []  # (start, seconds)

    def _sample(self, *_):
        start = time.perf_counter()
        np.linalg.slogdet(self._mats)
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, a: float, b: float) -> float:
        near = [s for t, s in self.samples if a - self.MARGIN <= t <= b + self.MARGIN]
        return self.REFERENCE_S / statistics.mean(near) if near else float("nan")


@dataclass
class SetUp:
    datasets: list
    family: object
    channel: object
    spec: dict
    theta: object
    cfg: object


def _import_package():
    if not (ROOT / "src" / "reclaim" / "__init__.py").is_file():
        sys.exit(f"error: the reclaim package is not at {ROOT / 'src' / 'reclaim'}")
    sys.path.insert(0, str(ROOT / "src"))
    from reclaim import cli, em, graphs, measurement, model, noise, posterior, scm
    return {"cli": cli, "em": em, "graphs": graphs, "measurement": measurement,
            "model": model, "noise": noise, "posterior": posterior, "scm": scm}


def set_up(m, workload: str, seed: int, data_dir: Path) -> SetUp:
    """Everything before the first EM round, through the package's public calls."""
    em, measurement, noise = m["em"], m["measurement"], m["noise"]
    shutil.rmtree(data_dir, ignore_errors=True)
    m["cli"].run_simulate({**WORKLOADS[workload], "seed": seed}, data_dir)
    datasets, family = m["scm"].read_dataset(data_dir)
    channel = measurement.channel_from_json((data_dir / "channel.json").read_text())
    cfg = em.EmConfig(em_rounds=EM_ROUNDS, seed=seed, convergence_tol=CONVERGENCE_TOL)
    # em.fit derives this seed for its own noise estimate and initial theta;
    # doing both here with it lets fit start at round one on identical inputs.
    init_seed = int(np.random.SeedSequence((cfg.seed, 0)).generate_state(1)[0])
    if isinstance(channel, measurement.GaussianAdditiveChannel):
        var = noise.estimate_channel_noise(datasets, family, "gan")
        spec = {"type": "gan", "sigma_sq": var.tolist()}
    else:
        var = noise.estimate_channel_noise(datasets, family, "linear", channel.mixing,
                                           seed=init_seed)
        spec = {"type": "linear", "A": channel.mixing.tolist(), "sigma_sq": var.tolist()}
    theta = m["model"].init_params(channel.d, hidden=cfg.hidden,
                                   lipschitz_target=cfg.lipschitz_target,
                                   seed=init_seed, weight_scale=cfg.init_weight_scale)
    return SetUp(datasets, family, channel, spec, theta, cfg)


def fit_cycle(m, s: SetUp, data_dir: Path) -> dict:
    """One fixed-length EM fit and one evaluation.

    Returns the fit's start and end, the end of each round, theta after each
    round, the report and the evaluation, and the error of the step that
    raised, if one did.
    """
    em, cli = m["em"], m["cli"]
    ends, thetas = [], []

    def callback(_round, theta, *_):
        ends.append(time.perf_counter())
        thetas.append(theta)

    out = {"ends": ends, "thetas": thetas, "report": None, "evaluation": None, "error": None}
    out["start"] = time.perf_counter()
    try:
        out["report"] = em.fit(s.datasets, s.family, s.spec, s.cfg, init_theta=s.theta,
                               round_callback=callback)
    except Exception as exc:  # the round that raised, and those after it, failed
        traceback.print_exc()
        out["error"] = f"fit: {type(exc).__name__}: {exc}"
    out["end"] = time.perf_counter()
    if out["report"] is not None:
        try:
            (data_dir / "report.json").write_text(em.report_to_json(out["report"]))
            out["evaluation"] = cli.run_evaluate(data_dir / "report.json",
                                                 data_dir / "truth_graph.json")
        except Exception as exc:
            traceback.print_exc()
            out["error"] = f"evaluation: {type(exc).__name__}: {exc}"
    return out


def dataset_seeds(seed: int) -> list[int]:
    """The run's simulation and EM seeds: the given one and ones derived from it.

    The mean AUPRC of several random graphs varies less from seed to seed
    than the AUPRC of one.
    """
    return [seed] + [int(np.random.SeedSequence((seed, k)).generate_state(1)[0])
                     for k in range(1, N_DATASETS)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    m = _import_package()
    import checks
    from spans import Tracer, layer_metrics

    OUT_DIR.mkdir(exist_ok=True)
    seeds = dataset_seeds(args.seed)
    data_dirs = [OUT_DIR / f"data-{args.workload}-{s}-{os.getpid()}" for s in seeds]
    speed = HostSpeed()
    tracer = Tracer(m) if args.trace else None
    info = {"workload": args.workload, "seed": args.seed, "dataset_seeds": seeds,
            "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "python": sys.version.split()[0],
            "em_rounds": EM_ROUNDS}
    print(json.dumps({"machine": info}), flush=True)

    setups = [[] for _ in seeds]  # per dataset, every set-up that succeeded
    setup_spans, setup_errors, cycles = [], [], []  # spans of the set-ups that succeeded
    try:
        with speed, tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            for _ in range(SETUPS_PER_DATASET):
                for g, seed in enumerate(seeds):
                    start = time.perf_counter()
                    try:
                        setups[g].append(set_up(m, args.workload, seed, data_dirs[g]))
                        setup_spans.append((start, time.perf_counter()))
                    except Exception as exc:
                        traceback.print_exc()
                        setup_errors.append(f"set-up {g}: {type(exc).__name__}: {exc}")
            while len(cycles) < N_DATASETS or time.perf_counter() - t0 < args.seconds:
                g = len(cycles) % N_DATASETS
                if setups[g]:
                    cycle = fit_cycle(m, setups[g][0], data_dirs[g])
                else:
                    cycle = {"ends": [], "thetas": [], "report": None, "evaluation": None,
                             "error": f"dataset {g} has no set-up"}
                cycles.append({"graph": g, **cycle})
            peak_rss = _peak_rss_mb()
        results = checks.run_all(m, setups, cycles, data_dirs, EM_ROUNDS, args.seed)
    finally:
        for d in data_dirs:
            shutil.rmtree(d, ignore_errors=True)

    attempted = len(setup_spans) + len(setup_errors) + len(cycles) * (EM_ROUNDS + 1)
    failed = len(setup_errors) + sum(EM_ROUNDS - len(c["ends"]) + (c["evaluation"] is None)
                                     for c in cycles)
    correct = all(ok for ok, _ in results.values())
    for name, (ok, detail) in results.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}", flush=True)
    for error in setup_errors + [c["error"] for c in cycles if c["error"]]:
        print(f"failed: {error}", flush=True)

    def rescaled(a, b):
        return (b - a) * speed.scale(a, b)

    # A round runs from the end of the one before it (or the fit's start) to its own end.
    round_spans = [list(zip([c["start"]] + c["ends"][:-1], c["ends"])) for c in cycles
                   if c["ends"]]
    rounds = [[rescaled(a, b) for a, b in fit] for fit in round_spans]
    setups = [rescaled(a, b) for a, b in setup_spans]
    evals = [c["evaluation"] for c in cycles[:N_DATASETS]]
    e2e = {
        "setup_s": (_median(setups), "s"),
        "round_s": (_median(r for fit in rounds for r in fit[1:]), "s"),
        "fit_s": (_median(rescaled(c["start"], c["end"]) for c in cycles
                          if c["report"] is not None), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "auprc": (statistics.mean(e["auprc"] for e in evals) if all(evals) else float("nan"),
                  "ratio"),
    }
    print(json.dumps({"timings": {
        "rounds": rounds, "setups": setups,
        "raw_rounds": [[b - a for a, b in fit] for fit in round_spans],
        "raw_setups": [b - a for a, b in setup_spans],
        "speed_samples": len(speed.samples)}}), flush=True)
    if tracer:
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"spans written to {span_file.relative_to(ROOT)}", flush=True)
        n_rounds = sum(len(c["ends"]) for c in cycles)
        metrics = layer_metrics(tracer.spans, len(setup_spans), n_rounds)
    else:
        metrics = e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
