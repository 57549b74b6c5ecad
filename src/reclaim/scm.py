"""Ground-truth data generation: contractive cyclic SCMs and interventions.

The structural system is ``x = f(x) + z`` with
``f(x) = (1 - beta) * W'x + beta * tanh(W'x)``, solved at equilibrium by
fixed-point iteration (the mechanism is kept contractive, so the Banach
fixed-point theorem applies). Surgical interventions clamp the targeted
coordinates to externally drawn values and sever their incoming edges.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, ParameterError, check_number, check_positive
from .graphs import DirectedGraph

FIXED_POINT_TOL = 1e-8
FIXED_POINT_MAX_ITER = 1000


@dataclass(frozen=True)
class InterventionRegime:
    """A surgical intervention: clamp ``targets`` to N(mean, variance) draws.

    An empty target set is the observational regime.
    """

    targets: tuple[int, ...] = ()
    variance: float = 1.0
    mean: float = 0.0

    def __post_init__(self):
        targets = tuple(check_number("intervention target", t, int) for t in self.targets)
        if len(set(targets)) != len(targets):
            raise ParameterError(f"duplicate intervention targets: {targets}")
        object.__setattr__(self, "targets", targets)
        for name in ("mean", "variance"):
            object.__setattr__(self, name, check_number(f"intervention {name}",
                                                         getattr(self, name)))
        check_positive("intervention variance", self.variance)

    def free_mask(self, d: int) -> np.ndarray:
        """Boolean d-vector, True on coordinates governed by the SCM."""
        mask = np.ones(d, dtype=bool)
        mask[list(self.targets)] = False
        return mask


@dataclass(frozen=True)
class InterventionFamily:
    """Ordered collection of regimes; regime k owns dataset k."""

    regimes: tuple[InterventionRegime, ...]

    def __post_init__(self):
        object.__setattr__(self, "regimes", tuple(self.regimes))

    def __len__(self):
        return len(self.regimes)

    def __iter__(self):
        return iter(self.regimes)

    def check_targets(self, d: int) -> None:
        """Raise ``ParameterError`` unless every regime target is a node in [0, d)."""
        for k, regime in enumerate(self.regimes):
            if not all(0 <= t < d for t in regime.targets):
                raise ParameterError(f"regime {k} targets {list(regime.targets)}, "
                                     f"not all nodes in [0, {d})")


def single_node_family(d: int, variance: float = 1.0,
                       include_observational: bool = True) -> InterventionFamily:
    """Observational regime plus one single-node intervention per node."""
    regimes = [InterventionRegime((), variance)] if include_observational else []
    regimes += [InterventionRegime((i,), variance) for i in range(d)]
    return InterventionFamily(tuple(regimes))


@dataclass(frozen=True)
class GroundTruthScm:
    """Weighted SCM used as data generator.

    ``weights[i, j]`` is the coefficient of the edge i -> j; its support must
    match the graph. ``beta`` mixes the linear and tanh responses and
    ``noise_std`` holds the exogenous standard deviations.
    """

    graph: DirectedGraph
    weights: np.ndarray
    beta: float = 1.0
    noise_std: np.ndarray | float = 1.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.graph.d, self.graph.d):
            raise ParameterError("weight matrix shape must match the graph")
        if np.any((w != 0) & ~self.graph.adj):
            raise ParameterError("weights outside the graph support")
        if not (0 <= self.beta <= 1):
            raise ParameterError("beta must lie in [0, 1]")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "noise_std", check_positive("noise_std", self.noise_std,
                                                             (self.graph.d,)))

    @property
    def d(self) -> int:
        return self.graph.d


def rescale_to_contractive(weights: np.ndarray, target_lipschitz: float) -> np.ndarray:
    """Scale a weight matrix down so its spectral norm is <= target.

    Returns ``W * min(1, target / ||W||_2)``; matrices already inside the
    budget are returned unchanged.
    """
    if not (0 < target_lipschitz < 1):
        raise ParameterError("target_lipschitz must lie in (0, 1)")
    weights = np.asarray(weights, dtype=float)
    norm = float(np.linalg.norm(weights, 2)) if weights.size else 0.0
    if norm <= target_lipschitz:
        return weights.copy()
    return weights * (target_lipschitz / norm)


def sample_benchmark_scm(graph: DirectedGraph, seed, beta: float = 1.0,
                         weight_range: tuple[float, float] = (0.2, 0.9),
                         target_lipschitz: float = 0.9,
                         noise_std: np.ndarray | float = 1.0) -> GroundTruthScm:
    """Draw edge weights uniformly in +-[lo, hi] and rescale to contraction."""
    rng = np.random.default_rng(seed)
    d = graph.d
    lo, hi = weight_range
    mags = rng.uniform(lo, hi, size=(d, d))
    signs = rng.choice([-1.0, 1.0], size=(d, d))
    w = np.where(graph.adj, mags * signs, 0.0)
    w = rescale_to_contractive(w, target_lipschitz)
    return GroundTruthScm(graph, w, beta=beta, noise_std=noise_std)


def mechanism(scm: GroundTruthScm, x: np.ndarray) -> np.ndarray:
    """Causal response f(x) = (1-beta) W'x + beta tanh(W'x), without noise.

    Accepts a single d-vector or an (n, d) batch.
    """
    x = np.asarray(x, dtype=float)
    wx = x @ scm.weights
    if scm.beta == 1.0:
        return np.tanh(wx)
    if scm.beta == 0.0:
        return wx
    return (1.0 - scm.beta) * wx + scm.beta * np.tanh(wx)


def solve_fixed_point(scm: GroundTruthScm, Z: np.ndarray,
                      regime: InterventionRegime = InterventionRegime(),
                      values=None) -> np.ndarray:
    """Solve the (possibly intervened) structural equations of each row of Z (n, d).

    Iterates ``X <- free*(f(X) + Z) + clamped`` from ``X0 = Z`` and returns the
    first iterate whose update and the update before it are both at most
    ``FIXED_POINT_TOL`` in infinity norm: the map contracts the 2-norm, so the
    infinity norm can rise again after one small update. ``values`` (n,
    len(targets)), aligned with ``regime.targets``, holds the clamp values;
    intervened coordinates equal them exactly on every iterate.
    """
    n, d = Z.shape
    free = regime.free_mask(d).astype(float)
    C = np.zeros((n, d))
    if regime.targets:
        C[:, list(regime.targets)] = values
    X, small = Z.copy(), False
    for step in range(1, FIXED_POINT_MAX_ITER + 1):
        nxt = free * (mechanism(scm, X) + Z) + C
        delta = np.max(np.abs(nxt - X), initial=0.0)  # 0 on zero rows
        if small and delta <= FIXED_POINT_TOL:
            return X
        X, small = nxt, delta <= FIXED_POINT_TOL
    raise ConvergenceError(f"fixed-point iteration stalled at residual {delta:.3e} "
                           f"after {step} iterations")


def sample_latents(scm: GroundTruthScm, regime: InterventionRegime,
                   n: int, seed) -> np.ndarray:
    """Draw n equilibrium samples of the latent vector under one regime."""
    rng = np.random.default_rng(seed)
    d = scm.d
    Z = rng.normal(0.0, scm.noise_std, size=(n, d))
    if regime.targets:
        vals = rng.normal(regime.mean, np.sqrt(regime.variance),
                          size=(n, len(regime.targets)))
    else:
        vals = None
    return solve_fixed_point(scm, Z, regime, vals)


# ---------------------------------------------------------------------------
# dataset export / import


def family_to_json(family: InterventionFamily) -> str:
    return json.dumps({
        "regimes": [
            {"targets": list(r.targets), "sigma_I_sq": r.variance, "mean": r.mean}
            for r in family.regimes
        ]
    })


def family_from_json(text: str) -> InterventionFamily:
    obj = json.loads(text)
    regimes = tuple(
        InterventionRegime(tuple(r["targets"]), r["sigma_I_sq"], r.get("mean", 0.0))
        for r in obj["regimes"]
    )
    return InterventionFamily(regimes)


@contextlib.contextmanager
def atomic_open(path):
    """A text handle on ``path.tmp`` that replaces ``path`` once the block exits.

    The parent directory is made first. If the block raises, the temporary
    file is removed and ``path`` keeps its old content, so no reader sees a
    file cut short.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


# Rows formatted by one % operation: bounds the text held at once.
_CSV_BLOCK_ROWS = 4096


def write_regime_csv(path, data: np.ndarray) -> None:
    """One regime's samples as CSV with a y0..y{p-1} header row.

    Each value is written as ``%.17g``, which round-trips a float exactly; the
    bytes are those of ``np.savetxt(path, data, delimiter=",", fmt="%.17g",
    header=..., comments="")``.
    """
    data = np.asarray(data, dtype=float)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with atomic_open(path) as fh:
        fh.write(",".join(f"y{j}" for j in range(data.shape[1])) + "\n")
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            block = data[start:start + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_regime_csv(path) -> np.ndarray:
    """A regime CSV as an (n, p) array; a file with no data rows, only a
    header and blank lines, is (0, p)."""
    with open(path) as fh:
        header = fh.readline()
        if not any(line.strip() for line in fh):
            return np.zeros((0, len(header.strip().split(","))))
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_dataset(directory, datasets, family: InterventionFamily) -> None:
    """Write regime_<k>.csv for every regime plus family.json.

    family.json marks a whole set: it is removed before the first regime is
    written and written last, so a write cut short leaves a directory that
    ``read_dataset`` refuses, never one that mixes two sets.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if len(datasets) != len(family):
        raise ParameterError("one dataset per regime is required")
    (directory / "family.json").unlink(missing_ok=True)
    for k, data in enumerate(datasets):
        write_regime_csv(directory / f"regime_{k}.csv", data)
    with atomic_open(directory / "family.json") as fh:
        fh.write(family_to_json(family))


def read_dataset(directory):
    """Load (datasets, family) written by :func:`write_dataset`.

    A directory without family.json, such as one whose write was cut short,
    is a ``FileNotFoundError``. A regime CSV with a non-finite entry, or with
    another number of columns than regime 0's, is a ``ParameterError``.
    """
    directory = Path(directory)
    family = family_from_json((directory / "family.json").read_text())
    datasets = [read_regime_csv(directory / f"regime_{k}.csv") for k in range(len(family))]
    for k, data in enumerate(datasets):
        if data.shape[1] != datasets[0].shape[1]:
            raise ParameterError(f"regime_{k}.csv has {data.shape[1]} columns, "
                                 f"regime_0.csv {datasets[0].shape[1]}")
        if not np.isfinite(data).all():
            raise ParameterError(f"regime_{k}.csv holds a non-finite value")
    return datasets, family
