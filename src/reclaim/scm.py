"""Ground-truth data generation: contractive cyclic SCMs and interventions.

The structural system is ``x = f(x) + z`` with
``f(x) = (1 - beta) * W'x + beta * tanh(W'x)``, solved at equilibrium by
fixed-point iteration (the mechanism is kept contractive, so the Banach
fixed-point theorem applies). Surgical interventions clamp the targeted
coordinates to externally drawn values and sever their incoming edges.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, ParameterError
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
        targets = tuple(self.targets)
        if not all(isinstance(t, numbers.Integral) and not isinstance(t, bool) for t in targets):
            raise ParameterError(f"intervention targets must be integers, got {list(targets)}")
        targets = tuple(int(t) for t in targets)
        if len(set(targets)) != len(targets):
            raise ParameterError(f"duplicate intervention targets: {targets}")
        for name in ("mean", "variance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise ParameterError(f"intervention {name} must be a finite real number, "
                                     f"got {value!r}")
        if self.variance <= 0:
            raise ParameterError("intervention variance must be positive")
        object.__setattr__(self, "targets", targets)

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
        sigma = np.broadcast_to(np.asarray(self.noise_std, dtype=float), (self.graph.d,)).copy()
        if np.any(sigma <= 0):
            raise ParameterError("exogenous noise std must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "noise_std", sigma)

    @property
    def d(self) -> int:
        return self.graph.d


def spectral_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix, 2)) if matrix.size else 0.0


def rescale_to_contractive(weights: np.ndarray, target_lipschitz: float) -> np.ndarray:
    """Scale a weight matrix down so its spectral norm is <= target.

    Returns ``W * min(1, target / ||W||_2)``; matrices already inside the
    budget are returned unchanged.
    """
    if not (0 < target_lipschitz < 1):
        raise ParameterError("target_lipschitz must lie in (0, 1)")
    weights = np.asarray(weights, dtype=float)
    norm = spectral_norm(weights)
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


def solve_fixed_point(scm: GroundTruthScm, z: np.ndarray,
                      regime: InterventionRegime = InterventionRegime(),
                      values=None, tol: float = FIXED_POINT_TOL,
                      max_iter: int = FIXED_POINT_MAX_ITER) -> np.ndarray:
    """Solve the (possibly intervened) structural equations at equilibrium.

    Iterates ``x <- free*(f(x) + z) + clamped`` from ``x0 = z`` until the
    update is below ``tol`` in infinity norm. Intervened coordinates equal
    their clamped values exactly on every iterate. ``values`` holds the
    clamp values, either one per target or as a full d-vector.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    vals = None
    if regime.targets:
        if values is None:
            raise ParameterError("intervention values required for a non-empty regime")
        v = np.asarray(values, dtype=float)
        if v.shape == (d,):
            v = v[list(regime.targets)]
        elif v.shape != (len(regime.targets),):
            raise ParameterError("intervention values must cover the targets")
        vals = v[None, :]
    return _solve_fixed_point_batch(scm, z[None, :], regime, vals, tol, max_iter)[0]


def _solve_fixed_point_batch(scm, Z, regime, values, tol, max_iter):
    # values: (n, len(targets)) aligned with regime.targets, or None.
    n, d = Z.shape
    free = regime.free_mask(d).astype(float)
    C = np.zeros((n, d))
    if regime.targets:
        C[:, list(regime.targets)] = values
    X = Z.copy()
    for _ in range(max_iter):
        nxt = free * (mechanism(scm, X) + Z) + C
        delta = np.max(np.abs(nxt - X))
        X = nxt
        if delta <= tol:
            break
    residual = np.max(np.abs(X - (free * (mechanism(scm, X) + Z) + C)))
    if residual > tol:
        raise ConvergenceError(
            f"fixed-point iteration stalled at residual {residual:.3e} after {max_iter} iterations",
            residual=residual,
        )
    return X


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
    if n == 0:
        return np.zeros((0, d))
    return _solve_fixed_point_batch(scm, Z, regime, vals,
                                    FIXED_POINT_TOL, FIXED_POINT_MAX_ITER)


def linear_latent_logpdf_oracle(weights: np.ndarray, noise_std, regime: InterventionRegime,
                                x: np.ndarray) -> float:
    """Exact interventional log-density for the linear (beta=0) system.

    Intervened coordinates contribute their clamp density, free coordinates
    the Gaussian density of the implied exogenous noise, plus the
    log-determinant of the masked forward map.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    noise_std = np.broadcast_to(np.asarray(noise_std, dtype=float), (d,))
    free = regime.free_mask(d)
    z = x - free * (x @ weights)

    ll = 0.0
    if regime.targets:
        idx = list(regime.targets)
        ll += _gauss_logpdf(x[idx], regime.mean, regime.variance)
    ll += _gauss_logpdf(z[free], 0.0, noise_std[free] ** 2)
    jac = free[:, None] * weights.T
    sign, logdet = np.linalg.slogdet(np.eye(d) - jac)
    if sign <= 0:
        raise ConvergenceError("masked forward map is not orientation-preserving")
    return float(ll + logdet)


def _gauss_logpdf(values, mean, var) -> float:
    values = np.asarray(values, dtype=float)
    var = np.broadcast_to(np.asarray(var, dtype=float), values.shape)
    return float(np.sum(-0.5 * (np.log(2.0 * np.pi * var) + (values - mean) ** 2 / var)))


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


def write_regime_csv(path, data: np.ndarray) -> None:
    """One regime's samples as CSV with a y0..y{p-1} header row."""
    data = np.asarray(data, dtype=float)
    header = ",".join(f"y{j}" for j in range(data.shape[1]))
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def read_regime_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline()
        if not fh.readline():
            return np.zeros((0, len(header.strip().split(","))))
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_dataset(directory, datasets, family: InterventionFamily) -> None:
    """Write regime_<k>.csv for every regime plus family.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if len(datasets) != len(family):
        raise ParameterError("one dataset per regime is required")
    for k, data in enumerate(datasets):
        write_regime_csv(directory / f"regime_{k}.csv", data)
    (directory / "family.json").write_text(family_to_json(family))


def read_dataset(directory):
    """Load (datasets, family) written by :func:`write_dataset`.

    A regime CSV with a non-finite entry, or with another number of columns
    than regime 0's, is a ``ParameterError``.
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
