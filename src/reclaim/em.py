"""Penalized EM: SIR-based expectation steps and Adam-ascent M-steps.

Each round freezes posterior particles drawn under the current parameters,
then runs minibatch gradient ascent on the Monte-Carlo surrogate (mean
complete-data latent log-density) minus an expected-edge-count penalty.
The measurement-channel term of the complete-data likelihood is constant in
the latent parameters, so it is tracked for reporting but not optimized.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import dataclass, fields, replace
from typing import TypedDict

import numpy as np

from . import noise
from .errors import EStepError, ParameterError
from .graphs import DirectedGraph
from .measurement import Channel, channel_from_dict, channel_logpdf
from .model import (ModelParams, RegimeRows, edge_scores, expected_mask, init_params,
                    latent_logpdf_batch, latent_logpdf_grads, params_from_dict,
                    params_to_dict, sample_mask, spectral_normalize)
from .posterior import sir_sample_batch, weighted_draws
from .scm import InterventionFamily

logger = logging.getLogger(__name__)

_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
_TRAINED_FIELDS = ("w_in", "b_in", "w_out", "b_out", "edge_logits")


@dataclass
class EmConfig:
    """Knobs for the EM driver; defaults follow the benchmark protocol."""

    sparsity_lambda: float = 1e-3
    learning_rate: float = 1e-2
    em_rounds: int = 200
    m_steps_per_round: int = 50
    batch_size: int = 256
    # The Gaussian proposal keeps about 0.9 of its draws effective on a trained
    # theta (ESS ~ 0.9 S), so S = n_resample proposals already give ~n_resample
    # effective draws to resample from.
    n_proposals: int = 16
    n_resample: int = 16
    temperature: float = 1.0
    seed: int = 0
    convergence_tol: float = 1e-4
    skip_tolerance: float = 0.05
    elbo_every: int = 0
    elbo_proposals: int = 512
    hidden: int | None = None
    lipschitz_target: float = 0.9
    init_weight_scale: float = 0.1

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text: "int", "float", "int | None"
            value = getattr(self, f.name)
            integral = f.type.startswith("int")
            if value is None and f.type.endswith("None"):
                continue
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integral else numbers.Real):
                raise ParameterError(f"{f.name} must be "
                                     f"{'an integer' if integral else 'a real number'}, "
                                     f"got {value!r}")
        for name in ("sparsity_lambda", "em_rounds", "elbo_every", "init_weight_scale"):
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be >= 0")
        for name in ("learning_rate", "m_steps_per_round", "batch_size",
                     "n_proposals", "n_resample", "temperature",
                     "convergence_tol"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        if not 0 <= self.skip_tolerance < 1:
            raise ParameterError("skip_tolerance must lie in [0, 1)")
        if self.elbo_proposals < 2:  # the ELBO's standard error needs two draws
            raise ParameterError("elbo_proposals must be >= 2")
        if self.hidden is not None and self.hidden < 1:
            raise ParameterError("hidden must be >= 1")


@dataclass
class RegimeCache:
    """Frozen posterior particles for one regime's kept observations."""

    regime: object
    y: np.ndarray
    particles: np.ndarray  # (n_kept, n_resample, d), a view into ParticleCache.particles
    ess: np.ndarray

    @property
    def flat_particles(self) -> np.ndarray:
        n, r, d = self.particles.shape
        return self.particles.reshape(n * r, d)


@dataclass
class ParticleCache:
    """Every regime's frozen particles, held once.

    ``particles`` (N, d) holds the regimes' flattened particles regime after
    regime, the order the M-step's row indices address, and each
    ``RegimeCache.particles`` is a view into it. ``regime_index[i]`` is the
    position in ``regimes`` of row i's regime.
    """

    regimes: list[RegimeCache]
    particles: np.ndarray
    regime_index: np.ndarray
    n_observations: int
    n_skipped: int

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]


class RoundRecord(TypedDict):
    """One EM round's entry in a fit's trace; ``trace.csv`` has one column per key."""

    round: int
    q_value: float
    elbo_estimate: float | None
    ess_median: float
    channel_term: float
    n_skipped: int


@dataclass
class FitReport:
    edge_scores: np.ndarray
    theta: ModelParams
    phi_hat: Channel
    diagnostics: dict  # "rounds_completed", "converged" and the "trace" they derive from


def _round_seeds(seed: int, round_index: int, n: int = 3) -> list[int]:
    """Independent child seeds per (run seed, round); stable across resumes."""
    return list(np.random.SeedSequence((seed, round_index)).generate_state(n))


def e_step(theta: ModelParams, phi_hat: Channel, datasets, family: InterventionFamily,
           cfg: EmConfig, seed=None) -> ParticleCache:
    """Draw and freeze posterior particles for every observation.

    Observations whose importance weights collapse (see ``sir_sample_batch``)
    are skipped, logged at INFO while their share is within
    ``cfg.skip_tolerance``; the step fails, with a warning, if more is lost.
    """
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    mask = expected_mask(theta.edge_logits)
    ys = [np.atleast_2d(np.asarray(datasets[k], dtype=float))
          for k in range(len(family.regimes))]
    n_obs = sum(Y.shape[0] for Y in ys)
    # Each regime's particles are copied into one buffer as they come, so no
    # second copy of them all is ever held.
    flat = np.empty((n_obs * cfg.n_resample, theta.d))
    regime_index = np.empty(flat.shape[0], dtype=np.min_scalar_type(len(family.regimes)))
    regimes = []
    n_skipped = 0
    start = 0
    for k, (regime, Y) in enumerate(zip(family.regimes, ys)):
        particles, ess, kept = sir_sample_batch(
            Y, theta, mask, phi_hat, regime, regime.variance,
            cfg.n_proposals, cfg.n_resample, seed=rng.integers(2 ** 63))
        dropped = int((~kept).sum())
        if dropped:
            n_skipped += dropped
            logger.debug("regime %d: skipped %d/%d degenerate observations",
                         k, dropped, Y.shape[0])
        stop = start + particles.shape[0] * particles.shape[1]
        view = flat[start:stop].reshape(particles.shape)
        view[...] = particles
        regime_index[start:stop] = k
        regimes.append(RegimeCache(regime, Y[kept], view, ess))
        start = stop
        del particles  # held through the next regime's draws, it would be a second copy
    too_many = n_obs > 0 and n_skipped / n_obs > cfg.skip_tolerance
    if n_skipped:
        logger.log(logging.WARNING if too_many else logging.INFO,
                   "e-step skipped %d/%d degenerate observations", n_skipped, n_obs)
    if too_many:
        raise EStepError(
            f"{n_skipped}/{n_obs} observations degenerate (> {cfg.skip_tolerance:.0%})")
    return ParticleCache(regimes, flat[:start], regime_index[:start], n_obs, n_skipped)


def surrogate_q(theta: ModelParams, cache: ParticleCache) -> float:
    """Surrogate q: mean cached-particle latent log-density at the expected mask.

    Like the E-step's weights and the ELBO, q scores theta at
    ``expected_mask(edge_logits)``, so it draws no mask and is a fixed function
    of (theta, cache); only the M-step's edge-logit gradient needs relaxed
    masks. The measurement term is omitted (it does not depend on the latent
    parameters).
    """
    if cache.n_particles == 0:
        return 0.0
    mask = expected_mask(theta.edge_logits)
    total = sum(float(latent_logpdf_batch(theta, mask, rc.regime, rc.regime.variance,
                                          rc.flat_particles).sum())
                for rc in cache.regimes)
    return total / cache.n_particles


def channel_term(cache: ParticleCache, phi_hat: Channel) -> float:
    """Mean channel log-density over cached particles (constant in theta)."""
    total, count = 0.0, 0
    for rc in cache.regimes:
        ll = channel_logpdf(phi_hat, rc.y[:, None, :], rc.particles)
        total += float(np.sum(ll))
        count += ll.size
    return total / count if count else 0.0


def sparsity_penalty(theta: ModelParams, lam: float):
    """lambda * sum of off-diagonal edge probabilities, with its gradient."""
    probs = expected_mask(theta.edge_logits)
    grad = lam * probs * (1.0 - probs)
    np.fill_diagonal(grad, 0.0)
    return lam * float(probs.sum()), grad


class _Adam:
    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, values: dict, grads: dict) -> dict:
        """Ascent step; returns updated arrays."""
        self.t += 1
        b1, b2 = _ADAM_BETAS
        out = {}
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g ** 2
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            out[name] = values[name] + self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        return out


def _minibatch_grads(theta, cache, rows, mask):
    """Objective value and parameter gradients over selected cache rows.

    ``rows`` indexes ``cache.particles``; each row has weight 1/len(rows).
    The rows come from mixed regimes and are scored in one
    ``latent_logpdf_grads`` call, each at its own regime's free coordinates
    and clamp law, so one minibatch costs one kernel call's fixed overhead.
    """
    regimes = tuple(rc.regime for rc in cache.regimes)
    return latent_logpdf_grads(theta, mask, RegimeRows(regimes, cache.regime_index[rows]),
                               [r.variance for r in regimes], cache.particles[rows])


def m_step(theta: ModelParams, cache: ParticleCache, cfg: EmConfig, seed=None) -> ModelParams:
    """Minibatch Adam ascent on (surrogate - penalty) over the frozen cache.

    The mask is re-relaxed with fresh Gumbel noise each step and frozen
    within the step's gradient evaluation; spectral normalization runs after
    every update. A non-finite objective aborts the round: the last finite
    parameters are restored and the learning rate is halved once.
    """
    seed = cfg.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    n_total = cache.n_particles
    if n_total == 0:
        return theta
    adam = _Adam(cfg.learning_rate)
    current = theta
    last_finite = theta
    halved = False
    for _ in range(cfg.m_steps_per_round):
        rows = rng.choice(n_total, size=min(cfg.batch_size, n_total), replace=False)
        mask = sample_mask(current.edge_logits, cfg.temperature,
                           seed=rng.integers(2 ** 63))
        value, grads = _minibatch_grads(current, cache, rows, mask)
        pen_value, pen_grad = sparsity_penalty(current, cfg.sparsity_lambda)
        objective = value - pen_value
        grads["edge_logits"] = grads["edge_logits"] - pen_grad
        grads.pop("mask", None)
        finite = np.isfinite(objective) and all(np.all(np.isfinite(g)) for g in grads.values())
        if not finite:
            if halved:
                logger.warning("m-step hit a second non-finite loss; stopping round early")
                current = last_finite
                break
            current = last_finite
            adam = _Adam(cfg.learning_rate / 2.0)
            halved = True
            logger.warning("non-finite m-step loss; restoring parameters and halving lr")
            continue
        last_finite = current
        values = {name: getattr(current, name) for name in grads}
        updated = adam.step(values, grads)
        current = spectral_normalize(replace(current, **updated))
    return current


def build_channel(channel_spec: dict, datasets, family: InterventionFamily,
                  seed) -> Channel:
    """The measurement channel a ``channel.json`` object describes.

    ``channel_spec`` is {"type": "gan", "sigma_sq": [...]} or {"type":
    "linear", "A": [[...]], "sigma_sq": [...]}. A given "sigma_sq" pins the
    noise variances; a missing or null one is estimated from the regime
    data, with ``seed`` driving the linear channel's projection sampling. A
    regime target outside [0, d) of the channel's d latent nodes is a
    ``ParameterError``; the estimators check it before they read the data.
    So is a channel whose p is not the data's column count.
    """
    if channel_spec.get("sigma_sq") is None:
        var = noise.estimate_channel_noise(datasets, family, channel_spec.get("type"),
                                           channel_spec.get("A"), seed=seed)
        channel_spec = {**channel_spec, "sigma_sq": var}
    channel = channel_from_dict(channel_spec)
    family.check_targets(channel.d)
    width = np.shape(datasets[0])[1]
    if channel.p != width:
        raise ParameterError(f"the channel has p={channel.p} measurements, "
                             f"the regime data {width} columns")
    return channel


def converged(trace: list, tol: float) -> bool:
    """True once the surrogate's last relative change is below ``tol``."""
    return len(trace) >= 2 and abs(trace[-1]["q_value"] - trace[-2]["q_value"]) \
        < tol * abs(trace[-2]["q_value"])


def fit(datasets, family: InterventionFamily, channel_spec: dict, cfg: EmConfig,
        init_theta: ModelParams | None = None, trace: list | None = None,
        round_callback=None) -> FitReport:
    """Full pipeline: estimate channel noise, then alternate E and M steps.

    ``channel_spec`` is a ``channel.json`` object whose "sigma_sq" may be
    missing or null, in which case ``build_channel`` estimates it from the
    data. ``trace`` is the list of ``RoundRecord``s of the rounds already
    run, and the fit's only state besides ``init_theta``: the next round is
    ``len(trace)``, and no round runs once the trace holds ``cfg.em_rounds``
    records or has ``converged``. Round seeds derive from (cfg.seed, round),
    so resuming from a checkpoint's parameters and trace reproduces the
    uninterrupted run. ``round_callback(r, theta, trace)`` runs after each
    round.
    """
    init_seed = int(np.random.SeedSequence((cfg.seed, 0)).generate_state(1)[0])
    phi_hat = build_channel(channel_spec, datasets, family, seed=init_seed)
    d = phi_hat.d

    theta = init_theta
    if theta is None:
        theta = init_params(d, hidden=cfg.hidden,
                            lipschitz_target=cfg.lipschitz_target,
                            seed=init_seed, weight_scale=cfg.init_weight_scale)
    elif theta.d != d:
        raise ParameterError(f"initial parameters are for d={theta.d} nodes, "
                             f"the data has d={d}")
    trace = [] if trace is None else list(trace)

    while len(trace) < cfg.em_rounds and not converged(trace, cfg.convergence_tol):
        r = len(trace)
        e_seed, m_seed, elbo_seed = (int(s) for s in _round_seeds(cfg.seed, r + 1))
        cache = e_step(theta, phi_hat, datasets, family, cfg, seed=e_seed)
        theta = m_step(theta, cache, cfg, seed=m_seed)
        q = surrogate_q(theta, cache)
        ess_all = np.concatenate([rc.ess for rc in cache.regimes]) if cache.regimes else np.zeros(0)
        record = RoundRecord(
            round=r,
            q_value=q,
            elbo_estimate=None,
            ess_median=float(np.median(ess_all)) if ess_all.size else float("nan"),
            channel_term=channel_term(cache, phi_hat),
            n_skipped=cache.n_skipped,
        )
        del cache  # else the next E-step would hold these particles beside its own
        if cfg.elbo_every and (r + 1) % cfg.elbo_every == 0:
            record["elbo_estimate"] = elbo_estimate(theta, phi_hat, datasets, family,
                                                    cfg, seed=elbo_seed)
        trace.append(record)
        if round_callback is not None:
            round_callback(r, theta, trace)

    diagnostics = {
        "rounds_completed": len(trace),
        "converged": converged(trace, cfg.convergence_tol),
        "trace": trace,
    }
    return FitReport(edge_scores=edge_scores(theta), theta=theta, phi_hat=phi_hat,
                     diagnostics=diagnostics)


def elbo_estimate(theta: ModelParams, phi_hat: Channel, datasets,
                  family: InterventionFamily, cfg: EmConfig, seed=None,
                  return_se: bool = False):
    """Self-normalized importance estimate of sum_k sum_l log p(y | theta, phi).

    Per observation: log-mean-exp of (latent + channel - proposal) log ratios
    over ``cfg.elbo_proposals`` fresh proposal draws. ``return_se`` adds a
    delta-method standard error for the Monte-Carlo noise of the total.
    """
    S = cfg.elbo_proposals
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    mask = expected_mask(theta.edge_logits)
    total = 0.0
    var_total = 0.0
    for Y, regime in zip(datasets, family.regimes):
        for _, _, lw in weighted_draws(Y, theta, mask, phi_hat, regime, regime.variance, S,
                                       rng):
            m = np.max(lw, axis=1)
            w = np.exp(lw - m[:, None])
            mean_w = w.mean(axis=1)
            total += float(np.sum(m + np.log(mean_w)))
            var_total += float(np.sum(w.var(axis=1, ddof=1) / (S * mean_w ** 2)))
    if return_se:
        return total, float(np.sqrt(var_total))
    return total


# ---------------------------------------------------------------------------
# report / trace / checkpoint files


def report_to_json(report: FitReport) -> str:
    payload = {
        "d": int(report.edge_scores.shape[0]),
        "edge_scores": report.edge_scores.tolist(),
        # The surrogate q per round (taken at the expected mask), under the key
        # report.json has always used.
        "elbo_trace": [entry["q_value"] for entry in report.diagnostics["trace"]],
        "diagnostics": report.diagnostics,
    }
    return json.dumps(payload, sort_keys=True)


def write_trace_csv(path, trace: list) -> None:
    """One row per ``RoundRecord``; an ELBO not estimated that round is an empty cell."""
    columns = list(RoundRecord.__annotations__)
    lines = [",".join(columns)]
    for entry in trace:
        lines.append(",".join("" if entry[c] is None else repr(entry[c]) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def checkpoint_to_json(theta: ModelParams, trace: list) -> str:
    """The parameters and the trace: all ``fit`` needs to resume."""
    return json.dumps({"params": params_to_dict(theta), "trace": trace},
                      sort_keys=True)


def checkpoint_from_json(text: str) -> tuple[ModelParams, list]:
    """``(theta, trace)``; the "completed_rounds" and "q_history" keys of
    older checkpoints repeat the trace and are ignored.

    Text that is not a checkpoint raises ``ValueError`` (``JSONDecodeError``
    and ``ParameterError`` among them), ``KeyError`` or ``TypeError``.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict) or not {"params", "trace"} <= obj.keys():
        raise ParameterError('a checkpoint is an object with "params" and "trace"')
    trace = obj["trace"]
    if not (isinstance(trace, list) and all(
            isinstance(entry, dict) and RoundRecord.__annotations__.keys() <= entry.keys()
            for entry in trace)):
        raise ParameterError("a checkpoint's trace is a list of round records")
    return params_from_dict(obj["params"]), trace
