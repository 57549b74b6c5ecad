"""Penalized EM: SIR-based expectation steps and Adam-ascent M-steps.

Each round freezes posterior particles drawn under the current parameters,
then runs minibatch gradient ascent on the Monte-Carlo surrogate (mean
complete-data latent log-density) minus an expected-edge-count penalty.
The measurement-channel term of the complete-data likelihood is constant in
the latent parameters, so the E-step scores it for reporting only.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import TypedDict, get_type_hints

import numpy as np

from . import noise
from .errors import EStepError, ParameterError, check_number
from .measurement import LinearChannel, channel_from_dict, channel_logpdf, spec_field
from .model import (ModelParams, RegimeArrays, edge_scores, expected_mask, init_params,
                    latent_logpdf_batch, latent_logpdf_grads, params_from_dict,
                    params_to_dict, sample_mask, spectral_normalize)
from .posterior import MIN_ESS, sir_sample_batch, weight_summary, weighted_draws
from .scm import InterventionFamily, InterventionRegime, atomic_open

logger = logging.getLogger(__name__)

_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


@dataclass
class EmConfig:
    """Knobs for the EM driver; defaults follow the benchmark protocol."""

    sparsity_lambda: float = 1e-3
    learning_rate: float = 1e-2
    em_rounds: int = 200
    m_steps_per_round: int = 50
    batch_size: int = 256
    # The M-step reads only m_steps_per_round * batch_size slots a round
    # (12,800 at these defaults), but surrogate_q scores every distinct cached
    # row, so q's cost grows with n_resample and the gradient's information
    # does not. At 4 slots per observation a workload of a few thousand
    # observations still caches more slots than the M-step reads.
    # The E-step's cost is N * n_proposals latent rows. The proposal is close
    # to the posterior: at default noise the ESS stays near 0.84 * n_proposals,
    # so 8 proposals still give the n_resample = 4 slots about 7 effective
    # draws to pick from.
    n_proposals: int = 8
    n_resample: int = 4
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
        for name, hint in get_type_hints(EmConfig).items():
            check_number(name, getattr(self, name), hint)
        for name in ("sparsity_lambda", "em_rounds", "seed", "elbo_every",
                     "init_weight_scale"):
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be >= 0")
        for name in ("learning_rate", "m_steps_per_round", "batch_size",
                     "n_proposals", "n_resample", "temperature",
                     "convergence_tol"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        if 1 < self.n_proposals <= MIN_ESS:  # SIR would keep only equal-weight observations
            raise ParameterError(f"n_proposals must be 1 or above {MIN_ESS}, since SIR "
                                 f"keeps an observation at ESS >= {MIN_ESS}")
        if not 0 <= self.skip_tolerance < 1:
            raise ParameterError("skip_tolerance must lie in [0, 1)")
        if self.elbo_proposals < 2:  # the ELBO's standard error needs two draws
            raise ParameterError("elbo_proposals must be >= 2")
        if self.hidden is not None and self.hidden < 1:
            raise ParameterError("hidden must be >= 1")


@dataclass
class ParticleCache:
    """Every regime's frozen particles, a weighted set: each distinct particle once.

    The E-step keeps, regime after regime, the observations whose weights did
    not collapse, ``ess[l]`` being kept observation l's effective sample size.
    SIR resamples each observation's ``n_resample`` slots in proposal order, so
    its copies of one proposal are adjacent slots; each run of equal adjacent
    slots is one row of ``particles`` (N, d), ``counts[i]`` its number of slots.
    ``regime_index[i]`` is the position in ``regimes`` of row i's regime. It
    is nondecreasing, so each regime's rows are one slice. ``n_skipped``
    counts the observations not kept; ``channel_term`` is the E-step's mean
    channel log-density per slot. A sum over the ``n_particles`` slots is the
    count-weighted sum over the rows; the M-step draws slots uniformly.
    """

    regimes: tuple[InterventionRegime, ...]
    particles: np.ndarray
    counts: np.ndarray
    regime_index: np.ndarray
    ess: np.ndarray
    n_skipped: int
    channel_term: float

    @property
    def n_particles(self) -> int:
        """The number of slots, ``n_resample`` per kept observation."""
        return int(self.counts.sum())


class RoundRecord(TypedDict):
    """One EM round's entry in a fit's trace; ``trace.csv`` has one column per key."""

    round: int
    q_value: float
    elbo_estimate: float | None
    ess_median: float | None  # None when the round kept no observation
    channel_term: float
    n_skipped: int


@dataclass
class FitReport:
    edge_scores: np.ndarray
    theta: ModelParams
    phi_hat: LinearChannel
    diagnostics: dict  # "rounds_completed", "converged" and the "trace" they derive from


def _round_seeds(seed: int, round_index: int, n: int = 3) -> list[int]:
    """Independent child seeds per (run seed, round); stable across resumes."""
    return list(np.random.SeedSequence((seed, round_index)).generate_state(n))


def e_step(theta: ModelParams, phi_hat: LinearChannel, datasets: list[np.ndarray],
           family: InterventionFamily, cfg: EmConfig, seed: int) -> ParticleCache:
    """Draw and freeze posterior particles for every observation.

    Observations whose importance weights collapse (see ``sir_sample_batch``)
    are skipped, logged at INFO while their share is within
    ``cfg.skip_tolerance``; the step fails, with a warning, if more is lost.
    """
    rng = np.random.default_rng(seed)
    mask = expected_mask(theta.edge_logits)
    n_obs = sum(map(len, datasets))
    r = cfg.n_resample
    # Each regime's draws are copied into buffers sized for every slot as they
    # come, so no second copy of them all is ever held.
    ess = np.empty(n_obs)
    particles = np.empty((n_obs * r, theta.d))
    counts = np.empty(len(particles), dtype=np.min_scalar_type(r))
    regime_index = np.empty(len(particles), dtype=np.min_scalar_type(len(family.regimes)))
    n_kept = n_rows = 0
    channel_total = 0.0
    for k, (regime, Y) in enumerate(zip(family.regimes, datasets)):
        drawn, drawn_ess, kept = sir_sample_batch(
            Y, theta, mask, phi_hat, regime, regime.variance,
            cfg.n_proposals, r, seed=rng.integers(2 ** 63))
        dropped = int((~kept).sum())
        if dropped:
            logger.debug("regime %d: skipped %d/%d degenerate observations",
                         k, dropped, Y.shape[0])
        stop = n_kept + len(drawn_ess)
        ess[n_kept:stop] = drawn_ess
        # A slot starts a row unless it equals the slot before it in its observation.
        starts = np.ones(drawn.shape[:2], dtype=bool)
        starts[:, 1:] = np.any(drawn[:, 1:] != drawn[:, :-1], axis=2)
        starts = np.flatnonzero(starts)
        rows = slice(n_rows, n_rows + starts.size)
        particles[rows] = drawn.reshape(-1, theta.d)[starts]
        counts[rows] = np.diff(starts, append=drawn.shape[0] * r)
        regime_index[rows] = k
        channel_total += channel_term(phi_hat, Y[np.flatnonzero(kept)[starts // r]],
                                      particles[rows], counts[rows])
        n_kept, n_rows = stop, rows.stop
        del drawn  # held through the next regime's draws, it would be a second copy
    n_skipped = n_obs - n_kept
    too_many = n_obs > 0 and n_skipped / n_obs > cfg.skip_tolerance
    if n_skipped:
        logger.log(logging.WARNING if too_many else logging.INFO,
                   "e-step skipped %d/%d degenerate observations", n_skipped, n_obs)
    if too_many:
        raise EStepError(
            f"{n_skipped}/{n_obs} observations degenerate (> {cfg.skip_tolerance:.0%})")
    return ParticleCache(family.regimes, particles[:n_rows], counts[:n_rows],
                         regime_index[:n_rows], ess[:n_kept], n_skipped,
                         channel_total / (n_kept * r) if n_kept else 0.0)


def surrogate_q(theta: ModelParams, cache: ParticleCache) -> float:
    """Surrogate q: mean cached-particle latent log-density at the expected mask.

    Like the E-step's weights and the ELBO, q scores theta at
    ``expected_mask(edge_logits)``, so it draws no mask and is a fixed function
    of (theta, cache); only the M-step's edge-logit gradient needs relaxed
    masks. The measurement term is omitted (it does not depend on the latent
    parameters). One count-weighted ``latent_logpdf_batch`` call per regime: a
    pass over the whole cache holds every row's temporaries together, which
    raised ``gan-d10``'s peak RSS by 16 % (118 to 137 MB).
    """
    if cache.n_particles == 0:
        return 0.0
    mask = expected_mask(theta.edge_logits)
    bounds = np.searchsorted(cache.regime_index, np.arange(len(cache.regimes) + 1))
    total = 0.0
    for regime, start, stop in zip(cache.regimes, bounds[:-1], bounds[1:]):
        rows = slice(start, stop)
        total += float(latent_logpdf_batch(theta, mask, regime, regime.variance,
                                           cache.particles[rows]) @ cache.counts[rows])
    return total / cache.n_particles


def channel_term(phi_hat: LinearChannel, y: np.ndarray, particles: np.ndarray,
                 counts: np.ndarray) -> float:
    """Count-weighted sum of log p(y_i | x_i) over one regime's rows x_i; constant
    in theta, so ``e_step`` scores it as it draws and the cache keeps its mean."""
    return float(channel_logpdf(phi_hat, y, particles) @ counts)


def sparsity_penalty(theta: ModelParams, lam: float) -> np.ndarray:
    """The edge-logit gradient of lambda * sum of off-diagonal edge probabilities."""
    probs = expected_mask(theta.edge_logits)
    grad = lam * probs * (1.0 - probs)
    np.fill_diagonal(grad, 0.0)
    return grad


class _Adam:
    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params: ModelParams, grads: dict) -> dict:
        """Ascent step; returns the updated arrays of the fields ``grads`` names."""
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
            out[name] = getattr(params, name) + self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        return out


def m_step(theta: ModelParams, cache: ParticleCache, cfg: EmConfig, seed: int) -> ModelParams:
    """Minibatch Adam ascent on (surrogate - penalty) over the frozen cache.

    The mask is re-relaxed with fresh Gumbel noise each step and frozen
    within the step's gradient evaluation; spectral normalization runs after
    every update. The first non-finite surrogate or gradient restores the
    last finite parameters, halves the learning rate, restarts Adam's moments
    and goes on; a second one restores them again and ends the round.
    """
    rng = np.random.default_rng(seed)
    slots = np.repeat(np.arange(len(cache.counts)), cache.counts)  # slot -> row
    n_total = slots.size
    if n_total == 0:
        return theta
    # Built once for every step: the regimes as arrays, and their clamp variances.
    regimes = RegimeArrays.of(cache.regimes, theta.d)
    variances = np.array([r.variance for r in cache.regimes])
    adam = _Adam(cfg.learning_rate)
    current = theta
    last_finite = theta
    halved = False
    for _ in range(cfg.m_steps_per_round):
        rows = slots[rng.choice(n_total, size=min(cfg.batch_size, n_total), replace=False)]
        mask = sample_mask(current.edge_logits, cfg.temperature,
                           seed=rng.integers(2 ** 63))
        # One call scores rows of mixed regimes, each at its own regime's free coordinates.
        value, grads = latent_logpdf_grads(current, mask, regimes, variances,
                                           cache.particles[rows], cache.regime_index[rows])
        # The penalty is finite (at most lambda d^2): value and the gradients decide.
        grads["edge_logits"] -= sparsity_penalty(current, cfg.sparsity_lambda)
        grads.pop("mask", None)
        finite = np.isfinite(value) and all(np.all(np.isfinite(g)) for g in grads.values())
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
        current = spectral_normalize(current, **adam.step(current, grads))
    return current


def build_channel(channel_spec: dict, datasets, family: InterventionFamily) -> LinearChannel:
    """The measurement channel a ``channel.json`` object describes.

    ``channel_spec`` is {"type": "gan", "sigma_sq": [...]} or {"type":
    "linear", "A": [[...]], "sigma_sq": [...]}. A given "sigma_sq" pins the
    noise variances; a missing or null one is estimated from the regime
    data alone, so every fit of the same data estimates the same variances.
    A ``ParameterError`` meets a family of no regimes, a dataset count other
    than the regime count, a regime target outside [0, d) of the channel's d latent nodes (which the
    estimators check before they read the data) and a p other than the
    data's column count.
    """
    if not len(family):
        raise ParameterError("the intervention family (family.json) has no regimes")
    if len(datasets) != len(family):
        raise ParameterError(f"{len(datasets)} datasets for {len(family)} regimes")
    if channel_spec.get("sigma_sq") is None:
        kind = channel_spec.get("type")
        A = spec_field(channel_spec, "A") if kind == "linear" else None
        var = noise.estimate_channel_noise(datasets, family, kind, A)
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
    data alone. ``trace`` is the list of ``RoundRecord``s of the rounds
    already run, and the fit's only state besides ``init_theta``: the next
    round is ``len(trace)``, and no round runs once the trace holds
    ``cfg.em_rounds`` records or has ``converged``. ``fit`` seeds every step:
    the initial parameters from (cfg.seed, 0), and round r's E-step, M-step
    and ELBO from the three children of (cfg.seed, r + 1), so resuming from
    a checkpoint's parameters and trace reproduces the uninterrupted run.
    ``datasets`` become float 2-D arrays once, for every step.
    ``init_theta`` must have the data's d, the config's hidden width (d when
    ``cfg.hidden`` is None) and its ``lipschitz_target``, or a
    ``ParameterError`` names both values. ``round_callback(r, theta, trace)``
    runs after each round.
    """
    datasets = [np.atleast_2d(np.asarray(Y, dtype=float)) for Y in datasets]
    phi_hat = build_channel(channel_spec, datasets, family)
    d = phi_hat.d

    theta = init_theta
    if theta is None:
        theta = init_params(d, hidden=cfg.hidden,
                            lipschitz_target=cfg.lipschitz_target,
                            seed=int(_round_seeds(cfg.seed, 0, 1)[0]),
                            weight_scale=cfg.init_weight_scale)
    elif theta.d != d:
        raise ParameterError(f"initial parameters are for d={theta.d} nodes, "
                             f"the data has d={d}")
    for name, have, want in [("hidden width", theta.hidden, cfg.hidden or d),
                             ("lipschitz_target", theta.lipschitz_target, cfg.lipschitz_target)]:
        if have != want:
            raise ParameterError(f"initial parameters have {name} {have}, the config {want}")
    trace = [] if trace is None else list(trace)

    while len(trace) < cfg.em_rounds and not converged(trace, cfg.convergence_tol):
        r = len(trace)
        e_seed, m_seed, elbo_seed = (int(s) for s in _round_seeds(cfg.seed, r + 1))
        cache = e_step(theta, phi_hat, datasets, family, cfg, seed=e_seed)
        theta = m_step(theta, cache, cfg, seed=m_seed)
        q = surrogate_q(theta, cache)
        record = RoundRecord(
            round=r,
            q_value=q,
            elbo_estimate=None,
            ess_median=float(np.median(cache.ess)) if cache.ess.size else None,
            channel_term=cache.channel_term,
            n_skipped=cache.n_skipped,
        )
        del cache  # else the next E-step would hold these particles beside its own
        if cfg.elbo_every and (r + 1) % cfg.elbo_every == 0:
            record["elbo_estimate"], _ = elbo_estimate(theta, phi_hat, datasets, family,
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


# Observations x proposals that elbo_estimate draws and scores at once. A
# regime's draws at S = 512 would hold n * S * d floats: about 20 MB for 500
# observations at d = 10, and more with every observation.
CHUNK_ROWS = 65536


def elbo_estimate(theta: ModelParams, phi_hat: LinearChannel, datasets: list[np.ndarray],
                  family: InterventionFamily, cfg: EmConfig, seed: int):
    """Self-normalized importance estimate of sum_k sum_l log p(y | theta, phi).

    Returns ``(total, se)``: per observation, the log mean importance weight
    over S = ``cfg.elbo_proposals`` fresh draws, and the delta-method standard
    error, from var(w) / (S mean(w)^2) = (S / ESS - 1) / (S - 1) (Kong 1992).
    """
    S = cfg.elbo_proposals
    step = max(1, CHUNK_ROWS // S)
    rng = np.random.default_rng(seed)
    mask = expected_mask(theta.edge_logits)
    total = 0.0
    var_total = 0.0
    for Y, regime in zip(datasets, family.regimes):
        for start in range(0, Y.shape[0], step):
            _, lw = weighted_draws(Y[start:start + step], theta, mask, phi_hat, regime,
                                   regime.variance, S, rng)
            log_mean, norm_w = weight_summary(lw)
            total += float(np.sum(log_mean))
            var_total += float(np.sum((S * np.sum(norm_w ** 2, axis=1) - 1.0) / (S - 1)))
    return total, float(np.sqrt(var_total))


# ---------------------------------------------------------------------------
# report / trace / checkpoint files


def report_to_json(report: FitReport) -> str:
    """The edge scores, the diagnostics and the noise variances the fit used."""
    payload = {
        "d": int(report.edge_scores.shape[0]),
        "edge_scores": report.edge_scores.tolist(),
        "diagnostics": report.diagnostics,
        "sigma_sq": report.phi_hat.noise_var.tolist(),
    }
    return json.dumps(payload, sort_keys=True)


def write_trace_csv(path, trace: list) -> None:
    """One row per ``RoundRecord``; a ``None`` field, such as an ELBO not estimated
    that round, is an empty cell."""
    columns = list(RoundRecord.__annotations__)
    lines = [",".join(columns)]
    for entry in trace:
        lines.append(",".join("" if entry[c] is None else repr(entry[c]) for c in columns))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def checkpoint_to_json(theta: ModelParams, trace: list) -> str:
    """The parameters and the trace: all ``fit`` needs to resume."""
    return json.dumps({"params": params_to_dict(theta), "trace": trace},
                      sort_keys=True)


def checkpoint_from_json(text: str) -> tuple[ModelParams, list]:
    """``(theta, trace)``; the "completed_rounds" and "q_history" keys of
    older checkpoints repeat the trace and are ignored.

    Text that is not a checkpoint raises ``ValueError`` (``JSONDecodeError``
    and ``ParameterError`` among them), ``KeyError`` or ``TypeError``; so does
    a round record with a field of the wrong type, such as a string q value.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict) or not {"params", "trace"} <= obj.keys():
        raise ParameterError('a checkpoint is an object with "params" and "trace"')
    trace = obj["trace"]
    hints = get_type_hints(RoundRecord)
    if not (isinstance(trace, list) and all(
            isinstance(entry, dict) and hints.keys() <= entry.keys() for entry in trace)):
        raise ParameterError("a checkpoint's trace is a list of round records")
    for r, entry in enumerate(trace):
        for key, hint in hints.items():
            check_number(f"trace[{r}].{key}", entry[key], hint)
    return params_from_dict(obj["params"]), trace
