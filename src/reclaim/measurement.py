"""Measurement channels: corrupt latents into observations.

Two channels are supported: additive Gaussian noise on each coordinate
(``y = x + eps``) and a known full-column-rank linear mixing
(``y = A x + eps``), both with independent Gaussian noise of per-output
variance ``noise_var``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RankError

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class GaussianAdditiveChannel:
    """y = x + eps, eps ~ N(0, diag(noise_var))."""

    noise_var: np.ndarray

    def __post_init__(self):
        var = np.atleast_1d(np.asarray(self.noise_var, dtype=float))
        if var.ndim != 1 or not np.all(np.isfinite(var) & (var > 0)):
            raise ParameterError("noise variances must be a positive finite vector")
        object.__setattr__(self, "noise_var", var)

    @property
    def d(self) -> int:
        return self.noise_var.shape[0]

    @property
    def p(self) -> int:
        return self.noise_var.shape[0]

    @property
    def mixing(self) -> np.ndarray:
        """The identity: y = I x + eps."""
        return np.eye(self.d)


@dataclass(frozen=True)
class LinearChannel:
    """y = A x + eps with known A (p x d, rank d) and eps ~ N(0, diag(noise_var))."""

    mixing: np.ndarray
    noise_var: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.mixing, dtype=float)
        var = np.atleast_1d(np.asarray(self.noise_var, dtype=float))
        if A.ndim != 2:
            raise ParameterError("mixing matrix must be 2-dimensional")
        p, d = A.shape
        if p < d:
            raise ParameterError(f"need at least as many measurements as latents (p={p}, d={d})")
        if var.shape != (p,) or not np.all(np.isfinite(var) & (var > 0)):
            raise ParameterError("noise variances must be a positive finite p-vector")
        smallest = np.linalg.svd(A, compute_uv=False)[-1]
        if smallest <= _RANK_TOL:
            raise RankError(f"mixing matrix is rank deficient (smallest singular value {smallest:.2e})")
        object.__setattr__(self, "mixing", A)
        object.__setattr__(self, "noise_var", var)

    @property
    def d(self) -> int:
        return self.mixing.shape[1]

    @property
    def p(self) -> int:
        return self.mixing.shape[0]


Channel = GaussianAdditiveChannel | LinearChannel


def channel_mean(channel: Channel, x: np.ndarray) -> np.ndarray:
    """Noise-free measurement of latent(s) x; accepts (d,) or (n, d)."""
    x = np.asarray(x, dtype=float)
    if isinstance(channel, GaussianAdditiveChannel):
        return x.copy()
    return x @ channel.mixing.T


def measure(channel: Channel, x: np.ndarray, seed) -> np.ndarray:
    """Draw y | x; accepts a (d,) vector or an (n, d) batch."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    mean = channel_mean(channel, x)
    return mean + rng.normal(0.0, np.sqrt(channel.noise_var), size=mean.shape)


def diag_gauss_logpdf(resid: np.ndarray, var) -> np.ndarray:
    """log N(resid; 0, diag(var)), summed over the last axis."""
    return -0.5 * np.sum(np.log(2.0 * np.pi * var) + resid ** 2 / var, axis=-1)


def channel_logpdf(channel: Channel, y: np.ndarray, x: np.ndarray):
    """Exact diagonal-Gaussian log density log p(y | x).

    Vectorizes over leading batch dimensions of either argument; returns a
    scalar for a single (y, x) pair.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape[-1] != channel.p or x.shape[-1] != channel.d:
        raise ParameterError(
            f"dimension mismatch: y has {y.shape[-1]} entries, x has {x.shape[-1]}, "
            f"channel expects p={channel.p}, d={channel.d}"
        )
    ll = diag_gauss_logpdf(y - channel_mean(channel, x), channel.noise_var)
    return float(ll) if ll.ndim == 0 else ll


def channel_to_json(channel: Channel) -> str:
    if isinstance(channel, GaussianAdditiveChannel):
        return json.dumps({"type": "gan", "sigma_sq": channel.noise_var.tolist()})
    return json.dumps({
        "type": "linear",
        "sigma_sq": channel.noise_var.tolist(),
        "A": channel.mixing.tolist(),
    })


def channel_from_dict(spec: dict) -> Channel:
    """The channel a ``channel.json`` object describes.

    ``{"type": "gan", "sigma_sq": [...]}`` or ``{"type": "linear", "A": [[...]],
    "sigma_sq": [...]}``; other keys are ignored. This is the one place a
    channel type name becomes a class.
    """
    kind = spec.get("type")
    try:
        if kind == "gan":
            return GaussianAdditiveChannel(np.asarray(spec["sigma_sq"], dtype=float))
        if kind == "linear":
            return LinearChannel(np.asarray(spec["A"], dtype=float),
                                 np.asarray(spec["sigma_sq"], dtype=float))
    except KeyError as exc:
        raise ParameterError(f"{kind} channel spec has no {exc.args[0]!r}") from exc
    raise ParameterError(f"unknown channel type {kind!r}; expected 'gan' or 'linear'")


def channel_from_json(text: str) -> Channel:
    return channel_from_dict(json.loads(text))
