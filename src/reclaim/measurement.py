"""Measurement channels: corrupt latents into observations.

A channel is a known full-column-rank linear mixing ``y = A x + eps`` with
independent Gaussian noise of per-output variance ``noise_var``. The
additive channel ``y = x + eps`` is the case A = I.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RankError, check_array, check_positive

_RANK_TOL = 1e-10


def check_mixing(A) -> np.ndarray:
    """A as a float array, once it is a finite p x d matrix with p >= d >= 1 and rank d.

    The rank test is relative to the scale of A: it fails when the smallest
    singular value is at or below ``_RANK_TOL`` times the largest, so a
    multiple of A gets the same verdict as A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ParameterError("mixing matrix must be 2-dimensional")
    p, d = A.shape
    if d == 0:
        raise ParameterError("need at least one latent (d=0)")
    if p < d:
        raise ParameterError(f"need at least as many measurements as latents (p={p}, d={d})")
    if not np.all(np.isfinite(A)):
        raise ParameterError("mixing matrix must be finite")
    singular = np.linalg.svd(A, compute_uv=False)
    smallest, largest = singular[-1], singular[0]
    if smallest <= _RANK_TOL * largest:
        raise RankError(f"mixing matrix is rank deficient (smallest singular value "
                        f"{smallest:.2e}, largest {largest:.2e})")
    return A


@dataclass(frozen=True)
class LinearChannel:
    """y = A x + eps with known A (p x d, rank d >= 1) and eps ~ N(0, diag(noise_var))."""

    mixing: np.ndarray
    noise_var: np.ndarray

    def __post_init__(self):
        A = check_mixing(self.mixing)
        object.__setattr__(self, "mixing", A)
        object.__setattr__(self, "noise_var", check_positive(
            "noise variances", np.atleast_1d(self.noise_var), (A.shape[0],)))

    @property
    def d(self) -> int:
        return self.mixing.shape[1]

    @property
    def p(self) -> int:
        return self.mixing.shape[0]


class GaussianAdditiveChannel(LinearChannel):
    """y = x + eps, eps ~ N(0, diag(noise_var)): the linear channel at A = I."""

    def __init__(self, noise_var):
        var = np.atleast_1d(noise_var)
        super().__init__(np.eye(len(var)), var)


def channel_mean(channel: LinearChannel, x: np.ndarray) -> np.ndarray:
    """Noise-free measurement of latent(s) x, over any leading batch axes."""
    return stacked_matmul(np.asarray(x, dtype=float), channel.mixing.T)


def stacked_matmul(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``x @ M`` for x of any leading axes, as one GEMM over the flattened rows.

    numpy runs a stacked product as one small GEMM per leading index; each
    output row is the same dot products either way.
    """
    return (x.reshape(-1, x.shape[-1]) @ M).reshape(*x.shape[:-1], M.shape[-1])


def measure(channel: LinearChannel, x: np.ndarray, seed) -> np.ndarray:
    """Draw y | x; accepts a (d,) vector or an (n, d) batch."""
    rng = np.random.default_rng(seed)
    mean = channel_mean(channel, x)
    return mean + rng.normal(0.0, np.sqrt(channel.noise_var), size=mean.shape)


def diag_gauss_logpdf(resid: np.ndarray, var) -> np.ndarray:
    """log N(resid; 0, diag(var)) of each k-vector of resid, over any leading axes.

    ``var`` is one variance or a k-vector; k = 0 gives 0. One matrix-vector
    product meets the squares with 1/var: a sum over the short last axis cost
    4.5-7.8x more at k = 10-20.
    """
    *lead, k = resid.shape
    var = np.broadcast_to(np.asarray(var, dtype=float), (k,))
    quad = ((resid * resid).reshape(math.prod(lead), k) @ (1.0 / var)).reshape(lead)
    return -0.5 * (np.sum(np.log(2.0 * np.pi * var)) + quad)


def channel_logpdf(channel: LinearChannel, y: np.ndarray, x: np.ndarray):
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


def channel_to_json(channel: LinearChannel) -> str:
    if isinstance(channel, GaussianAdditiveChannel):
        return json.dumps({"type": "gan", "sigma_sq": channel.noise_var.tolist()})
    return json.dumps({
        "type": "linear",
        "sigma_sq": channel.noise_var.tolist(),
        "A": channel.mixing.tolist(),
    })


def channel_from_dict(spec: dict) -> LinearChannel:
    """The channel a ``channel.json`` object describes.

    ``{"type": "gan", "sigma_sq": [...]}`` or ``{"type": "linear", "A": [[...]],
    "sigma_sq": [...]}``; other keys are ignored. A missing key, or a value
    that is not an array of numbers, is a ``ParameterError`` naming it. This
    is the one place a channel type name becomes a class.
    """
    kind = spec.get("type")
    if kind not in ("gan", "linear"):
        raise ParameterError(f"unknown channel type {kind!r}; expected 'gan' or 'linear'")
    if kind == "gan":
        return GaussianAdditiveChannel(spec_field(spec, "sigma_sq"))
    return LinearChannel(spec_field(spec, "A"), spec_field(spec, "sigma_sq"))


def spec_field(spec: dict, key: str) -> np.ndarray:
    """``spec[key]`` of a channel spec as a float array; a missing key, or a
    value that is not an array of numbers, is a ``ParameterError`` naming it."""
    kind = spec.get("type")
    if key not in spec:
        raise ParameterError(f"{kind} channel spec has no {key!r}")
    return check_array(f"{kind} channel's {key!r}", spec[key])


def channel_from_json(text: str) -> LinearChannel:
    return channel_from_dict(json.loads(text))
