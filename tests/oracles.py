"""Reference implementations the tests check the package against."""

import numpy as np

from reclaim import model
from reclaim.errors import ConvergenceError


def masked_forward(params, mask, x):
    """The masked network's outputs at x, a (d,) point or an (n, d) batch; output i
    sees the input ``mask[:, i] * x``."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    out, _ = model._Kernel(params, model._mask_values(mask), slice(None), len(X)).forward(X)
    return out.reshape(np.shape(x))


def linear_latent_logpdf_oracle(weights: np.ndarray, noise_std, regime, x: np.ndarray) -> float:
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
