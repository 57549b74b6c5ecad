"""Correctness checks of one benchmark run, made after the timed part.

Each check compares the program against an independent computation or a
property the method must have, and returns ``(passed, detail)``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.optimize import nnls
from scipy.stats import multivariate_normal

NOISE_SE_LIMIT = 5.0        # additive-channel estimate vs truth, in standard errors
NNLS_RTOL = 1e-5            # projected-gradient NNLS vs scipy's active-set NNLS
DENSITY_RTOL = 1e-9         # latent density vs closed-form Gaussian
GRAD_RTOL = 1e-5            # analytic gradient vs central differences
SIR_Z_LIMIT = 5.0           # SIR posterior-mean bias, in Monte-Carlo standard errors
SIR_MSE_FACTOR = 2.0        # mean squared SIR error vs its Monte-Carlo expectation


def run_all(m, setups, cycles, data_dirs, em_rounds, seed) -> dict:
    """``setups[g]`` and ``data_dirs[g]`` belong to dataset g; cycle["graph"] = g."""
    rng = np.random.default_rng((seed, 7))
    results = {
        "setups_identical": _setups_identical(setups),
        "rounds_completed": _rounds_completed(cycles, em_rounds),
        "edge_scores_valid": _edge_scores_valid(cycles),
        "bit_identical_refit": _bit_identical(m, setups, cycles),
    }
    if not all(setups):
        return {**results, "set_ups": (False, "a dataset has no set-up")}
    for g in range(len(setups)):
        s = setups[g][-1]
        truth = m["graphs"].graph_from_json((data_dirs[g] / "truth_graph.json").read_text())
        true_channel = m["measurement"].channel_from_json(
            (data_dirs[g] / "channel.json").read_text())
        first = next(c for c in cycles if c["graph"] == g)
        results[f"auprc[{g}]"] = _auprc(m, first, truth)
        if isinstance(true_channel, m["measurement"].GaussianAdditiveChannel):
            results[f"gan_noise_vs_truth[{g}]"] = _gan_noise(s, true_channel)
        else:
            results[f"linear_nnls_vs_scipy[{g}]"] = _linear_nnls(m, s)
    s = setups[0][-1]
    lin = _linear_gaussian_params(m, s.channel.d, rng)
    results["latent_density_closed_form"] = _density_closed_form(m, s, *lin, rng)
    results["latent_grads_finite_diff"] = _grads_finite_diff(m, s, cycles[0], rng)
    results["sir_posterior_mean"] = _sir_posterior_mean(m, s, *lin, rng)
    return results


def _fail_safe(check):
    """Turn an exception inside a check into a failed check."""
    def run(*args):
        try:
            ok, detail = check(*args)
            return bool(ok), detail
        except Exception as exc:
            return False, f"raised {type(exc).__name__}: {exc}"
    run.__name__ = check.__name__
    return run


@_fail_safe
def _setups_identical(setups):
    same = all(s.spec == group[0].spec and np.array_equal(s.theta.w_in, group[0].theta.w_in)
               and all(np.array_equal(a, b) for a, b in zip(s.datasets, group[0].datasets))
               for group in setups for s in group[1:])
    return same, f"{[len(group) for group in setups]} set-ups per dataset"


@_fail_safe
def _rounds_completed(cycles, em_rounds):
    done = [c["report"].diagnostics["rounds_completed"] if c["report"] else len(c["ends"])
            for c in cycles]
    return all(n == em_rounds for n in done), f"rounds per fit {done}, want {em_rounds}"


@_fail_safe
def _edge_scores_valid(cycles):
    for c in cycles:
        if c["report"] is None:
            return False, "a fit raised"
        sc = c["report"].edge_scores
        if not (np.all(np.isfinite(sc)) and sc.min() >= 0 and sc.max() <= 1
                and np.all(np.diag(sc) == 0)):
            return False, "scores not finite, outside [0,1] or with a nonzero diagonal"
    return True, f"{len(cycles)} score matrices"


def _average_precision(scores, adj):
    """Step-wise area under the PR curve, one distinct threshold at a time."""
    off = ~np.eye(adj.shape[0], dtype=bool)
    s, y = scores[off].tolist(), adj[off].tolist()
    n_pos = sum(y)
    area, prev_recall = 0.0, 0.0
    for t in sorted(set(s), reverse=True):
        picked = [yi for si, yi in zip(s, y) if si >= t]
        recall = sum(picked) / n_pos
        area += (recall - prev_recall) * (sum(picked) / len(picked))
        prev_recall = recall
    return area


@_fail_safe
def _auprc(m, cycle, truth):
    ev = cycle["evaluation"]
    if ev is None:
        return False, "no evaluation"
    scores = cycle["report"].edge_scores
    ours = _average_precision(scores, truth.adj)
    density = truth.n_edges / (truth.d * (truth.d - 1))
    lib = m["graphs"].auprc(scores, truth)
    ok = abs(ours - lib) <= 1e-12 and abs(ev["auprc"] - lib) <= 1e-12 and lib > density
    return ok, f"auprc {lib:.4f}, recomputed {ours:.4f}, edge density {density:.4f}"


@_fail_safe
def _bit_identical(m, setups, cycles):
    """Every fit of one dataset, all with its one seed, gives the same scores.

    Besides the timed refits, dataset 0 is fitted again for one round here,
    which must reproduce the first round of its timed fit.
    """
    if any(c["report"] is None for c in cycles):
        return False, "a fit raised"
    first = {}
    for c in cycles:
        ref = first.setdefault(c["graph"], c["report"].edge_scores)
        if not np.array_equal(c["report"].edge_scores, ref):
            return False, f"dataset {c['graph']}: refit differs"
    s = setups[0][0]
    again = m["em"].fit(s.datasets, s.family, s.spec, replace(s.cfg, em_rounds=1),
                        init_theta=s.theta)
    want = m["model"].edge_scores(cycles[0]["thetas"][0])
    same = np.array_equal(again.edge_scores, want)
    refits = len(cycles) - len(first)
    return same, (f"{len(cycles)} fits of {len(first)} datasets, {refits} timed refits; "
                  f"one-round refit of dataset 0 {'identical' if same else 'differs'}")


@_fail_safe
def _gan_noise(s, true_channel):
    """Estimate within a few sampling standard errors of the simulated truth."""
    est = np.asarray(s.spec["sigma_sq"])
    true = true_channel.noise_var
    worst = 0.0
    for i in range(true.size):
        covering = [k for k, r in enumerate(s.family.regimes) if i in r.targets]
        n = sum(len(s.datasets[k]) for k in covering) / len(covering)
        sigma_i = s.family.regimes[covering[0]].variance
        se = np.sqrt(2.0 / (n - 1)) * (sigma_i + true[i]) / np.sqrt(len(covering))
        worst = max(worst, abs(est[i] - true[i]) / se)
    return worst <= NOISE_SE_LIMIT, f"worst |est - true| = {worst:.2f} se"


@_fail_safe
def _linear_nnls(m, s):
    """The pipeline's NNLS solution against scipy on the same weighted system."""
    noise = m["noise"]
    A = s.channel.mixing
    p = A.shape[0]
    init_seed = int(np.random.SeedSequence((s.cfg.seed, 0)).generate_state(1)[0])
    proj = noise.sample_projection_vectors(
        A, m=noise.PIPELINE_ROWS_PER_MEASUREMENT * p, delta=noise.PIPELINE_DELTA,
        signal_cap=noise.PIPELINE_SIGNAL_CAP, seed=init_seed)
    rhs = np.empty(proj.m)
    weight = np.empty(proj.m)
    for r, (t, node) in enumerate(zip(proj.vectors, proj.source_node)):
        covering = [k for k, reg in enumerate(s.family.regimes) if node in reg.targets]
        var_k = [np.var(s.datasets[k] @ t, ddof=1) for k in covering]
        pinned = [(t @ A[:, node]) ** 2 * s.family.regimes[k].variance for k in covering]
        rhs[r] = np.mean(np.subtract(var_k, pinned))
        weight[r] = 1.0 / max(np.mean(var_k), noise.VARIANCE_FLOOR)
    ref, _ = nnls(proj.vectors ** 2 * weight[:, None], rhs * weight)
    ref = np.maximum(ref, noise.VARIANCE_FLOOR)
    est = np.asarray(s.spec["sigma_sq"])
    err = float(np.max(np.abs(est - ref)) / np.max(ref))
    return err <= NNLS_RTOL, f"max |pg - scipy| / max = {err:.2e} over {proj.m} rows"


def _linear_gaussian_params(m, d, rng):
    """Identity-activation, zero-bias model and a mask: a linear-Gaussian SCM."""
    model = m["model"]
    theta = model.init_params(d, seed=int(rng.integers(2 ** 31)), weight_scale=0.5,
                              activation="identity")
    mask = rng.uniform(0.2, 1.0, size=(d, d))
    np.fill_diagonal(mask, 0.0)
    return theta, mask


def _gaussian_prior(theta, mask, regime):
    """x = B^-1 u with B = I - diag(free) W', W = M o (w_in w_out), u Gaussian."""
    d = theta.d
    W = mask * (theta.w_in @ theta.w_out)
    free = regime.free_mask(d)
    B = np.eye(d) - free[:, None] * W.T
    mu_u = np.where(free, 0.0, regime.mean)
    var_u = np.where(free, theta.sigma_z ** 2, regime.variance)
    Binv = np.linalg.inv(B)
    return Binv @ mu_u, Binv @ np.diag(var_u) @ Binv.T


@_fail_safe
def _density_closed_form(m, s, theta, mask, rng):
    worst = 0.0
    for regime in (s.family.regimes[0], s.family.regimes[-1]):
        mean, cov = _gaussian_prior(theta, mask, regime)
        X = rng.multivariate_normal(mean, cov, size=64)
        got = m["model"].latent_logpdf_batch(theta, mask, regime, regime.variance, X)
        want = multivariate_normal(mean, cov).logpdf(X)
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
    return worst <= DENSITY_RTOL, f"max relative error {worst:.2e}"


@_fail_safe
def _grads_finite_diff(m, s, cycle, rng):
    """Analytic gradients of the fitted tanh model against central differences."""
    model = m["model"]
    theta = cycle["report"].theta
    regime = s.family.regimes[1]
    X = rng.normal(0.0, 0.8, size=(8, theta.d))
    mask_seed = int(rng.integers(2 ** 31))

    def value(th):
        mask = model.sample_mask(th.edge_logits, s.cfg.temperature, seed=mask_seed)
        return model.latent_logpdf_grads(th, mask, regime, regime.variance, X)

    _, grads = value(theta)
    eps = 1e-5
    worst = 0.0
    for name in ("w_in", "b_in", "w_out", "b_out", "edge_logits"):
        arr = getattr(theta, name)
        cells = [idx for idx in np.ndindex(arr.shape) if np.isfinite(arr[idx])]
        for pick in rng.choice(len(cells), size=3, replace=False):
            idx = cells[pick]
            up, down = arr.copy(), arr.copy()
            up[idx] += eps
            down[idx] -= eps
            fd = (value(replace(theta, **{name: up}))[0]
                  - value(replace(theta, **{name: down}))[0]) / (2 * eps)
            worst = max(worst, abs(fd - grads[name][idx]) / max(1.0, abs(fd)))
    return worst <= GRAD_RTOL, f"max relative error {worst:.2e} over 15 entries"


@_fail_safe
def _sir_posterior_mean(m, s, theta, mask, rng):
    """SIR particle means against the exact Gaussian posterior mean."""
    regime = s.family.regimes[0]
    channel = s.channel
    mean, cov = _gaussian_prior(theta, mask, regime)
    n_obs = 1000
    X = rng.multivariate_normal(mean, cov, size=n_obs)
    Y = m["measurement"].measure(channel, X, seed=int(rng.integers(2 ** 31)))
    H = np.eye(channel.d) if isinstance(channel, m["measurement"].GaussianAdditiveChannel) \
        else channel.mixing
    HtDinv = H.T / channel.noise_var
    post_cov = np.linalg.inv(np.linalg.inv(cov) + HtDinv @ H)
    post_mean = (np.linalg.solve(cov, mean) + Y @ HtDinv.T) @ post_cov.T
    particles, ess, kept = m["posterior"].sir_sample_batch(
        Y, theta, mask, channel, regime, regime.variance, s.cfg.n_proposals,
        s.cfg.n_resample, seed=int(rng.integers(2 ** 31)))
    err = (particles.mean(axis=1) - post_mean[kept]) / np.sqrt(np.diag(post_cov))
    z = np.abs(err.mean(axis=0)) / (err.std(axis=0, ddof=1) / np.sqrt(err.shape[0]))
    # Resampling R particles after weighting to an ESS leaves a squared error
    # of about 1/R + 1/ESS posterior variances per coordinate.
    mse = float(np.mean(err ** 2))
    expected = float(np.mean(1.0 / s.cfg.n_resample + 1.0 / ess))
    ok = float(z.max()) <= SIR_Z_LIMIT and mse <= SIR_MSE_FACTOR * expected
    return ok, (f"bias z max {z.max():.2f}, mean squared error {mse:.3f} against "
                f"{expected:.3f} expected (posterior variances), median ESS "
                f"{np.median(ess):.1f}, kept {kept.sum()}/{n_obs}")
