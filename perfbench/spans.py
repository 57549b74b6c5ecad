"""Span recording around calls into the reclaim modules, and per-layer sums.

The tracer replaces a public function with a timing wrapper in the module
namespace where callers look it up: ``em`` and ``posterior`` import
``latent_logpdf_batch``, ``sir_sample_batch`` and friends by name, so those
names are wrapped there, while ``cli`` calls ``scm.sample_latents`` through
the module and so that attribute is wrapped in ``scm``. Every wrapper of one
function records spans under one name, ``<module>.<function>``, the module
being where the function is defined.

A span is (id, name, start, end, parent id, counts). Spans stay in memory and
are written out once, when the run ends. Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import resource
import time
from collections import defaultdict

# (defining module, function, modules whose namespace holds the looked-up name)
WRAPPED = (
    ("cli", "run_simulate", ("cli",)),
    ("scm", "sample_latents", ("scm",)),
    ("scm", "mechanism", ("scm",)),
    ("scm", "read_dataset", ("scm",)),
    ("noise", "estimate_channel_noise", ("noise",)),
    ("noise", "sample_projection_vectors", ("noise",)),
    ("noise", "nnls_projected_gradient", ("noise",)),
    ("em", "e_step", ("em",)),
    ("em", "m_step", ("em",)),
    ("em", "surrogate_q", ("em",)),
    ("em", "channel_term", ("em",)),
    ("posterior", "sir_sample_batch", ("em",)),
    ("model", "latent_logpdf_batch", ("em", "posterior")),
    ("model", "latent_logpdf_grads", ("em",)),
    ("model", "sample_mask", ("em",)),
    ("model", "spectral_normalize", ("em",)),
    ("measurement", "channel_logpdf", ("em", "posterior")),
)


def _rows(args, kwargs, position, name):
    return len(kwargs[name] if name in kwargs else args[position])


def _counts(name, args, kwargs, result):
    """Work counts of one call, read from its arguments and result shapes."""
    if name == "model.latent_logpdf_batch":
        params = args[0]
        return {"rows": _rows(args, kwargs, 4, "X"), "d": params.d, "h": params.hidden}
    if name == "model.latent_logpdf_grads":
        return {"rows": _rows(args, kwargs, 4, "X")}
    if name == "measurement.channel_logpdf":
        return {"rows": int(getattr(result, "size", 1))}
    if name == "posterior.sir_sample_batch":
        _, ess, kept = result
        return {"obs": int(kept.size), "kept": int(kept.sum()), "ess_sum": float(ess.sum()),
                "n_proposals": int(args[6] if len(args) > 6 else kwargs["n_proposals"])}
    if name == "noise.sample_projection_vectors":
        return {"rows": int(result.m)}
    if name == "em.e_step":
        return {"skipped": int(result.n_skipped)}
    return {}


class Tracer:
    """Context manager: while entered, the functions in ``WRAPPED`` are
    wrapped and every call records one span."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for home, func, sites in WRAPPED:
            original = getattr(self.modules[home], func)
            wrapper = self._wrap(f"{home}.{func}", original)
            for site in sites:
                module = self.modules[site]
                self._saved.append((module, func, getattr(module, func)))
                setattr(module, func, wrapper)
        return self

    def __exit__(self, *exc):
        for module, func, original in reversed(self._saved):
            setattr(module, func, original)
        self._saved.clear()

    def _wrap(self, name, original):
        spans, stack = self.spans, self._stack
        faults = name == "em.e_step"

        def traced(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1][0] if stack else None, {}]
            spans.append(span)
            stack.append(span)
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
            span[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[5] = _counts(name, args, kwargs, result)
            if faults:
                span[5]["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, **counts}) + "\n")


def _latent_gflop(counts):
    """Floating-point operations of one latent_logpdf_batch call, from shapes.

    Per row: masked input layer 2*d*d*h, output layer 2*d*h, Jacobian core
    3*d*d*h, mask product d*d and an LU slogdet (2/3)*d^3.
    """
    d, h = counts["d"], counts["h"]
    per_row = 5 * d * d * h + 2 * d * h + d * d + 2 * d ** 3 / 3
    return counts["rows"] * per_row / 1e9


def layer_metrics(spans, n_setups: int, n_rounds: int) -> dict:
    """Per-layer values: per set-up for set-up functions, per EM round otherwise."""
    incl = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    by_id = {s[0]: s for s in spans}
    for sid, name, start, end, parent, counts in spans:
        incl[name] += end - start
        calls[name] += 1
        if parent is not None:
            child[by_id[parent][1]] += end - start
        for key, value in counts.items():
            if key not in ("d", "h"):
                sums[name, key] += value
        if name == "model.latent_logpdf_batch":
            sums[name, "gflop"] += _latent_gflop(counts)
            if parent is not None and by_id[parent][1] == "posterior.sir_sample_batch":
                sums["posterior", "proposal_rows"] += counts["rows"]

    def self_s(name):
        return incl[name] - child[name]

    S, R = max(n_setups, 1), max(n_rounds, 1)
    lb, lg = "model.latent_logpdf_batch", "model.latent_logpdf_grads"
    sir = "posterior.sir_sample_batch"
    n_prop = sums[sir, "n_proposals"] / max(calls[sir], 1)
    proposal_obs = sums["posterior", "proposal_rows"] / max(n_prop, 1)
    return {
        "cli.run_simulate.incl_s": (incl["cli.run_simulate"] / S, "s"),
        "scm.sample_latents.self_s": (self_s("scm.sample_latents") / S, "s"),
        "scm.mechanism.calls": (calls["scm.mechanism"] / S, "count"),
        "scm.mechanism.self_s": (self_s("scm.mechanism") / S, "s"),
        "scm.read_dataset.self_s": (self_s("scm.read_dataset") / S, "s"),
        "noise.estimate_channel_noise.self_s": (self_s("noise.estimate_channel_noise") / S, "s"),
        "noise.sample_projection_vectors.self_s":
            (self_s("noise.sample_projection_vectors") / S, "s"),
        "noise.sample_projection_vectors.rows":
            (sums["noise.sample_projection_vectors", "rows"] / S, "count"),
        "noise.nnls_projected_gradient.self_s": (self_s("noise.nnls_projected_gradient") / S, "s"),
        f"{lb}.self_s": (self_s(lb) / R, "s"),
        f"{lb}.calls": (calls[lb] / R, "count"),
        f"{lb}.rows": (sums[lb, "rows"] / R, "count"),
        f"{lb}.rows_per_s": (sums[lb, "rows"] / max(self_s(lb), 1e-12), "1/s"),
        f"{lb}.gflop_computed": (sums[lb, "gflop"] / R, "GFLOP"),
        f"{lg}.self_s": (self_s(lg) / R, "s"),
        f"{lg}.rows": (sums[lg, "rows"] / R, "count"),
        f"{lg}.rows_per_s": (sums[lg, "rows"] / max(self_s(lg), 1e-12), "1/s"),
        "model.sample_mask.self_s": (self_s("model.sample_mask") / R, "s"),
        "model.sample_mask.calls": (calls["model.sample_mask"] / R, "count"),
        "model.spectral_normalize.self_s": (self_s("model.spectral_normalize") / R, "s"),
        f"{sir}.self_s": (self_s(sir) / R, "s"),
        f"{sir}.obs": (sums[sir, "obs"] / R, "count"),
        "posterior.proposals_per_obs":
            (sums["posterior", "proposal_rows"] / max(sums[sir, "obs"], 1), "rows/obs"),
        "posterior.ess_frac": (sums[sir, "ess_sum"] / max(sums[sir, "kept"], 1) / max(n_prop, 1),
                               "ratio"),
        "posterior.retried_obs": ((proposal_obs - sums[sir, "obs"]) / R, "count"),
        "measurement.channel_logpdf.self_s": (self_s("measurement.channel_logpdf") / R, "s"),
        "measurement.channel_logpdf.rows": (sums["measurement.channel_logpdf", "rows"] / R,
                                            "count"),
        "em.e_step.incl_s": (incl["em.e_step"] / R, "s"),
        "em.e_step.minflt": (sums["em.e_step", "minflt"] / R, "count"),
        "em.skipped_obs": (sums["em.e_step", "skipped"] / R, "count"),
        "em.m_step.incl_s": (incl["em.m_step"] / R, "s"),
        "em.m_step.self_s": (self_s("em.m_step") / R, "s"),
        "em.surrogate_q.incl_s": (incl["em.surrogate_q"] / R, "s"),
        "em.channel_term.self_s": (self_s("em.channel_term") / R, "s"),
    }
