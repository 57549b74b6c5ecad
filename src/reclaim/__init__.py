"""Cyclic causal discovery from interventional, noise-corrupted measurements.

The pipeline: estimate measurement-noise variances from interventional
regimes, model the latent mechanism with a masked contractive network,
approximate latent posteriors by sampling importance resampling, and learn
the edge structure by penalized EM on the measurement likelihood.
"""

from .errors import (ConvergenceError, EStepError, IdentifiabilityError,
                     ParameterError, RankError, SamplingFailureError,
                     UndefinedMetricError)
from .graphs import (DirectedGraph, auprc, erdos_renyi, graph_from_json,
                     graph_to_json, shd, threshold_edges)
from .scm import (GroundTruthScm, InterventionFamily, InterventionRegime, mechanism,
                  rescale_to_contractive, sample_benchmark_scm, sample_latents,
                  single_node_family, solve_fixed_point)
from .measurement import (GaussianAdditiveChannel, LinearChannel,
                          channel_from_dict, channel_from_json, channel_logpdf,
                          channel_to_json, measure)
from .noise import (ProjectionSet, estimate_channel_noise,
                    estimate_gan_variances, estimate_linear_variances,
                    nnls_projected_gradient, null_space_basis,
                    sample_projection_vectors)
from .model import (MaskSample, ModelParams, edge_scores, init_params,
                    latent_logpdf_batch, latent_logpdf_grads, sample_mask,
                    spectral_normalize)
from .posterior import sir_sample_batch
from .em import (EmConfig, FitReport, build_channel, e_step, elbo_estimate,
                 fit, m_step, surrogate_q)

__version__ = "0.1.0"
