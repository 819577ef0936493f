"""Spatially weighted sub-quadratic attention over 2D token grids.

Queries weight concentric vicinal groups of tokens (unit rings or dyadic
bands) with per-query simplex weights; prefix sums turn each group into a
window difference, and a merged tail closes the sum past an adaptive halting
index. Includes exact quadratic references, an analytic backward pass, a tiny
trainable model, and a benchmark harness.
"""
from .attention import (AttentionConfig, AttentionOutput, AttentionTape,
                        DEFAULT_EPSILON, MultiHeadConfig, MultiHeadParams, MultiHeadTape,
                        init_multi_head, linearized_attention, linearized_grid,
                        multi_head_forward, ripple_dp, ripple_naive,
                        ripple_softmax_reference, softmax_attention)
from .bench import (BenchPlan, BenchRecord, SlopeFit, fit_loglog, fit_slope,
                    memory_probe, run_bench)
from .featmap import (FeatureMapKind, FeatureMapParams, feature_forward,
                      feature_vjp, init_feature_map)
from .grad import (AttentionGradients, FiniteDiffReport, MultiHeadGradients,
                   finite_diff_check, grad_pixels_reference, linearized_vjp,
                   multi_head_vjp, ripple_vjp)
from .sat import fetch_count, prefix_sum, reset_fetch_count
from .toymodel import (Adam, SgdMomentum, ToyModelConfig, clip_grad_norm,
                       cross_entropy, init_model, layer_norm, loss_and_grads,
                       make_local_majority_batch,
                       make_scattered_clustered_batch, model_forward,
                       train_demo)
from .vicinal import (GridShape, PartitionKind, PartitionScheme, chebyshev,
                      group_members, group_of_distance,
                      group_span, max_chebyshev, num_groups, num_groups_grid)
from .weights import (SpatialWeights, StickParams, WeightGrid, WeightScheme,
                      WeightSchemeKind, adaptive_truncate, jsd, jsd_grid,
                      modified_sigmoid, scheme_weights, scheme_weights_grid,
                      stick_breaking, stick_logits)

__version__ = "0.1.0"
