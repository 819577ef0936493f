"""Spatially weighted sub-quadratic attention over 2D token grids.

Queries weight concentric vicinal groups of tokens (unit rings or dyadic
bands) with per-query simplex weights; prefix sums turn each group into a
window difference, and a merged tail closes the sum past an adaptive halting
index. Includes an analytic backward pass and a tiny trainable model; the
quadratic oracles, the scalar forms of the grid functions and the scaling
harness live in the reference module, which no runtime module imports.
"""
from .attention import (AttentionConfig, AttentionOutput, AttentionTape,
                        DEFAULT_EPSILON, MultiHeadConfig, MultiHeadParams, MultiHeadTape,
                        init_multi_head, linearized_grid, multi_head_forward, ripple_dp,
                        ripple_naive)
from .featmap import (FeatureMapKind, FeatureMapParams, feature_forward,
                      feature_vjp, init_feature_map)
from .grad import (AttentionGradients, FiniteDiffReport, MultiHeadGradients,
                   finite_diff_check, linearized_vjp, multi_head_vjp, ripple_vjp)
from .reference import (BenchPlan, BenchRecord, SlopeFit, SpatialWeights, adaptive_truncate,
                        chebyshev, fit_loglog, fit_slope, grad_pixels_reference,
                        group_of_distance, jsd, linearized_attention, max_chebyshev,
                        memory_probe, modified_sigmoid, num_groups, ripple_softmax_reference,
                        run_bench, scheme_weights, softmax_attention, stick_breaking,
                        stick_logits)
from .sat import fetch_count, prefix_sum, reset_fetch_count
from .toymodel import (Adam, SgdMomentum, ToyModelConfig, clip_grad_norm,
                       cross_entropy, init_model, layer_norm, loss_and_grads,
                       make_local_majority_batch,
                       make_scattered_clustered_batch, model_forward,
                       train_demo)
from .vicinal import (GridShape, PartitionKind, PartitionScheme, group_members,
                      group_span, num_groups_grid)
from .weights import (StickParams, WeightGrid, WeightScheme, WeightSchemeKind, jsd_grid,
                      scheme_weights_grid)

__version__ = "0.1.0"
