"""relkit: train small ReLU networks and explain their predictions.

Relevance propagation with configurable per-layer rules, gradient-based
explainers, class-prototype search, and quantitative explanation-quality
metrics, over a self-contained float64 network engine.
"""

from .netcore import (ActivationTrace, LayerSpec, Network, TrainConfig, as_tensor,
                      avg_pool, conv2d, dense, flatten, forward, forward_batch, gradient,
                      log_softmax, max_pool, random_network, relu, seeded_gradient,
                      softmax, sum_pool, train_sgd)
from .explain import (AlphaBeta, Epsilon, Heatmap, PassThrough, PoolProportional,
                      PoolWinnerTakeAll, RelevanceTrace, RuleConfig, WSquare,
                      ZBounds, alphabeta_config, deep_taylor_config, epsilon_config,
                      filter_relevance, lrp, lrp_dense_alphabeta, lrp_dense_epsilon,
                      lrp_heatmap, lrp_input_wsquare, lrp_input_zb, lrp_pool,
                      sensitivity, simple_taylor)
from .prototype import (AmObjective, AmOptions, AmResult, ExpertPrior, L2Penalty,
                        Localization, MeanAnchoredL2, RbmExpert, activation_maximize,
                        am_objective, rbm_log_density)
from .evalkit import FlipConfig, FlipCurve, auc, continuity_estimate, pixel_flip
from .heatmaptools import (pattern, pixel_partition, pool_relevance,
                           quadrant_partition, render_heatmap, shift_image,
                           sliding_window_explain, translation_average)
from .modelio import (ModelFile, ModelFormatError, load_heatmap_csv, load_idx,
                      load_model, load_model_file, load_tensor_csv, save_curve_csv,
                      save_heatmap_csv, save_idx_images, save_idx_labels,
                      save_model, save_tensor_csv)

__version__ = "0.1.0"
