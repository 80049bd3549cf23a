"""Audio-visual speaker recognition toolkit.

The post-embedding stack: a trainable voice-face cross-modal verification
network, LDA/PLDA and cosine recognition back-ends, detection metrics,
logistic-regression calibration and fusion, and a synthetic linear-Gaussian
benchmark with an exact Bayes scorer.
"""

from .store import (EmbeddingStore, ScoreSet, TrialSet, build_crossmodal_trials,
                    load_embeddings, load_scores, load_trials, save_embeddings, save_scores,
                    save_trials)
from .vfnet import (VFNetParams, cosine_similarity, init_params, load_params, pair_probability,
                    save_params, transform_face, transform_voice)
from .training import TrainConfig, TrainReport, train
from .backend import (LdaTransform, PldaModel, PoolingRule, fit_lda, fit_plda,
                      plda_group_llr, pool_cosines, project_store)
from .metrics import DcfParams, MetricReport, compute_metrics
from .fusion import FusionModel, apply_fusion, fit_fusion
from .synth import (GenConfig, OracleScorer, generate, generate_av_benchmark,
                    oracle_eer)
from .pipeline import PipelineConfig, PipelineError, run_pipeline

__version__ = "0.1.0"
