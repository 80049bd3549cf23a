"""Audio-visual speaker recognition toolkit.

The post-embedding stack: a trainable voice-face cross-modal verification
network, LDA/PLDA and cosine recognition back-ends, detection metrics,
logistic-regression calibration and fusion, and a synthetic linear-Gaussian
benchmark with an exact Bayes scorer.
"""

from .store import (EmbeddingRecord, EmbeddingStore, ScoreEntry, ScoreSet,
                    Trial, TrialSet, build_crossmodal_trials, load_embeddings,
                    load_scores, load_trials, save_embeddings, save_scores,
                    save_trials)
from .vfnet import (PairScore, VFNetParams, cosine_similarity, init_params,
                    load_params, pair_forward, pair_probability, save_params,
                    transform_face, transform_voice)
from .training import TrainConfig, TrainReport, train
from .backend import (LdaTransform, PldaModel, PoolingRule, fit_lda, fit_plda,
                      plda_llr, pool_top_fraction, project, project_store,
                      score_face_trial)
from .metrics import (DcfParams, MetricReport, act_dcf, auc, compute_metrics,
                      eer, min_dcf, roc_points)
from .fusion import FusionModel, apply_fusion, fit_fusion
from .synth import (GenConfig, OracleScorer, generate, generate_av_benchmark,
                    oracle_eer)
from .pipeline import PipelineConfig, PipelineError, run_pipeline

__version__ = "0.1.0"
