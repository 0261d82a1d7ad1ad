"""Cosine+Euclidean residual autoencoder and the patch-based attribute
prediction pipeline built on it."""

from .bundle import load_bundle, save_bundle
from .classifiers import (Forest, LinearSvm, MlpHead, ensemble_vote,
                          forest_predict, forest_predict_proba, forest_train,
                          head_score, head_train, svm_decision, svm_predict,
                          svm_train)
from .data import (AttributeDataset, gen_synthetic, load_attr_list,
                   load_gray_image, save_gray_image, split_by_counts,
                   split_by_fractions)
from .errors import (ConfigError, CorruptionError, FormatError, InputError,
                     NumericError, ParseError, RCodeanError, ShapeError,
                     TrainingError, UsageError, VersionError)
from .layers import DenseLayer, LayerCache, dense_backward, dense_forward, init_dense
from .network import (CodeanParams, RCodeanNet, SkipSpec, build_rcodean,
                      codean_loss, encode, gradient_check, loss_and_grads,
                      net_backward, net_forward)
from .optimizer import AdamState, PlateauScheduler, adam_step, scheduler_update
from .pipeline import (EvalReport, ModelBundle, PatchWeights, PipelineConfig,
                       build_stage2_features, evaluate, learn_patch_weights,
                       predict, predict_batch, preprocess, score_images,
                       train_full, train_stage1)
from .tensor import Mat, activation

__version__ = "0.1.0"
