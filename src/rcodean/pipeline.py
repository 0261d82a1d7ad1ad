"""End-to-end orchestration: preprocessing, tessellation, the ten
per-source autoencoder + head models, learned patch weighting, and the
three-classifier ensemble.

A 64x64 face yields ten sources: nine overlapping 32x32 patches on a
stride-16 grid plus the full image. One autoencoder and one scoring head
are trained per source; their per-attribute probabilities are weighted by
learned patch relevances and concatenated into the stage-2 feature vector
that the MLP, forest, and SVM consume before the final majority vote.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .classifiers import (Forest, LinearSvm, MlpHead, ensemble_vote,
                          forest_predict_proba, forest_train, head_score,
                          head_train, svm_decision, svm_train, PROB_THRESHOLD)
from .data import AttributeDataset
from .errors import ConfigError, InputError, ShapeError
from .network import (DEFAULT_SKIP_LAYOUT, CodeanParams, RCodeanNet,
                      build_rcodean, codean_loss, encode, loss_and_grads,
                      net_forward)
from .optimizer import AdamState, PlateauScheduler, adam_step, scheduler_update
from .tensor import Mat, _sigmoid

log = logging.getLogger("rcodean")

IMAGE_SIZE = 64
PATCH_SIZE = 32
PATCH_OFFSETS = tuple((r, c) for r in (0, 16, 32) for c in (0, 16, 32))
N_SOURCES = len(PATCH_OFFSETS) + 1  # nine patches + full face
SOURCE_DIMS = tuple([PATCH_SIZE * PATCH_SIZE] * 9 + [IMAGE_SIZE * IMAGE_SIZE])

MIN_INPUT_SIDE = 8  # refuse to upsample anything smaller


# ---------------------------------------------------------------------------
# preprocessing and tessellation


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resample with edge clamping."""
    h, w = img.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = (1.0 - wx) * img[np.ix_(y0, x0)] + wx * img[np.ix_(y0, x1)]
    bottom = (1.0 - wx) * img[np.ix_(y1, x0)] + wx * img[np.ix_(y1, x1)]
    return (1.0 - wy) * top + wy * bottom


def preprocess(image) -> Mat:
    """Resample a raw grayscale image to 64x64 and scale to [0, 1]."""
    img = image.a if isinstance(image, Mat) else np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise InputError(f"expected a single-channel image, got shape {img.shape}")
    h, w = img.shape
    if h < MIN_INPUT_SIDE or w < MIN_INPUT_SIDE:
        raise InputError(f"image {h}x{w} is below the {MIN_INPUT_SIDE} pixel minimum")
    if (h, w) != (IMAGE_SIZE, IMAGE_SIZE):
        img = _bilinear_resize(img, IMAGE_SIZE, IMAGE_SIZE)
    return Mat(img / 255.0, copy=False)


def tessellate_batch(images: np.ndarray) -> list[np.ndarray]:
    """Source matrices for an (n, 64, 64) stack: ten (dim, n) arrays."""
    if images.ndim != 3 or images.shape[1:] != (IMAGE_SIZE, IMAGE_SIZE):
        raise ShapeError(f"expected (n, 64, 64) images, got {images.shape}")
    n = images.shape[0]
    out = [np.ascontiguousarray(
        images[:, r:r + PATCH_SIZE, c:c + PATCH_SIZE].reshape(n, -1).T)
        for r, c in PATCH_OFFSETS]
    out.append(np.ascontiguousarray(images.reshape(n, -1).T))
    return out


# ---------------------------------------------------------------------------
# configuration and stage-1 training


@dataclass
class PipelineConfig:
    l: int = 512
    alpha: float = 1.0
    beta: float = 1.0
    lam: float = 0.01
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 128
    patience: int = 5
    min_lr: float = 1e-6
    seed: int = 0
    head_epochs: int = 300
    head_lr: float = 1e-2
    weight_steps: int = 500
    weight_lr: float = 1.0
    forest_trees: int = 32
    forest_depth: int = 8
    svm_epochs: int = 20
    svm_reg: float = 1e-4
    jobs: int = 1

    def codean_params(self) -> CodeanParams:
        return CodeanParams(alpha=self.alpha, beta=self.beta, lam=self.lam)


@dataclass
class EpochStats:
    epoch: int
    total: float
    euc: float
    cos: float
    reg: float
    lr: float


def train_autoencoder(net: RCodeanNet, X: np.ndarray, cfg: PipelineConfig,
                      seed) -> list[EpochStats]:
    """Minibatch Adam with plateau decay; epoch 0 records the untrained
    full-batch loss so relative improvement has a baseline."""
    n = X.shape[1]
    if n == 0:
        raise ConfigError("autoencoder training split is empty")
    rng = np.random.default_rng(seed)
    state = AdamState(lr=cfg.lr)
    sched = PlateauScheduler(lr=cfg.lr, patience=cfg.patience, min_lr=cfg.min_lr)
    params = net.parameters()

    def full_batch_stats(epoch: int) -> EpochStats:
        xm = Mat(X)
        loss = codean_loss(net, xm, net_forward(net, xm).reconstruction)
        return EpochStats(epoch, loss.total, loss.euc, loss.cos, loss.reg, state.lr)

    history = [full_batch_stats(0)]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        sums = np.zeros(4)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = Mat(X[:, idx])
            loss, grads = loss_and_grads(net, batch)
            adam_step(state, params, grads)
            sums += np.array([loss.total, loss.euc, loss.cos, loss.reg]) * len(idx)
        total, euc, cos, reg = sums / n
        state.lr = scheduler_update(sched, total)
        history.append(EpochStats(epoch, total, euc, cos, reg, state.lr))
    return history


def _preprocessed_stack(dataset: AttributeDataset, indices: np.ndarray) -> np.ndarray:
    out = np.empty((len(indices), IMAGE_SIZE, IMAGE_SIZE))
    for row, i in enumerate(indices):
        out[row] = preprocess(dataset.image(int(i))).a
    return out


def _train_one_source(source: int, X_ae: np.ndarray, labels_ae: np.ndarray,
                      cfg: PipelineConfig):
    net = build_rcodean(SOURCE_DIMS[source], cfg.l, cfg.codean_params(),
                        seed=[cfg.seed, source])
    history = train_autoencoder(net, X_ae, cfg, seed=[cfg.seed, 1000 + source])
    codes = encode(net, Mat(X_ae))
    head = head_train(codes, labels_ae, epochs=cfg.head_epochs,
                      seed=[cfg.seed, 2000 + source], lr=cfg.head_lr)
    log.info("source %d trained: loss %.5f -> %.5f", source,
             history[0].total, history[-1].total)
    return net, head, history


def train_stage1(dataset: AttributeDataset, cfg: PipelineConfig):
    """Train the ten (autoencoder, head) pairs.

    Autoencoders and their scoring heads both fit the ae-train split (the
    autoencoders unsupervised, the heads on frozen codes against labels),
    keeping the disjoint clf-train split unseen so the downstream patch
    weights and ensemble learn from honest out-of-sample scores.
    Returns (models, histories) with models[s] = (net, head).
    """
    ae_idx = dataset.splits["ae-train"]
    clf_idx = dataset.splits["clf-train"]
    if len(ae_idx) == 0 or len(clf_idx) == 0:
        raise ConfigError("both ae-train and clf-train splits must be non-empty")
    sources_ae = tessellate_batch(_preprocessed_stack(dataset, ae_idx))
    labels_ae = dataset.labels[ae_idx]

    def work(s):
        return _train_one_source(s, sources_ae[s], labels_ae, cfg)

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(work, range(N_SOURCES)))
    else:
        results = [work(s) for s in range(N_SOURCES)]
    models = [(net, head) for net, head, _ in results]
    histories = [h for _, _, h in results]
    return models, histories


# ---------------------------------------------------------------------------
# scoring and patch weights


def score_images(models, images: np.ndarray) -> np.ndarray:
    """Vectorized stage-1 scores for an (n, 64, 64) stack: (n, 10, k)."""
    sources = tessellate_batch(images)
    k = models[0][1].n_attributes
    n = images.shape[0]
    out = np.empty((n, N_SOURCES, k))
    for s, (net, head) in enumerate(models):
        probs = head_score(head, encode(net, Mat(sources[s])))
        out[:, s, :] = probs.a.T
    return out


@dataclass
class PatchWeights:
    """Per-attribute source relevances, shape (k, 10), each row scaled so
    its maximum is exactly 1."""
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != N_SOURCES:
            raise ShapeError(f"patch weights must be (k, {N_SOURCES}), got {v.shape}")
        if (v < 0).any() or (v > 1).any():
            raise ConfigError("patch weights must lie in [0, 1]")
        if not np.allclose(v.max(axis=1), 1.0):
            raise ConfigError("each patch-weight row must have max 1")
        self.values = v


def _logit(p: np.ndarray) -> np.ndarray:
    # scores are clipped well away from 0/1: saturated heads would rail
    # the logits and kill every gradient in the weight fit
    q = np.clip(p, 0.01, 0.99)
    return np.log(q / (1.0 - q))


_WEIGHT_INIT = 0.3


def learn_patch_weights(scores: np.ndarray, labels: np.ndarray,
                        steps: int = 500, lr: float = 1.0) -> PatchWeights:
    """Fit per-attribute source relevances from stage-1 scores.

    For attribute a the model is sigmoid(sum_p w_p^2 * logit(s_pa) + b),
    trained by plain full-batch gradient descent on cross-entropy.
    Squaring keeps relevances nonnegative; the shared constant
    initialization keeps identical sources exactly symmetric; plain
    descent (not Adam) is deliberate so the fitted magnitudes stay
    proportional to how much each source actually helps. Reported
    weights are w^2 normalized by the row maximum.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 3 or scores.shape[1] != N_SOURCES:
        raise ShapeError(f"scores must be (n, {N_SOURCES}, k), got {scores.shape}")
    n, _, k = scores.shape
    if labels.shape != (n, k):
        raise ShapeError(f"labels {labels.shape} do not match scores {scores.shape}")
    logits = _logit(scores)
    values = np.ones((k, N_SOURCES))
    for a in range(k):
        y = labels[:, a]
        if y.min() == y.max():
            log.warning("attribute %d has a single class; uniform patch weights", a)
            continue
        x = logits[:, :, a]  # (n, 10)
        w = np.full(N_SOURCES, _WEIGHT_INIT)
        b = 0.0
        for _ in range(steps):
            z = x @ (w * w) + b
            gz = (_sigmoid(z) - y) / n
            w -= lr * (x.T @ gz) * 2.0 * w
            b -= lr * float(gz.sum())
        sq = w * w
        peak = sq.max()
        if peak <= 0.0:
            log.warning("attribute %d learned all-zero weights; using uniform", a)
            continue
        values[a] = sq / peak
    return PatchWeights(values)


def build_stage2_features(scores: np.ndarray, weights: PatchWeights) -> np.ndarray:
    """Weighted, source-major flattening of a (10, k) or (n, 10, k) grid
    into 10k-dim feature vectors."""
    s = np.asarray(scores, dtype=np.float64)
    single = s.ndim == 2
    if single:
        s = s[None]
    if s.shape[1] != N_SOURCES or s.shape[2] != weights.values.shape[0]:
        raise ShapeError(f"scores {s.shape} do not match weights "
                         f"{weights.values.shape}")
    weighted = s * weights.values.T[None, :, :]
    flat = weighted.reshape(s.shape[0], -1)
    return flat[0] if single else flat


# ---------------------------------------------------------------------------
# the trained bundle and end-to-end prediction

BUNDLE_FORMAT_VERSION = "1"


@dataclass
class ModelBundle:
    """Everything a prediction needs, plus the config that produced it."""
    config: dict
    nets: list[RCodeanNet]
    heads: list[MlpHead]
    patch_weights: PatchWeights
    stage2_mlp: MlpHead
    forest: Forest
    svm: LinearSvm
    version: str = BUNDLE_FORMAT_VERSION

    @property
    def k(self) -> int:
        return int(self.config["k"])

    @property
    def attribute_names(self) -> list[str]:
        return list(self.config["attribute_names"])

    def models(self):
        return list(zip(self.nets, self.heads))


def train_full(dataset: AttributeDataset,
               cfg: PipelineConfig) -> tuple[ModelBundle, list[list[EpochStats]]]:
    """Run the whole training pipeline; returns the bundle and the ten
    per-source autoencoder loss histories."""
    models, histories = train_stage1(dataset, cfg)
    clf_idx = dataset.splits["clf-train"]
    labels_clf = dataset.labels[clf_idx]
    scores = score_images(models, _preprocessed_stack(dataset, clf_idx))
    weights = learn_patch_weights(scores, labels_clf,
                                  steps=cfg.weight_steps, lr=cfg.weight_lr)
    feats = build_stage2_features(scores, weights)
    stage2_mlp = head_train(Mat(feats.T), labels_clf, epochs=cfg.head_epochs,
                            seed=[cfg.seed, 3000], lr=cfg.head_lr)
    forest = forest_train(feats, labels_clf, trees_per_attr=cfg.forest_trees,
                          max_depth=cfg.forest_depth, seed=cfg.seed)
    svm = svm_train(feats, labels_clf, epochs=cfg.svm_epochs,
                    reg=cfg.svm_reg, seed=cfg.seed)
    config = asdict(cfg)
    config.update({"k": dataset.k, "attribute_names": list(dataset.names),
                   "source_dims": list(SOURCE_DIMS),
                   "skip_layout": [list(s) for s in DEFAULT_SKIP_LAYOUT]})
    bundle = ModelBundle(config=config, nets=[m[0] for m in models],
                         heads=[m[1] for m in models], patch_weights=weights,
                         stage2_mlp=stage2_mlp, forest=forest, svm=svm)
    return bundle, histories


def _classifier_probs(bundle: ModelBundle, feats: np.ndarray):
    """(mlp, forest, svm) probability-like outputs for (n, 10k) features."""
    mlp = head_score(bundle.stage2_mlp, Mat(feats.T)).a.T
    forest = forest_predict_proba(bundle.forest, feats)
    svm = _sigmoid(svm_decision(bundle.svm, feats))
    return mlp, forest, svm


def predict_batch(bundle: ModelBundle, images: np.ndarray):
    """Predicted bits and confidences for an (n, 64, 64) preprocessed
    stack; also returns the three per-classifier bit arrays."""
    scores = score_images(bundle.models(), images)
    feats = build_stage2_features(scores, bundle.patch_weights)
    mlp_p, forest_p, svm_p = _classifier_probs(bundle, feats)
    mlp_bits = (mlp_p > PROB_THRESHOLD).astype(np.int64)
    forest_bits = (forest_p > PROB_THRESHOLD).astype(np.int64)
    svm_bits = (svm_p > PROB_THRESHOLD).astype(np.int64)
    bits = ensemble_vote(mlp_bits, forest_bits, svm_bits)
    conf = (mlp_p + forest_p + svm_p) / 3.0
    return bits, conf, {"mlp": mlp_bits, "forest": forest_bits, "svm": svm_bits}


def predict(bundle: ModelBundle, image) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline for one raw image: k attribute bits + k confidences."""
    pre = preprocess(image)
    bits, conf, _ = predict_batch(bundle, pre.a[None, :, :])
    return bits[0], conf[0]


@dataclass
class EvalReport:
    attribute_names: list[str]
    accuracy: np.ndarray           # per attribute, voted predictions
    mean_accuracy: float
    classifier_accuracy: dict      # name -> (per-attribute array, mean)


def evaluate(bundle: ModelBundle, dataset: AttributeDataset, split: str) -> EvalReport:
    if dataset.k != bundle.k:
        raise ConfigError(f"bundle expects k={bundle.k}, dataset has k={dataset.k}")
    if split not in dataset.splits:
        raise ConfigError(f"unknown split {split!r}")
    idx = dataset.splits[split]
    if len(idx) == 0:
        raise ConfigError(f"split {split!r} is empty")
    images = _preprocessed_stack(dataset, idx)
    labels = dataset.labels[idx]
    bits, _, per_clf = predict_batch(bundle, images)
    acc = (bits == labels).mean(axis=0)
    clf_acc = {}
    for name, pred in per_clf.items():
        per_attr = (pred == labels).mean(axis=0)
        clf_acc[name] = (per_attr, float(per_attr.mean()))
    return EvalReport(attribute_names=bundle.attribute_names,
                      accuracy=acc, mean_accuracy=float(acc.mean()),
                      classifier_accuracy=clf_acc)
