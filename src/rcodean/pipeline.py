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

import contextlib
import ctypes
import functools
import logging
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .classifiers import (Forest, LinearSvm, MlpHead, assemble_mlp_head, ensemble_vote,
                          forest_predict_proba, forest_train, head_score,
                          head_train, stacked_head_score,
                          svm_decision, svm_train, PROB_THRESHOLD)
from .data import IMAGE_SIZE, AttributeDataset
from .errors import ConfigError, InputError, NumericError, ShapeError
from .network import (DEFAULT_SKIP_LAYOUT, CodeanParams, RCodeanNet, assemble_rcodean,
                      build_rcodean, codean_loss, encode, loss_and_grads, net_forward,
                      parameter_shapes, stacked_encode)
from .optimizer import AdamState, PlateauScheduler, adam_step, scheduler_update
from .tensor import Mat, _sigmoid

log = logging.getLogger("rcodean")

PATCH_SIZE = 32
PATCH_OFFSETS = tuple((r, c) for r in (0, 16, 32) for c in (0, 16, 32))
N_SOURCES = len(PATCH_OFFSETS) + 1  # nine patches + full face
SOURCE_DIMS = tuple([PATCH_SIZE * PATCH_SIZE] * len(PATCH_OFFSETS) + [IMAGE_SIZE * IMAGE_SIZE])

MIN_INPUT_SIDE = 8  # refuse to upsample anything smaller


# ---------------------------------------------------------------------------
# preprocessing and tessellation


def _axis_plan(size: int, out: int) -> tuple[np.ndarray, ...]:
    """Source indices and weights of one output axis: lower and upper
    neighbours, then the weights of the lower and of the upper one."""
    pos = np.clip((np.arange(out) + 0.5) * size / out - 0.5, 0.0, size - 1.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, size - 1)
    frac = pos - lo
    return lo, hi, 1.0 - frac, frac


@functools.lru_cache(maxsize=32)
def _resize_plan(h: int, w: int, out_h: int, out_w: int) -> tuple[np.ndarray, ...]:
    """The gather indices and weights resampling h x w to out_h x out_w,
    made once per shape; the cached arrays are read-only. Each is a full
    (2 out_h, out_w) array, every output row's upper source row, then
    every lower one: the flat indices of the left and of the right source
    pixel, the weights of the left and of the right one, and the row
    weights. A plan holds five 64 KB arrays at 64x64 output, so the cache
    holds at most about 10 MB."""
    y0, y1, wy0, wy1 = _axis_plan(h, out_h)
    x0, x1, wx0, wx1 = _axis_plan(w, out_w)
    rows = np.concatenate([y0, y1])[:, None] * w
    wy = np.concatenate([wy0, wy1])[:, None]
    plan = (rows + x0, rows + x1) + tuple(
        np.broadcast_to(weight, (2 * out_h, out_w)).copy() for weight in (wx0, wx1, wy))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resample with edge clamping. Both source
    rows of every output row are gathered at once, as two flat gathers of
    the left and the right source pixels, interpolated along the columns
    as one (2 out_h, out_w) block, then weighted and summed. Only the
    gathered pixels are converted to float64, inside the multiplies."""
    left, right, wx0, wx1, wy = _resize_plan(*img.shape, out_h, out_w)
    block = img.take(left) * wx0
    block += img.take(right) * wx1
    block *= wy
    return block[:out_h] + block[out_h:]


def preprocess(image) -> Mat:
    """Resample a raw grayscale image to 64x64 and scale to [0, 1]. A
    uint8 image is read as it is; any other is converted to float64."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise InputError(f"expected a single-channel image, got shape {img.shape}")
    h, w = img.shape
    if h < MIN_INPUT_SIDE or w < MIN_INPUT_SIDE:
        raise InputError(f"image {h}x{w} is below the {MIN_INPUT_SIDE} pixel minimum")
    if (h, w) != (IMAGE_SIZE, IMAGE_SIZE):
        img = _bilinear_resize(img, IMAGE_SIZE, IMAGE_SIZE)
        img /= 255.0  # the resample is this call's own array
    else:
        img = img / 255.0  # a new float64 array: the caller's stays as it is
    return Mat(img)


_TRANSPOSE_BLOCK = 64  # images per block of the face-matrix transpose


def tessellate_batch(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Source matrices for an (n, 64, 64) stack, one sample per column:
    the (9, 1024, n) patch stack (patch s is source s) and the (4096, n)
    face matrix (source 9). The images are transposed once, into the face
    matrix; each patch row then copies 32 whole face rows at a time."""
    if images.ndim != 3 or images.shape[1:] != (IMAGE_SIZE, IMAGE_SIZE):
        raise ShapeError(f"expected (n, 64, 64) images, got {images.shape}")
    n = images.shape[0]
    rows = images.reshape(n, -1)
    face = np.empty((IMAGE_SIZE * IMAGE_SIZE, n))
    # a block of images keeps the strided reads on few memory pages: at
    # n = 200 and 2000 this is twice as fast as one whole-batch transpose
    for j in range(0, n, _TRANSPOSE_BLOCK):
        face[:, j:j + _TRANSPOSE_BLOCK] = rows[j:j + _TRANSPOSE_BLOCK].T
    grid = face.reshape(IMAGE_SIZE, IMAGE_SIZE, n)
    patches = np.empty((len(PATCH_OFFSETS), PATCH_SIZE * PATCH_SIZE, n))
    for patch, (r, c) in zip(patches, PATCH_OFFSETS):
        patch.reshape(PATCH_SIZE, PATCH_SIZE, n)[...] = \
            grid[r:r + PATCH_SIZE, c:c + PATCH_SIZE]
    return patches, face


# ---------------------------------------------------------------------------
# configuration and stage-1 training


def is_number(value, integral: bool = False) -> bool:
    """Whether a configuration value is a finite real number, or with
    ``integral`` an integer; a bool is neither. The run and pipeline
    configs and a bundle header's numbers are all checked with this."""
    kind = numbers.Integral if integral else numbers.Real
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass
class PipelineConfig:
    """The settings a training run may vary; no trainer restates their
    defaults. Every other hyperparameter is a constant, such as
    ``classifiers.HEAD_LR``, or a default only tests vary."""
    l: int = 512
    alpha: float = 1.0
    beta: float = 1.0
    lam: float = 0.01
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0
    head_epochs: int = 300
    weight_steps: int = 500
    forest_trees: int = 32
    svm_epochs: int = 20

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_number(value, integral=isinstance(f.default, int)):
                raise ConfigError(f"{f.name} must be a finite {type(f.default).__name__}, "
                                  f"got {value!r}")
        # below these a run crashes or trains a part not at all
        for name, low in (("l", 1), ("batch_size", 1), ("seed", 0), ("epochs", 1),
                          ("head_epochs", 1), ("weight_steps", 1), ("forest_trees", 1),
                          ("svm_epochs", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # the largest array a run makes is a (9, l, 1024) or (9, l, l) float64
        # stack of the patch encoders' layers; numpy holds no array of more
        # bytes than an intp counts, on any machine
        if (N_SOURCES - 1) * self.l * max(self.l, SOURCE_DIMS[0]) * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"l {self.l} sizes encoders larger than one numpy array can hold")
        self.codean_params()  # checks alpha, beta and lam

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
    """Minibatch Adam with plateau decay on the (d, n) float64 columns
    ``X``, checked here, once, under ``cfg``'s loss weights; epoch 0
    records the untrained full-batch loss so relative improvement has a
    baseline."""
    n = X.shape[1]
    if n == 0:
        raise ConfigError("autoencoder training split is empty")
    if not np.isfinite(X).all():
        raise NumericError("autoencoder training inputs contain non-finite entries")
    rng = np.random.default_rng(seed)
    sched = PlateauScheduler()
    state = AdamState(lr=sched.lr)
    arrays = net.parameters()
    params = cfg.codean_params()

    def full_batch_stats(epoch: int) -> EpochStats:
        loss = codean_loss(net, X, net_forward(net, X).reconstruction, params)
        return EpochStats(epoch, loss.total, loss.euc, loss.cos, loss.reg, state.lr)

    history = [full_batch_stats(0)]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        sums = np.zeros(4)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = loss_and_grads(net, np.take(X, idx, axis=1), params)
            adam_step(state, arrays, grads)
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


def _train_one_source(source: int, X_ae: np.ndarray, cfg: PipelineConfig):
    """One source's trained encoder arrays, named as
    ``parameter_shapes(d, l, encoder_only=True)`` names them, its (l, n)
    codes of ``X_ae`` and its loss history. The decoder and its
    projection go with the net, when this returns."""
    net = build_rcodean(SOURCE_DIMS[source], cfg.l, seed=[cfg.seed, source])
    history = train_autoencoder(net, X_ae, cfg, seed=[cfg.seed, 1000 + source])
    # X_ae is C-contiguous float64, checked finite by train_autoencoder
    codes = stacked_encode(net, X_ae)
    log.info("source %d trained: loss %.5f -> %.5f", source,
             history[0].total, history[-1].total)
    kept = parameter_shapes(SOURCE_DIMS[source], cfg.l, encoder_only=True)
    return {name: arr for name, arr in net.parameters() if name in kept}, codes, history


def _stage1_workers() -> int:
    """Threads that train the sources: the usable cores, at most one per
    source."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, N_SOURCES)


def _warn_single_class(labels: np.ndarray, split: str) -> None:
    """Log each attribute whose ``split`` labels hold one class only; what
    trains on them cannot tell the attribute's two values apart."""
    for a in np.flatnonzero(labels.min(axis=0) == labels.max(axis=0)):
        log.warning("attribute %d has a single class in the %s split", a, split)


def train_stage1(dataset: AttributeDataset, cfg: PipelineConfig):
    """Train the ten autoencoders, one source per thread on
    ``_stage1_workers()`` threads, then on the same threads the ten
    scoring heads, on the (10, l, n) stack of the sources' codes: one
    stacked ``head_train`` call per thread, on a contiguous slice of
    sources, the slices' heads joined into one stacked head.

    Autoencoders and their scoring heads both fit the ae-train split (the
    autoencoders unsupervised, the heads on frozen codes against labels),
    keeping the disjoint clf-train split unseen so the downstream patch
    weights and ensemble learn from honest out-of-sample scores.
    Every source has its own seeds, and a stacked head's slice s is bit
    for bit what training source s's head alone gives, so the thread
    count changes no output. OpenBLAS runs on one thread, as in
    ``train_full``, and the caller's count is restored after.
    Returns (models, histories): models is the ``SourceModels`` of the
    trained encoders, the patch encoders' arrays copied into stacks, and
    of the joined head; each decoder goes when its source's task ends.
    """
    ae_idx = dataset.splits["ae-train"]
    clf_idx = dataset.splits["clf-train"]
    if len(ae_idx) == 0 or len(clf_idx) == 0:
        raise ConfigError("both ae-train and clf-train splits must be non-empty")
    patches, face = tessellate_batch(_preprocessed_stack(dataset, ae_idx))
    sources_ae = [*patches, face]
    labels_ae = dataset.labels[ae_idx]
    _warn_single_class(labels_ae, "ae-train")
    # the threads allocate from malloc arenas of their own, so the memory
    # this thread has freed would stay resident beside theirs, unused
    _release_free_heap()
    workers = _stage1_workers()
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        # the face costs about 4.6 patches a step: submitted last, it
        # would run alone at the end
        futures = {s: pool.submit(_train_one_source, s, sources_ae[s], cfg)
                   for s in (N_SOURCES - 1, *range(N_SOURCES - 1))}
        encoders, codes, histories = zip(*(futures[s].result() for s in range(N_SOURCES)))
        # one contiguous slice of sources a thread: several heads a call keep
        # each numpy call large, where one head a task would hand the
        # interpreter lock back and forth at every call
        stack, n_slices = np.stack(codes), min(workers, N_SOURCES)
        slices = [range(N_SOURCES * i // n_slices, N_SOURCES * (i + 1) // n_slices)
                  for i in range(n_slices)]
        trained = [pool.submit(head_train, stack[part.start:part.stop], labels_ae,
                               epochs=cfg.head_epochs,
                               seed=[[cfg.seed, 2000 + s] for s in part])
                   for part in slices]
        parts = [dict(future.result().parameters()) for future in trained]
    models = SourceModels.from_parts(
        {name: np.stack([encoder[name] for encoder in encoders[:-1]])
         for name in encoders[-1]},
        encoders[-1],
        {name: np.concatenate([part[name] for part in parts]) for name in parts[0]})
    # the patch encoders' own arrays go, freed into the threads' arenas,
    # which no later allocation of this thread reuses; so do the slices'
    # heads, joined
    del futures, encoders, codes, stack, trained, parts
    _release_free_heap()
    return models, list(histories)


@functools.cache
def _malloc_trim():
    """The C library's malloc_trim (glibc), or None where it has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_free_heap() -> None:
    """Hand the free pages of every malloc arena back to the system (glibc;
    elsewhere this does nothing)."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


# ---------------------------------------------------------------------------
# scoring and patch weights


@dataclass
class SourceModels:
    """The ten stage-1 models as ``score_images`` runs them, encoders and
    heads only: the nine patch encoders stacked as (9, out, in), patch s
    as slice s; the face encoder, source 9; and the ten heads stacked as
    (10, out, in), source s as slice s. Each encoder is an ``RCodeanNet``
    of the three encoder layers. This is what a bundle stores; the
    autoencoders' decoders serve training only and are not kept.
    """
    patch_encoders: RCodeanNet
    face_encoder: RCodeanNet
    heads: MlpHead

    @classmethod
    def from_parts(cls, patch_encoders, face_encoder, heads) -> SourceModels:
        """The models around three parts' arrays, each named as its part
        names them: the patch encoders' and the face encoder's as
        ``parameter_shapes(d, l, encoder_only=True)`` (the patch encoders'
        stacked as (9, out, in)), the heads' as ``head_shapes(l, k)``,
        stacked as (10, out, in). The arrays are used as they are, not
        copied. Training and loading both build the models here."""
        return cls(assemble_rcodean(patch_encoders, DEFAULT_SKIP_LAYOUT),
                   assemble_rcodean(face_encoder, DEFAULT_SKIP_LAYOUT),
                   assemble_mlp_head(heads))


def score_images(models: SourceModels, images: np.ndarray) -> np.ndarray:
    """Stage-1 scores for an (n, 64, 64) stack: (n, 10, k).

    The face goes through its own encoder, the nine patches through the
    stacked encoders, and all ten codes through the stacked heads; each
    source's scores are bit for bit those of its own net and head.
    """
    patches, face = tessellate_batch(images)
    # the face Mat holds every pixel: the batch's one finiteness check
    face_code = encode(models.face_encoder, Mat(face))
    del face  # freed before the patch activations exist
    codes = np.concatenate([stacked_encode(models.patch_encoders, patches), face_code[None]])
    del patches
    probs = stacked_head_score(models.heads, codes)
    if not np.isfinite(probs).all():
        raise NumericError("stage-1 scores contain non-finite entries")
    return np.ascontiguousarray(probs.transpose(2, 0, 1))


SCORE_BLOCK = 256  # images preprocessed, tessellated and scored at a time


def score_split(models: SourceModels, dataset: AttributeDataset,
                indices: np.ndarray) -> np.ndarray:
    """Stage-1 scores, (n, 10, k), of the dataset records at ``indices``,
    ``SCORE_BLOCK`` images at a time: memory holds one block's images and
    source matrices, not the split's. A split of at most one block is one
    ``score_images`` call on the whole stack. Larger ones matched that
    call bit for bit at every multiple of 256 up to 2304 and at n = 1000
    and 2000; at other sizes a score may differ in its last bits (at most
    5.6e-16 seen), as any change of batch width can with OpenBLAS."""
    scores = np.empty((len(indices), N_SOURCES, models.heads.n_attributes))
    for j in range(0, len(indices), SCORE_BLOCK):
        block = _preprocessed_stack(dataset, indices[j:j + SCORE_BLOCK])
        scores[j:j + len(block)] = score_images(models, block)
    return scores


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
                        steps: int, lr: float = 1.0) -> PatchWeights:
    """Fit per-attribute source relevances from stage-1 scores.

    For attribute a the model is sigmoid(sum_p w_p^2 * logit(s_pa) + b),
    trained by plain full-batch gradient descent on cross-entropy.
    Squaring keeps relevances nonnegative; the shared constant
    initialization keeps identical sources exactly symmetric; plain
    descent (not Adam) is deliberate so the fitted magnitudes stay
    proportional to how much each source actually helps. Reported
    weights are w^2 normalized by the row maximum. An attribute whose
    labels hold one class gets the uniform row, unlogged here: the
    caller warns about its labels, naming the split.
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
            continue
        x = logits[:, :, a]  # (n, 10)
        w = np.full(N_SOURCES, _WEIGHT_INIT)
        b = 0.0
        # a diverging fit overflows; it is refused once, after its steps
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                z = x @ (w * w) + b
                gz = (_sigmoid(z) - y) / n
                w -= lr * (x.T @ gz) * 2.0 * w
                b -= lr * float(gz.sum())
            sq = w * w
        if not (np.isfinite(sq).all() and np.isfinite(b)):
            raise NumericError(f"the patch-weight fit of attribute {a} diverged "
                               f"at lr {lr!r}")
        peak = sq.max()
        if peak <= 0.0:
            log.warning("attribute %d learned all-zero weights; using uniform", a)
            continue
        values[a] = sq / peak
    return PatchWeights(values)


def build_stage2_features(scores: np.ndarray, weights: PatchWeights) -> np.ndarray:
    """Weighted, source-major flattening of an (n, 10, k) grid into
    (n, 10k) feature vectors."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 3 or s.shape[1] != N_SOURCES or s.shape[2] != weights.values.shape[0]:
        raise ShapeError(f"scores {s.shape} do not match weights "
                         f"{weights.values.shape}")
    weighted = s * weights.values.T[None, :, :]
    return weighted.reshape(s.shape[0], -1)


# ---------------------------------------------------------------------------
# the trained bundle and end-to-end prediction


@dataclass
class ModelBundle:
    """Everything a prediction needs, plus the config that produced it."""
    config: dict
    sources: SourceModels
    patch_weights: PatchWeights
    stage2_mlp: MlpHead
    forest: Forest
    svm: LinearSvm

    @property
    def k(self) -> int:
        return int(self.config["k"])

    @property
    def attribute_names(self) -> list[str]:
        return list(self.config["attribute_names"])


# OpenBLAS's thread-count getter and setter, by the names builds export
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy links,
    or None where none is found, which is logged here, once. The symbols
    are looked up through numpy's own extension module, whose dependencies
    the lookup searches."""
    try:
        from numpy._core import _multiarray_umath as ext
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as ext
    try:
        lib = ctypes.CDLL(ext.__file__)
    except OSError:
        lib = None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    log.warning("no OpenBLAS found to pin to one thread: training runs at the "
                "BLAS's own thread count, and the model may depend on it")
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS pinned to one thread, the caller's count restored after.
    A weight gradient summed over the samples adds in another order at two
    threads, so unpinned a seed's model would depend on the machine; and
    the stage-1 threads would oversubscribe the cores."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    caller = get()
    set_(1)
    try:
        yield
    finally:
        set_(caller)


def train_full(dataset: AttributeDataset,
               cfg: PipelineConfig) -> tuple[ModelBundle, list[list[EpochStats]]]:
    """Run the whole training pipeline, with OpenBLAS on one thread;
    returns the bundle and the ten per-source autoencoder loss histories."""
    with _one_blas_thread():
        models, histories = train_stage1(dataset, cfg)
        clf_idx = dataset.splits["clf-train"]
        labels_clf = dataset.labels[clf_idx]
        _warn_single_class(labels_clf, "clf-train")
        scores = score_split(models, dataset, clf_idx)
        weights = learn_patch_weights(scores, labels_clf, steps=cfg.weight_steps)
        feats = build_stage2_features(scores, weights)
        # C-ordered columns: a product's summation order follows the layout
        stage2_mlp = head_train(np.ascontiguousarray(feats.T), labels_clf,
                                epochs=cfg.head_epochs, seed=[cfg.seed, 3000])
        forest = forest_train(feats, labels_clf, trees_per_attr=cfg.forest_trees,
                              seed=cfg.seed)
        svm = svm_train(feats, labels_clf, epochs=cfg.svm_epochs, seed=cfg.seed)
    config = asdict(cfg)
    config.update({"k": dataset.k, "attribute_names": list(dataset.names),
                   "source_dims": list(SOURCE_DIMS),
                   "skip_layout": [list(s) for s in DEFAULT_SKIP_LAYOUT]})
    bundle = ModelBundle(config=config, sources=models, patch_weights=weights,
                         stage2_mlp=stage2_mlp, forest=forest, svm=svm)
    return bundle, histories


def _classifier_probs(bundle: ModelBundle, feats: np.ndarray):
    """(mlp, forest, svm) probability-like outputs for (n, 10k) features."""
    mlp = head_score(bundle.stage2_mlp, Mat(feats.T)).T
    forest = forest_predict_proba(bundle.forest, feats)
    svm = _sigmoid(svm_decision(bundle.svm, feats))
    return mlp, forest, svm


def vote_on_scores(bundle: ModelBundle, scores: np.ndarray):
    """Predicted bits and confidences for (n, 10, k) stage-1 scores, by
    the stage-2 classifiers' vote; also returns the three per-classifier
    bit arrays."""
    feats = build_stage2_features(scores, bundle.patch_weights)
    mlp_p, forest_p, svm_p = _classifier_probs(bundle, feats)
    conf = (mlp_p + forest_p + svm_p) / 3.0
    # finite loaded weights can still overflow to a NaN output
    if not np.isfinite(conf).all():
        raise NumericError("stage-2 outputs contain non-finite entries")
    mlp_bits = (mlp_p > PROB_THRESHOLD).astype(np.int64)
    forest_bits = (forest_p > PROB_THRESHOLD).astype(np.int64)
    svm_bits = (svm_p > PROB_THRESHOLD).astype(np.int64)
    bits = ensemble_vote(mlp_bits, forest_bits, svm_bits)
    return bits, conf, {"mlp": mlp_bits, "forest": forest_bits, "svm": svm_bits}


def predict_batch(bundle: ModelBundle, images: np.ndarray):
    """Predicted bits and confidences for an (n, 64, 64) preprocessed
    stack; also returns the three per-classifier bit arrays."""
    return vote_on_scores(bundle, score_images(bundle.sources, images))


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
    classifier_accuracy: dict      # name -> mean over attributes


def evaluate(bundle: ModelBundle, dataset: AttributeDataset, split: str) -> EvalReport:
    if dataset.k != bundle.k:
        raise ConfigError(f"bundle expects k={bundle.k}, dataset has k={dataset.k}")
    for a, (ours, theirs) in enumerate(zip(bundle.attribute_names, dataset.names)):
        if ours != theirs:
            raise ConfigError(f"dataset attribute {a + 1} is {theirs!r}, where the "
                              f"bundle was trained on {ours!r}")
    if split not in dataset.splits:
        raise ConfigError(f"unknown split {split!r}")
    idx = dataset.splits[split]
    if len(idx) == 0:
        raise ConfigError(f"split {split!r} is empty")
    labels = dataset.labels[idx]
    bits, _, per_clf = vote_on_scores(bundle, score_split(bundle.sources, dataset, idx))
    acc = (bits == labels).mean(axis=0)
    clf_acc = {name: float((pred == labels).mean(axis=0).mean())
               for name, pred in per_clf.items()}
    return EvalReport(attribute_names=bundle.attribute_names,
                      accuracy=acc, mean_accuracy=float(acc.mean()),
                      classifier_accuracy=clf_acc)
