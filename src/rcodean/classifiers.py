"""Attribute classifiers: sigmoid MLP heads, random decision forest,
linear SVM, and the per-attribute majority vote that fuses them.

Conventions differ by family on purpose. Heads follow the network code
and take column-sample matrices (dim, n); the forest and SVM follow the
usual classifier convention of row-sample matrices (n, dim). Labels are
always (n, k) arrays over {0, 1}, one column per attribute.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TrainingError
from .layers import (DenseLayer, LayerCache, dense_backward, dense_backward_preact,
                     dense_forward, glorot_uniform)
from .optimizer import AdamState, adam_step
from .tensor import Mat

log = logging.getLogger("rcodean")

PROB_THRESHOLD = 0.5  # probability-like score above this maps to bit 1


# ---------------------------------------------------------------------------
# stage-1 / stage-2 MLP


# two relu hidden layers and a sigmoid output layer
HEAD_ACTS = ("relu", "relu", "sigmoid")


@dataclass
class MlpHead:
    """Two relu hidden layers (in/2 then in/4) and a sigmoid output row
    per attribute; outputs are independent probabilities, not a softmax."""
    layers: list[DenseLayer]

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def n_attributes(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            out.append((f"layer{i}.weight", layer.weight.a))
            out.append((f"layer{i}.bias", layer.bias.a))
        return out


def assemble_mlp_head(arrays) -> MlpHead:
    """Build a head around the arrays named as ``MlpHead.parameters()``
    names them; the arrays are used as they are, not copied."""
    return MlpHead([DenseLayer(Mat(arrays[f"layer{i}.weight"], copy=False),
                               Mat(arrays[f"layer{i}.bias"], copy=False),
                               act, name=f"head{i}")
                    for i, act in enumerate(HEAD_ACTS)])


def build_mlp_head(in_dim: int, k: int, seed: int = 0,
                   hidden: tuple[int, int] | None = None) -> MlpHead:
    if hidden is None:
        hidden = (max(1, in_dim // 2), max(1, in_dim // 4))
    rng = np.random.default_rng(seed)
    dims = [in_dim, hidden[0], hidden[1], k]
    arrays = {}
    for i in range(len(HEAD_ACTS)):
        arrays[f"layer{i}.weight"] = glorot_uniform(rng, dims[i + 1], dims[i])
        arrays[f"layer{i}.bias"] = np.zeros((dims[i + 1], 1))
    return assemble_mlp_head(arrays)


def zero_mlp_head(in_dim: int, k: int) -> MlpHead:
    """All-zero parameters; scores are 0.5 everywhere (sigmoid of 0)."""
    head = build_mlp_head(in_dim, k, seed=0)
    for _, arr in head.parameters():
        arr[:] = 0.0
    return head


def _head_forward(head: MlpHead, x: Mat) -> list[LayerCache]:
    caches = []
    current = x
    for layer in head.layers:
        cache = dense_forward(layer, current)
        caches.append(cache)
        current = cache.output
    return caches


def head_score(head: MlpHead, code: Mat) -> Mat:
    """Per-attribute probabilities for one or more code columns."""
    if code.rows != head.in_dim:
        raise ShapeError(f"code has {code.rows} rows, head expects {head.in_dim}")
    return _head_forward(head, code)[-1].output


def _bce(probs: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p), axis=0)))


def head_loss_and_grads(head: MlpHead, x: Mat, y: np.ndarray):
    """Mean binary cross-entropy summed over attributes, with gradients.

    The output layer is differentiated at its pre-activation, where the
    sigmoid + cross-entropy gradient collapses to (p - y) / n and stays
    finite even at saturated probabilities.
    """
    caches = _head_forward(head, x)
    probs = caches[-1].output.a
    n = x.cols
    loss = _bce(probs, y)
    grads: dict[str, np.ndarray] = {}
    delta = Mat((probs - y) / n, copy=False)
    grad_in, gw, gb, _ = dense_backward_preact(head.layers[2], caches[2], delta)
    grads["layer2.weight"], grads["layer2.bias"] = gw.a, gb.a
    upstream = grad_in
    for i in (1, 0):
        grad_in, gw, gb, _ = dense_backward(head.layers[i], caches[i], upstream)
        grads[f"layer{i}.weight"], grads[f"layer{i}.bias"] = gw.a, gb.a
        upstream = grad_in
    return loss, grads


def head_train(features: Mat, labels: np.ndarray, epochs: int = 300,
               seed: int = 0, lr: float = 1e-2,
               hidden: tuple[int, int] | None = None) -> MlpHead:
    """Fit a head on (dim, n) feature columns and (n, k) binary labels."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[0] != features.cols:
        raise ShapeError(
            f"labels shape {labels.shape} does not match {features.cols} samples")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    k = labels.shape[1]
    for a in range(k):
        col = labels[:, a]
        if col.min() == col.max():
            log.warning("attribute %d has a single class in the training set", a)
    head = build_mlp_head(features.rows, k, seed=seed, hidden=hidden)
    y = labels.T
    state = AdamState(lr=lr)
    for _ in range(epochs):
        _, grads = head_loss_and_grads(head, features, y)
        adam_step(state, head.parameters(), grads)
    return head


# ---------------------------------------------------------------------------
# random decision forest


@dataclass
class Tree:
    """Flat node arrays; feature == -1 marks a leaf. ``prob`` holds the
    positive-label fraction of the node's training samples."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray


@dataclass
class Forest:
    trees: list[list[Tree]]  # indexed [attribute][tree]
    n_features: int

    @property
    def n_attributes(self) -> int:
        return len(self.trees)


def _gini_pair(n_pos_left, n_left, n_pos_total, n_total):
    """Weighted Gini impurity of a left/right split, vectorized over cuts."""
    n_right = n_total - n_left
    p_left = n_pos_left / n_left
    p_right = (n_pos_total - n_pos_left) / n_right
    return (n_left * 2 * p_left * (1 - p_left)
            + n_right * 2 * p_right * (1 - p_right)) / n_total


def _best_split(values: np.ndarray, y: np.ndarray):
    """Best threshold for one feature, or None if it cannot split."""
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ys = y[order]
    cuts = np.nonzero(vs[:-1] < vs[1:])[0]
    if cuts.size == 0:
        return None
    n = len(ys)
    cum_pos = np.cumsum(ys)
    impurity = _gini_pair(cum_pos[cuts], cuts + 1.0, cum_pos[-1], float(n))
    best = int(np.argmin(impurity))
    cut = cuts[best]
    return (vs[cut] + vs[cut + 1]) / 2.0, float(impurity[best])


class _TreeBuilder:
    def __init__(self, X, y, rng, max_depth, n_candidates):
        self.X, self.y, self.rng = X, y, rng
        self.max_depth, self.n_candidates = max_depth, n_candidates
        self.feature, self.threshold = [], []
        self.left, self.right, self.prob = [], [], []

    def _add_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.prob.append(0.0)
        return len(self.feature) - 1

    def grow(self, idx, depth):
        node = self._add_node()
        ysub = self.y[idx]
        self.prob[node] = float(ysub.mean())
        if depth >= self.max_depth or len(idx) < 2 or ysub.min() == ysub.max():
            return node
        candidates = self.rng.choice(self.X.shape[1],
                                     size=min(self.n_candidates, self.X.shape[1]),
                                     replace=False)
        best = None
        for f in candidates:
            split = _best_split(self.X[idx, f], ysub)
            if split is not None and (best is None or split[1] < best[2]):
                best = (int(f), split[0], split[1])
        if best is None:
            return node
        f, thr, _ = best
        go_left = self.X[idx, f] <= thr
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self.grow(idx[go_left], depth + 1)
        self.right[node] = self.grow(idx[~go_left], depth + 1)
        return node

    def build(self):
        self.grow(np.arange(len(self.y)), 0)
        return Tree(np.asarray(self.feature, dtype=np.int64),
                    np.asarray(self.threshold, dtype=np.float64),
                    np.asarray(self.left, dtype=np.int64),
                    np.asarray(self.right, dtype=np.int64),
                    np.asarray(self.prob, dtype=np.float64))


def forest_train(features: np.ndarray, labels: np.ndarray,
                 trees_per_attr: int = 32, max_depth: int = 8,
                 seed: int = 0) -> Forest:
    """Per attribute: bootstrap trees with sqrt-of-features candidate
    sampling and Gini splits; leaves store the positive fraction."""
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ShapeError(f"features {X.shape} and labels {Y.shape} do not align")
    n, n_feat = X.shape
    if n < 2:
        raise TrainingError("forest training requires at least 2 samples")
    n_candidates = max(1, int(np.sqrt(n_feat)))
    trees = []
    for a in range(Y.shape[1]):
        per_attr = []
        for t in range(trees_per_attr):
            rng = np.random.default_rng([seed, a, t])
            boot = rng.integers(0, n, size=n)
            builder = _TreeBuilder(X[boot], Y[boot, a], rng, max_depth, n_candidates)
            per_attr.append(builder.build())
        trees.append(per_attr)
    return Forest(trees=trees, n_features=n_feat)


def _tree_leaf_probs(tree: Tree, X: np.ndarray) -> np.ndarray:
    idx = np.zeros(X.shape[0], dtype=np.int64)
    active = np.nonzero(tree.feature[idx] >= 0)[0]
    while active.size:
        nodes = idx[active]
        go_left = X[active, tree.feature[nodes]] <= tree.threshold[nodes]
        idx[active] = np.where(go_left, tree.left[nodes], tree.right[nodes])
        active = active[tree.feature[idx[active]] >= 0]
    return tree.prob[idx]


def forest_predict_proba(forest: Forest, features: np.ndarray) -> np.ndarray:
    """Mean leaf probability over each attribute's trees, shape (n, k)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ShapeError(f"features {X.shape} do not match {forest.n_features} columns")
    out = np.empty((X.shape[0], forest.n_attributes))
    for a, per_attr in enumerate(forest.trees):
        out[:, a] = np.mean([_tree_leaf_probs(t, X) for t in per_attr], axis=0)
    return out


def forest_predict(forest: Forest, features: np.ndarray) -> np.ndarray:
    return (forest_predict_proba(forest, features) > PROB_THRESHOLD).astype(np.int64)


# ---------------------------------------------------------------------------
# linear SVM


@dataclass
class LinearSvm:
    weights: np.ndarray  # (k, n_features)
    biases: np.ndarray   # (k,)
    reg: float


def svm_train(features: np.ndarray, labels: np.ndarray, epochs: int = 20,
              reg: float = 1e-4, seed: int = 0) -> LinearSvm:
    """Hinge loss + L2, minimized per attribute by stochastic subgradient
    descent on a deterministic shuffle with the 1/(reg*t) step schedule.
    The bias rides along as an augmented constant feature; a separately
    scheduled bias blows up under the early 1/(reg*t) steps."""
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ShapeError(f"features {X.shape} and labels {Y.shape} do not align")
    n, n_feat = X.shape
    k = Y.shape[1]
    Xa = np.hstack([X, np.ones((n, 1))])
    weights = np.zeros((k, n_feat))
    biases = np.zeros(k)
    for a in range(k):
        y = np.where(Y[:, a] > 0, 1.0, -1.0)
        rng = np.random.default_rng([seed, a])
        w = np.zeros(n_feat + 1)
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (reg * t)
                margin = y[i] * (w @ Xa[i])
                w *= (1.0 - eta * reg)
                if margin < 1.0:
                    w += eta * y[i] * Xa[i]
        weights[a] = w[:-1]
        biases[a] = w[-1]
    return LinearSvm(weights=weights, biases=biases, reg=reg)


def svm_decision(svm: LinearSvm, features: np.ndarray) -> np.ndarray:
    """Signed margins, shape (n, k)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != svm.weights.shape[1]:
        raise ShapeError(f"features {X.shape} do not match {svm.weights.shape[1]} columns")
    return X @ svm.weights.T + svm.biases


def svm_predict(svm: LinearSvm, features: np.ndarray) -> np.ndarray:
    return (svm_decision(svm, features) > 0).astype(np.int64)


# ---------------------------------------------------------------------------
# fusion


def ensemble_vote(mlp_pred: np.ndarray, forest_pred: np.ndarray,
                  svm_pred: np.ndarray) -> np.ndarray:
    """Per-attribute majority of three binary predictions."""
    preds = [np.asarray(p) for p in (mlp_pred, forest_pred, svm_pred)]
    shape = preds[0].shape
    for p in preds:
        if p.shape != shape:
            raise ShapeError(f"vote inputs differ in shape: {[q.shape for q in preds]}")
        if not np.isin(p, (0, 1)).all():
            raise ValueError("vote inputs must be binary")
    return ((preds[0] + preds[1] + preds[2]) >= 2).astype(np.int64)
