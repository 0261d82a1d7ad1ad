"""Attribute classifiers: sigmoid MLP heads, random decision forest,
linear SVM, and the per-attribute majority vote that fuses them.

Conventions differ by family on purpose. Heads follow the network code
and take column-sample matrices (dim, n): a ``Mat`` at ``head_score`` and
``head_train``, plain ndarrays inside. The forest and SVM follow the
usual classifier convention of row-sample matrices (n, dim). Labels are
always (n, k) arrays over {0, 1}, one column per attribute.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

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
            out.append((f"layer{i}.weight", layer.weight))
            out.append((f"layer{i}.bias", layer.bias))
        return out


def assemble_mlp_head(arrays) -> MlpHead:
    """Build a head around the arrays named as ``MlpHead.parameters()``
    names them; the arrays are used as they are, not copied."""
    return MlpHead([DenseLayer(arrays[f"layer{i}.weight"], arrays[f"layer{i}.bias"],
                               act, name=f"head{i}")
                    for i, act in enumerate(HEAD_ACTS)])


def head_dims(in_dim: int, k: int) -> list[int]:
    """The input, hidden and output sizes of a head: the hidden layers
    are in/2 and in/4 wide."""
    return [in_dim, max(1, in_dim // 2), max(1, in_dim // 4), k]


def build_mlp_head(in_dim: int, k: int, seed: int = 0) -> MlpHead:
    rng = np.random.default_rng(seed)
    dims = head_dims(in_dim, k)
    arrays = {}
    for i in range(len(HEAD_ACTS)):
        arrays[f"layer{i}.weight"] = glorot_uniform(rng, dims[i + 1], dims[i])
        arrays[f"layer{i}.bias"] = np.zeros((dims[i + 1], 1))
    return assemble_mlp_head(arrays)


def _head_forward(head: MlpHead, x: np.ndarray,
                  keep_preact: bool = True) -> list[LayerCache]:
    caches = []
    current = x
    for layer in head.layers:
        cache = dense_forward(layer, current, keep_preact=keep_preact)
        caches.append(cache)
        current = cache.output
    return caches


def head_score(head: MlpHead, code: Mat) -> Mat:
    """Per-attribute probabilities for one or more code columns."""
    if code.rows != head.in_dim:
        raise ShapeError(f"code has {code.rows} rows, head expects {head.in_dim}")
    return Mat(_head_forward(head, code.a)[-1].output, copy=False)


def stacked_head_score(heads: MlpHead, codes: np.ndarray) -> np.ndarray:
    """(heads, k, n) probabilities from a head of (heads, out, in) stacked
    layers and an (heads, l, n) code stack: ``head_score`` for every head
    at once."""
    return _head_forward(heads, codes, keep_preact=False)[-1].output


def _head_grads(head: MlpHead, caches: list[LayerCache], y: np.ndarray):
    """Gradients of the mean binary cross-entropy, from a forward pass.

    The output layer is differentiated at its pre-activation, where the
    sigmoid + cross-entropy gradient collapses to (p - y) / n and stays
    finite even at saturated probabilities.
    """
    probs = caches[-1].output
    grads: dict[str, np.ndarray] = {}
    upstream, grads["layer2.weight"], grads["layer2.bias"], _ = dense_backward_preact(
        head.layers[2], caches[2], (probs - y) / probs.shape[1])
    for i in (1, 0):
        upstream, grads[f"layer{i}.weight"], grads[f"layer{i}.bias"], _ = dense_backward(
            head.layers[i], caches[i], upstream, input_grad=i > 0)
    return grads


def head_train(features: Mat, labels: np.ndarray, epochs: int = 300,
               seed: int = 0, lr: float = 1e-2) -> MlpHead:
    """Fit a head on (dim, n) feature columns and (n, k) binary labels."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[0] != features.cols:
        raise ShapeError(
            f"labels shape {labels.shape} does not match {features.cols} samples")
    if not _is_binary(labels):
        raise ValueError("labels must be binary")
    k = labels.shape[1]
    for a in range(k):
        col = labels[:, a]
        if col.min() == col.max():
            log.warning("attribute %d has a single class in the training set", a)
    head = build_mlp_head(features.rows, k, seed=seed)
    y = labels.T
    state = AdamState(lr=lr)
    for _ in range(epochs):
        grads = _head_grads(head, _head_forward(head, features.a), y)
        adam_step(state, head.parameters(), grads)
    return head


# ---------------------------------------------------------------------------
# random decision forest


@dataclass
class Tree:
    """Node arrays in preorder, of one tree or of many trees one after
    another: feature == -1 marks a leaf, ``left`` and ``right`` index
    nodes of the node's own tree (-1 at a leaf), and ``prob`` holds the
    positive-label fraction of the node's training samples."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray


@dataclass
class NodeTable:
    """Every tree's nodes as ``Forest.nodes`` holds them, with children
    as indices into the whole table; ``roots[a, t]`` is tree t's root. A
    leaf is its own left and right child and reads feature 0, so every
    walk that takes ``depth`` steps, the deepest tree's depth, ends at a
    leaf: a walk that reaches its leaf early stays there."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray
    roots: np.ndarray  # (attributes, trees per attribute)
    depth: int


@dataclass
class Forest:
    """Every tree's nodes in one preorder ``Tree``, the trees in
    [attribute][tree] order with ``sizes[a, t]`` nodes each, and the node
    table ``forest_predict_proba`` walks, built from them here and
    nowhere else. Each tree must be a tree in preorder (every node but the
    root the child of one node, after its parent), as ``forest_train``
    grows them and the bundle loader checks."""
    nodes: Tree
    sizes: np.ndarray  # (attributes, trees per attribute), int64
    n_features: int
    table: NodeTable = field(init=False, repr=False)

    def __post_init__(self):
        sizes = self.sizes.reshape(-1)
        starts = np.cumsum(sizes) - sizes
        leaf = self.nodes.feature < 0
        own = np.arange(len(leaf))
        offset = np.repeat(starts, sizes)
        left, right = self.nodes.left + offset, self.nodes.right + offset
        np.copyto(left, own, where=leaf)
        np.copyto(right, own, where=leaf)
        # the depth from the trees themselves (a loaded forest may be deeper
        # than its config's forest_depth), one level of every tree per step;
        # each node has one parent, so this visits each node once
        level, depth = starts, 0
        while (level := level[~leaf[level]]).size:
            level = np.concatenate([left[level], right[level]])
            depth += 1
        self.table = NodeTable(np.maximum(self.nodes.feature, 0), self.nodes.threshold,
                               left, right, self.nodes.prob,
                               starts.reshape(self.sizes.shape), depth)

    @property
    def n_attributes(self) -> int:
        return len(self.sizes)

    @property
    def trees(self) -> list[list[Tree]]:
        """Each tree's nodes as views of ``nodes``, indexed [attribute][tree]."""
        columns = [getattr(self.nodes, f.name) for f in fields(Tree)]
        ends = np.cumsum(self.sizes).reshape(self.sizes.shape)
        return [[Tree(*(col[end - size:end] for col in columns))
                 for end, size in zip(row_ends, row_sizes)]
                for row_ends, row_sizes in zip(ends, self.sizes)]


def forest_of(trees: list[list[Tree]], n_features: int) -> Forest:
    """The forest of ``trees``, indexed [attribute][tree] with the same
    count per attribute, their nodes copied into one table."""
    flat = [tree for per_attr in trees for tree in per_attr]
    nodes = Tree(*(np.concatenate([getattr(tree, f.name) for tree in flat])
                   for f in fields(Tree)))
    sizes = np.array([[len(tree.feature) for tree in per_attr] for per_attr in trees])
    return Forest(nodes, sizes, n_features)


def _gini_pair(n_pos_left, n_left, n_pos_total, n_total):
    """Weighted Gini impurity of a left/right split, vectorized over cuts."""
    n_right = n_total - n_left
    p_left = n_pos_left / n_left
    p_right = (n_pos_total - n_pos_left) / n_right
    return (n_left * 2 * p_left * (1 - p_left)
            + n_right * 2 * p_right * (1 - p_right)) / n_total


class _TreeBuilder:
    def __init__(self, XT, y, rng, max_depth, n_candidates):
        # XT is (features, samples), so a node's candidates are gathered by rows
        self.XT, self.y, self.rng = XT, y, rng
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
        n_feat = self.XT.shape[0]
        candidates = self.rng.choice(n_feat, size=min(self.n_candidates, n_feat),
                                     replace=False)
        # Every candidate's cuts in one (candidates, n_node) block. The
        # sort need not be stable: a valid cut ends a run of equal values,
        # so its positive count, impurity and threshold do not depend on
        # how ties are ordered, and other positions are set to +inf.
        values = self.XT[candidates[:, None], idx]
        order = np.argsort(values, axis=1)
        vs = np.take_along_axis(values, order, axis=1)
        cum_pos = np.cumsum(ysub[order], axis=1)
        n = len(idx)
        impurity = np.where(vs[:, :-1] < vs[:, 1:],
                            _gini_pair(cum_pos[:, :-1], np.arange(1.0, n),
                                       cum_pos[:, -1:], float(n)),
                            np.inf)
        # first minimum per candidate, then over candidates in draw order
        cuts = np.argmin(impurity, axis=1)
        c = int(np.argmin(impurity[np.arange(len(candidates)), cuts]))
        cut = cuts[c]
        if impurity[c, cut] == np.inf:
            return node
        f = int(candidates[c])
        thr = (vs[c, cut] + vs[c, cut + 1]) / 2.0
        go_left = self.XT[f, idx] <= thr
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
    XT = np.ascontiguousarray(X.T)
    trees = []
    for a in range(Y.shape[1]):
        per_attr = []
        for t in range(trees_per_attr):
            rng = np.random.default_rng([seed, a, t])
            boot = rng.integers(0, n, size=n)
            builder = _TreeBuilder(XT[:, boot], Y[boot, a], rng, max_depth, n_candidates)
            per_attr.append(builder.build())
        trees.append(per_attr)
    return forest_of(trees, n_feat)


def forest_predict_proba(forest: Forest, features: np.ndarray) -> np.ndarray:
    """Mean leaf probability over each attribute's trees, shape (n, k)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ShapeError(f"features {X.shape} do not match {forest.n_features} columns")
    tab = forest.table
    n = X.shape[0]
    flat_x = X.reshape(-1)
    row_start = np.arange(n) * X.shape[1]
    # every (tree, row) pair steps one level at a time, all together
    node = np.repeat(tab.roots.reshape(-1, 1), n, axis=1)
    for _ in range(tab.depth):
        go_left = flat_x[row_start + tab.feature[node]] <= tab.threshold[node]
        node = np.where(go_left, tab.left[node], tab.right[node])
    # np.mean along the trees axis of one contiguous (attributes, trees, n)
    # block, as over each attribute's (trees, n) block or a list of
    # per-tree results: the same sums in the same order at any n
    return tab.prob[node].reshape(*tab.roots.shape, n).mean(axis=1).T


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


# ---------------------------------------------------------------------------
# fusion


def _is_binary(a: np.ndarray) -> bool:
    """Whether every entry is 0 or 1. Two comparisons, not ``np.isin``,
    which costs tens of microseconds on the few entries of one image."""
    return bool(((a == 0) | (a == 1)).all())


def ensemble_vote(mlp_pred: np.ndarray, forest_pred: np.ndarray,
                  svm_pred: np.ndarray) -> np.ndarray:
    """Per-attribute majority of three binary predictions."""
    preds = [np.asarray(p) for p in (mlp_pred, forest_pred, svm_pred)]
    shape = preds[0].shape
    for p in preds:
        if p.shape != shape:
            raise ShapeError(f"vote inputs differ in shape: {[q.shape for q in preds]}")
        if not _is_binary(p):
            raise ValueError("vote inputs must be binary")
    return ((preds[0] + preds[1] + preds[2]) >= 2).astype(np.int64)
