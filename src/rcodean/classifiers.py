"""Attribute classifiers: sigmoid MLP heads, random decision forest,
linear SVM, and the per-attribute majority vote that fuses them.

Conventions differ by family on purpose. Heads follow the network code
and take column-sample matrices (dim, n). The forest and SVM follow the
usual classifier convention of row-sample matrices (n, dim). Labels are
always (n, k) arrays over {0, 1}, one column per attribute. A ``Mat`` is a
checked value entering the program or a scoring pass, such as
``head_score``'s input; this module builds none, ``head_train`` checks
its features once, and everything else is a plain float64 ndarray.

``head_train`` fits one head, or m heads stacked as the stage-1 heads
are scored and stored, keeping the six arrays as views into one flat
buffer and their gradients in another: each epoch ends in one finiteness
check and one ``adam_step`` over that one pair, with the values six
per-array steps of each head on its own give. Every other array an epoch
writes (pre-activations, activations, deltas, input gradients and the
sigmoid's temporary) is made once, before the first epoch, and each
epoch's ``dense_forward``, ``dense_backward`` and ``dense_backward_preact``
write into them through ``out``, with the operations, and so the bits, of
a pass into new arrays. Calls on separate threads share nothing, so the
stage-1 heads train as contiguous slices of sources, one call a thread.

Stage-2 training runs as array programs over independent work. The
forest grows all k x trees trees in lockstep: every tree keeps its own
depth-first stack, bootstrap, candidate draws and node numbering, and
each step pops the next node of every unfinished tree and scores all
their candidate features in sorted blocks of at most ``FOREST_BLOCK``
(sample, candidate) pairs, so memory does not grow with the tree count.
The SVM steps all k attributes together, each on its own shuffle. Both
give the trees and weights that growing one tree, or stepping one
attribute, at a time gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import FormatError, NumericError, ShapeError, TrainingError
from .layers import (DenseLayer, dense_backward, dense_backward_preact, dense_forward,
                     glorot_uniform)
from .optimizer import AdamState, adam_step
from .tensor import Mat

PROB_THRESHOLD = 0.5  # probability-like score above this maps to bit 1


# ---------------------------------------------------------------------------
# stage-1 / stage-2 MLP


# two relu hidden layers and a sigmoid output layer
HEAD_ACTS = ("relu", "relu", "sigmoid")
HEAD_LR = 1e-2  # the Adam rate every head trains at, stage-1 and stage-2


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
        """Every array, named as ``head_shapes`` names them."""
        arrays = [arr for layer in self.layers for arr in (layer.weight, layer.bias)]
        return list(zip(head_shapes(self.in_dim, self.n_attributes), arrays))


def assemble_mlp_head(arrays) -> MlpHead:
    """Build a head around the arrays named as ``MlpHead.parameters()``
    names them; the arrays are used as they are, not copied."""
    return MlpHead([DenseLayer(arrays[f"layer{i}.weight"], arrays[f"layer{i}.bias"],
                               act, name=f"head{i}")
                    for i, act in enumerate(HEAD_ACTS)])


def head_shapes(in_dim: int, k: int) -> dict[str, tuple[int, int]]:
    """The name and shape of each array of a head for ``in_dim``-dim
    inputs and k attributes, in ``MlpHead.parameters()`` order; the
    hidden layers are in/2 and in/4 wide, at least 1."""
    dims = [in_dim, max(1, in_dim // 2), max(1, in_dim // 4), k]
    return {f"layer{i}.{part}": (dims[i + 1], dims[i] if part == "weight" else 1)
            for i in range(len(HEAD_ACTS)) for part in ("weight", "bias")}


def build_mlp_head(in_dim: int, k: int, seed: int = 0) -> MlpHead:
    rng = np.random.default_rng(seed)
    return assemble_mlp_head({name: glorot_uniform(rng, *shape) if name.endswith(".weight")
                              else np.zeros(shape)
                              for name, shape in head_shapes(in_dim, k).items()})


def head_score(head: MlpHead, code: Mat) -> np.ndarray:
    """Per-attribute (k, n) probabilities for a checked (in, n) code."""
    return stacked_head_score(head, code.a)


def stacked_head_score(heads: MlpHead, codes: np.ndarray) -> np.ndarray:
    """(k, n) probabilities of one head for (l, n) codes, or (heads, k, n)
    from a head of (heads, out, in) stacked layers and an (heads, l, n)
    code stack: the one scoring forward."""
    current = codes
    for layer in heads.layers:
        current = dense_forward(layer, current, keep_preact=False).output
    return current


def _flat_views(arrays: list[tuple[str, np.ndarray]], flat: np.ndarray) -> dict:
    """Views into ``flat``, one after another, shaped and named as ``arrays``."""
    views, start = {}, 0
    for name, arr in arrays:
        views[name] = flat[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    return views


def head_train(features: np.ndarray, labels: np.ndarray, epochs: int, seed=0) -> MlpHead:
    """Fit a head on (dim, n) float64 feature columns and (n, k) binary
    labels, or m stacked heads on an (m, dim, n) stack, head i drawn from
    ``seed[i]`` and bit for bit what a 2-D call on slice i fits. The
    features are checked here, once; the head's arrays are views into one
    flat buffer, and every array an epoch writes is made before the first
    (see the module docstring). An attribute with one class only trains
    without a word: the pipeline warns once per split."""
    if features.ndim not in (2, 3) or min(features.shape) < 1:
        raise ShapeError(f"features must be a non-empty (dim, n) matrix or "
                         f"(m, dim, n) stack, got shape {features.shape}")
    stack = features.shape[:-2]  # (m,) for m stacked heads, () for one
    if stack and not (isinstance(seed, (list, tuple)) and len(seed) == stack[0]):
        raise ValueError(f"{stack[0]} stacked heads take a list of {stack[0]} seeds, "
                         f"got {seed!r}")
    if not np.isfinite(features).all():
        raise NumericError("head features contain non-finite entries")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[0] != features.shape[-1]:
        raise ShapeError(
            f"labels shape {labels.shape} does not match {features.shape[-1]} samples")
    if not _is_binary(labels):
        raise ValueError("labels must be binary")
    drawn = [build_mlp_head(features.shape[-2], labels.shape[1], seed=s).parameters()
             for s in (seed if stack else [seed])]
    arrays = [(same[0][0], np.stack([arr for _, arr in same]) if stack else same[0][1])
              for same in zip(*drawn)]
    flat = np.concatenate([arr.ravel() for _, arr in arrays])
    flat_grad = np.empty_like(flat)
    head = assemble_mlp_head(_flat_views(arrays, flat))
    grads = _flat_views(arrays, flat_grad)
    y = np.ascontiguousarray(labels.T)
    n = features.shape[-1]
    # every array an epoch writes, made once: each layer's pre-activation,
    # output and delta (a relu's holds its mask first), the input gradients
    # of the layers past the first, and the sigmoid's temporary
    pre, act, delta = ([np.empty((*stack, layer.out_dim, n)) for layer in head.layers]
                       for _ in range(3))
    work = np.empty_like(pre[-1])
    inputs = [features, *act[:-1]]
    backward = [(np.empty_like(x) if i > 0 else None, grads[f"layer{i}.weight"],
                 grads[f"layer{i}.bias"], delta[i]) for i, x in enumerate(inputs)]
    state = AdamState(lr=HEAD_LR)
    for _ in range(epochs):
        caches = [dense_forward(layer, x, out=(z, a, work))
                  for layer, x, z, a in zip(head.layers, inputs, pre, act)]
        # the mean binary cross-entropy is differentiated at the output
        # pre-activation, where the sigmoid + cross-entropy gradient
        # collapses to (p - y) / n and stays finite at saturated probabilities
        np.subtract(act[-1], y, out=delta[-1])
        delta[-1] /= n
        upstream = dense_backward_preact(head.layers[-1], caches[-1], delta[-1],
                                         out=backward[-1])[0]
        for i in (1, 0):
            upstream = dense_backward(head.layers[i], caches[i], upstream,
                                      input_grad=i > 0, out=backward[i])[0]
        adam_step(state, [("head", flat)], {"head": flat_grad})
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
    nowhere else. A bundle stores the nodes as float64 rows of [feature,
    threshold, left, right, prob] (``arrays``, ``from_arrays``). Before
    the table is built, a ``FormatError`` refuses node counts that are not
    whole numbers >= 1 filling the node arrays, and any tree not in
    preorder: an internal node has a feature in [0, n_features) and two
    children after it within its tree, a leaf has feature and children
    -1, every node but the root is the child of exactly one node, and
    every probability lies in [0, 1]."""
    nodes: Tree
    sizes: np.ndarray  # (attributes, trees per attribute), int64
    n_features: int
    table: NodeTable = field(init=False, repr=False)

    def __post_init__(self):
        nodes, flat = self.nodes, self.sizes.reshape(-1)
        n = len(nodes.feature)
        if not ((flat >= 1) & (flat == np.floor(flat))).all() or flat.sum() != n:
            raise FormatError(f"forest.sizes are not node counts of the {n} nodes "
                              f"in forest.nodes")
        self.sizes = self.sizes.astype(np.int64, copy=False)
        flat = self.sizes.reshape(-1)
        ends = np.cumsum(flat)
        starts = ends - flat
        offset = np.repeat(starts, flat)
        index = np.arange(n) - offset
        n_nodes = np.repeat(flat, flat)
        feature, left, right, prob = nodes.feature, nodes.left, nodes.right, nodes.prob
        internal = ((feature >= 0) & (feature < self.n_features)
                    & (left > index) & (left < n_nodes) & (right > index) & (right < n_nodes))
        leaf = (feature == -1) & (left == -1) & (right == -1)
        whole = ((feature == np.floor(feature)) & (left == np.floor(left))
                 & (right == np.floor(right)))
        ok = (internal | leaf) & whole & (prob >= 0.0) & (prob <= 1.0)
        if ok.all():
            # the children are valid indices now; the depth walk would visit
            # a node with two parents once per path. A leaf's missing
            # children are counted in one extra, last bin.
            parents = np.zeros(n + 1, dtype=np.int64)
            for child in (left, right):
                parents += np.bincount(np.where(leaf, n, child + offset).astype(np.int64),
                                       minlength=n + 1)
            parents[starts] += 1  # a root has none
            ok = parents[:-1] == 1
        if not ok.all():
            bad = int(np.argmin(ok))
            attr, tree = divmod(int(np.searchsorted(ends, bad, side="right")),
                                self.sizes.shape[1])
            raise FormatError(f"forest.attr{attr}.tree{tree}: node {int(index[bad])} is "
                              f"not a leaf or an internal node of a preorder tree")
        feature, left, right = (a.astype(np.int64, copy=False) for a in (feature, left, right))
        self.nodes = Tree(feature, nodes.threshold, left, right, prob)
        left, right = (np.where(leaf, np.arange(n), child + offset) for child in (left, right))
        self.table = NodeTable(np.maximum(feature, 0), nodes.threshold, left, right, prob,
                               starts.reshape(self.sizes.shape),
                               _tree_depth(starts, leaf, left, right))

    @classmethod
    def from_arrays(cls, arrays, n_features: int) -> Forest:
        """The forest of arrays named as ``arrays()`` names them, copied."""
        return cls(Tree(*(np.array(col) for col in arrays["nodes"].T)), arrays["sizes"],
                   n_features)

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """The node rows and the node counts, named as ``forest_shapes`` names them."""
        columns = [getattr(self.nodes, f.name) for f in fields(Tree)]
        return [("nodes", np.column_stack(columns)), ("sizes", self.sizes)]

    @property
    def trees(self) -> list[list[Tree]]:
        """Each tree's nodes as views of ``nodes``, indexed [attribute][tree]."""
        columns = [getattr(self.nodes, f.name) for f in fields(Tree)]
        ends = np.cumsum(self.sizes).reshape(self.sizes.shape)
        return [[Tree(*(col[end - size:end] for col in columns))
                 for end, size in zip(row_ends, row_sizes)]
                for row_ends, row_sizes in zip(ends, self.sizes)]


def forest_shapes(k: int, trees: int) -> dict[str, tuple[int, int]]:
    """The name and shape of each of ``Forest.arrays()`` for k attributes
    and ``trees`` trees each; -1 stands for the node count."""
    return {"nodes": (-1, len(fields(Tree))), "sizes": (k, trees)}


def _tree_depth(roots, leaf, left, right) -> int:
    """The deepest tree's depth, from the trees (a loaded one may be deeper
    than training grows them), one level of every tree per step; each
    node has one parent, so this visits each node once."""
    level, depth = roots, 0
    while (level := level[~leaf[level]]).size:
        level = np.concatenate([left[level], right[level]])
        depth += 1
    return depth


def _gini_pair(n_pos_left, n_left, n_pos_total, n_total):
    """Weighted Gini impurity of a left/right split, vectorized over cuts."""
    n_right = n_total - n_left
    p_left = n_pos_left / n_left
    p_right = (n_pos_total - n_pos_left) / n_right
    return (n_left * 2 * p_left * (1 - p_left)
            + n_right * 2 * p_right * (1 - p_right)) / n_total


# The most (sample, candidate) pairs that ``forest_train`` scores in one
# sorted block, which bounds a step's working memory at any tree count. A
# block holds whole (node, candidate) segments, so a node of more samples
# than this scores each candidate in a block of its own.
FOREST_BLOCK = 1 << 16


@dataclass
class _Ranked:
    """Each feature's distinct values in ascending order, all features'
    one after another in ``values`` (feature f's from ``first[f]``), and
    every sample's rank among its feature's values, (features, samples)."""
    values: np.ndarray
    first: np.ndarray
    ranks: np.ndarray
    span: int  # the most distinct values of any feature

    @classmethod
    def of(cls, X):
        uniques, ranks = zip(*(np.unique(col, return_inverse=True) for col in X.T))
        counts = np.array([len(u) for u in uniques])
        return cls(np.concatenate(uniques), np.cumsum(counts) - counts,
                   np.stack(ranks), int(counts.max()))


def _score_block(ranked, rows, labels, start, size, n_pos, feature):
    """Every cut of a block of (node, candidate) segments: segment i is
    the ``size[i]`` samples of ``rows``/``labels`` from ``start[i]``, of
    a node holding ``n_pos[i]`` positives, on ``feature[i]``. Returns each
    segment's first least impurity (inf if its samples all tie) and the
    values either side of that cut.

    One sort of a packed (segment, rank, label) key orders every segment
    by value. A valid cut ends a run of equal ranks inside its segment, so
    its positive count, impurity and values do not depend on how ties are
    ordered."""
    n_seg = len(size)
    ends = np.cumsum(size)
    first = ends - size
    span = ranked.span
    src = np.arange(ends[-1]) + np.repeat(start - first, size)
    key = np.repeat(np.arange(0, n_seg * span, span), size)
    key += ranked.ranks.reshape(-1)[rows[src] + np.repeat(feature * ranked.ranks.shape[1], size)]
    key <<= 1
    key |= labels[src]
    key.sort()
    positives = np.cumsum(key & 1)
    cut = (key[1:] ^ key[:-1]) > 1  # segment or rank changes
    cut[ends[:-1] - 1] = False
    cut = np.flatnonzero(cut)
    # cuts come in segment order and, within a segment, in value order
    runs = np.searchsorted(cut, first)
    count = np.diff(runs, append=len(cut))
    before = positives[first] - (key[first] & 1)
    gini = _gini_pair((positives[cut] - np.repeat(before, count)).astype(np.float64),
                      (cut - np.repeat(first - 1, count)).astype(np.float64),
                      np.repeat(n_pos.astype(np.float64), count),
                      np.repeat(size.astype(np.float64), count))
    has = count > 0
    impurity = np.full(n_seg, np.inf)
    impurity[has] = np.minimum.reduceat(gini, runs[has])
    at_min = np.flatnonzero(gini == np.repeat(impurity, count))
    best = cut[at_min[np.searchsorted(at_min, runs[has])]]
    at = ranked.first[feature[has]] - np.flatnonzero(has) * span
    lo = np.zeros(n_seg)
    hi = np.zeros(n_seg)
    lo[has] = ranked.values[at + (key[best] >> 1)]
    hi[has] = ranked.values[at + (key[best + 1] >> 1)]
    return impurity, lo, hi


def _best_splits(ranked, rows, labels, start, size, n_pos, candidates):
    """For nodes whose samples are ``size`` entries of ``rows`` from
    ``start`` and ``candidates`` (nodes, c) their features in draw order:
    each node's split as (candidate index, threshold), the candidate index
    -1 where no candidate can split. The first least impurity wins, in
    candidate order and then in value order."""
    m, c = candidates.shape
    feature = candidates.reshape(-1)
    seg_start, seg_size, seg_pos = (np.repeat(v, c) for v in (start, size, n_pos))
    impurity, lo, hi = np.empty(m * c), np.empty(m * c), np.empty(m * c)
    ends = np.cumsum(seg_size)
    b = 0
    while b < m * c:
        e = max(b + 1, int(np.searchsorted(ends, ends[b] - seg_size[b] + FOREST_BLOCK,
                                           side="right")))
        impurity[b:e], lo[b:e], hi[b:e] = _score_block(
            ranked, rows, labels, seg_start[b:e], seg_size[b:e], seg_pos[b:e], feature[b:e])
        b = e
    best = np.argmin(impurity.reshape(m, c), axis=1)
    pick = np.arange(m) * c + best
    lo, hi = lo[pick], hi[pick]
    # the midpoint of two adjacent doubles can round up to the upper one,
    # which would send every sample left; the lower value splits them too
    threshold = (lo + hi) / 2.0
    threshold = np.where(threshold < hi, threshold, lo)
    return np.where(impurity[pick] < np.inf, best, -1), threshold


def _partition(X, rows, size, feature, threshold):
    """The samples of each node that splits (``feature`` >= 0), of nodes
    that are ``size`` entries of ``rows`` one after another: a list of
    their left children's samples and one of their right children's."""
    splits = feature >= 0
    node_rows = rows[np.repeat(splits, size)]
    node_size = size[splits]
    go_left = X[node_rows, np.repeat(feature[splits], node_size)] <= np.repeat(
        threshold[splits], node_size)
    n_left = np.add.reduceat(go_left, np.cumsum(node_size) - node_size, dtype=np.int64)
    return [np.split(node_rows[side], np.cumsum(count)[:-1])
            for side, count in ((go_left, n_left), (~go_left, node_size - n_left))]


def forest_train(features: np.ndarray, labels: np.ndarray, trees_per_attr: int,
                 max_depth: int = 8, seed: int = 0) -> Forest:
    """Per attribute: bootstrap trees with sqrt-of-features candidate
    sampling and Gini splits; leaves store the positive fraction.

    Tree t of attribute a draws its bootstrap and then, at each node it
    tries to split, in preorder, its candidates from ``default_rng([seed,
    a, t])``. Every tree keeps its own depth-first stack, and all trees
    grow together: each step takes the next node of every unfinished tree
    and scores the candidates of all those that split in blocks of at
    most ``FOREST_BLOCK`` (sample, candidate) pairs."""
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ShapeError(f"features {X.shape} and labels {Y.shape} do not align")
    n, n_feat = X.shape
    if n < 2:
        raise TrainingError("forest training requires at least 2 samples")
    # the sort key packs the label as one bit, and ranks order NaN as a value
    if not _is_binary(Y):
        raise ValueError("labels must be binary")
    if np.isnan(X).any():
        raise ValueError("features must not be NaN")
    n_candidates = min(max(1, int(np.sqrt(n_feat))), n_feat)
    ranked = _Ranked.of(X)
    bits = Y.T.astype(np.int64)
    n_trees = Y.shape[1] * trees_per_attr
    rngs = [np.random.default_rng([seed, *divmod(g, trees_per_attr)]) for g in range(n_trees)]
    # a stacked node: its samples (rows of X, with repeats), its depth, its
    # parent's number in its tree (-1 at the root) and whether it is the
    # right child; a tree numbers its nodes in the order it pops them
    stacks = [[(rng.integers(0, n, size=n), 0, -1, False)] for rng in rngs]
    numbered = np.zeros(n_trees, dtype=np.int64)
    steps = []
    active = np.arange(n_trees)
    while active.size:
        rows, depth, parent, is_right = zip(*(stacks[g].pop() for g in active))
        size = np.array([len(r) for r in rows])
        rows = np.concatenate(rows)
        start = np.cumsum(size) - size
        y = bits[np.repeat(active // trees_per_attr, size), rows]
        n_pos = np.add.reduceat(y, start)
        number = numbered[active]
        numbered[active] += 1
        feature = np.full(len(active), -1)
        threshold = np.zeros(len(active))
        depth = np.array(depth)
        split = np.flatnonzero((depth < max_depth) & (size >= 2)
                               & (n_pos > 0) & (n_pos < size))
        if split.size:
            candidates = np.array([rngs[g].choice(n_feat, size=n_candidates, replace=False)
                                   for g in active[split].tolist()])
            best, thr = _best_splits(ranked, rows, y, start[split], size[split],
                                     n_pos[split], candidates)
            ok = best >= 0
            split = split[ok]
            feature[split] = candidates[ok, best[ok]]
            threshold[split] = thr[ok]
            # the right child goes on the stack first, so the left one is
            # popped, and numbered, next
            for g, d, parent_number, left, right in zip(
                    active[split].tolist(), (depth[split] + 1).tolist(),
                    number[split].tolist(), *_partition(X, rows, size, feature, threshold)):
                stacks[g].append((right, d, parent_number, True))
                stacks[g].append((left, d, parent_number, False))
        steps.append((active, number, np.array(parent), np.array(is_right), feature,
                      threshold, n_pos / size))
        active = active[[bool(stacks[g]) for g in active.tolist()]]
    return _forest_of_steps(steps, numbered, Y.shape[1], n_feat)


def _forest_of_steps(steps, counts, k, n_feat):
    """The forest of the nodes ``forest_train`` numbered, from its steps'
    (tree, number, parent number, is right child, feature, threshold,
    prob) arrays and each tree's node count."""
    tree, number, parent, is_right, feature, threshold, prob = (
        np.concatenate(col) for col in zip(*steps))
    tree_start = (np.cumsum(counts) - counts)[tree]
    at = tree_start + number
    nodes = Tree(np.empty_like(feature), np.empty_like(threshold), np.full_like(feature, -1),
                 np.full_like(feature, -1), np.empty_like(prob))
    nodes.feature[at], nodes.threshold[at], nodes.prob[at] = feature, threshold, prob
    child = parent >= 0
    for side, right in ((nodes.left, False), (nodes.right, True)):
        mine = child & (is_right == right)
        side[tree_start[mine] + parent[mine]] = number[mine]
    return Forest(nodes, counts.reshape(k, -1), n_feat)


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


def svm_train(features: np.ndarray, labels: np.ndarray, epochs: int,
              reg: float = 1e-4, seed: int = 0) -> LinearSvm:
    """Hinge loss + L2, minimized per attribute by stochastic subgradient
    descent on a deterministic shuffle with the 1/(reg*t) step schedule.
    The bias rides along as an augmented constant feature; a separately
    scheduled bias blows up under the early 1/(reg*t) steps.

    Attribute a shuffles each epoch with ``default_rng([seed, a])``, and
    all attributes take their t-th step together: one stacked matmul
    gives every margin, as ``w @ x`` would one at a time, and an
    attribute's weights move only when its margin is below 1."""
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ShapeError(f"features {X.shape} and labels {Y.shape} do not align")
    n, n_feat = X.shape
    k = Y.shape[1]
    Xa = np.hstack([X, np.ones((n, 1))])
    sign = np.where(Y.T > 0, 1.0, -1.0)
    rngs = [np.random.default_rng([seed, a]) for a in range(k)]
    attrs = np.arange(k)[:, None]
    w = np.zeros((k, n_feat + 1))
    t = 0
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        ys = sign[attrs, order]
        for i in range(n):
            t += 1
            eta = 1.0 / (reg * t)
            rows = Xa[order[:, i]]
            y = ys[:, i]
            margin = y * (w[:, None, :] @ rows[:, :, None])[:, 0, 0]
            w *= (1.0 - eta * reg)
            np.add(w, (eta * y)[:, None] * rows, out=w, where=(margin < 1.0)[:, None])
    return LinearSvm(weights=w[:, :-1].copy(), biases=w[:, -1].copy())


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
