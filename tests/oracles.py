"""Independent reference implementations used as test oracles.

Deliberately written against the documented math, not the package code:
plain arrays, explicit loops over the layer list, no shared helpers. The
exceptions are kept copies of earlier package code that a faster version
must match bit for bit; each says so.
"""

import numpy as np

from rcodean.classifiers import MlpHead, build_mlp_head, head_score
from rcodean.data import GLOBAL_SHIFT, ILLUM_SIGMA, _NOISE_SIGMA, _illumination_fields
from rcodean.layers import DenseLayer
from rcodean.network import DEFAULT_SKIP_LAYOUT, RCodeanNet, encode
from rcodean.optimizer import AdamState, adam_step
from rcodean.tensor import Mat


def _relu(z):
    return np.maximum(z, 0.0)


def straight_line_forward(net, x):
    """Layer-by-layer evaluation with explicit skip additions: six dense
    layers, relu on all but the last (linear), each shortcut adding
    (projection @ source_output) to the destination pre-activation."""
    order = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")
    W = {lid: net.layers[lid].weight for lid in order}
    b = {lid: net.layers[lid].bias for lid in order}
    by_dst = {}
    for src, dst, _ in net.skips:
        by_dst.setdefault(dst, []).append(src)

    outs = {}
    a = x
    for lid in order:
        z = W[lid] @ a + b[lid]
        for src in by_dst.get(lid, []):
            p = net.projections.get(f"{src}->{lid}")
            z = z + (p @ outs[src] if p is not None else outs[src])
        a = z if lid == "dec3" else _relu(z)
        outs[lid] = a
    return outs["dec3"], outs["enc3"]


class PlainMseAutoencoder:
    """Minimal six-layer MSE autoencoder with manual backprop: relu hidden
    layers, linear output, loss = ||x - reconstruction||^2."""

    def __init__(self, weights, biases):
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]

    def forward(self, x):
        acts = [x]
        zs = []
        a = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = w @ a + b
            a = z if i == len(self.weights) - 1 else _relu(z)
            zs.append(z)
            acts.append(a)
        return acts, zs

    def loss_and_grads(self, x):
        acts, zs = self.forward(x)
        recon = acts[-1]
        diff = x - recon
        loss = float(np.sum(diff * diff))
        grad = 2.0 * (recon - x)
        gws, gbs = [], []
        for i in range(len(self.weights) - 1, -1, -1):
            delta = grad if i == len(self.weights) - 1 else grad * (zs[i] > 0)
            gws.append(delta @ acts[i].T)
            gbs.append(delta.sum(axis=1, keepdims=True))
            grad = self.weights[i].T @ delta
        return loss, gws[::-1], gbs[::-1]


def _gini_pair(n_pos_left, n_left, n_pos_total, n_total):
    n_right = n_total - n_left
    p_left = n_pos_left / n_left
    p_right = (n_pos_total - n_pos_left) / n_right
    return (n_left * 2 * p_left * (1 - p_left)
            + n_right * 2 * p_right * (1 - p_right)) / n_total


def _best_split(values, y):
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
    lo, hi = vs[cuts[best]], vs[cuts[best] + 1]
    # the midpoint of adjacent doubles can round up to the upper one
    thr = (lo + hi) / 2.0
    return (thr if thr < hi else lo), float(impurity[best])


class ReferenceTreeGrower:
    """One decision tree grown in preorder, splitting each node on the best
    Gini cut of each candidate feature in turn (a stable sort per feature,
    the first strictly better candidate kept). Draws candidates from
    ``rng`` in the same order as ``rcodean.classifiers.forest_train``."""

    def __init__(self, X, y, rng, max_depth, n_candidates):
        self.X, self.y, self.rng = X, y, rng
        self.max_depth, self.n_candidates = max_depth, n_candidates
        self.nodes = []  # [feature, threshold, left, right, prob]

    def grow(self, idx, depth):
        node = len(self.nodes)
        ysub = self.y[idx]
        self.nodes.append([-1, 0.0, -1, -1, float(ysub.mean())])
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
        self.nodes[node][:2] = [f, thr]
        self.nodes[node][2] = self.grow(idx[go_left], depth + 1)
        self.nodes[node][3] = self.grow(idx[~go_left], depth + 1)
        return node


def reference_forest(features, labels, trees_per_attr, max_depth, seed):
    """Per attribute, each tree's node fields as a dict of arrays: the
    bootstrap and candidate draws of ``forest_train``, grown by
    ``ReferenceTreeGrower``."""
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.float64)
    n, n_feat = X.shape
    n_candidates = max(1, int(np.sqrt(n_feat)))
    forest = []
    for a in range(Y.shape[1]):
        per_attr = []
        for t in range(trees_per_attr):
            rng = np.random.default_rng([seed, a, t])
            boot = rng.integers(0, n, size=n)
            grower = ReferenceTreeGrower(X[boot], Y[boot, a], rng, max_depth, n_candidates)
            grower.grow(np.arange(n), 0)
            cols = list(zip(*grower.nodes))
            per_attr.append({
                "feature": np.array(cols[0], dtype=np.int64),
                "threshold": np.array(cols[1], dtype=np.float64),
                "left": np.array(cols[2], dtype=np.int64),
                "right": np.array(cols[3], dtype=np.int64),
                "prob": np.array(cols[4], dtype=np.float64)})
        forest.append(per_attr)
    return forest


def reference_svm(features, labels, epochs, reg, seed):
    """(weights, biases) of ``rcodean.classifiers.svm_train``, one
    attribute at a time and one sample at a time: the loop it ran before
    it stepped all attributes together, kept verbatim."""
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(labels, dtype=np.float64)
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
    return weights, biases


# ---------------------------------------------------------------------------
# preprocessing and stage-1 scoring as they were before the resize plan and
# the stacked scoring pass, kept verbatim


def reference_bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
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


PATCH_SIZE = 32
PATCH_OFFSETS = tuple((r, c) for r in (0, 16, 32) for c in (0, 16, 32))
N_SOURCES = len(PATCH_OFFSETS) + 1


def reference_tessellate_batch(images: np.ndarray) -> list[np.ndarray]:
    """Source matrices for an (n, 64, 64) stack: ten (dim, n) arrays."""
    n = images.shape[0]
    out = [np.ascontiguousarray(
        images[:, r:r + PATCH_SIZE, c:c + PATCH_SIZE].reshape(n, -1).T)
        for r, c in PATCH_OFFSETS]
    out.append(np.ascontiguousarray(images.reshape(n, -1).T))
    return out


def per_source_models(models):
    """The ten (encoder, head) pairs of a ``SourceModels`` as 2-D models,
    source s at index s: slice s of the stacks, viewed, not copied, and
    the face encoder as it is."""
    def unstack(layers, s):
        return [DenseLayer(layer.weight[s], layer.bias[s], layer.act, layer.name)
                for layer in layers]

    patches = models.patch_encoders
    encoders = [RCodeanNet({layer.name: layer
                            for layer in unstack(patches.layers.values(), s)},
                           DEFAULT_SKIP_LAYOUT)
                for s in range(N_SOURCES - 1)] + [models.face_encoder]
    return [(encoder, MlpHead(unstack(models.heads.layers, s)))
            for s, encoder in enumerate(encoders)]


def reference_score_images(models, images: np.ndarray) -> np.ndarray:
    """Stage-1 scores for an (n, 64, 64) stack, (n, 10, k), one source at
    a time through the package's 2-D ``encode`` and ``head_score``;
    ``models`` are ten (net or encoder, head) pairs."""
    sources = reference_tessellate_batch(images)
    k = models[0][1].n_attributes
    n = images.shape[0]
    out = np.empty((n, N_SOURCES, k))
    for s, (net, head) in enumerate(models):
        probs = head_score(head, Mat(encode(net, Mat(sources[s]))))
        out[:, s, :] = probs.T
    return out


# ---------------------------------------------------------------------------
# the synthetic generator as it was before it drew, lit and noised the
# stack a block at a time, kept verbatim with its per-image primitive
# chain; the lighting basis is the package's own


def _apply_primitive(img: np.ndarray, attr_index: int) -> None:
    if attr_index == 0:
        img[0:20, 0:20] += 90.0
    elif attr_index == 1:
        img[50:58, 2:62] += 85.0
    elif attr_index == 2:
        img += GLOBAL_SHIFT
    elif attr_index == 3:
        img[44:60, 44:60] += 90.0
    elif attr_index == 4:
        img[2:62, 52:58] += 85.0
    elif attr_index == 5:
        img[24:40, 24:40] += 90.0
    elif attr_index == 6:
        img[0:16, 48:64] += 90.0
    else:
        img[2:62, 6:12] += 85.0


def reference_gen_synthetic(n: int, k: int, seed: int = 0):
    """The images and labels of ``gen_synthetic(n, k, seed)``, lit and
    noised as one whole-stack pass."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(n, k))
    images = np.full((n, 64, 64), 80.0)
    for i in range(n):
        for a in range(k):
            if labels[i, a]:
                _apply_primitive(images[i], a)
    tilt_x, tilt_y, bowl = _illumination_fields()
    gains = rng.normal(scale=ILLUM_SIGMA, size=(3, n, 1, 1))
    images += gains[0] * tilt_x + gains[1] * tilt_y + gains[2] * bowl
    images += rng.normal(scale=_NOISE_SIGMA, size=images.shape)
    np.clip(images, 0.0, 255.0, out=images)
    return images, labels



def _reference_head_forward(head, x):
    """Each head layer's (input, pre-activation, output), every one a fresh
    array: z = W x, then += b, then relu as np.maximum(z, 0.0) or the
    split-form sigmoid, 1 / (1 + e) where z >= 0 and e / (1 + e)
    elsewhere, e = exp(-|z|)."""
    caches = []
    for layer in head.layers:
        z = layer.weight @ x
        z += layer.bias
        if layer.act == "relu":
            out = np.maximum(z, 0.0)
        else:
            e = np.exp(-np.abs(z))
            d = 1.0 + e
            out = np.where(z >= 0, 1.0 / d, e / d)
        caches.append((x, z, out))
        x = out
    return caches


def reference_head_train(features, labels, epochs=300, seed=0, lr=1e-2):
    """A kept copy of the earlier package ``head_train`` loop, which the
    flat-buffer version must match bit for bit: every epoch, a forward
    pass of its own and fresh gradients of the six named head arrays,
    each its own array, through ``adam_step``."""
    labels = np.asarray(labels, dtype=np.float64)
    head = build_mlp_head(features.shape[0], labels.shape[1], seed=seed)
    y = labels.T
    state = AdamState(lr=lr)
    for _ in range(epochs):
        caches = _reference_head_forward(head, features)
        probs = caches[-1][2]
        delta = (probs - y) / probs.shape[1]
        grads = {}
        for i in (2, 1, 0):
            grads[f"layer{i}.weight"] = delta @ caches[i][0].T
            grads[f"layer{i}.bias"] = delta.sum(axis=1, keepdims=True)
            if i > 0:
                delta = (head.layers[i].weight.T @ delta) * (caches[i - 1][1] > 0)
        adam_step(state, head.parameters(), grads)
    return head
