import itertools

import numpy as np
import pytest

from rcodean.classifiers import (assemble_mlp_head, build_mlp_head,
                                 ensemble_vote, forest_predict,
                                 forest_predict_proba, forest_train,
                                 head_loss_and_grads, head_score, head_train,
                                 svm_decision, svm_predict, svm_train,
                                 zero_mlp_head)
from rcodean.errors import ShapeError, TrainingError
from rcodean.tensor import Mat


def _separable_codes(n, seed, k=2, dim=8):
    """Codes where attribute a is the sign of coordinate a, with margin."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, n))
    x[:k] = np.where(rng.uniform(size=(k, n)) < 0.5, -1.0, 1.0) * rng.uniform(
        0.5, 1.5, size=(k, n))
    labels = (x[:k] > 0).T.astype(np.int64)
    return Mat(x), labels


def test_zero_head_scores_half_everywhere():
    head = zero_mlp_head(6, 3)
    rng = np.random.default_rng(0)
    out = head_score(head, Mat(rng.normal(size=(6, 5))))
    assert np.array_equal(out.a, np.full((3, 5), 0.5))


def test_head_learns_separable_codes():
    codes, labels = _separable_codes(500, seed=1)
    head = head_train(codes, labels, epochs=400, seed=2)
    probs = head_score(head, codes).a
    preds = (probs > 0.5).astype(np.int64).T
    assert (preds == labels).mean() >= 0.99


def test_head_all_zero_labels():
    rng = np.random.default_rng(3)
    codes = Mat(rng.normal(size=(6, 120)))
    labels = np.zeros((120, 2), dtype=np.int64)
    head = head_train(codes, labels, epochs=200, seed=4)
    assert (head_score(head, codes).a < 0.5).all()


def test_head_single_class_warns_but_trains(caplog):
    rng = np.random.default_rng(5)
    codes = Mat(rng.normal(size=(4, 50)))
    labels = np.zeros((50, 2), dtype=np.int64)
    labels[:, 1] = rng.integers(0, 2, size=50)
    with caplog.at_level("WARNING", logger="rcodean"):
        head_train(codes, labels, epochs=5, seed=6)
    assert any("single class" in r.message for r in caplog.records)


def test_head_training_is_deterministic():
    codes, labels = _separable_codes(100, seed=7)
    h1 = head_train(codes, labels, epochs=50, seed=8)
    h2 = head_train(codes, labels, epochs=50, seed=8)
    for (_, a), (_, b) in zip(h1.parameters(), h2.parameters()):
        assert np.array_equal(a, b)


def test_head_outputs_are_independent_probabilities():
    head = build_mlp_head(5, 3, seed=9)
    out = head_score(head, Mat(np.random.default_rng(10).normal(size=(5, 7)))).a
    assert ((out > 0.0) & (out < 1.0)).all()
    assert not np.allclose(out.sum(axis=0), 1.0)  # multi-label, no softmax


def test_head_hidden_dims_follow_half_quarter_rule():
    head = build_mlp_head(64, 4, seed=11)
    dims = [(l.in_dim, l.out_dim) for l in head.layers]
    assert dims == [(64, 32), (32, 16), (16, 4)]


def test_assemble_from_named_parameters_rebuilds_the_head():
    codes, labels = _separable_codes(60, seed=12, k=3)
    head = head_train(codes, labels, epochs=20, seed=13)
    again = assemble_mlp_head(dict(head.parameters()))
    assert [(l.in_dim, l.out_dim, l.act, l.name) for l in again.layers] == \
        [(l.in_dim, l.out_dim, l.act, l.name) for l in head.layers]
    for (name_a, a), (name_b, b) in zip(head.parameters(), again.parameters()):
        assert name_a == name_b
        assert np.array_equal(a, b)
    assert np.array_equal(head_score(head, codes).a, head_score(again, codes).a)


def test_head_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    head = build_mlp_head(5, 2, seed=14)
    x = Mat(rng.normal(size=(5, 4)))
    y = rng.integers(0, 2, size=(2, 4)).astype(np.float64)
    h = 1e-6
    while True:  # keep relu pre-activations away from kinks
        zs = []
        cur = x
        from rcodean.layers import dense_forward
        for layer in head.layers:
            c = dense_forward(layer, cur)
            zs.append(np.abs(c.pre_activation.a).min())
            cur = c.output
        if min(zs[:2]) > 1e-3:
            break
        head = build_mlp_head(5, 2, seed=int(rng.integers(2**31)))
    _, grads = head_loss_and_grads(head, x, y)
    for name, arr in head.parameters():
        flat = arr.reshape(-1)
        g = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = head_loss_and_grads(head, x, y)[0]
            flat[i] = orig - h
            down = head_loss_and_grads(head, x, y)[0]
            flat[i] = orig
            num = (up - down) / (2 * h)
            assert abs(g[i] - num) <= max(1e-6, 1e-4 * max(abs(g[i]), abs(num)))


# ---------------------------------------------------------------------------
# forest


def _brute_force_gini(values, y):
    """All-cut scan used as the split oracle."""
    best = None
    order = np.argsort(values, kind="stable")
    vs, ys = values[order], y[order]
    n = len(ys)
    for i in range(n - 1):
        if vs[i] == vs[i + 1]:
            continue
        left, right = ys[:i + 1], ys[i + 1:]
        gini = 0.0
        for part in (left, right):
            p = part.mean()
            gini += len(part) * 2 * p * (1 - p)
        gini /= n
        if best is None or gini < best[1]:
            best = ((vs[i] + vs[i + 1]) / 2.0, gini)
    return best


def test_forest_recovers_step_threshold():
    rng = np.random.default_rng(17)
    x = rng.uniform(size=(80, 1))
    y = (x[:, 0] > 0.5).astype(np.int64).reshape(-1, 1)
    forest = forest_train(x, y, trees_per_attr=1, max_depth=1, seed=18)
    tree = forest.trees[0][0]
    assert tree.feature[0] == 0
    # threshold must fall in the gap around 0.5 of the bootstrap sample
    boot = np.random.default_rng([18, 0, 0]).integers(0, 80, size=80)
    vals = np.sort(x[boot, 0])
    lo = vals[vals <= 0.5].max()
    hi = vals[vals > 0.5].min()
    assert lo < tree.threshold[0] < hi
    oracle = _brute_force_gini(x[boot, 0], y[boot, 0].astype(np.float64))
    assert tree.threshold[0] == pytest.approx(oracle[0])


def test_forest_pure_labels_single_leaf():
    rng = np.random.default_rng(19)
    x = rng.uniform(size=(30, 4))
    y = np.ones((30, 1), dtype=np.int64)
    forest = forest_train(x, y, trees_per_attr=5, max_depth=6, seed=20)
    for tree in forest.trees[0]:
        assert len(tree.feature) == 1 and tree.feature[0] == -1
        assert tree.prob[0] == 1.0


def test_forest_deterministic_across_runs():
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(60, 6))
    y = rng.integers(0, 2, size=(60, 2))
    f1 = forest_train(x, y, trees_per_attr=4, max_depth=4, seed=22)
    f2 = forest_train(x, y, trees_per_attr=4, max_depth=4, seed=22)
    for a in range(2):
        for t1, t2 in zip(f1.trees[a], f2.trees[a]):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold)
            assert np.array_equal(t1.prob, t2.prob)


def _walk_tree(tree, sample):
    node = 0
    while tree.feature[node] >= 0:
        if sample[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.prob[node]


def test_forest_prediction_matches_tree_walk_oracle():
    rng = np.random.default_rng(23)
    x = rng.uniform(size=(150, 5))
    y = (x[:, :2].sum(axis=1) > 1.0).astype(np.int64).reshape(-1, 1)
    y = np.hstack([y, rng.integers(0, 2, size=(150, 1))])
    forest = forest_train(x, y, trees_per_attr=8, max_depth=5, seed=24)
    probes = rng.uniform(size=(100, 5))
    probs = forest_predict_proba(forest, probes)
    for i in range(100):
        for a in range(2):
            expected = np.mean([_walk_tree(t, probes[i]) for t in forest.trees[a]])
            assert probs[i, a] == pytest.approx(expected, abs=1e-12)
    preds = forest_predict(forest, probes)
    assert np.array_equal(preds, (probs > 0.5).astype(np.int64))


def test_forest_learns_separable_rule():
    rng = np.random.default_rng(25)
    x = rng.uniform(size=(400, 8))
    y = (x[:, 3] > 0.5).astype(np.int64).reshape(-1, 1)
    forest = forest_train(x, y, trees_per_attr=16, max_depth=6, seed=26)
    test_x = rng.uniform(size=(200, 8))
    test_y = (test_x[:, 3] > 0.5).astype(np.int64)
    acc = (forest_predict(forest, test_x)[:, 0] == test_y).mean()
    assert acc >= 0.95


def test_forest_requires_two_samples():
    with pytest.raises(TrainingError):
        forest_train(np.ones((1, 3)), np.ones((1, 1)), seed=0)


def test_forest_leaf_probabilities_in_range():
    rng = np.random.default_rng(27)
    x = rng.uniform(size=(100, 4))
    y = rng.integers(0, 2, size=(100, 3))
    forest = forest_train(x, y, trees_per_attr=6, max_depth=8, seed=28)
    for per_attr in forest.trees:
        for tree in per_attr:
            assert ((tree.prob >= 0.0) & (tree.prob <= 1.0)).all()


# ---------------------------------------------------------------------------
# svm


def _blobs(n, seed, margin=1.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    centers = np.array([[-1.0 - margin, 0.0], [1.0 + margin, 0.0]])
    x = centers[y] + rng.normal(scale=0.4, size=(n, 2))
    return x, y.reshape(-1, 1)


def test_svm_separable_blobs():
    x, y = _blobs(400, seed=29)
    svm = svm_train(x, y, epochs=30, reg=1e-3, seed=30)
    tx, ty = _blobs(300, seed=31)
    acc = (svm_predict(svm, tx)[:, 0] == ty[:, 0]).mean()
    assert acc >= 0.99


def test_svm_one_class_degenerate():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(50, 3))
    y = np.ones((50, 1), dtype=np.int64)
    svm = svm_train(x, y, epochs=30, reg=1e-3, seed=33)
    assert (svm_predict(svm, x)[:, 0] == 1).all()


def test_svm_feature_scaling_preserves_signs_at_tiny_reg():
    x, y = _blobs(200, seed=34)
    a = svm_train(x, y, epochs=40, reg=1e-6, seed=35)
    b = svm_train(10.0 * x, y, epochs=40, reg=1e-6, seed=35)
    signs_a = svm_predict(a, x)[:, 0]
    signs_b = svm_predict(b, 10.0 * x)[:, 0]
    assert np.array_equal(signs_a, signs_b)


def test_svm_deterministic():
    x, y = _blobs(120, seed=36)
    a = svm_train(x, y, epochs=10, reg=1e-3, seed=37)
    b = svm_train(x, y, epochs=10, reg=1e-3, seed=37)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_svm_decision_shape():
    x, y = _blobs(50, seed=38)
    svm = svm_train(x, y, epochs=5, seed=39)
    assert svm_decision(svm, x).shape == (50, 1)
    with pytest.raises(ShapeError):
        svm_decision(svm, np.ones((5, 7)))


# ---------------------------------------------------------------------------
# vote


def test_vote_exhaustive_majority():
    for a, b, c in itertools.product((0, 1), repeat=3):
        out = ensemble_vote(np.array([a]), np.array([b]), np.array([c]))
        assert out[0] == (1 if a + b + c >= 2 else 0)


def test_vote_idempotent_and_permutation_invariant():
    for a, b, c in itertools.product((0, 1), repeat=3):
        va = np.array([a]); vb = np.array([b]); vc = np.array([c])
        assert ensemble_vote(va, va, va)[0] == a
        base = ensemble_vote(va, vb, vc)[0]
        for p, q, r in itertools.permutations([va, vb, vc]):
            assert ensemble_vote(p, q, r)[0] == base


def test_vote_vectorized_over_samples_and_attributes():
    rng = np.random.default_rng(40)
    a = rng.integers(0, 2, size=(6, 4))
    b = rng.integers(0, 2, size=(6, 4))
    c = rng.integers(0, 2, size=(6, 4))
    out = ensemble_vote(a, b, c)
    assert out.shape == (6, 4)
    assert np.array_equal(out, (a + b + c >= 2).astype(np.int64))


def test_vote_validates_inputs():
    with pytest.raises(ShapeError):
        ensemble_vote(np.zeros(3), np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError):
        ensemble_vote(np.array([2]), np.array([0]), np.array([1]))
