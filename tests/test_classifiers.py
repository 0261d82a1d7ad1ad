import dataclasses
import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bundle_rewrite import replace_tree, rewrite_bundle
from oracles import (_reference_head_forward, reference_forest, reference_head_train,
                     reference_svm)
from rcodean import classifiers
from rcodean.bundle import load_bundle, save_bundle
from rcodean.classifiers import (PROB_THRESHOLD, Forest, Tree, assemble_mlp_head,
                                 build_mlp_head, ensemble_vote, forest_predict_proba,
                                 forest_train, head_score, head_train, svm_decision,
                                 svm_train)
from rcodean.data import gen_synthetic, split_by_counts
from rcodean.errors import NumericError, ShapeError, TrainingError
from rcodean.optimizer import adam_step
from rcodean.pipeline import PipelineConfig, train_full
from rcodean.tensor import Mat


def _separable_codes(n, seed, k=2, dim=8):
    """Codes where attribute a is the sign of coordinate a, with margin."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, n))
    x[:k] = np.where(rng.uniform(size=(k, n)) < 0.5, -1.0, 1.0) * rng.uniform(
        0.5, 1.5, size=(k, n))
    labels = (x[:k] > 0).T.astype(np.int64)
    return x, labels


def test_zero_head_scores_half_everywhere():
    head = build_mlp_head(6, 3)
    for _, arr in head.parameters():
        arr[:] = 0.0
    rng = np.random.default_rng(0)
    out = head_score(head, Mat(rng.normal(size=(6, 5))))
    assert np.array_equal(out, np.full((3, 5), 0.5))


def test_head_learns_separable_codes():
    codes, labels = _separable_codes(500, seed=1)
    head = head_train(codes, labels, epochs=400, seed=2)
    probs = head_score(head, Mat(codes))
    preds = (probs > 0.5).astype(np.int64).T
    assert (preds == labels).mean() >= 0.99


def test_head_all_zero_labels():
    rng = np.random.default_rng(3)
    codes = rng.normal(size=(6, 120))
    labels = np.zeros((120, 2), dtype=np.int64)
    head = head_train(codes, labels, epochs=200, seed=4)
    assert (head_score(head, Mat(codes)) < 0.5).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_head_train_refuses_non_finite_features(value):
    codes, labels = _separable_codes(30, seed=3)
    codes[4, 11] = value
    with pytest.raises(NumericError):
        head_train(codes, labels, epochs=5, seed=4)


def test_head_trains_on_a_single_class_attribute(caplog):
    # the pipeline warns about a single-class attribute once per split,
    # where the split's labels are known; head training itself says nothing
    rng = np.random.default_rng(5)
    codes = rng.normal(size=(4, 50))
    labels = np.zeros((50, 2), dtype=np.int64)
    labels[:, 1] = rng.integers(0, 2, size=50)
    with caplog.at_level("WARNING", logger="rcodean"):
        head = head_train(codes, labels, epochs=50, seed=6)
    assert (head_score(head, Mat(codes))[0] < 0.5).all()
    assert not caplog.records


def _single_class_codes():
    codes, labels = _separable_codes(300, seed=21, k=3, dim=64)
    labels[:, 1] = 1
    return codes, labels


@pytest.mark.parametrize("make", [
    lambda: _separable_codes(200, seed=17, k=4, dim=64),
    lambda: _separable_codes(1000, seed=18, k=4, dim=64),
    lambda: _separable_codes(2000, seed=19, k=8, dim=80),
    lambda: _separable_codes(1, seed=20, k=4, dim=64),
    _single_class_codes,
], ids=["64x200k4", "64x1000k4", "80x2000k8", "n1", "single-class"])
def test_flat_head_training_equals_the_per_array_loop_bitwise(make):
    codes, labels = make()
    head = head_train(codes, labels, epochs=300, seed=[5, 2003])
    ref = reference_head_train(codes, labels, seed=[5, 2003])
    assert [name for name, _ in head.parameters()] == [name for name, _ in ref.parameters()]
    for (name, arr), (_, expected) in zip(head.parameters(), ref.parameters()):
        assert np.array_equal(arr, expected), name


@pytest.mark.parametrize("n, k", [(200, 4), (1000, 4), (200, 8), (1000, 8)])
def test_stacked_head_training_equals_one_head_at_a_time_bitwise(n, k):
    # ten heads, each on its own codes and seed and all on the same
    # labels, as stage 1 trains its ten scoring heads
    stack = [_separable_codes(n, seed=30, k=k, dim=64)[0]]
    labels = _separable_codes(n, seed=30, k=k, dim=64)[1]
    rng = np.random.default_rng(31)
    stack += [rng.normal(size=(64, n)) for _ in range(9)]
    seeds = [[5, 2000 + s] for s in range(10)]
    heads = head_train(np.stack(stack), labels, epochs=300, seed=seeds)
    assert [layer.weight.shape for layer in heads.layers] == [
        (10, 32, 64), (10, 16, 32), (10, k, 16)]
    for i, (codes, seed) in enumerate(zip(stack, seeds)):
        for one in (head_train(codes, labels, epochs=300, seed=seed),
                    reference_head_train(codes, labels, seed=seed)):
            for (name, arr), (_, expected) in zip(heads.parameters(), one.parameters()):
                assert np.array_equal(arr[i], expected), (i, name)


def test_stacked_head_training_takes_one_seed_per_head():
    codes, labels = _separable_codes(20, seed=32)
    for seed in (4, [4, 5, 6], [[4, 1]]):
        with pytest.raises(ValueError, match="2 stacked heads take a list of 2 seeds"):
            head_train(np.stack([codes, codes]), labels, epochs=2, seed=seed)
    with pytest.raises(ShapeError):
        head_train(codes[None, None], labels, epochs=2, seed=[4])


def test_non_finite_head_gradient_stops_training_before_any_update(monkeypatch):
    # finite features this large overflow the forward pass, and with it
    # the first gradient (at 1e200 every gradient stays finite)
    codes, labels = _separable_codes(40, seed=22)
    codes = np.where(codes > 0, 1e308, -1e308)
    steps = []

    def spy(state, params, grads):
        before = [arr.copy() for _, arr in params]
        try:
            adam_step(state, params, grads)
        finally:
            steps.append((state.t, all(np.array_equal(b, arr)
                                       for b, (_, arr) in zip(before, params))))

    monkeypatch.setattr(classifiers, "adam_step", spy)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingError, match="non-finite gradient"):
        head_train(codes, labels, epochs=5, seed=23)
    assert steps == [(0, True)]


def test_head_training_is_deterministic():
    codes, labels = _separable_codes(100, seed=7)
    h1 = head_train(codes, labels, epochs=50, seed=8)
    h2 = head_train(codes, labels, epochs=50, seed=8)
    for (_, a), (_, b) in zip(h1.parameters(), h2.parameters()):
        assert np.array_equal(a, b)


_EPOCH_FAULTS = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from rcodean.classifiers import head_train
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 64, 1000))
    y = rng.integers(0, 2, size=(1000, 4))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    head_train(x, y, epochs=int(sys.argv[1]), seed=[[0, 2000 + s] for s in range(10)])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


def test_head_training_makes_its_epoch_arrays_once():
    # every array an epoch writes is made before the first epoch, so in a
    # fresh process more epochs touch no new pages; arrays made afresh each
    # epoch cost thousands of minor page faults an epoch at this size, as
    # glibc hands the top of the heap back and takes it again
    pytest.importorskip("resource")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}

    def faults(epochs):
        run = subprocess.run([sys.executable, "-c", _EPOCH_FAULTS, str(epochs)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return int(run.stdout)

    assert faults(30) - faults(10) < 2000


def test_head_outputs_are_independent_probabilities():
    head = build_mlp_head(5, 3, seed=9)
    out = head_score(head, Mat(np.random.default_rng(10).normal(size=(5, 7))))
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
    assert np.array_equal(head_score(head, Mat(codes)), head_score(again, Mat(codes)))


def test_head_gradients_match_finite_differences(monkeypatch):
    rng = np.random.default_rng(13)
    seed = 14
    head = build_mlp_head(5, 2, seed=seed)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 2, size=(2, 4)).astype(np.float64)
    h = 1e-6
    while True:  # keep relu pre-activations away from kinks
        zs = [np.abs(z).min() for _, z, _ in _reference_head_forward(head, x)]
        if min(zs[:2]) > 1e-3:
            break
        seed = int(rng.integers(2**31))
        head = build_mlp_head(5, 2, seed=seed)
    def loss():
        # mean binary cross-entropy summed over attributes
        p = _reference_head_forward(head, x)[-1][2]
        return float(-np.mean(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p), axis=0)))

    # the gradient of head_train's first epoch, taken at the head it draws
    # from the seed, which is this head, as its six arrays flat one after another
    steps = []
    monkeypatch.setattr(classifiers, "adam_step",
                        lambda state, params, grads: steps.append(grads["head"].copy()))
    head_train(x, y.T, epochs=1, seed=seed)
    [flat_grad] = steps
    sizes = [arr.size for _, arr in head.parameters()]
    grads = dict(zip([name for name, _ in head.parameters()],
                     np.split(flat_grad, np.cumsum(sizes)[:-1])))
    for name, arr in head.parameters():
        flat = arr.reshape(-1)
        g = grads[name]
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss()
            flat[i] = orig - h
            down = loss()
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


def _trained_forest():
    rng = np.random.default_rng(23)
    x = rng.uniform(size=(150, 5))
    y = (x[:, :2].sum(axis=1) > 1.0).astype(np.int64).reshape(-1, 1)
    y = np.hstack([y, rng.integers(0, 2, size=(150, 1))])
    return forest_train(x, y, trees_per_attr=8, max_depth=5, seed=24)


def _forest_of(trees, n_features):
    """The forest of ``trees``, indexed [attribute][tree] with the same
    count per attribute, their nodes copied into one table."""
    flat = [tree for per_attr in trees for tree in per_attr]
    nodes = Tree(*(np.concatenate([getattr(tree, f.name) for tree in flat])
                   for f in dataclasses.fields(Tree)))
    sizes = np.array([[len(tree.feature) for tree in per_attr] for per_attr in trees])
    return Forest(nodes, sizes, n_features)


def _mixed_depth_forest():
    """Per attribute a deep tree, stumps and a single leaf: walks that end
    at every depth from 0 to the deepest tree's."""
    rng = np.random.default_rng(29)
    x = rng.uniform(size=(300, 5))
    y = rng.integers(0, 2, size=(300, 2))
    grown = [forest_train(x, labels, trees_per_attr=2, max_depth=depth, seed=30)
             for labels, depth in ((y, 14), (y, 1), (np.ones_like(y), 6))]
    trees = [[tree for forest in grown for tree in forest.trees[a]] for a in range(2)]
    assert [len(tree.feature) for tree in trees[0]][-2:] == [1, 1]
    forest = _forest_of(trees, n_features=5)
    assert forest.table.depth == 14
    return forest


@pytest.fixture(scope="module")
def small_bundle():
    """A trained bundle of k=3 and three trees per attribute: its forest
    reads 30 features."""
    ds = gen_synthetic(110, 3, seed=3, splits=split_by_counts((60, 30, 20)))
    cfg = PipelineConfig(l=8, epochs=1, batch_size=32, head_epochs=5, weight_steps=5,
                         forest_trees=3, svm_epochs=1, seed=1)
    return train_full(ds, cfg)[0]


def _loaded_forest_deeper_than_training_grows(bundle, tmp_path):
    """A bundle's forest with one tree swapped for a valid chain five levels
    deeper than the depth training grows (8), read by ``load_bundle``."""
    path = tmp_path / "model.rcbn"
    save_bundle(bundle, path)
    rng = np.random.default_rng(31)
    depth = 13
    rows = []
    # node 2 * level has a leaf on its left and the next level on its right
    for level in range(depth):
        rows += [[rng.integers(0, 30), rng.uniform(0.0, 0.3), 2 * level + 1, 2 * level + 2,
                  0.5], [-1, 0.0, -1, -1, rng.uniform()]]
    rows.append([-1, 0.0, -1, -1, 1.0])
    mutate = replace_tree(1, 2, rows)
    forest = load_bundle(rewrite_bundle(path, tmp_path / "deep.rcbn", mutate)).forest
    assert forest.n_features == 30 and forest.table.depth == depth
    return forest


def test_forest_prediction_matches_tree_walk_oracle(small_bundle, tmp_path):
    forests = {"trained": _trained_forest(), "mixed depths": _mixed_depth_forest(),
               "loaded deeper than training grows": _loaded_forest_deeper_than_training_grows(
                   small_bundle, tmp_path)}
    for name, forest in forests.items():
        probes = np.random.default_rng(23).uniform(size=(100, forest.n_features))
        # leaf probabilities averaged as a (trees, n) array, one walk per
        # (tree, row): numpy sums a (trees, 1) block in another order than a
        # (trees, 100) one, and both must be matched bit for bit
        for batch in [*np.split(probes, len(probes)), probes]:
            walked = np.array([[[_walk_tree(t, row) for row in batch] for t in per_attr]
                               for per_attr in forest.trees])
            expected = np.stack([np.mean(w, axis=0) for w in walked], axis=1)
            assert np.array_equal(forest_predict_proba(forest, batch), expected), name


def _tie_heavy(n, n_feat, seed):
    """Features rounded to 2 decimals beside a constant column."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(size=(n, n_feat)), 2)
    x[:, 1] = 0.25
    y = rng.integers(0, 2, size=(n, 2))
    return x, y


def _assert_trees_match_oracle(x, y, trees, depth, seed):
    forest = forest_train(x, y, trees_per_attr=trees, max_depth=depth, seed=seed)
    oracle = reference_forest(x, y, trees_per_attr=trees, max_depth=depth, seed=seed)
    for per_attr, ref_per_attr in zip(forest.trees, oracle, strict=True):
        for tree, ref in zip(per_attr, ref_per_attr, strict=True):
            for name, ref_values in ref.items():
                values = getattr(tree, name)
                assert values.dtype == ref_values.dtype
                assert np.array_equal(values, ref_values), name
    return forest


def _many_tree_sizes():
    rng = np.random.default_rng(45)
    x = rng.uniform(size=(150, 7))
    return x, (x[:, :1] + 0.4 * rng.uniform(size=(150, 1)) > 0.7).astype(np.int64)


def _four_attributes():
    rng = np.random.default_rng(47)
    x = np.round(rng.uniform(size=(90, 12)), 2)
    return x, np.column_stack([x[:, 0] > 0.5, x[:, 1] + x[:, 2] > 1.0,
                               rng.integers(0, 2, size=90), np.ones(90)]).astype(np.int64)


@pytest.mark.parametrize("x,y,trees,depth,sizes", [
    (*_tie_heavy(300, 9, 40), 6, 6, 1),
    (*_tie_heavy(60, 4, 41), 6, 6, 1),
    # rounded to one decimal: many nodes of two or three samples whose
    # candidates all tie, so they stay leaves with mixed labels
    (np.round(np.random.default_rng(42).uniform(size=(120, 3)), 1),
     np.random.default_rng(43).integers(0, 2, size=(120, 1)), 6, 6, 1),
    (np.array([[0.5, 1.0], [0.5, 2.0]]), np.array([[0], [1]]), 6, 6, 1),
    (np.array([[0.5, 1.0], [0.5, 1.0], [0.7, 1.0]]), np.array([[0], [1], [1]]), 6, 6, 1),
    (np.ones((10, 4)), np.array([[0], [1]] * 5), 6, 6, 1),
    # trees that finish at different steps of the lockstep growth: the
    # ones still growing must keep their own draws and numbering
    (*_many_tree_sizes(), 20, 9, 10),
    # four attributes, one of them single-class
    (*_four_attributes(), 5, 7, 1),
], ids=["rounded-2dp", "rounded-small", "rounded-1dp", "n2", "n3", "no-split",
        "many-sizes", "k4"])
def test_forest_trees_match_per_feature_oracle(x, y, trees, depth, sizes):
    """``sizes``: the least number of distinct tree sizes the case grows."""
    forest = _assert_trees_match_oracle(x, y, trees=trees, depth=depth, seed=44)
    assert len(np.unique(forest.sizes)) >= sizes


def test_forest_trees_scored_in_small_blocks_match_per_feature_oracle(monkeypatch):
    """Blocks of 150 (sample, candidate) pairs: a root of 120 samples has
    3 candidates of 120 pairs each, one block apiece, so a step spans many
    blocks and a node is larger than a block; small nodes share blocks."""
    seen = []
    score_block = classifiers._score_block

    def spy(ranked, rows, labels, start, size, n_pos, feature):
        seen.append(size.sum())
        return score_block(ranked, rows, labels, start, size, n_pos, feature)

    monkeypatch.setattr(classifiers, "FOREST_BLOCK", 150)
    monkeypatch.setattr(classifiers, "_score_block", spy)
    rng = np.random.default_rng(49)
    x = rng.uniform(size=(120, 9))
    y = np.column_stack([x[:, 0] > 0.3, rng.integers(0, 2, size=120)]).astype(np.int64)
    _assert_trees_match_oracle(x, y, trees=4, depth=5, seed=50)
    assert max(seen) <= 150 and 120 in seen and min(seen) < 120


def test_forest_split_between_adjacent_doubles_leaves_no_empty_child(small_bundle,
                                                                     tmp_path):
    """The midpoint of two adjacent doubles rounds to the upper one; as a
    threshold it would send every sample left and leave a leaf of no
    samples, with a NaN probability that no bundle may hold."""
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    upper = np.arange(40) % 3 == 0
    x = np.where(upper[:, None], b, a) * np.ones((1, 30))
    y = np.repeat(upper[:, None], 3, axis=1).astype(np.int64)
    forest = forest_train(x, y, trees_per_attr=3, max_depth=3, seed=1)
    internal = forest.nodes.feature >= 0
    assert internal.any() and (forest.nodes.threshold[internal] == a).all()
    assert np.isfinite(forest.nodes.prob).all()
    path = tmp_path / "adjacent.rcbn"
    save_bundle(dataclasses.replace(small_bundle, forest=forest), path)
    loaded = load_bundle(path).forest
    for name in ("feature", "threshold", "left", "right", "prob"):
        assert np.array_equal(getattr(loaded.nodes, name), getattr(forest.nodes, name)), name


@pytest.mark.parametrize("y", [np.full((10, 1), 2), np.full((10, 1), 0.5),
                               np.full((10, 1), -1), np.full((10, 1), np.nan)],
                         ids=["two", "half", "minus-one", "nan"])
def test_forest_refuses_non_binary_labels(y):
    x = np.random.default_rng(51).uniform(size=(10, 3))
    with pytest.raises(ValueError, match="binary"):
        forest_train(x, y, trees_per_attr=2, max_depth=2, seed=0)


def test_forest_refuses_nan_features():
    x = np.random.default_rng(52).uniform(size=(10, 3))
    x[4, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        forest_train(x, np.arange(10).reshape(-1, 1) % 2, trees_per_attr=2, max_depth=2)


def test_forest_memory_does_not_grow_with_tree_count():
    """8x the trees keep 8x the stacked sample indices (64 trees of 1000
    rows, 0.5 MB) but score their candidates in the same bounded blocks:
    the traced peak may grow by half, not 8-fold."""
    rng = np.random.default_rng(53)
    x = rng.uniform(size=(1000, 64))
    y = rng.integers(0, 2, size=(1000, 2))
    peaks = {}
    for trees in (4, 32):
        tracemalloc.start()
        try:
            forest_train(x, y, trees_per_attr=trees, max_depth=8, seed=1)
            peaks[trees] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] < 1.5 * peaks[4], peaks


def test_forest_learns_separable_rule():
    rng = np.random.default_rng(25)
    x = rng.uniform(size=(400, 8))
    y = (x[:, 3] > 0.5).astype(np.int64).reshape(-1, 1)
    forest = forest_train(x, y, trees_per_attr=16, max_depth=6, seed=26)
    test_x = rng.uniform(size=(200, 8))
    test_y = (test_x[:, 3] > 0.5).astype(np.int64)
    acc = ((forest_predict_proba(forest, test_x)[:, 0] > PROB_THRESHOLD) == test_y).mean()
    assert acc >= 0.95


def test_forest_requires_two_samples():
    with pytest.raises(TrainingError):
        forest_train(np.ones((1, 3)), np.ones((1, 1)), trees_per_attr=32, seed=0)


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
    acc = ((svm_decision(svm, tx)[:, 0] > 0) == ty[:, 0]).mean()
    assert acc >= 0.99


def test_svm_one_class_degenerate():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(50, 3))
    y = np.ones((50, 1), dtype=np.int64)
    svm = svm_train(x, y, epochs=30, reg=1e-3, seed=33)
    assert (svm_decision(svm, x)[:, 0] > 0).all()


def test_svm_feature_scaling_preserves_signs_at_tiny_reg():
    x, y = _blobs(200, seed=34)
    a = svm_train(x, y, epochs=40, reg=1e-6, seed=35)
    b = svm_train(10.0 * x, y, epochs=40, reg=1e-6, seed=35)
    signs_a = svm_decision(a, x)[:, 0] > 0
    signs_b = svm_decision(b, 10.0 * x)[:, 0] > 0
    assert np.array_equal(signs_a, signs_b)


def test_svm_deterministic():
    x, y = _blobs(120, seed=36)
    a = svm_train(x, y, epochs=10, reg=1e-3, seed=37)
    b = svm_train(x, y, epochs=10, reg=1e-3, seed=37)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


@pytest.mark.parametrize("n,k,epochs,reg,seed", [
    (60, 1, 5, 1e-3, 54),
    (200, 8, 3, 1e-4, 55),
    (2, 3, 4, 1e-4, 56),
    (2, 1, 1, 0.1, 57),
    (80, 4, 2, 3.0, 58),
], ids=["k1", "k8", "n2", "n2-k1", "reg3"])
def test_svm_matches_per_attribute_oracle(n, k, epochs, reg, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6))
    y = rng.integers(0, 2, size=(n, k))
    y[:, 0] = 1  # a single-class attribute
    svm = svm_train(x, y, epochs=epochs, reg=reg, seed=seed)
    weights, biases = reference_svm(x, y, epochs=epochs, reg=reg, seed=seed)
    assert svm.weights.shape == weights.shape and svm.biases.shape == biases.shape
    assert svm.weights.tobytes() == weights.tobytes()
    assert svm.biases.tobytes() == biases.tobytes()


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
