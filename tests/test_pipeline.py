import dataclasses
import logging
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (per_source_models, reference_bilinear_resize,
                     reference_score_images, reference_tessellate_batch)
from rcodean import pipeline
from rcodean.bundle import _stored_arrays, load_bundle, save_bundle
from rcodean.classifiers import assemble_mlp_head, build_mlp_head
from rcodean.data import gen_synthetic, load_attr_list, save_gray_image, split_by_counts
from rcodean.errors import ConfigError, InputError, NumericError, ShapeError
from rcodean.network import ENCODER_IDS, build_rcodean
from rcodean.pipeline import (IMAGE_SIZE, N_SOURCES, PATCH_OFFSETS, PATCH_SIZE,
                              SCORE_BLOCK, PatchWeights, PipelineConfig, SourceModels,
                              build_stage2_features, evaluate,
                              learn_patch_weights, predict, predict_batch,
                              preprocess, score_images, score_split, tessellate_batch,
                              train_autoencoder, train_full, train_stage1,
                              _bilinear_resize, _preprocessed_stack, _resize_plan)
from rcodean.tensor import Mat


def _from_nets(nets, heads):
    """The ``SourceModels`` of ten nets and their heads, source s at index
    s, built as stage 1 builds them: the patch encoders' arrays and the
    heads' stacked, source s as slice s, and the face encoder's as they
    are."""
    def stacked(arrays):
        return {name: np.stack([a[name] for a in arrays]) for name in arrays[0]}

    encoders = [{name: arr for name, arr in net.parameters()
                 if name.split(".")[0] in ENCODER_IDS} for net in nets]
    return SourceModels.from_parts(stacked(encoders[:-1]), encoders[-1],
                                   stacked([dict(head.parameters()) for head in heads]))


def _tiny_cfg(seed=0):
    return PipelineConfig(l=8, epochs=2, batch_size=32, head_epochs=40,
                          weight_steps=80, forest_trees=4, svm_epochs=5, seed=seed)


@pytest.fixture(scope="module")
def tiny_bundle():
    ds = gen_synthetic(130, 3, seed=5, splits=split_by_counts((80, 30, 20)))
    bundle, histories = train_full(ds, _tiny_cfg())
    return ds, bundle, histories


@pytest.fixture(scope="module")
def medium_bundle():
    """Trained well enough for score quality to matter, still fast."""
    ds = gen_synthetic(400, 4, seed=1, splits=split_by_counts((250, 100, 50)))
    cfg = PipelineConfig(l=32, epochs=10, batch_size=64, head_epochs=200,
                         weight_steps=300, forest_trees=8, svm_epochs=10, seed=1)
    bundle, _ = train_full(ds, cfg)
    return ds, bundle


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_identity_on_64():
    pixels = np.random.default_rng(0).integers(0, 256, size=(64, 64))
    for dtype in (np.float64, np.uint8):  # as the synthetic stack, as decoded
        img = pixels.astype(dtype)
        before = img.copy()
        out = preprocess(img)
        assert out.a.dtype == np.float64
        assert np.array_equal(out.a, pixels / 255.0)
        # scaled into a new array, never in the caller's
        assert img.dtype == dtype and np.array_equal(img, before)
        assert not np.shares_memory(out.a, img)


def test_preprocess_constant_downsample():
    img = np.full((128, 128), 128.0)
    out = preprocess(img)
    assert np.array_equal(out.a, np.full((64, 64), 128.0 / 255.0))


def _bilinear_oracle(img, oh, ow):
    """Textbook double-loop bilinear with half-pixel centers."""
    h, w = img.shape
    out = np.empty((oh, ow))
    for i in range(oh):
        for j in range(ow):
            y = min(max((i + 0.5) * h / oh - 0.5, 0.0), h - 1.0)
            x = min(max((j + 0.5) * w / ow - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            wy, wx = y - y0, x - x0
            top = (1 - wx) * img[y0, x0] + wx * img[y0, x1]
            bot = (1 - wx) * img[y1, x0] + wx * img[y1, x1]
            out[i, j] = (1 - wy) * top + wy * bot
    return out


def test_preprocess_matches_bilinear_oracle():
    rng = np.random.default_rng(7)
    img = np.add.outer(np.linspace(0, 120, 100), np.linspace(0, 80, 80))
    img += rng.uniform(0, 10, size=img.shape)
    out = preprocess(img)
    expected = _bilinear_oracle(img, 64, 64) / 255.0
    assert np.abs(out.a - expected).max() < 1e-12


@pytest.mark.parametrize("shape", [(218, 178), (128, 128), (100, 80), (64, 90),
                                   (20, 30), (8, 8), (8, 200)],
                         ids=["down-bench", "down-square", "down-non-square",
                              "mixed", "up-non-square", "up-minimum", "minimum-side"])
def test_resize_plan_matches_per_image_resize_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
    expected = reference_bilinear_resize(pixels.astype(np.float64), 64, 64)
    # as decoded, as float, and as a column-major float (a transpose's
    # layout), whose row-major flat order is not its memory order
    column_major = np.asfortranarray(pixels, dtype=np.float64)
    assert not column_major.flags.c_contiguous
    for img in (pixels, pixels.astype(np.float64), column_major):
        for _ in range(2):  # a fresh plan, then the cached one
            assert np.array_equal(_bilinear_resize(img, 64, 64), expected)
        assert np.array_equal(preprocess(img).a, expected / 255.0)


def test_preprocess_makes_no_whole_image_float_copy():
    img = np.random.default_rng(6).integers(0, 256, size=(2000, 1500)).astype(np.uint8)
    tracemalloc.start()
    try:
        preprocess(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below the 3 MB image itself, one eighth of its 24 MB float64 copy
    assert peak < img.nbytes


def test_resize_plan_is_read_only():
    for arr in _resize_plan(218, 178, 64, 64):
        assert not arr.flags.writeable


def test_preprocess_rejects_tiny_images():
    with pytest.raises(InputError):
        preprocess(np.zeros((7, 64)))
    with pytest.raises(InputError):
        preprocess(np.zeros((64, 5)))


def test_preprocess_rejects_color():
    with pytest.raises(InputError):
        preprocess(np.zeros((64, 64, 3)))


def test_preprocess_upsamples_small_crops():
    out = preprocess(np.full((8, 8), 64.0))
    assert out.a.shape == (64, 64)
    assert np.allclose(out.a, 64.0 / 255.0)


# ---------------------------------------------------------------------------
# tessellation


def _sources(img):
    """The ten source columns of one 64x64 image, via the batch path."""
    patches, face = tessellate_batch(np.asarray(img)[None])
    return [*(m[:, 0] for m in patches), face[:, 0]]


def test_tessellate_constant_image():
    sources = _sources(np.full((64, 64), 0.25))
    assert len(sources) == N_SOURCES
    for v in sources[:9]:
        assert v.shape == (1024,)
        assert np.allclose(v, 0.25)
    assert sources[9].shape == (4096,)


def test_tessellate_single_bright_pixel_origin():
    img = np.zeros((64, 64))
    img[0, 0] = 1.0
    nonzero = [s for s, v in enumerate(_sources(img)) if np.count_nonzero(v)]
    assert nonzero == [0, 9]  # patch 1 and the full face


def test_tessellate_overlap_membership_16_16():
    img = np.zeros((64, 64))
    img[16, 16] = 1.0
    nonzero = [s for s, v in enumerate(_sources(img)) if np.count_nonzero(v)]
    assert nonzero == [0, 1, 3, 4, 9]  # patches 1, 2, 4, 5 and the full face


def test_tessellate_wrong_shape():
    with pytest.raises(ShapeError):
        tessellate_batch(np.zeros((32, 64))[None])


def test_tessellate_patch_contents_are_window_exact():
    rng = np.random.default_rng(11)
    img = rng.uniform(size=(64, 64))
    sources = _sources(img)
    for s, (r, c) in enumerate(PATCH_OFFSETS):
        window = img[r:r + PATCH_SIZE, c:c + PATCH_SIZE].reshape(-1)
        assert np.array_equal(sources[s], window)
    assert np.array_equal(sources[9], img.reshape(-1))


@pytest.mark.parametrize("n", [1, 5, 130])  # 130 spans three transpose blocks
def test_tessellate_batch_matches_per_source_copies(n):
    images = np.random.default_rng(13).uniform(size=(n, 64, 64))
    patches, face = tessellate_batch(images)
    assert patches.shape == (9, 1024, n) and face.shape == (4096, n)
    assert patches.flags.c_contiguous and face.flags.c_contiguous
    expected = reference_tessellate_batch(images)
    assert all(np.array_equal(m, e) for m, e in zip([*patches, face], expected))


def test_every_pixel_in_one_to_four_patches():
    counts = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=int)
    for r, c in PATCH_OFFSETS:
        counts[r:r + PATCH_SIZE, c:c + PATCH_SIZE] += 1
    assert counts.min() >= 1
    assert counts.max() <= 4


# ---------------------------------------------------------------------------
# scoring and weights


def test_score_images_zero_heads_give_half():
    heads = [build_mlp_head(6, 3) for _ in range(N_SOURCES)]
    for head in heads:
        for _, arr in head.parameters():
            arr[:] = 0.0
    models = _from_nets([build_rcodean(d, 6, seed=s)
                         for s, d in enumerate([1024] * 9 + [4096])], heads)
    img = preprocess(np.random.default_rng(17).integers(0, 256, size=(64, 64)))
    scores = score_images(models, img.a[None])
    assert scores.shape == (1, 10, 3)
    assert np.array_equal(scores, np.full((1, 10, 3), 0.5))


# n = 1..16 reach OpenBLAS's small-n and matrix-vector kernels, 64 and 200
# its blocked ones
SCORE_SIZES = (1, 2, 5, 7, 15, 16, 64, 200)


def _probe_stack(n):
    ds = gen_synthetic(n, 3, seed=19, splits=split_by_counts((n, 0, 0)))
    return np.stack([preprocess(ds.image(i)).a for i in range(n)])


def test_stacked_scores_equal_per_source_loop_bitwise(tiny_bundle, tmp_path):
    _, bundle, _ = tiny_bundle
    save_bundle(bundle, tmp_path / "model.rcbn")
    loaded = load_bundle(tmp_path / "model.rcbn")
    probes = _probe_stack(max(SCORE_SIZES))
    pairs = per_source_models(bundle.sources)
    for n in SCORE_SIZES:
        expected = reference_score_images(pairs, probes[:n])
        for models in (bundle.sources, loaded.sources):
            assert np.array_equal(score_images(models, probes[:n]), expected), n


def test_stacked_scores_equal_per_source_loop_bitwise_at_l64():
    # untrained nets and heads at the benchmark's code size
    pairs = [(build_rcodean(d, 64, seed=s), build_mlp_head(64, 4, seed=100 + s))
             for s, d in enumerate([1024] * 9 + [4096])]
    probes = _probe_stack(max(SCORE_SIZES))
    expected = [reference_score_images(pairs, probes[:n]) for n in SCORE_SIZES]
    models = _from_nets(*zip(*pairs))
    for n, scores in zip(SCORE_SIZES, expected):
        assert np.array_equal(score_images(models, probes[:n]), scores), n


@pytest.fixture(scope="module")
def l64_split():
    """Untrained models at the benchmark's code size and a 2100-image
    split, its records in index order."""
    pairs = [(build_rcodean(d, 64, seed=s), build_mlp_head(64, 4, seed=100 + s))
             for s, d in enumerate([1024] * 9 + [4096])]
    ds = gen_synthetic(2100, 3, seed=19, splits=split_by_counts((2100, 0, 0)))
    return _from_nets(*zip(*pairs)), ds, ds.splits["ae-train"]


def test_blocked_scores_equal_whole_stack_bitwise(l64_split):
    # one image, exactly one block, and whole blocks only (the bench's
    # clf-train split), at the default BLAS threads
    models, ds, idx = l64_split
    for n in (1, SCORE_BLOCK, 2000):
        whole = score_images(models, _preprocessed_stack(ds, idx[:n]))
        assert np.array_equal(score_split(models, ds, idx[:n]), whole), n


def test_blocked_scores_with_a_short_last_block_agree_to_1e15(l64_split):
    # a narrower last block may pick another OpenBLAS kernel for its
    # columns than the whole batch does: the last bit may differ
    models, ds, idx = l64_split
    for n in (SCORE_BLOCK + 1, 2100):
        whole = score_images(models, _preprocessed_stack(ds, idx[:n]))
        assert np.abs(score_split(models, ds, idx[:n]) - whole).max() <= 1e-15, n


def test_scoring_peak_does_not_grow_with_the_split(l64_split):
    models, ds, idx = l64_split
    peaks = {}
    for n in (512, 2048):
        tracemalloc.start()
        try:
            score_split(models, ds, idx[:n])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # only the (n, 10, k) scores grow; the whole-stack pass grew by about
    # 130 KB per image
    extra_scores = (2048 - 512) * N_SOURCES * 4 * 8
    assert peaks[2048] <= peaks[512] + extra_scores + (1 << 20)


def test_path_backed_dataset_keeps_no_pixels_after_scoring(tmp_path):
    rng = np.random.default_rng(31)
    n, shape = 40, (218, 178)
    lines = [str(n), "a b"]
    for i in range(n):
        save_gray_image(tmp_path / f"{i}.rcim", rng.integers(0, 256, size=shape))
        lines.append(f"{i}.rcim 1 -1")
    (tmp_path / "list_attr.txt").write_text("\n".join(lines) + "\n")
    ds = load_attr_list(tmp_path / "list_attr.txt", tmp_path, split_fractions=(0.0, 1.0, 0.0))
    models = _from_nets(
        [build_rcodean(d, 6, seed=s) for s, d in enumerate([1024] * 9 + [4096])],
        [build_mlp_head(6, 2, seed=s) for s in range(N_SOURCES)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scores = score_split(models, ds, ds.splits["clf-train"])
        del scores
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # each record is decoded when read and dropped after its preprocess:
    # less than one decoded image outlives the pass
    assert kept < shape[0] * shape[1] * 8


def test_model_set_holds_each_weight_once(tiny_bundle, tmp_path):
    # encoders and heads only, each weight in one array: the stacks, and
    # the face encoder's own layers
    _, bundle, _ = tiny_bundle
    save_bundle(bundle, tmp_path / "model.rcbn")
    for models in (bundle.sources, load_bundle(tmp_path / "model.rcbn").sources):
        assert isinstance(models, SourceModels)
        patches, face, heads = models.patch_encoders, models.face_encoder, models.heads
        assert [layer.weight.shape for layer in patches.layers.values()] == [
            (9, 8, 1024), (9, 8, 8), (9, 8, 8)]
        assert [layer.weight.shape for layer in face.layers.values()] == [(8, 4096), (8, 8), (8, 8)]
        assert [layer.weight.shape for layer in heads.layers] == [
            (10, 4, 8), (10, 2, 4), (10, 3, 2)]
        arrays = [arr for layer in [*patches.layers.values(), *face.layers.values(), *heads.layers]
                  for arr in (layer.weight, layer.bias)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_non_finite_pixel_in_batch_is_numeric_error(tiny_bundle):
    _, bundle, _ = tiny_bundle
    for value in (np.nan, np.inf):
        stack = _probe_stack(4)
        stack[2, 40, 7] = value
        with pytest.raises(NumericError):
            predict_batch(bundle, stack)


def test_non_finite_stage2_output_is_numeric_error(tiny_bundle):
    _, bundle, _ = tiny_bundle
    arrays = {name: arr.copy() for name, arr in bundle.stage2_mlp.parameters()}
    arrays["layer0.weight"][:] = 1e308  # finite, but the products overflow
    broken = dataclasses.replace(bundle, stage2_mlp=assemble_mlp_head(arrays))
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        predict_batch(broken, _probe_stack(2))


def test_learn_patch_weights_identical_sources_stay_uniform():
    rng = np.random.default_rng(19)
    base = rng.uniform(0.2, 0.8, size=(300, 1, 2))
    scores = np.repeat(base, N_SOURCES, axis=1)
    labels = (base[:, 0, :] > 0.5).astype(np.int64)
    pw = learn_patch_weights(scores, labels, steps=500)
    spread = pw.values.max(axis=1) - pw.values.min(axis=1)
    assert (spread < 1e-3).all()


def test_learn_patch_weights_planted_informative_source():
    rng = np.random.default_rng(23)
    n, k = 400, 2
    labels = rng.integers(0, 2, size=(n, k))
    scores = rng.uniform(0.35, 0.65, size=(n, N_SOURCES, k))
    # source 3 alone predicts attribute 0; source 7 alone predicts attribute 1
    scores[:, 3, 0] = np.where(labels[:, 0] == 1, 0.9, 0.1)
    scores[:, 7, 1] = np.where(labels[:, 1] == 1, 0.9, 0.1)
    pw = learn_patch_weights(scores, labels, steps=500)
    assert int(np.argmax(pw.values[0])) == 3
    assert int(np.argmax(pw.values[1])) == 7


def test_learn_patch_weights_single_class_uniform():
    rng = np.random.default_rng(29)
    scores = rng.uniform(0.3, 0.7, size=(50, N_SOURCES, 1))
    labels = np.ones((50, 1), dtype=np.int64)
    pw = learn_patch_weights(scores, labels, steps=500)
    assert np.array_equal(pw.values, np.ones((1, N_SOURCES)))


def test_learn_patch_weights_names_a_diverging_attribute():
    rng = np.random.default_rng(31)
    scores = rng.uniform(0.1, 0.9, size=(40, N_SOURCES, 2))
    labels = np.column_stack([np.ones(40), rng.integers(0, 2, 40)])
    # attribute 0 has one class and is skipped; attribute 1 diverges
    with pytest.raises(NumericError, match="attribute 1 diverged"):
        learn_patch_weights(scores, labels, steps=20, lr=1e300)


def test_patch_weights_contract():
    pw_values = np.array([[0.2, 0.4, 1.0, 0.0, 0.5, 0.1, 0.3, 0.9, 0.8, 0.6]])
    pw = PatchWeights(pw_values)
    assert pw.values.shape == (1, N_SOURCES)
    with pytest.raises(ConfigError):
        PatchWeights(pw_values * 0.5)  # rowwise max must be 1
    with pytest.raises(ConfigError):
        PatchWeights(-pw_values)


def test_build_stage2_features_identity_weighting():
    rng = np.random.default_rng(31)
    scores = rng.uniform(size=(N_SOURCES, 4))
    pw = PatchWeights(np.ones((4, N_SOURCES)))
    feats = build_stage2_features(scores[None], pw)
    assert feats.shape == (1, 40)
    assert np.array_equal(feats[0], scores.reshape(-1))


def test_build_stage2_features_masking_and_order():
    scores = np.arange(N_SOURCES * 2, dtype=np.float64).reshape(N_SOURCES, 2) / 100.0
    values = np.zeros((2, N_SOURCES))
    values[0, 3] = 1.0
    values[1, 0] = 1.0
    pw = PatchWeights(values)
    feats = build_stage2_features(scores[None], pw)[0]
    # feature layout is source-major: entry p*k + a
    expected = np.zeros(20)
    expected[3 * 2 + 0] = scores[3, 0]
    expected[0 * 2 + 1] = scores[0, 1]
    assert np.array_equal(feats, expected)


def test_weighting_preserves_argmax_when_source_holds_both_maxima():
    rng = np.random.default_rng(37)
    for _ in range(50):
        scores = rng.uniform(size=(N_SOURCES, 1))
        w = rng.uniform(size=(1, N_SOURCES))
        p_star = rng.integers(0, N_SOURCES)
        scores[p_star, 0] = scores.max() + 0.1
        w[0, p_star] = 1.0
        w[0] /= w[0].max()
        feats = build_stage2_features(scores[None], PatchWeights(w))[0].reshape(N_SOURCES, 1)
        assert int(np.argmax(feats[:, 0])) == p_star


# ---------------------------------------------------------------------------
# end-to-end plumbing on a tiny trained bundle


def test_train_stage1_rejects_empty_split():
    ds = gen_synthetic(20, 2, seed=41, splits={
        "ae-train": np.arange(20), "clf-train": np.arange(0),
        "test": np.arange(0)})
    with pytest.raises(ConfigError):
        train_stage1(ds, _tiny_cfg())


def test_train_stage1_trims_the_heap_once_its_nets_are_freed(monkeypatch):
    nets, dead_at_trim = [], []

    def build(*args, **kwargs):
        net = build_rcodean(*args, **kwargs)
        nets.append(weakref.ref(net))
        return net

    monkeypatch.setattr(pipeline, "build_rcodean", build)
    monkeypatch.setattr(pipeline, "_malloc_trim",
                        lambda: lambda pad: dead_at_trim.append([r() is None for r in nets]))
    ds = gen_synthetic(60, 2, seed=41, splits=split_by_counts((30, 20, 10)))
    train_stage1(ds, _tiny_cfg())
    # once before the threads start, once after every net is gone
    assert dead_at_trim == [[], [True] * N_SOURCES]


def test_train_autoencoder_builds_no_mat(monkeypatch):
    made = []
    init = Mat.__init__

    def counted(obj, *args, **kwargs):
        made.append(1)
        init(obj, *args, **kwargs)

    monkeypatch.setattr(Mat, "__init__", counted)
    X = np.random.default_rng(43).uniform(size=(12, 40))
    history = train_autoencoder(build_rcodean(12, 4, seed=43), X, _tiny_cfg(), seed=43)
    assert len(history) == 3
    assert made == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_autoencoder_refuses_non_finite_input(value):
    X = np.random.default_rng(44).uniform(size=(12, 40))
    X[5, 17] = value
    with pytest.raises(NumericError):
        train_autoencoder(build_rcodean(12, 4, seed=44), X, _tiny_cfg(), seed=44)


def test_train_autoencoder_trains_under_the_configs_loss_weights():
    # the net holds no loss weights: with beta 0 and lam 0.5 in the config,
    # every recorded total is the Euclidean term plus half the L1 term
    cfg = dataclasses.replace(_tiny_cfg(), beta=0.0, lam=0.5)
    X = np.random.default_rng(45).uniform(size=(12, 40))
    history = train_autoencoder(build_rcodean(12, 4, seed=45), X, cfg, seed=45)
    assert abs(history[0].cos) > 0.1  # a cosine term that beta 1 would have added
    for stats in history:
        assert stats.total == pytest.approx(stats.euc + 0.5 * stats.reg, rel=1e-12)


def test_tiny_bundle_structure(tiny_bundle):
    ds, bundle, histories = tiny_bundle
    models = bundle.sources
    assert models.patch_encoders.input_dim == 1024
    assert models.patch_encoders.layers["enc1"].weight.shape[0] == N_SOURCES - 1
    assert models.face_encoder.input_dim == 4096
    assert models.face_encoder.layers["enc1"].weight.ndim == 2
    assert models.heads.layers[0].weight.shape[0] == N_SOURCES
    assert bundle.k == 3
    assert len(histories) == N_SOURCES
    assert all(len(h) == _tiny_cfg().epochs + 1 for h in histories)


def test_predict_is_pure(tiny_bundle):
    ds, bundle, _ = tiny_bundle
    img = ds.image(int(ds.splits["test"][0]))
    bits1, conf1 = predict(bundle, img)
    bits2, conf2 = predict(bundle, img)
    assert np.array_equal(bits1, bits2)
    assert np.array_equal(conf1, conf2)
    assert bits1.shape == (3,) and conf1.shape == (3,)
    assert ((conf1 >= 0.0) & (conf1 <= 1.0)).all()
    # the benchmark's serving check: each one-image predict, on the raw
    # image as a file holds it, matches its predict_batch row in bits and,
    # since a one-column product sums in another order, to 1e-12 in
    # confidence
    raws = [reference_bilinear_resize(ds.image(int(i)), 218, 178) for i in ds.splits["test"]]
    raws[0] = ds.image(int(ds.splits["test"][0]))  # one already 64x64
    bits, conf, _ = predict_batch(bundle, np.stack([preprocess(raw).a for raw in raws]))
    for raw, row_bits, row_conf in zip(raws, bits, conf):
        one_bits, one_conf = predict(bundle, raw)
        assert np.array_equal(one_bits, row_bits)
        assert np.abs(one_conf - row_conf).max() <= 1e-12


def test_scores_bounded_open_interval(tiny_bundle):
    ds, bundle, _ = tiny_bundle
    stack = np.stack([preprocess(ds.image(i)).a for i in range(10)])
    from rcodean.pipeline import score_images
    scores = score_images(bundle.sources, stack)
    assert ((scores > 0.0) & (scores < 1.0)).all()


def test_pipeline_deterministic_and_parallel_equivalent(monkeypatch):
    # every array and loss history is the same at any stage-1 thread count,
    # and with the caller's BLAS on one thread or on two
    ds = gen_synthetic(90, 2, seed=43, splits=split_by_counts((50, 25, 15)))
    blas = pipeline._openblas_threads()
    caller = blas[0]() if blas else None
    runs = []
    try:
        for blas_threads in (1, 2):
            if blas:
                blas[1](blas_threads)
            for workers in (1, 2, 10):
                monkeypatch.setattr(pipeline, "_stage1_workers", lambda: workers)
                bundle, histories = train_full(ds, _tiny_cfg(seed=7))
                if blas:  # the caller's count is back
                    assert blas[0]() == blas_threads
                runs.append((bundle.config, _stored_arrays(bundle), histories))
    finally:
        if blas:
            blas[1](caller)
    config, arrays, histories = runs[0]
    assert len(histories) == N_SOURCES
    for other_config, other_arrays, other_histories in runs[1:]:
        assert other_config == config
        assert list(other_arrays) == list(arrays)
        for name, arr in arrays.items():
            assert np.array_equal(other_arrays[name], arr), name
        assert other_histories == histories


def test_stage1_trains_its_heads_in_one_call_a_thread_on_slices_of_sources(monkeypatch):
    # after the autoencoders, each stage-1 thread trains the heads of one
    # contiguous slice of sources as one stacked head; the joined slices
    # are bit for bit one stacked call on the whole (10, l, n) stack
    ds = gen_synthetic(90, 2, seed=43, splits=split_by_counts((50, 25, 15)))
    cfg = dataclasses.replace(_tiny_cfg(seed=7), epochs=1)
    head_train = pipeline.head_train
    calls = []

    def spy(features, labels, **kwargs):
        calls.append((threading.current_thread(), features, kwargs["seed"]))
        return head_train(features, labels, **kwargs)

    monkeypatch.setattr(pipeline, "head_train", spy)
    whole = None
    for workers in (1, 2, 10):
        monkeypatch.setattr(pipeline, "_stage1_workers", lambda: workers)
        calls.clear()
        models, _ = train_stage1(ds, cfg)
        assert len(calls) == workers
        assert all(thread is not threading.current_thread() for thread, _, _ in calls)
        calls.sort(key=lambda call: call[2][0])
        assert [seed for _, _, part in calls for seed in part] == \
            [[7, 2000 + s] for s in range(N_SOURCES)]
        stack = np.concatenate([features for _, features, _ in calls])
        assert stack.shape == (N_SOURCES, cfg.l, 50)
        if whole is None:
            whole = head_train(stack, ds.labels[ds.splits["ae-train"]],
                               epochs=cfg.head_epochs,
                               seed=[[7, 2000 + s] for s in range(N_SOURCES)])
        assert [name for name, _ in models.heads.parameters()] == \
            [name for name, _ in whole.parameters()]
        for (name, arr), (_, expected) in zip(models.heads.parameters(), whole.parameters()):
            assert np.array_equal(arr, expected), (workers, name)


def test_single_class_attributes_are_logged_once_per_split(monkeypatch, caplog):
    # attribute 1 is always present in ae-train and always absent in
    # clf-train: one warning names each split, though two threads train heads
    ds = gen_synthetic(90, 2, seed=43, splits=split_by_counts((50, 25, 15)))
    ds.labels[ds.splits["ae-train"], 1] = 1
    ds.labels[ds.splits["clf-train"], 1] = 0
    monkeypatch.setattr(pipeline, "_stage1_workers", lambda: 2)
    with caplog.at_level(logging.WARNING, logger="rcodean"):
        train_full(ds, dataclasses.replace(_tiny_cfg(seed=7), epochs=1))
    single = [r.getMessage() for r in caplog.records if "single class" in r.getMessage()]
    assert single == ["attribute 1 has a single class in the ae-train split",
                      "attribute 1 has a single class in the clf-train split"]


def test_train_full_without_openblas_warns_once(monkeypatch, caplog):
    # no build exports these names, so the lookup finds no OpenBLAS; train_full
    # and the train_stage1 it calls both pin, and the lookup warns, once
    monkeypatch.setattr(pipeline, "_OPENBLAS_THREAD_SYMBOLS", (("no_get", "no_set"),))
    pipeline._openblas_threads.cache_clear()
    ds = gen_synthetic(90, 2, seed=43, splits=split_by_counts((50, 25, 15)))
    try:
        with caplog.at_level(logging.WARNING, logger="rcodean"):
            bundle, _ = train_full(ds, _tiny_cfg(seed=7))
    finally:
        pipeline._openblas_threads.cache_clear()  # the next lookup finds the real one
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1 and "OpenBLAS" in warnings[0].getMessage()
    assert bundle.patch_weights.values.shape == (2, N_SOURCES)


def test_train_stage1_pins_blas_to_one_thread(monkeypatch):
    # called on its own, stage 1 trains every autoencoder at one BLAS
    # thread, not on top of the caller's threads, and hands the caller's
    # count back
    blas = pipeline._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS to pin")
    get, set_ = blas
    seen = []
    train_autoencoder = pipeline.train_autoencoder

    def spy(*args, **kwargs):
        seen.append(get())
        return train_autoencoder(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_autoencoder", spy)
    ds = gen_synthetic(90, 2, seed=43, splits=split_by_counts((50, 25, 15)))
    caller = get()
    set_(2)
    try:
        train_stage1(ds, dataclasses.replace(_tiny_cfg(seed=7), epochs=1))
        assert get() == 2
    finally:
        set_(caller)
    assert seen == [1] * N_SOURCES


def test_overlapping_source_scores_high_on_planted_attribute(medium_bundle):
    ds, bundle = medium_bundle
    test_idx = ds.splits["test"]
    from rcodean.pipeline import score_images, _preprocessed_stack
    scores = score_images(bundle.sources, _preprocessed_stack(ds, test_idx))
    labels = ds.labels[test_idx]
    pos = labels[:, 0] == 1
    # patch 1 covers the planted top-left square outright
    assert scores[pos, 0, 0].mean() > 0.9


def test_featureless_input_predicts_absence_of_localized_attributes(medium_bundle):
    # a flat background-level image carries none of the planted primitives;
    # the pipeline should call the localized attributes absent, and do so
    # identically on repeated calls
    _, bundle = medium_bundle
    flat = np.full((64, 64), 80.0)
    bits1, _ = predict(bundle, flat)
    bits2, _ = predict(bundle, flat)
    assert np.array_equal(bits1, bits2)
    for localized in (0, 1, 3):
        assert bits1[localized] == 0


def test_evaluate_reports_and_k_guard(tiny_bundle):
    ds, bundle, _ = tiny_bundle
    report = evaluate(bundle, ds, "test")
    assert len(report.accuracy) == 3
    assert 0.0 <= report.mean_accuracy <= 1.0
    assert set(report.classifier_accuracy) == {"mlp", "forest", "svm"}
    other = gen_synthetic(30, 2, seed=47, splits=split_by_counts((10, 10, 10)))
    with pytest.raises(ConfigError):
        evaluate(bundle, other, "test")
    with pytest.raises(ConfigError):
        evaluate(bundle, ds, "validation")


def test_evaluate_refuses_other_attribute_names_before_scoring(tiny_bundle, monkeypatch):
    # k matches, but column a of the dataset is not what the bundle's
    # column a learned: other attributes, or the same ones in another order
    ds, bundle, _ = tiny_bundle
    monkeypatch.setattr(pipeline, "score_split", None)  # scoring would fail
    first, second, third = bundle.attribute_names
    for names, wrong in ((["a", "b", "c"], "'a'"), ([first, third, second], f"'{third}'")):
        other = dataclasses.replace(ds, names=names)
        with pytest.raises(ConfigError, match=wrong):
            evaluate(bundle, other, "test")
