import logging

import numpy as np
import pytest

from rcodean.classifiers import zero_mlp_head
from rcodean.data import gen_synthetic, split_by_counts
from rcodean.errors import ConfigError, InputError, ShapeError
from rcodean.network import build_rcodean
from rcodean.pipeline import (IMAGE_SIZE, N_SOURCES, PATCH_OFFSETS, PATCH_SIZE,
                              PatchWeights, PipelineConfig,
                              build_stage2_features, evaluate,
                              learn_patch_weights, predict, predict_batch,
                              preprocess, score_images, tessellate_batch,
                              train_full, train_stage1)


def _tiny_cfg(seed=0, jobs=1):
    return PipelineConfig(l=8, epochs=2, batch_size=32, head_epochs=40,
                          weight_steps=80, forest_trees=4, forest_depth=4,
                          svm_epochs=5, seed=seed, jobs=jobs)


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
                         weight_steps=300, forest_trees=8, forest_depth=5,
                         svm_epochs=10, seed=1)
    bundle, _ = train_full(ds, cfg)
    return ds, bundle


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_identity_on_64():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(64, 64)).astype(np.float64)
    out = preprocess(img)
    assert np.array_equal(out.a, img / 255.0)


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
    assert out.shape == (64, 64)
    assert np.allclose(out.a, 64.0 / 255.0)


# ---------------------------------------------------------------------------
# tessellation


def _sources(img):
    """The ten source columns of one 64x64 image, via the batch path."""
    return [m[:, 0] for m in tessellate_batch(np.asarray(img)[None])]


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


def test_every_pixel_in_one_to_four_patches():
    counts = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=int)
    for r, c in PATCH_OFFSETS:
        counts[r:r + PATCH_SIZE, c:c + PATCH_SIZE] += 1
    assert counts.min() >= 1
    assert counts.max() <= 4


# ---------------------------------------------------------------------------
# scoring and weights


def test_score_images_zero_heads_give_half():
    models = [(build_rcodean(d, 6, seed=s), zero_mlp_head(6, 3))
              for s, d in enumerate([1024] * 9 + [4096])]
    img = preprocess(np.random.default_rng(17).integers(0, 256, size=(64, 64)))
    scores = score_images(models, img.a[None])
    assert scores.shape == (1, 10, 3)
    assert np.array_equal(scores, np.full((1, 10, 3), 0.5))


def test_learn_patch_weights_identical_sources_stay_uniform():
    rng = np.random.default_rng(19)
    base = rng.uniform(0.2, 0.8, size=(300, 1, 2))
    scores = np.repeat(base, N_SOURCES, axis=1)
    labels = (base[:, 0, :] > 0.5).astype(np.int64)
    pw = learn_patch_weights(scores, labels)
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
    pw = learn_patch_weights(scores, labels)
    assert int(np.argmax(pw.values[0])) == 3
    assert int(np.argmax(pw.values[1])) == 7


def test_learn_patch_weights_single_class_uniform(caplog):
    rng = np.random.default_rng(29)
    scores = rng.uniform(0.3, 0.7, size=(50, N_SOURCES, 1))
    labels = np.ones((50, 1), dtype=np.int64)
    with caplog.at_level(logging.WARNING, logger="rcodean"):
        pw = learn_patch_weights(scores, labels)
    assert np.array_equal(pw.values, np.ones((1, N_SOURCES)))
    assert any("single class" in r.message for r in caplog.records)


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
    feats = build_stage2_features(scores, pw)
    assert feats.shape == (40,)
    assert np.array_equal(feats, scores.reshape(-1))


def test_build_stage2_features_masking_and_order():
    scores = np.arange(N_SOURCES * 2, dtype=np.float64).reshape(N_SOURCES, 2) / 100.0
    values = np.zeros((2, N_SOURCES))
    values[0, 3] = 1.0
    values[1, 0] = 1.0
    pw = PatchWeights(values)
    feats = build_stage2_features(scores, pw)
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
        feats = build_stage2_features(scores, PatchWeights(w)).reshape(N_SOURCES, 1)
        assert int(np.argmax(feats[:, 0])) == p_star


# ---------------------------------------------------------------------------
# end-to-end plumbing on a tiny trained bundle


def test_train_stage1_rejects_empty_split():
    ds = gen_synthetic(20, 2, seed=41, splits={
        "ae-train": np.arange(20), "clf-train": np.arange(0),
        "test": np.arange(0)})
    with pytest.raises(ConfigError):
        train_stage1(ds, _tiny_cfg())


def test_tiny_bundle_structure(tiny_bundle):
    ds, bundle, histories = tiny_bundle
    assert len(bundle.nets) == N_SOURCES
    assert len(bundle.heads) == N_SOURCES
    assert bundle.nets[0].input_dim == 1024
    assert bundle.nets[9].input_dim == 4096
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


def test_scores_bounded_open_interval(tiny_bundle):
    ds, bundle, _ = tiny_bundle
    stack = np.stack([preprocess(ds.image(i)).a for i in range(10)])
    from rcodean.pipeline import score_images
    scores = score_images(bundle.models(), stack)
    assert ((scores > 0.0) & (scores < 1.0)).all()


def test_pipeline_deterministic_and_parallel_equivalent():
    ds = gen_synthetic(90, 2, seed=43, splits=split_by_counts((50, 25, 15)))
    b1, h1 = train_full(ds, _tiny_cfg(seed=7))
    b2, h2 = train_full(ds, _tiny_cfg(seed=7))
    b3, _ = train_full(ds, _tiny_cfg(seed=7, jobs=4))
    imgs = np.stack([preprocess(ds.image(int(i))).a for i in ds.splits["test"]])
    p1 = predict_batch(b1, imgs)[0]
    p2 = predict_batch(b2, imgs)[0]
    p3 = predict_batch(b3, imgs)[0]
    assert np.array_equal(p1, p2)
    assert np.array_equal(p1, p3)
    for e1, e2 in zip(h1[0], h2[0]):
        assert e1.total == e2.total


def test_overlapping_source_scores_high_on_planted_attribute(medium_bundle):
    ds, bundle = medium_bundle
    test_idx = ds.splits["test"]
    from rcodean.pipeline import score_images, _preprocessed_stack
    scores = score_images(bundle.models(), _preprocessed_stack(ds, test_idx))
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
