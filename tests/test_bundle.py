import struct

import numpy as np
import pytest

from bundle_rewrite import rewrite_bundle
from rcodean.bundle import load_bundle, save_bundle
from rcodean.data import gen_synthetic, split_by_counts
from rcodean.errors import ConfigError, CorruptionError, FormatError, VersionError
from rcodean.pipeline import (PipelineConfig, evaluate, predict_batch,
                              preprocess, train_full)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    ds = gen_synthetic(110, 3, seed=3, splits=split_by_counts((60, 30, 20)))
    cfg = PipelineConfig(l=8, epochs=2, batch_size=32, head_epochs=30,
                         weight_steps=60, forest_trees=3, forest_depth=3,
                         svm_epochs=4, seed=1)
    bundle, _ = train_full(ds, cfg)
    path = tmp_path_factory.mktemp("bundle") / "model.rcbn"
    save_bundle(bundle, path)
    return ds, bundle, path


def test_round_trip_identical_predictions(trained):
    ds, bundle, path = trained
    loaded = load_bundle(path)
    rng = np.random.default_rng(5)
    probes = np.stack([preprocess(ds.image(i)).a for i in rng.integers(0, ds.n, 25)])
    bits_a, conf_a, _ = predict_batch(bundle, probes)
    bits_b, conf_b, _ = predict_batch(loaded, probes)
    assert np.array_equal(bits_a, bits_b)
    assert np.array_equal(conf_a, conf_b)


def test_round_trip_preserves_config_and_weights(trained):
    _, bundle, path = trained
    loaded = load_bundle(path)
    assert loaded.config == bundle.config
    assert np.array_equal(loaded.patch_weights.values, bundle.patch_weights.values)
    for a, b in zip(bundle.nets, loaded.nets):
        for (name_a, arr_a), (name_b, arr_b) in zip(a.parameters(), b.parameters()):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)
    assert np.array_equal(bundle.svm.weights, loaded.svm.weights)
    for ta, tb in zip(bundle.forest.trees[0], loaded.forest.trees[0]):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)


def test_flipped_payload_byte_is_detected(trained):
    _, _, path = trained
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x40
    bad = path.parent / "corrupt.rcbn"
    bad.write_bytes(bytes(data))
    with pytest.raises(CorruptionError, match="checksum"):
        load_bundle(bad)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.rcbn"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError, match="magic"):
        load_bundle(p)


def test_unknown_version_rejected(trained, tmp_path):
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "future.rcbn",
                       lambda header, chunks: header.update(format_version="999"))
    with pytest.raises(VersionError, match="999"):
        load_bundle(p)


def _drop_array(name):
    def mutate(header, chunks):
        header["arrays"] = [e for e in header["arrays"] if e["name"] != name]
    return mutate


def _add_array(header, chunks):
    header["arrays"].append({"name": "net0.extra", "shape": [1, 1]})
    chunks["net0.extra"] = struct.pack("<Q", 1) + struct.pack("<d", 0.5)


@pytest.mark.parametrize("mutate", [
    lambda header, chunks: header.pop("config"),
    lambda header, chunks: header.pop("arrays"),
    lambda header, chunks: header.update(arrays={}),
    lambda header, chunks: header["arrays"][0].pop("shape"),
    _drop_array("net3.enc2.bias"),
    _drop_array("net9.skip.enc1->dec3.projection"),
    _drop_array("head4.layer1.weight"),
    _drop_array("forest.attr1.tree2"),
    _drop_array("svm.biases"),
    _add_array,
], ids=["no-config", "no-arrays", "arrays-not-list", "entry-no-shape",
        "no-net-bias", "no-projection", "no-head-weight", "no-tree", "no-svm-bias",
        "extra-array"])
def test_malformed_bundle_is_format_error(trained, tmp_path, mutate):
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "bad.rcbn", mutate)
    with pytest.raises(FormatError):
        load_bundle(p)


@pytest.mark.parametrize("field", ["alpha", "beta", "lam", "k", "attribute_names",
                                   "skip_layout", "forest_trees", "svm_reg"])
def test_missing_config_field_is_format_error(trained, tmp_path, field):
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "bad.rcbn",
                       lambda header, chunks: header["config"].pop(field))
    with pytest.raises(FormatError, match=field):
        load_bundle(p)


def test_tree_count_comes_from_config(trained, tmp_path):
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "bad.rcbn",
                       lambda header, chunks: header["config"].update(forest_trees=2))
    with pytest.raises(FormatError, match="unexpected arrays"):
        load_bundle(p)


def test_loaded_arrays_are_private_and_writeable(trained):
    _, _, path = trained
    loaded = load_bundle(path)
    arrays = [arr for model in [*loaded.nets, *loaded.heads, loaded.stage2_mlp]
              for _, arr in model.parameters()]
    arrays += [loaded.patch_weights.values, loaded.svm.weights, loaded.svm.biases]
    arrays += [getattr(tree, field) for per_attr in loaded.forest.trees
               for tree in per_attr
               for field in ("feature", "threshold", "left", "right", "prob")]
    assert all(arr.flags.writeable for arr in arrays)
    for i, a in enumerate(arrays):
        assert not any(np.may_share_memory(a, b) for b in arrays[i + 1:])


def test_config_guard_on_mismatched_dataset(trained):
    ds, _, path = trained
    loaded = load_bundle(path)
    other = gen_synthetic(30, 2, seed=9, splits=split_by_counts((10, 10, 10)))
    with pytest.raises(ConfigError, match="k="):
        evaluate(loaded, other, "test")
