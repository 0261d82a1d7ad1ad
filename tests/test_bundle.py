import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bundle_rewrite import rewrite_bundle
from fuzzing import FUZZ, time_bound
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


def test_reloaded_forest_has_the_trained_node_table(trained):
    _, bundle, path = trained
    trained_table, loaded_table = bundle.forest.table, load_bundle(path).forest.table
    for name in ("feature", "threshold", "left", "right", "prob", "roots"):
        a, b = getattr(trained_table, name), getattr(loaded_table, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert trained_table.depth == loaded_table.depth
    assert trained_table.roots.shape == (3, 3)


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
    lambda header, chunks: header["config"].update(k=float("inf")),
    lambda header, chunks: header["config"].update(forest_trees=1.5),
    lambda header, chunks: header["config"].update(attribute_names=["a"]),
    lambda header, chunks: header["arrays"][0].update(shape=[float("inf"), 1]),
    lambda header, chunks: header["config"].update(forest_trees=True),
    lambda header, chunks: header["config"].update(alpha=float("nan")),
    lambda header, chunks: header["config"].update(svm_reg="1e-4"),
], ids=["no-config", "no-arrays", "arrays-not-list", "entry-no-shape",
        "no-net-bias", "no-projection", "no-head-weight", "no-tree", "no-svm-bias",
        "extra-array", "k-inf", "trees-fractional", "names-short", "shape-inf",
        "trees-bool", "alpha-nan", "svm-reg-string"])
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


def _replace_tree(rows):
    """Swap forest.attr0.tree0 for a tree of the given [feature, threshold,
    left, right, prob] rows; ``N`` in a row stands for the feature count."""
    def mutate(header, chunks):
        entries = {e["name"]: e for e in header["arrays"]}
        n_features = entries["svm.weights"]["shape"][1]
        arr = np.array([[n_features if v == "N" else v for v in row] for row in rows],
                       dtype="<f8")
        entries["forest.attr0.tree0"]["shape"] = list(arr.shape)
        chunks["forest.attr0.tree0"] = struct.pack("<Q", arr.size) + arr.tobytes()
    return mutate


_LEAF0, _LEAF1 = [-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 1.0]


def test_well_formed_replacement_tree_loads(trained, tmp_path):
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "ok.rcbn",
                       _replace_tree([[0, 0.5, 1, 2, 0.5], _LEAF0, _LEAF1]))
    tree = load_bundle(p).forest.trees[0][0]
    assert tree.left.tolist() == [1, -1, -1] and tree.right.tolist() == [2, -1, -1]


@pytest.mark.parametrize("rows", [
    [[0, 0.5, 0, 0, 0.5], _LEAF0, _LEAF1],
    [[0, 0.5, 1, 3, 0.5], _LEAF0, _LEAF1],
    [["N", 0.5, 1, 2, 0.5], _LEAF0, _LEAF1],
    [[-2, 0.5, 1, 2, 0.5], _LEAF0, _LEAF1],
    [[0, 0.5, 1, 2, 0.5], [-1, 0.0, 2, -1, 0.0], _LEAF1],
    [[0, 0.5, 1.5, 2, 0.5], _LEAF0, _LEAF1],
    [[0, 0.5, 1, 2, 0.5], _LEAF0, [-1, 0.0, -1, -1, 1.5]],
    [[0, 0.5, 1, 2, 0.5, 0.0]],
    [[0, 0.5, 1, 1, 0.5], _LEAF0, _LEAF1],
    [[0, 0.5, 1, 2, 0.5], [0, 0.5, 3, 4, 0.5], [0, 0.5, 3, 4, 0.5], _LEAF0, _LEAF1],
    [[0, 0.5, 1, 2, 0.5], _LEAF0, _LEAF1, _LEAF0],
], ids=["self-loop", "child-past-end", "feature-too-large", "feature-below-leaf",
        "leaf-with-child", "fractional-child", "prob-above-one", "six-columns",
        "shared-child", "shared-subtree", "unreachable-node"])
def test_malformed_tree_is_format_error(trained, tmp_path, rows):
    # load only: at the parent a self-loop loads and then hangs in predict
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "bad.rcbn", _replace_tree(rows))
    with pytest.raises(FormatError, match="forest.attr0.tree0"):
        load_bundle(p)


@pytest.mark.parametrize("name", ["svm.weights", "forest.attr0.tree0", "net0.enc1.weight",
                                  "head2.layer0.bias"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_array_is_format_error(trained, tmp_path, name, value):
    def mutate(header, chunks):
        chunk = bytearray(chunks[name])
        chunk[8:16] = struct.pack("<d", value)
        chunks[name] = bytes(chunk)

    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "bad.rcbn", mutate)
    with pytest.raises(FormatError, match=f"{name} has non-finite"):
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


# ---------------------------------------------------------------------------
# fuzzing: damaged files must raise FormatError, and only that, in bounded time

LOAD_SECONDS = 5.0
LOADED_CONFIG_FIELDS = ["alpha", "beta", "lam", "k", "attribute_names", "skip_layout",
                        "forest_trees", "svm_reg"]

# boundary values first, then arbitrary JSON; integers stay small enough
# that a loader sizing something by one cannot exhaust memory in the bound
JSON_VALUES = st.sampled_from(
    [float("inf"), float("nan"), -1, 0, True, 10**6, -1e300, "", [], {}]
) | st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _load_or_format_error(path):
    """Load within the time bound; FormatError is the only refusal allowed."""
    with time_bound(LOAD_SECONDS):
        try:
            return load_bundle(path)
        except FormatError:
            return None


@FUZZ
@given(data=st.data())
def test_truncated_bundle_is_format_error(trained, data):
    _, _, path = trained
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    bad = path.parent / "fuzz-truncated.rcbn"
    bad.write_bytes(raw[:cut])
    with time_bound(LOAD_SECONDS), pytest.raises(FormatError):
        load_bundle(bad)


@FUZZ
@given(data=st.data())
def test_byte_mutated_bundle_is_format_error(trained, data):
    _, _, path = trained
    raw = bytearray(path.read_bytes())
    for pos in data.draw(st.sets(st.integers(0, len(raw) - 1), min_size=1, max_size=4)):
        raw[pos] ^= data.draw(st.integers(1, 255))
    bad = path.parent / "fuzz-mutated.rcbn"
    bad.write_bytes(bytes(raw))
    with time_bound(LOAD_SECONDS), pytest.raises(FormatError):
        load_bundle(bad)


@FUZZ
@given(data=st.data())
def test_recrc_byte_mutated_bundle_loads_or_is_format_error(trained, data):
    # edits behind a fresh checksum, mostly in the header, where the bytes
    # are structure rather than weights
    _, _, path = trained
    raw = path.read_bytes()
    body = bytearray(raw[:-4])
    header_end = 8 + struct.unpack("<I", raw[4:8])[0]
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, header_end + 64) | st.integers(0, len(body) - 1))
        body[pos] = data.draw(st.integers(0, 255))
    bad = path.parent / "fuzz-recrc.rcbn"
    bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    _load_or_format_error(bad)


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("target", ["top", "config", "entry-name", "entry-shape", "count"])
def test_recrc_header_edit_loads_or_is_format_error(trained, target, data):
    # one header value replaced by arbitrary JSON, or one array's count
    # prefix replaced, re-written with a fresh checksum
    _, _, path = trained
    raw = path.read_bytes()
    original = json.loads(raw[8:8 + struct.unpack("<I", raw[4:8])[0]])
    index = data.draw(st.integers(0, len(original["arrays"]) - 1))
    if target == "count":
        count = data.draw(st.integers(0, 2**64 - 1))
    else:
        value = data.draw(JSON_VALUES)
        # config edits go to the fields that loading reads
        key = data.draw(st.sampled_from(sorted(original) if target == "top"
                                        else LOADED_CONFIG_FIELDS))

    def mutate(header, chunks):
        entry = header["arrays"][index]
        if target == "top":
            header[key] = value
        elif target == "config":
            header["config"][key] = value
        elif target == "entry-name":
            entry["name"] = value
        elif target == "entry-shape":
            entry["shape"] = value
        else:
            chunks[entry["name"]] = struct.pack("<Q", count) + chunks[entry["name"]][8:]

    try:
        bad = rewrite_bundle(path, path.parent / "fuzz-header.rcbn", mutate)
    except (KeyError, TypeError, AttributeError):
        return  # the edit left no manifest the helper can lay chunks out by
    _load_or_format_error(bad)
