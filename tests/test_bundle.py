import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bundle_rewrite import (get_array, replace_tree, rewrite_bundle, set_array,
                            write_version1_bundle)
from fuzzing import FUZZ, time_bound
from rcodean import classifiers
from rcodean.bundle import _manifest, _stored_arrays, load_bundle, save_bundle
from rcodean.classifiers import Forest
from rcodean.data import gen_synthetic, split_by_counts
from rcodean.errors import ConfigError, CorruptionError, FormatError, VersionError
from rcodean.pipeline import (PipelineConfig, evaluate, predict_batch,
                              preprocess, train_full)


def _train(l, k):
    ds = gen_synthetic(110, k, seed=3, splits=split_by_counts((60, 30, 20)))
    cfg = PipelineConfig(l=l, epochs=2, batch_size=32, head_epochs=30,
                         weight_steps=60, forest_trees=3, svm_epochs=4, seed=1)
    return ds, train_full(ds, cfg)[0]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    ds, bundle = _train(8, 3)
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


def test_bundle_recording_deleted_settings_loads(trained, tmp_path):
    # bundles trained before these settings were fixed record them in
    # their config; the loader ignores keys it does not check
    ds, _, path = trained
    deleted = {"lr": 1e-3, "patience": 5, "min_lr": 1e-6, "head_lr": 1e-2,
               "weight_lr": 1.0, "forest_depth": 8, "svm_reg": 1e-4}
    old = load_bundle(rewrite_bundle(path, tmp_path / "old.rcbn",
                                     lambda header, chunks: header["config"].update(deleted)))
    new = load_bundle(path)
    assert old.config == {**new.config, **deleted}
    probes = np.stack([preprocess(ds.image(i)).a for i in range(ds.n)])
    bits_old, conf_old, _ = predict_batch(old, probes)
    bits_new, conf_new, _ = predict_batch(new, probes)
    assert np.array_equal(bits_old, bits_new)
    assert conf_old.tobytes() == conf_new.tobytes()


def _model_arrays(bundle):
    """Every weight and bias prediction reads, in a fixed order."""
    models = bundle.sources
    layers = [*models.patch_encoders.layers.values(), *models.face_encoder.layers.values(),
              *models.heads.layers, *bundle.stage2_mlp.layers]
    return [arr for layer in layers for arr in (layer.weight, layer.bias)]


def test_round_trip_preserves_config_and_weights(trained):
    _, bundle, path = trained
    loaded = load_bundle(path)
    assert loaded.config == bundle.config
    assert np.array_equal(loaded.patch_weights.values, bundle.patch_weights.values)
    # the encoder and head stacks, the stage-2 MLP, the SVM and the forest
    for a, b in zip(_model_arrays(bundle), _model_arrays(loaded), strict=True):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert bundle.sources.patch_encoders.layers["enc1"].weight.shape == (9, 8, 1024)
    assert bundle.sources.face_encoder.layers["enc1"].weight.shape == (8, 4096)
    assert bundle.sources.heads.layers[2].weight.shape == (10, 3, 2)
    assert np.array_equal(bundle.svm.weights, loaded.svm.weights)
    assert np.array_equal(bundle.svm.biases, loaded.svm.biases)
    assert np.array_equal(bundle.forest.sizes, loaded.forest.sizes)
    for name in ("feature", "threshold", "left", "right", "prob"):
        a, b = getattr(bundle.forest.nodes, name), getattr(loaded.forest.nodes, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for ta, tb in zip(bundle.forest.trees[0], loaded.forest.trees[0]):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)


def test_manifest_holds_only_what_prediction_reads(trained):
    _, _, path = trained
    raw = path.read_bytes()
    header = json.loads(raw[8:8 + struct.unpack("<I", raw[4:8])[0]])
    names = [entry["name"] for entry in header["arrays"]]
    assert header["format_version"] == "2"
    assert not any(".dec" in name or "->dec" in name or "skip" in name for name in names)
    assert len(names) == 29
    assert {name.split(".")[0] for name in names} == {
        "patch_encoders", "face_encoder", "heads", "patch_weights", "stage2_mlp",
        "forest", "svm"}


def test_manifest_names_the_stored_arrays_in_order(trained):
    # each part states its arrays once; the config's manifest and a
    # bundle's arrays agree but for the forest's node count, the free size
    for bundle in (trained[1], _train(5, 2)[1]):
        stored = [(name, (-1, *arr.shape[1:]) if name == "forest.nodes" else arr.shape)
                  for name, arr in _stored_arrays(bundle).items()]
        assert list(_manifest(bundle.config).items()) == stored


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


def test_version_1_bundle_is_refused_with_retrain_message(tmp_path):
    # a well-formed file of the retired layout, whole autoencoders included
    with pytest.raises(VersionError, match="version 1 .*retrain"):
        load_bundle(write_version1_bundle(tmp_path / "v1.rcbn"))


def _drop_array(name):
    def mutate(header, chunks):
        header["arrays"] = [e for e in header["arrays"] if e["name"] != name]
    return mutate


def _add_array(header, chunks):
    header["arrays"].append({"name": "heads.extra", "shape": [1, 1]})
    chunks["heads.extra"] = struct.pack("<Q", 1) + struct.pack("<d", 0.5)


def _resize_arrays(prefix, edit):
    """Store every array named ``prefix...`` as ``edit`` leaves it, header
    shapes included, so that the edited arrays agree with each other."""
    def mutate(header, chunks):
        for name in [e["name"] for e in header["arrays"] if e["name"].startswith(prefix)]:
            set_array(header, chunks, name, edit(get_array(header, chunks, name)))
    return mutate


def _edit_skip_layout(edit):
    def mutate(header, chunks):
        config = header["config"]
        config["skip_layout"] = edit(config["skip_layout"])
    return mutate


@pytest.mark.parametrize("mutate", [
    lambda header, chunks: header.pop("config"),
    lambda header, chunks: header.pop("arrays"),
    lambda header, chunks: header.update(arrays={}),
    lambda header, chunks: header["arrays"][0].pop("shape"),
    _drop_array("patch_encoders.enc2.bias"),
    _drop_array("face_encoder.enc1.weight"),
    _drop_array("heads.layer1.weight"),
    _drop_array("forest.nodes"),
    _drop_array("svm.biases"),
    _add_array,
    # models whose shapes agree with each other but not with the config
    _resize_arrays("patch_encoders.", lambda arr: arr[:8]),
    _resize_arrays("heads.layer2.", lambda arr: np.concatenate([arr, arr[:, :1]], axis=1)),
    _resize_arrays("stage2_mlp.layer2.", lambda arr: arr[:2]),
    _resize_arrays("face_encoder.", lambda arr: arr[None]),
    _resize_arrays("forest.sizes", lambda arr: arr.reshape(-1)),
    lambda header, chunks: header["config"].update(k=float("inf")),
    lambda header, chunks: header["config"].update(forest_trees=1.5),
    lambda header, chunks: header["config"].update(attribute_names=["a"]),
    lambda header, chunks: header["arrays"][0].update(shape=[float("inf"), 1]),
    lambda header, chunks: header["config"].update(forest_trees=True),
    lambda header, chunks: header["config"].update(alpha=float("nan")),
    lambda header, chunks: header["config"].update(lam="1e-2"),
    # every recorded pipeline setting is checked as training checks it
    lambda header, chunks: header["config"].update(alpha=-1.0),
    lambda header, chunks: header["config"].update(epochs=0),
    # the encoders run the one trained layout, so a header that records
    # another one misstates the model
    _edit_skip_layout(lambda layout: []),
    _edit_skip_layout(lambda layout: [layout[0], *layout]),
    _edit_skip_layout(lambda layout: (layout * 20_000)[:20_000]),
], ids=["no-config", "no-arrays", "arrays-not-list", "entry-no-shape",
        "no-net-bias", "no-face-weight", "no-head-weight", "no-tree", "no-svm-bias",
        "extra-array", "patch-stack-of-8", "heads-k-plus-1", "stage2-k-minus-1",
        "face-as-stack", "sizes-flat", "k-inf", "trees-fractional", "names-short", "shape-inf",
        "trees-bool", "alpha-nan", "lam-string", "alpha-negative", "epochs-zero",
        "skip-layout-empty",
        "skip-layout-duplicate", "skip-layout-20000"])
def test_malformed_bundle_is_format_error(trained, tmp_path, mutate):
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "bad.rcbn", mutate)
    with pytest.raises(FormatError):
        load_bundle(p)


@pytest.mark.parametrize("field", ["alpha", "beta", "lam", "k", "attribute_names",
                                   "skip_layout", "forest_trees", "l"])
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
    with pytest.raises(FormatError, match="forest.sizes has shape"):
        load_bundle(p)


_LEAF0, _LEAF1 = [-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 1.0]


def test_well_formed_replacement_tree_loads(trained, tmp_path):
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "ok.rcbn",
                       replace_tree(0, 0, [[0, 0.5, 1, 2, 0.5], _LEAF0, _LEAF1]))
    forest = load_bundle(p).forest
    tree = forest.trees[0][0]
    assert tree.left.tolist() == [1, -1, -1] and tree.right.tolist() == [2, -1, -1]
    assert forest.sizes[0, 0] == 3 and forest.table.roots[0, 1] == 3


_MALFORMED_TREES = {
    "self-loop": [[0, 0.5, 0, 0, 0.5], _LEAF0, _LEAF1],
    "child-past-end": [[0, 0.5, 1, 3, 0.5], _LEAF0, _LEAF1],
    "feature-too-large": [["N", 0.5, 1, 2, 0.5], _LEAF0, _LEAF1],
    "feature-below-leaf": [[-2, 0.5, 1, 2, 0.5], _LEAF0, _LEAF1],
    "leaf-with-child": [[0, 0.5, 1, 2, 0.5], [-1, 0.0, 2, -1, 0.0], _LEAF1],
    "fractional-child": [[0, 0.5, 1.5, 2, 0.5], _LEAF0, _LEAF1],
    "prob-above-one": [[0, 0.5, 1, 2, 0.5], _LEAF0, [-1, 0.0, -1, -1, 1.5]],
    "six-columns": [[0, 0.5, 1, 2, 0.5, 0.0]],
    "shared-child": [[0, 0.5, 1, 1, 0.5], _LEAF0, _LEAF1],
    "shared-subtree": [[0, 0.5, 1, 2, 0.5], [0, 0.5, 3, 4, 0.5], [0, 0.5, 3, 4, 0.5], _LEAF0,
                       _LEAF1],
    "unreachable-node": [[0, 0.5, 1, 2, 0.5], _LEAF0, _LEAF1, _LEAF0],
}


@pytest.mark.parametrize("rows", list(_MALFORMED_TREES.values()), ids=list(_MALFORMED_TREES))
def test_malformed_tree_is_format_error(trained, tmp_path, rows):
    # load only: at the parent a self-loop loads and then hangs in predict.
    # Every tree shares the node table, so a six-column tree widens all of
    # it, and the table's shape is what is refused
    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "bad.rcbn", replace_tree(0, 0, rows))
    with pytest.raises(FormatError, match="forest.nodes has shape" if len(rows[0]) != 5
                       else "forest.attr0.tree0"):
        load_bundle(p)


@pytest.mark.parametrize("case", ["shared-subtree", "self-loop", "child-past-end"])
def test_forest_refuses_malformed_rows_before_its_depth_walk(case, monkeypatch):
    # the walk would visit a shared subtree once per path, loop on a
    # self-loop and index past the table
    def walk(*args):
        raise AssertionError("the depth walk ran on unchecked trees")

    monkeypatch.setattr(classifiers, "_tree_depth", walk)
    rows = np.array(_MALFORMED_TREES[case], dtype=np.float64)
    arrays = {"nodes": rows, "sizes": np.array([[len(rows)]], dtype=np.float64)}
    with time_bound(LOAD_SECONDS), pytest.raises(FormatError, match="forest.attr0.tree0"):
        Forest.from_arrays(arrays, n_features=1)


# attribute 0's three tree sizes, edited from the trained (a, b, c)
@pytest.mark.parametrize("sizes", [lambda a, b, c: [0, b, c], lambda a, b, c: [a - 1, b, c],
                                   lambda a, b, c: [a - 0.5, b + 0.5, c],
                                   lambda a, b, c: [-1, b, c + a + 1]],
                         ids=["empty-tree", "count-short", "fractional", "negative"])
def test_node_counts_that_do_not_fit_the_table_are_format_error(trained, tmp_path, sizes):
    def mutate(header, chunks):
        arr = get_array(header, chunks, "forest.sizes")
        arr[0] = sizes(*arr[0])
        set_array(header, chunks, "forest.sizes", arr)

    _, bundle, path = trained
    assert bundle.forest.sizes[0].min() > 1  # every tree of attribute 0 splits
    p = rewrite_bundle(path, tmp_path / "bad.rcbn", mutate)
    with pytest.raises(FormatError, match="forest.sizes"):
        load_bundle(p)


# each damaged model part, by its name in the model, and the stored stack
# and slice that hold it
_HOLDERS = {"svm.weights": ("svm.weights", 0), "forest.attr0.tree0": ("forest.nodes", 0),
            "net0.enc1.weight": ("patch_encoders.enc1.weight", 0),
            "head2.layer0.bias": ("heads.layer0.bias", 2)}


@pytest.mark.parametrize("name", list(_HOLDERS))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_array_is_format_error(trained, tmp_path, name, value):
    stored, index = _HOLDERS[name]

    def mutate(header, chunks):
        shape = next(e["shape"] for e in header["arrays"] if e["name"] == stored)
        at = 8 + 8 * index * int(np.prod(shape[1:]))  # the slice's first entry
        chunk = bytearray(chunks[stored])
        chunk[at:at + 8] = struct.pack("<d", value)
        chunks[stored] = bytes(chunk)

    _, _, path = trained
    p = rewrite_bundle(path, tmp_path / "bad.rcbn", mutate)
    with pytest.raises(FormatError, match=f"{stored} has non-finite"):
        load_bundle(p)


def test_loaded_arrays_are_private_and_writeable(trained):
    _, _, path = trained
    loaded = load_bundle(path)
    arrays = _model_arrays(loaded)
    arrays += [loaded.patch_weights.values, loaded.svm.weights, loaded.svm.biases,
               loaded.forest.sizes]
    arrays += [getattr(loaded.forest.nodes, field)
               for field in ("feature", "threshold", "left", "right", "prob")]
    assert all(arr.flags.writeable for arr in arrays)
    for i, a in enumerate(arrays):
        assert not any(np.may_share_memory(a, b) for b in arrays[i + 1:])


def test_deeply_nested_header_is_format_error(tmp_path):
    # json.loads raises RecursionError, not a JSONDecodeError, this deep
    header = b'{"config": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"
    body = b"RCBN" + struct.pack("<I", len(header)) + header
    path = tmp_path / "deep.rcbn"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(FormatError, match="unreadable header"):
        load_bundle(path)


def test_config_guard_on_mismatched_dataset(trained):
    ds, _, path = trained
    loaded = load_bundle(path)
    other = gen_synthetic(30, 2, seed=9, splits=split_by_counts((10, 10, 10)))
    with pytest.raises(ConfigError, match="k="):
        evaluate(loaded, other, "test")


# ---------------------------------------------------------------------------
# fuzzing: damaged files must raise FormatError, and only that, in bounded time

LOAD_SECONDS = 5.0
LOADED_CONFIG_FIELDS = ["alpha", "beta", "lam", "l", "k", "attribute_names", "skip_layout",
                        "forest_trees"]

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


@FUZZ
@given(data=st.data())
def test_recrc_stack_shape_edit_loads_or_is_format_error(trained, data):
    # one array re-stored whole at another shape, such as an 8-slice patch
    # stack or a heads stack whose k disagrees with the config: only the
    # forest's node count may differ from what the config implies, and the
    # node counts must then fit it
    _, _, path = trained
    raw = path.read_bytes()
    manifest = json.loads(raw[8:8 + struct.unpack("<I", raw[4:8])[0]])["arrays"]
    entry = data.draw(st.sampled_from(manifest))
    shape = list(entry["shape"])
    axis = data.draw(st.integers(0, len(shape)))
    i = min(axis, len(shape) - 1)
    edit = data.draw(st.sampled_from(["grow", "shrink", "insert", "drop"]))
    if edit == "grow":
        shape[i] += data.draw(st.integers(1, 3))
    elif edit == "shrink":
        shape[i] = data.draw(st.integers(0, shape[i]))
    elif edit == "insert":
        shape.insert(axis, data.draw(st.integers(1, 10)))
    elif len(shape) > 1:
        del shape[i]
    values = np.random.default_rng(0).uniform(size=shape)

    def mutate(header, chunks):
        set_array(header, chunks, entry["name"], values)

    _load_or_format_error(rewrite_bundle(path, path.parent / "fuzz-stack.rcbn", mutate))
