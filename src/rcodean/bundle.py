"""Binary persistence for trained bundles.

Layout: magic ``RCBN``, a u32-length-prefixed JSON header (format
version, full training config, array manifest), then every float64 array
in manifest order as a u64 entry count plus little-endian payload, and a
trailing CRC-32 of all preceding bytes. Forest trees ride along as
(n_nodes, 5) arrays of [feature, threshold, left, right, prob]; integer
fields round-trip exactly through float64.

A passing checksum does not make a file trusted: a non-finite array or a
malformed tree is a ``FormatError``. That is the only check the loaded
values get; the nets and heads use the arrays as they are.
"""

from __future__ import annotations

import json
import math
import mmap
import struct
import zlib

import numpy as np

from .classifiers import Forest, LinearSvm, Tree, assemble_mlp_head
from .errors import CorruptionError, FormatError, VersionError
from .network import CodeanParams, assemble_rcodean
from .pipeline import (BUNDLE_FORMAT_VERSION, ModelBundle, N_SOURCES,
                       PatchWeights, SourceModels, is_number)

BUNDLE_MAGIC = b"RCBN"


def _tree_to_array(tree: Tree) -> np.ndarray:
    return np.column_stack([tree.feature.astype(np.float64), tree.threshold,
                            tree.left.astype(np.float64),
                            tree.right.astype(np.float64), tree.prob])


def _tree_from_array(arr: np.ndarray) -> Tree:
    return Tree(feature=arr[:, 0].astype(np.int64), threshold=arr[:, 1].copy(),
                left=arr[:, 2].astype(np.int64), right=arr[:, 3].astype(np.int64),
                prob=arr[:, 4].copy())


def _check_trees(arrays: dict[str, np.ndarray], names: list[str],
                 n_features: int) -> None:
    """Raise ``FormatError`` unless every named tree is a tree in preorder,
    so a sample walked down it reaches a leaf within the tree's depth: an
    internal node has a feature in [0, n_features) and two children after
    it within its tree, a leaf has feature and children -1, every node but
    the root is the child of exactly one node, and every probability lies
    in [0, 1]. All trees are checked in one pass over their stacked nodes."""
    for name in names:
        shape = arrays[name].shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] != 5:
            raise FormatError(f"{name}: shape {shape} is not (n_nodes, 5)")
    sizes = np.array([arrays[name].shape[0] for name in names])
    ends = np.cumsum(sizes)
    nodes = np.concatenate([arrays[name] for name in names])
    start = np.repeat(ends - sizes, sizes)
    index = np.arange(len(nodes)) - start
    n_nodes = np.repeat(sizes, sizes)
    feature, left, right, prob = nodes[:, 0], nodes[:, 2], nodes[:, 3], nodes[:, 4]
    internal = ((feature >= 0) & (feature < n_features)
                & (left > index) & (left < n_nodes) & (right > index) & (right < n_nodes))
    leaf = (feature == -1) & (left == -1) & (right == -1)
    indices = nodes[:, [0, 2, 3]]
    whole = (indices == np.floor(indices)).all(axis=1)
    ok = (internal | leaf) & whole & (prob >= 0.0) & (prob <= 1.0)
    if ok.all():
        # the children are valid indices now; the forest's level-by-level
        # depth count would visit a node with two parents once per path.
        # A leaf's missing children are counted in one extra, last bin.
        parents = np.zeros(len(nodes) + 1, dtype=np.int64)
        for child in (left, right):
            parents += np.bincount(np.where(leaf, len(nodes), child + start).astype(np.int64),
                                   minlength=len(nodes) + 1)
        parents[ends - sizes] += 1  # a root has none
        ok = parents[:-1] == 1
    if not ok.all():
        bad = int(np.argmin(ok))
        tree = int(np.searchsorted(ends, bad, side="right"))
        raise FormatError(f"{names[tree]}: node {int(index[bad])} is not a leaf "
                          f"or an internal node of a preorder tree")


def _enumerate_arrays(bundle: ModelBundle) -> list[tuple[str, np.ndarray | Tree]]:
    """Every stored array by manifest name, in file order; forest trees
    stay ``Tree``s here and become (n_nodes, 5) arrays when written."""
    arrays: list[tuple[str, np.ndarray | Tree]] = []
    for s, net in enumerate(bundle.nets):
        for name, arr in net.parameters():
            arrays.append((f"net{s}.{name}", arr))
    for s, head in enumerate(bundle.heads):
        for name, arr in head.parameters():
            arrays.append((f"head{s}.{name}", arr))
    arrays.append(("patch_weights", bundle.patch_weights.values))
    for name, arr in bundle.stage2_mlp.parameters():
        arrays.append((f"stage2_mlp.{name}", arr))
    for a, per_attr in enumerate(bundle.forest.trees):
        for t, tree in enumerate(per_attr):
            arrays.append((f"forest.attr{a}.tree{t}", tree))
    arrays.append(("svm.weights", bundle.svm.weights))
    arrays.append(("svm.biases", bundle.svm.biases.reshape(-1, 1)))
    return arrays


def save_bundle(bundle: ModelBundle, path) -> None:
    arrays = [(name, _tree_to_array(arr) if isinstance(arr, Tree) else arr)
              for name, arr in _enumerate_arrays(bundle)]
    header = {
        "format_version": bundle.version,
        "config": bundle.config,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [BUNDLE_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes]
    for _, arr in arrays:
        chunks.append(struct.pack("<Q", arr.size))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").data)
    # streamed, so no copy of the whole file is ever held in memory
    crc = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(struct.pack("<I", crc))


# config fields that loading and prediction read
_CONFIG_FIELDS = ("alpha", "beta", "lam", "k", "attribute_names", "skip_layout",
                  "forest_trees", "svm_reg")


def _read_header(path, data: bytes) -> tuple[dict, int]:
    """The JSON header and the offset of the first array."""
    if len(data) < 12 or data[:4] != BUNDLE_MAGIC:
        raise FormatError(f"{path}: not a bundle file (bad magic)")
    if struct.unpack("<I", data[-4:])[0] != zlib.crc32(memoryview(data)[:-4]):
        raise CorruptionError(f"{path}: checksum mismatch")
    header_len = struct.unpack("<I", data[4:8])[0]
    if 8 + header_len > len(data) - 4:
        raise FormatError(f"{path}: header length {header_len} exceeds the file")
    try:
        header = json.loads(data[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported format version {version!r}")
    for key, kind in (("config", dict), ("arrays", list)):
        if not isinstance(header.get(key), kind):
            raise FormatError(f"{path}: header has no {key} {kind.__name__}")
    config = header["config"]
    missing = [f for f in _CONFIG_FIELDS if f not in config]
    if missing:
        raise FormatError(f"{path}: config lacks {', '.join(missing)}")
    # the counts that size the forest cannot exceed the arrays stored
    for name in ("k", "forest_trees"):
        value = config[name]
        if not (is_number(value, integral=True) and 1 <= value <= len(header["arrays"])):
            raise FormatError(f"{path}: config {name} {value!r} is not a count "
                              f"within the {len(header['arrays'])} stored arrays")
    for name in ("alpha", "beta", "lam", "svm_reg"):
        if not is_number(config[name]):
            raise FormatError(f"{path}: config {name} {config[name]!r} is not a finite number")
    names = config["attribute_names"]
    if not (isinstance(names, list) and len(names) == config["k"]
            and all(isinstance(n, str) for n in names)):
        raise FormatError(f"{path}: attribute_names is not a list of k names")
    return header, 8 + header_len


def _read_arrays(path, data: bytes, manifest: list, pos: int) -> dict[str, np.ndarray]:
    """Every manifest array as a read-only view of the file's bytes,
    checked once for finiteness; ``_assemble`` copies each once, into
    the array the bundle keeps."""
    end = len(data) - 4
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest:
        try:
            name, shape = entry["name"], tuple(int(n) for n in entry["shape"])
        except (KeyError, TypeError, ValueError, OverflowError):
            name = None
        if not isinstance(name, str):
            raise FormatError(f"{path}: malformed array entry {entry!r}")
        if pos + 8 > end:
            raise FormatError(f"{path}: truncated array table")
        count = struct.unpack("<Q", data[pos:pos + 8])[0]
        pos += 8
        if pos + count * 8 > end:
            raise FormatError(f"{path}: truncated payload for {name}")
        if min(shape, default=0) < 0 or math.prod(shape) != count:
            raise FormatError(f"{path}: array {name} count {count} "
                              f"does not match shape {shape}")
        if name in arrays:
            raise FormatError(f"{path}: array {name} appears twice")
        flat = np.frombuffer(data, dtype="<f8", count=count, offset=pos)
        if not np.isfinite(flat).all():
            raise FormatError(f"{path}: array {name} has non-finite entries")
        arrays[name] = flat.reshape(shape)
        pos += count * 8
    return arrays


def _owned(arr: np.ndarray) -> np.ndarray:
    """``arr`` where it is already the bundle's own (a slice of a stack),
    else a copy of the file's bytes it views."""
    return arr if arr.flags.writeable else arr.copy()


def _assemble(config: dict, arrays: dict[str, np.ndarray]) -> ModelBundle:
    """The bundle whose ``_enumerate_arrays`` names are the keys of
    ``arrays``, views of the file's bytes. The model set copies the
    stacked arrays into its stacks, and every other array is copied on
    its own, so each is copied once and no bundle array views the
    file's bytes."""
    groups: dict[str, dict[str, np.ndarray]] = {}
    for name, arr in arrays.items():
        group, _, rest = name.partition(".")
        groups.setdefault(group, {})[rest] = arr
    params = CodeanParams(alpha=config["alpha"], beta=config["beta"], lam=config["lam"])
    nets = [assemble_rcodean(groups[f"net{s}"], config["skip_layout"], params)
            for s in range(N_SOURCES)]
    heads = [assemble_mlp_head(groups[f"head{s}"]) for s in range(N_SOURCES)]
    sources = SourceModels(nets, heads)
    for layer in [*(layer for net in nets for layer in [*net.encoder, *net.decoder]),
                  *(layer for head in heads for layer in head.layers)]:
        layer.weight, layer.bias = _owned(layer.weight), _owned(layer.bias)
    for spec in (spec for net in nets for spec in net.skips):
        if spec.projection is not None:
            spec.projection = _owned(spec.projection)
    svm_weights = arrays["svm.weights"].copy()
    n_features = int(svm_weights.shape[1])
    tree_names = [[f"forest.attr{a}.tree{t}" for t in range(int(config["forest_trees"]))]
                  for a in range(int(config["k"]))]
    _check_trees(arrays, [name for row in tree_names for name in row], n_features)
    trees = [[_tree_from_array(arrays[name]) for name in row] for row in tree_names]
    stage2 = {name: arr.copy() for name, arr in groups["stage2_mlp"].items()}
    return ModelBundle(
        config=config, sources=sources,
        patch_weights=PatchWeights(arrays["patch_weights"].copy()),
        stage2_mlp=assemble_mlp_head(stage2),
        forest=Forest(trees=trees, n_features=n_features),
        svm=LinearSvm(weights=svm_weights, biases=arrays["svm.biases"].reshape(-1).copy(),
                      reg=float(config["svm_reg"])))


def load_bundle(path) -> ModelBundle:
    """The bundle saved at ``path``. The file is mapped rather than read:
    no buffer its size is allocated, and each array is copied once, from
    the page cache into the bundle. As with any mapped file, truncating
    it from another process during the load can end this process with
    SIGBUS; replace a bundle by writing a new file and renaming it."""
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty, or not a mappable file
            data = fh.read()
    header, pos = _read_header(path, data)
    arrays = _read_arrays(path, data, header["arrays"], pos)
    try:
        bundle = _assemble(header["config"], arrays)
    except KeyError as exc:
        raise FormatError(f"{path}: missing array {exc}") from None
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: inconsistent arrays or config: {exc}") from None
    expected = {name for name, _ in _enumerate_arrays(bundle)}
    if set(arrays) != expected:
        raise FormatError(f"{path}: unexpected arrays {sorted(set(arrays) ^ expected)[:5]}")
    return bundle
