"""Binary persistence for trained bundles.

Layout: magic ``RCBN``, a u32-length-prefixed JSON header (format
version, full training config, array manifest), then every float64 array
in manifest order as a u64 entry count plus little-endian payload, and a
trailing CRC-32 of all preceding bytes. Forest trees ride along as
(n_nodes, 5) arrays of [feature, threshold, left, right, prob]; integer
fields round-trip exactly through float64.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .classifiers import Forest, LinearSvm, Tree, assemble_mlp_head
from .errors import CorruptionError, FormatError, VersionError
from .network import CodeanParams, assemble_rcodean
from .pipeline import (BUNDLE_FORMAT_VERSION, ModelBundle, N_SOURCES,
                       PatchWeights)

BUNDLE_MAGIC = b"RCBN"


def _tree_to_array(tree: Tree) -> np.ndarray:
    return np.column_stack([tree.feature.astype(np.float64), tree.threshold,
                            tree.left.astype(np.float64),
                            tree.right.astype(np.float64), tree.prob])


def _tree_from_array(arr: np.ndarray) -> Tree:
    return Tree(feature=arr[:, 0].astype(np.int64), threshold=arr[:, 1].copy(),
                left=arr[:, 2].astype(np.int64), right=arr[:, 3].astype(np.int64),
                prob=arr[:, 4].copy())


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
    missing = [f for f in _CONFIG_FIELDS if f not in header["config"]]
    if missing:
        raise FormatError(f"{path}: config lacks {', '.join(missing)}")
    return header, 8 + header_len


def _read_arrays(path, data: bytes, manifest: list, pos: int) -> dict[str, np.ndarray]:
    """Every manifest array, each copied out of the file's bytes."""
    end = len(data) - 4
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest:
        try:
            name, shape = entry["name"], tuple(int(n) for n in entry["shape"])
        except (KeyError, TypeError, ValueError):
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
        arrays[name] = flat.reshape(shape).copy()
        pos += count * 8
    return arrays


def _assemble(config: dict, arrays: dict[str, np.ndarray]) -> ModelBundle:
    """The bundle whose ``_enumerate_arrays`` names are the keys of ``arrays``."""
    groups: dict[str, dict[str, np.ndarray]] = {}
    for name, arr in arrays.items():
        group, _, rest = name.partition(".")
        groups.setdefault(group, {})[rest] = arr
    params = CodeanParams(alpha=config["alpha"], beta=config["beta"], lam=config["lam"])
    nets = [assemble_rcodean(groups[f"net{s}"], config["skip_layout"], params)
            for s in range(N_SOURCES)]
    heads = [assemble_mlp_head(groups[f"head{s}"]) for s in range(N_SOURCES)]
    forest = groups["forest"]
    trees = [[_tree_from_array(forest[f"attr{a}.tree{t}"])
              for t in range(int(config["forest_trees"]))]
             for a in range(int(config["k"]))]
    svm_weights = arrays["svm.weights"]
    return ModelBundle(
        config=config, nets=nets, heads=heads,
        patch_weights=PatchWeights(arrays["patch_weights"]),
        stage2_mlp=assemble_mlp_head(groups["stage2_mlp"]),
        forest=Forest(trees=trees, n_features=int(svm_weights.shape[1])),
        svm=LinearSvm(weights=svm_weights, biases=arrays["svm.biases"].reshape(-1),
                      reg=float(config["svm_reg"])))


def load_bundle(path) -> ModelBundle:
    data = Path(path).read_bytes()
    header, pos = _read_header(path, data)
    arrays = _read_arrays(path, data, header["arrays"], pos)
    try:
        bundle = _assemble(header["config"], arrays)
    except KeyError as exc:
        raise FormatError(f"{path}: missing array {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: inconsistent arrays or config: {exc}") from None
    expected = {name for name, _ in _enumerate_arrays(bundle)}
    if set(arrays) != expected:
        raise FormatError(f"{path}: unexpected arrays {sorted(set(arrays) ^ expected)[:5]}")
    return bundle
