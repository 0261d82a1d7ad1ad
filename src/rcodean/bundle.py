"""Binary persistence for trained bundles, format 2.

Layout: magic ``RCBN``, a u32-length-prefixed JSON header (format
version, full training config, array manifest), then every float64 array
in manifest order as a u64 entry count plus little-endian payload, and a
trailing CRC-32 of all preceding bytes.

The arrays are exactly what prediction reads, laid out as it reads them:
the nine patch encoders as (9, out, in) stacks, the face encoder, the
patch weights, the ten stage-1 heads as (10, out, in) stacks, the
stage-2 MLP, the forest and the SVM. Each part's module names and
shapes its arrays (``network.parameter_shapes``, ``classifiers.head_shapes``
and ``classifiers.forest_shapes``); this module only stacks and prefixes
them. Integer fields round-trip exactly through float64. The
autoencoders' decoders are not stored. Version-1 files, which held the
whole autoencoders, are refused: retrain to get a version-2 bundle.

The config's ``skip_layout`` records the shortcuts into and within the
autoencoders. There is one layout, ``network.DEFAULT_SKIP_LAYOUT``; the
loaded encoders run it, so the field must equal it.

A passing checksum does not make a file trusted: a manifest other than
the one the config implies, a ``skip_layout`` other than the trained
one, a non-finite array or a forest that ``Forest`` refuses is a
``FormatError``. That is the only check the loaded values get; the
encoders and heads are built from each part's arrays, with the part's
prefix taken off, by the constructor training calls
(``SourceModels.from_parts``), and use them as they are. This module
alone puts the parts' prefixes on the array names and takes them off.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .classifiers import Forest, LinearSvm, assemble_mlp_head, forest_shapes, head_shapes
from .data import read_regular_file
from .errors import ConfigError, CorruptionError, FormatError, VersionError
from .network import DEFAULT_SKIP_LAYOUT, parameter_shapes
from .pipeline import (N_SOURCES, SOURCE_DIMS, ModelBundle, PatchWeights, PipelineConfig,
                       SourceModels, is_number)

BUNDLE_MAGIC = b"RCBN"
BUNDLE_FORMAT_VERSION = "2"


def _manifest(config: dict) -> dict[str, tuple[int, ...]]:
    """Every stored array's name and shape, in file order, as the config
    implies them; -1 marks the forest's node count, the one free size."""
    l, k = config["l"], config["k"]

    def part(prefix, shapes, stack=()):
        return {f"{prefix}.{name}": (*stack, *shape) for name, shape in shapes.items()}

    return {**part("patch_encoders", parameter_shapes(SOURCE_DIMS[0], l, encoder_only=True),
                   (N_SOURCES - 1,)),
            **part("face_encoder", parameter_shapes(SOURCE_DIMS[-1], l, encoder_only=True)),
            "patch_weights": (k, N_SOURCES),
            **part("heads", head_shapes(l, k), (N_SOURCES,)),
            **part("stage2_mlp", head_shapes(N_SOURCES * k, k)),
            **part("forest", forest_shapes(k, config["forest_trees"])),
            "svm.weights": (k, N_SOURCES * k), "svm.biases": (k,)}


def _stored_arrays(bundle: ModelBundle) -> dict[str, np.ndarray]:
    """Every array prediction reads, by its manifest name, in file order."""
    def part(prefix, arrays):
        return {f"{prefix}.{name}": arr for name, arr in arrays}

    return {**part("patch_encoders", bundle.sources.patch_encoders.parameters()),
            **part("face_encoder", bundle.sources.face_encoder.parameters()),
            "patch_weights": bundle.patch_weights.values,
            **part("heads", bundle.sources.heads.parameters()),
            **part("stage2_mlp", bundle.stage2_mlp.parameters()),
            **part("forest", bundle.forest.arrays()),
            "svm.weights": bundle.svm.weights, "svm.biases": bundle.svm.biases}


def save_bundle(bundle: ModelBundle, path) -> None:
    arrays = _stored_arrays(bundle)
    header = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "config": bundle.config,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [BUNDLE_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes]
    for arr in arrays.values():
        chunks.append(struct.pack("<Q", arr.size))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").data)
    # streamed, so no copy of the whole file is ever held in memory
    crc = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(struct.pack("<I", crc))


# config fields that loading requires; l, k and forest_trees size the arrays.
# Every recorded PipelineConfig field is checked as training checks it; other
# keys are ignored, such as the settings older bundles recorded.
_CONFIG_FIELDS = ("alpha", "beta", "lam", "l", "k", "attribute_names", "skip_layout",
                  "forest_trees")


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if version == "1":
        raise VersionError(f"{path}: bundle format version 1 is no longer read; "
                           f"retrain to write a version {BUNDLE_FORMAT_VERSION} bundle")
    if version != BUNDLE_FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported format version {version!r}")
    for key, kind in (("config", dict), ("arrays", list)):
        if not isinstance(header.get(key), kind):
            raise FormatError(f"{path}: header has no {key} {kind.__name__}")
    config = header["config"]
    missing = [f for f in _CONFIG_FIELDS if f not in config]
    if missing:
        raise FormatError(f"{path}: config lacks {', '.join(missing)}")
    try:  # the recorded pipeline settings are checked as training checks them
        PipelineConfig(**{key: config[key] for key in vars(PipelineConfig()) if key in config})
    except ConfigError as exc:
        raise FormatError(f"{path}: config {exc}") from None
    names, k = config["attribute_names"], config["k"]
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)
            and is_number(k, integral=True) and k == len(names)):
        raise FormatError(f"{path}: config k {k!r} is not the count of its attribute_names")
    # the encoders run the one layout training builds; the field records it
    if config["skip_layout"] != [list(skip) for skip in DEFAULT_SKIP_LAYOUT]:
        raise FormatError(f"{path}: config skip_layout is not the trained shortcut layout")
    return header, 8 + header_len


def _read_arrays(path, data: bytes, manifest: list, pos: int,
                 expected: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Every manifest array as a read-only view of the file's bytes,
    checked once for finiteness, after checking that the manifest names
    the ``expected`` arrays in order with their shapes; ``_assemble``
    copies each once, into the array the bundle keeps."""
    if len(manifest) != len(expected):
        raise FormatError(f"{path}: {len(manifest)} arrays stored, "
                          f"the config implies {len(expected)}")
    end = len(data) - 4
    arrays: dict[str, np.ndarray] = {}
    for entry, (want_name, want_shape) in zip(manifest, expected.items()):
        try:
            name, shape = entry["name"], tuple(int(n) for n in entry["shape"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise FormatError(f"{path}: malformed array entry {entry!r}") from None
        if name != want_name:
            raise FormatError(f"{path}: array {len(arrays)} is {name!r}, "
                              f"the config implies {want_name!r}")
        if len(shape) != len(want_shape) or any(w not in (-1, s)
                                                for s, w in zip(shape, want_shape)):
            raise FormatError(f"{path}: array {name} has shape {shape}, "
                              f"the config implies {want_shape}")
        if pos + 8 > end:
            raise FormatError(f"{path}: truncated array table")
        count = struct.unpack("<Q", data[pos:pos + 8])[0]
        pos += 8
        if pos + count * 8 > end:
            raise FormatError(f"{path}: truncated payload for {name}")
        if min(shape, default=0) < 0 or math.prod(shape) != count:
            raise FormatError(f"{path}: array {name} count {count} "
                              f"does not match shape {shape}")
        flat = np.frombuffer(data, dtype="<f8", count=count, offset=pos)
        if not np.isfinite(flat).all():
            raise FormatError(f"{path}: array {name} has non-finite entries")
        arrays[name] = flat.reshape(shape)
        pos += count * 8
    return arrays


def prefixed(arrays, prefix: str) -> dict[str, np.ndarray]:
    """The arrays named ``<prefix>.<name>``, by ``<name>``."""
    return {name[len(prefix) + 1:]: arr for name, arr in arrays.items()
            if name.startswith(prefix + ".")}


def _assemble(config: dict, arrays: dict[str, np.ndarray]) -> ModelBundle:
    """The bundle around ``arrays``, the file's arrays by manifest name,
    viewing its bytes: each is copied once, straight into the array the
    bundle keeps, so no bundle array views the file's bytes."""
    owned = {name: arr.copy() for name, arr in arrays.items()}
    return ModelBundle(
        config=config,
        sources=SourceModels.from_parts(prefixed(owned, "patch_encoders"),
                                        prefixed(owned, "face_encoder"),
                                        prefixed(owned, "heads")),
        patch_weights=PatchWeights(owned["patch_weights"]),
        stage2_mlp=assemble_mlp_head(prefixed(owned, "stage2_mlp")),
        forest=Forest(owned["forest.nodes"], owned["forest.sizes"], N_SOURCES * int(config["k"])),
        svm=LinearSvm(weights=owned["svm.weights"], biases=owned["svm.biases"]))


def load_bundle(path) -> ModelBundle:
    """The bundle saved at ``path``. The file is read once, and each array
    is copied once, from the file's bytes into the bundle."""
    data = read_regular_file(path)
    header, pos = _read_header(path, data)
    config = header["config"]
    arrays = _read_arrays(path, data, header["arrays"], pos, _manifest(config))
    try:
        return _assemble(config, arrays)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: inconsistent arrays or config: {exc}") from None
