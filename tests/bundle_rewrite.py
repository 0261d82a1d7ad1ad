"""Edit a saved bundle's header and payload behind the loader's back."""

import json
import struct
import zlib

import numpy as np

from rcodean.network import DEFAULT_SKIP_LAYOUT


def rewrite_bundle(path, dest, mutate):
    """Write a copy of the bundle at ``path`` to ``dest`` after
    ``mutate(header, chunks)`` edited its JSON header and its per-array
    payload chunks (a dict from array name to bytes), with a fresh CRC so
    only the edit is wrong."""
    data = path.read_bytes()
    header_len = struct.unpack("<I", data[4:8])[0]
    header = json.loads(data[8:8 + header_len].decode())
    chunks, pos = {}, 8 + header_len
    for entry in header["arrays"]:
        count = struct.unpack("<Q", data[pos:pos + 8])[0]
        chunks[entry["name"]] = data[pos:pos + 8 + 8 * count]
        pos += 8 + 8 * count
    mutate(header, chunks)
    new_header = json.dumps(header, sort_keys=True).encode()
    names = [entry["name"] for entry in header.get("arrays", [])]
    body = data[:4] + struct.pack("<I", len(new_header)) + new_header \
        + b"".join(chunks[name] for name in names)
    dest.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return dest


def _chunk(arr):
    return struct.pack("<Q", arr.size) + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def get_array(header, chunks, name):
    """The array ``name`` of a bundle being rewritten, as a copy."""
    shape = next(e["shape"] for e in header["arrays"] if e["name"] == name)
    return np.frombuffer(chunks[name][8:], dtype="<f8").reshape(shape).copy()


def set_array(header, chunks, name, arr):
    """Store ``arr`` as the array ``name``, header shape and payload both."""
    next(e for e in header["arrays"] if e["name"] == name)["shape"] = list(arr.shape)
    chunks[name] = _chunk(arr)


def replace_tree(attr, tree, rows):
    """A ``rewrite_bundle`` edit that swaps tree ``tree`` of attribute
    ``attr`` for a tree of the given [feature, threshold, left, right,
    prob] rows, in the forest's node table and node counts; ``"N"`` in a
    row stands for the feature count. Rows wider than the table's five
    columns widen every row of it, with zeros."""
    def mutate(header, chunks):
        n_features = get_array(header, chunks, "svm.weights").shape[1]
        new = np.array([[n_features if v == "N" else v for v in row] for row in rows],
                       dtype=np.float64)
        nodes = get_array(header, chunks, "forest.nodes")
        sizes = get_array(header, chunks, "forest.sizes")
        start = int(sizes.reshape(-1)[:attr * sizes.shape[1] + tree].sum())
        end = start + int(sizes[attr, tree])
        nodes = np.pad(nodes, ((0, 0), (0, new.shape[1] - nodes.shape[1])))
        sizes[attr, tree] = len(new)
        set_array(header, chunks, "forest.nodes", np.concatenate([nodes[:start], new,
                                                                  nodes[end:]]))
        set_array(header, chunks, "forest.sizes", sizes)
    return mutate


def write_version1_bundle(dest, l=2, k=1):
    """Write a well-formed bundle of the retired format 1, which stored the
    ten whole autoencoders (decoders and shortcut projections too), one
    array per head, per head layer and per forest tree: zero weights,
    uniform patch weights and one single-leaf tree per attribute."""
    layers = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")
    layout = [list(skip) for skip in DEFAULT_SKIP_LAYOUT]
    arrays = []

    def head(prefix, in_dim):
        dims = [in_dim, max(1, in_dim // 2), max(1, in_dim // 4), k]
        for i in range(3):
            arrays.extend([(f"{prefix}.layer{i}.weight", np.zeros((dims[i + 1], dims[i]))),
                           (f"{prefix}.layer{i}.bias", np.zeros((dims[i + 1], 1)))])

    for s in range(10):
        d = 4096 if s == 9 else 1024
        shapes = {lid: (l, l) for lid in layers} | {"enc1": (l, d), "dec3": (d, l)}
        for lid in layers:
            arrays.extend([(f"net{s}.{lid}.weight", np.zeros(shapes[lid])),
                           (f"net{s}.{lid}.bias", np.zeros((shapes[lid][0], 1)))])
        arrays.append((f"net{s}.skip.enc1->dec3.projection", np.zeros((d, l))))
    for s in range(10):
        head(f"head{s}", l)
    arrays.append(("patch_weights", np.ones((k, 10))))
    head("stage2_mlp", 10 * k)
    arrays += [(f"forest.attr{a}.tree0", np.array([[-1.0, 0.0, -1.0, -1.0, 0.5]]))
               for a in range(k)]
    arrays += [("svm.weights", np.zeros((k, 10 * k))), ("svm.biases", np.zeros((k, 1)))]
    config = {"alpha": 1.0, "beta": 1.0, "lam": 0.01, "l": l, "k": k,
              "attribute_names": [f"a{a}" for a in range(k)], "skip_layout": layout,
              "forest_trees": 1, "svm_reg": 1e-4}
    header = json.dumps({"format_version": "1", "config": config,
                         "arrays": [{"name": name, "shape": list(arr.shape)}
                                    for name, arr in arrays]}, sort_keys=True).encode()
    body = b"RCBN" + struct.pack("<I", len(header)) + header \
        + b"".join(_chunk(arr) for _, arr in arrays)
    dest.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return dest
