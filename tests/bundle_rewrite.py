"""Edit a saved bundle's header and payload behind the loader's back."""

import json
import struct
import zlib


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
