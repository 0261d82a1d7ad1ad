"""Dataset ingestion: attribute-list parsing, grayscale image files, and
the synthetic planted-attribute generator used for desk-scale runs.

Images are carried as (H, W) arrays of raw 0..255 values: uint8 as
decoded from a file, float64 in the synthetic stack, whose pixels carry
noise. Arithmetic on a decoded image wraps around at 256 unless the
caller converts it first. The pipeline's preprocess step handles
resizing and normalization of either. Color
conversion happens upstream of this package; external converters should
use the luma transform Y = 0.299 R + 0.587 G + 0.114 B.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ParseError

IMAGE_SIZE = 64  # the side of the square images the pipeline runs on
SPLIT_NAMES = ("ae-train", "clf-train", "test")
DEFAULT_SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # mirrors a 160k/20k/20k layout

PACKED_MAGIC = b"RCIM"

SYNTHETIC_ATTRIBUTES = (
    "square_top_left",     # bright 20x20 block, upper-left patch
    "bar_bottom",          # horizontal bar across the bottom third
    "bright_global",       # small uniform brightness shift over the image
    "square_bottom_right",
    "bar_right",
    "blob_center",
    "square_top_right",
    "bar_left",
)


@dataclass
class AttributeDataset:
    """Labeled image records with a fixed three-way split assignment.

    Either ``images`` (in-memory stack) or ``paths`` (files decoded on
    every access, never kept) backs the pixel data.
    """
    names: list[str]
    labels: np.ndarray  # (n, k) int64 over {0, 1}
    splits: dict[str, np.ndarray]
    images: np.ndarray | None = None
    paths: list[Path] | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 2 or self.labels.shape[1] != len(self.names):
            raise ConfigError(
                f"labels shape {self.labels.shape} does not match "
                f"{len(self.names)} attribute names")
        if not np.isin(self.labels, (0, 1)).all():
            raise ConfigError("labels must be binary")
        if set(self.splits) != set(SPLIT_NAMES):
            raise ConfigError(f"splits must be named {SPLIT_NAMES}")
        seen = np.concatenate([self.splits[s] for s in SPLIT_NAMES])
        if len(np.unique(seen)) != len(seen):
            raise ConfigError("split index sets overlap")
        if sorted(seen.tolist()) != list(range(self.n)):
            raise ConfigError("splits do not cover every record exactly once")
        if (self.images is None) == (self.paths is None):
            raise ConfigError("exactly one of images/paths must back the dataset")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def k(self) -> int:
        return self.labels.shape[1]

    def image(self, i: int) -> np.ndarray:
        """Raw grayscale pixels for record i, values in 0..255: the file's
        uint8 pixels, decoded on this call and owned by the caller, or a
        float64 view into the in-memory stack."""
        if self.images is not None:
            return self.images[i]
        return load_gray_image(self.paths[i])


def read_regular_file(path) -> bytes:
    """The bytes of the file at ``path``, refused before any read unless
    it is a regular file: reading a FIFO waits for a writer, and a device
    may never end. The open itself does not wait (``O_NONBLOCK``); a
    directory is refused by ``open`` as ``IsADirectoryError``."""
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise FormatError(f"{path}: not a regular file")
        return fh.read()


def split_by_fractions(n: int, fractions=DEFAULT_SPLIT_FRACTIONS) -> dict[str, np.ndarray]:
    """Index-ordered split; the first block trains the autoencoders."""
    if len(fractions) != 3 or any(f < 0 for f in fractions) or sum(fractions) > 1 + 1e-9:
        raise ConfigError(f"bad split fractions {fractions}")
    n_ae = int(n * fractions[0])
    n_clf = int(n * fractions[1])
    return split_by_counts((n_ae, n_clf, n - n_ae - n_clf))


def split_by_counts(counts: tuple[int, int, int]) -> dict[str, np.ndarray]:
    n_ae, n_clf, n_test = counts
    idx = np.arange(n_ae + n_clf + n_test)
    return {"ae-train": idx[:n_ae],
            "clf-train": idx[n_ae:n_ae + n_clf],
            "test": idx[n_ae + n_clf:]}


def load_attr_list(path, images_dir, split_fractions=DEFAULT_SPLIT_FRACTIONS) -> AttributeDataset:
    """Parse the standard attribute-list layout.

    Line 1 is the record count, line 2 the distinct attribute names, then
    exactly that many lines, one per image: filename followed by one value
    in {-1, 1} per attribute (mapped here to {0, 1}). Only blank lines may
    follow the records.
    """
    path = Path(path)
    images_dir = Path(images_dir)
    raw = read_regular_file(path)
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})",
                         line=raw.count(b"\n", 0, exc.start) + 1) from None
    if not lines:
        raise ParseError("empty attribute list", line=1)
    try:
        count = int(lines[0].strip())
    except ValueError:
        count = -1
    if count < 0:
        raise ParseError(f"expected a record count, got {lines[0]!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing attribute-name header", line=2)
    names = lines[1].split()
    if not names:
        raise ParseError("attribute-name header is empty", line=2)
    if len(set(names)) < len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ParseError(f"attribute name {repeated!r} is repeated", line=2)
    k = len(names)
    if len(lines) < 2 + count:
        raise ParseError(
            f"file declares {count} records but has {len(lines) - 2}",
            line=len(lines) + 1)
    paths = []
    labels = np.empty((count, k), dtype=np.int64)
    for r in range(count):
        lineno = r + 3
        fields = lines[r + 2].split()
        if len(fields) != k + 1:
            raise ParseError(
                f"expected filename plus {k} labels, got {len(fields)} fields",
                line=lineno)
        if "\0" in fields[0]:
            raise ParseError(f"filename {fields[0]!r} holds a NUL byte", line=lineno)
        paths.append(images_dir / fields[0])
        for a, tok in enumerate(fields[1:]):
            if tok == "1":
                labels[r, a] = 1
            elif tok == "-1":
                labels[r, a] = 0
            else:
                raise ParseError(f"label value {tok!r} is not in {{-1, 1}}",
                                 line=lineno)
    for lineno, line in enumerate(lines[2 + count:], start=3 + count):
        if line.strip():
            raise ParseError(f"file declares {count} records but has more", line=lineno)
    return AttributeDataset(names=names, labels=labels,
                            splits=split_by_fractions(count, split_fractions),
                            paths=paths)


# ---------------------------------------------------------------------------
# image files


def _comment_end(data: bytes, pos: int) -> int:
    """Where the '#' comment at ``pos`` ends: its first CR or LF, else the end of ``data``."""
    ends = [end for end in (data.find(b"\n", pos), data.find(b"\r", pos)) if end >= 0]
    return min(ends, default=len(data))


def _read_pgm(data: bytes, path) -> np.ndarray:
    # token scanner; as Netpbm allows, a '#' comment may start anywhere
    # before the byte that ends the header, inside a token too, which it ends
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = _comment_end(data, pos)
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace() and data[pos] != 0x23:
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header")
        tokens.append(data[start:pos])
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"{path}: non-numeric header fields") from None
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    # single whitespace byte separates header from pixels; a comment right
    # after maxval ends in it
    if data[pos:pos + 1] == b"#":
        pos = _comment_end(data, pos)
    return _pixels(data, pos + 1, height, width, path)


def _read_packed(data: bytes, path) -> np.ndarray:
    if len(data) < 8:
        raise FormatError(f"{path}: truncated header")
    height, width = struct.unpack("<HH", data[4:8])
    return _pixels(data, 8, height, width, path)


def _pixels(data: bytes, pos: int, height: int, width: int, path) -> np.ndarray:
    """The height x width uint8 image whose rows start at ``pos``, copied
    once out of ``data`` into a writable array of its own."""
    if height < 1 or width < 1:
        raise FormatError(f"{path}: image size {width}x{height} is not positive")
    size = width * height
    if len(data) - pos < size:
        raise FormatError(f"{path}: truncated pixel data, "
                          f"{max(len(data) - pos, 0)} of {size} bytes")
    return np.frombuffer(data, np.uint8, count=size, offset=pos).reshape(height, width).copy()


def load_gray_image(path) -> np.ndarray:
    """Decode a binary PGM (P5, maxval 255) or packed raw image file into
    an (H, W) uint8 array."""
    path = Path(path)
    data = read_regular_file(path)
    if data[:2] == b"P5":
        return _read_pgm(data, path)
    if data[:4] == PACKED_MAGIC:
        return _read_packed(data, path)
    if data[:2] == b"P2":
        raise FormatError(f"{path}: ASCII PGM (P2) is not supported, use binary P5")
    raise FormatError(f"{path}: unknown image magic {data[:4]!r}")


def save_gray_image(path, image: np.ndarray) -> None:
    """Write the packed raw format: magic, u16 height, u16 width, u8 rows.
    Pixels are rounded and clipped to 0..255; a NaN or infinite one has no
    such value and is refused before anything is written."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise FormatError(f"expected a 2-D image, got shape {img.shape}")
    h, w = img.shape
    if not (1 <= h <= 0xFFFF and 1 <= w <= 0xFFFF):
        raise FormatError(f"image {img.shape} needs 1 to 65535 rows and columns "
                          f"to fit the u16 size fields")
    bad = ~np.isfinite(img)
    if bad.any():
        raise FormatError(f"image has {np.count_nonzero(bad)} NaN or infinite pixels, "
                          f"which have no 0..255 value")
    # np.round keeps an integer image's dtype, where np.rint makes it float
    payload = np.clip(np.round(img), 0, 255).astype(np.uint8).tobytes()
    Path(path).write_bytes(PACKED_MAGIC + struct.pack("<HH", h, w) + payload)


# ---------------------------------------------------------------------------
# synthetic data

GLOBAL_SHIFT = 10.0    # raw gray levels added by the global attribute
ILLUM_SIGMA = 18.0     # strength of the label-independent lighting nuisance
_NOISE_SIGMA = 0.05 * 255.0
SYNTH_BLOCK = 64       # images drawn, lit and noised at a time

# each attribute's brightness primitive, in SYNTHETIC_ATTRIBUTES order:
# the rows and columns it brightens and by how many raw gray levels
PRIMITIVES = (
    (slice(0, 20), slice(0, 20), 90.0),
    (slice(50, 58), slice(2, 62), 85.0),
    (slice(None), slice(None), GLOBAL_SHIFT),
    (slice(44, 60), slice(44, 60), 90.0),
    (slice(2, 62), slice(52, 58), 85.0),
    (slice(24, 40), slice(24, 40), 90.0),
    (slice(0, 16), slice(48, 64), 90.0),
    (slice(2, 62), slice(6, 12), 85.0),
)


def _illumination_fields() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smooth lighting basis (tilt-x, tilt-y, bowl), each exactly zero-mean
    over the pixel grid so only local windows see a brightness offset."""
    half = (IMAGE_SIZE - 1) / 2
    coords = (np.arange(IMAGE_SIZE) - half) / half
    x, y = np.meshgrid(coords, coords)
    bowl = x * x + y * y
    bowl -= bowl.mean()
    return x, y, bowl


def gen_synthetic(n: int, k: int, seed: int = 0,
                  split_fractions=DEFAULT_SPLIT_FRACTIONS,
                  splits: dict[str, np.ndarray] | None = None) -> AttributeDataset:
    """64x64 images with procedurally planted attributes.

    Each attribute is drawn Bernoulli(0.5) and rendered as a localized
    brightness primitive (attribute 3 is a small global shift), on a flat
    background with Gaussian pixel noise of sigma 0.05 in [0, 1] units.
    A random smooth lighting field (tilt plus bowl, zero-mean over the
    whole image) is layered on every image regardless of labels: a single
    patch cannot tell its slice of the lighting from a true global shift,
    while the full-image mean is unaffected by the lighting.
    """
    if k < 1 or k > len(SYNTHETIC_ATTRIBUTES):
        raise ConfigError(f"synthetic attribute count must be 1..8, got {k}")
    # numpy holds no array of more bytes than an intp counts, on any machine
    if n * IMAGE_SIZE * IMAGE_SIZE * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{n} synthetic images are more than one numpy array can hold")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(n, k))
    images = np.full((n, IMAGE_SIZE, IMAGE_SIZE), 80.0)
    tilt_x, tilt_y, bowl = _illumination_fields()
    gains = rng.normal(scale=ILLUM_SIGMA, size=(3, n, 1, 1))
    # a block at a time, so the temporaries are block-sized; the noise
    # stream and every pixel's sums are those of one whole-stack pass
    for j in range(0, n, SYNTH_BLOCK):
        block = images[j:j + SYNTH_BLOCK]
        for a, (rows, cols, amount) in enumerate(PRIMITIVES[:k]):
            block[labels[j:j + SYNTH_BLOCK, a] == 1, rows, cols] += amount
        g = gains[:, j:j + SYNTH_BLOCK]
        block += g[0] * tilt_x + g[1] * tilt_y + g[2] * bowl
        block += rng.normal(scale=_NOISE_SIGMA, size=block.shape)
        np.clip(block, 0.0, 255.0, out=block)
    if splits is None:
        splits = split_by_fractions(n, split_fractions)
    return AttributeDataset(names=list(SYNTHETIC_ATTRIBUTES[:k]), labels=labels,
                            splits=splits, images=images)
