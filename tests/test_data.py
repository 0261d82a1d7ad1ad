import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzing import FUZZ, time_bound
from oracles import reference_gen_synthetic
from rcodean.data import (AttributeDataset, gen_synthetic, load_attr_list,
                          load_gray_image, save_gray_image, split_by_counts,
                          split_by_fractions, SYNTH_BLOCK, SYNTHETIC_ATTRIBUTES)
from rcodean.errors import ConfigError, FormatError, ParseError


def _write_list(tmp_path, body):
    p = tmp_path / "list_attr.txt"
    p.write_text(body)
    return p


def test_attr_list_toy_file(tmp_path):
    path = _write_list(tmp_path, "3\nSmiling Young\na.pgm -1 1\nb.pgm 1 1\nc.pgm -1 -1\n")
    ds = load_attr_list(path, tmp_path)
    assert ds.names == ["Smiling", "Young"]
    assert ds.labels.tolist() == [[0, 1], [1, 1], [0, 0]]
    assert ds.n == 3 and ds.k == 2


def test_attr_list_bad_label_value(tmp_path):
    path = _write_list(tmp_path, "2\nA B\na.pgm -1 1\nb.pgm 2 1\n")
    with pytest.raises(ParseError, match="'2'") as err:
        load_attr_list(path, tmp_path)
    assert err.value.line == 4


def test_attr_list_wrong_field_count(tmp_path):
    path = _write_list(tmp_path, "1\nA B\na.pgm -1\n")
    with pytest.raises(ParseError, match="line 3"):
        load_attr_list(path, tmp_path)


def test_attr_list_declared_count_too_large(tmp_path):
    path = _write_list(tmp_path, "5\nA\na.pgm 1\n")
    with pytest.raises(ParseError):
        load_attr_list(path, tmp_path)


def test_attr_list_records_beyond_the_declared_count(tmp_path):
    # otherwise they would be dropped without a word
    body = "2\nA\n" + "".join(f"i{j}.pgm 1\n" for j in range(5))
    with pytest.raises(ParseError, match="declares 2 records") as err:
        load_attr_list(_write_list(tmp_path, body), tmp_path)
    assert err.value.line == 5
    # trailing blank lines are not records
    ds = load_attr_list(_write_list(tmp_path, "1\nA\ni.pgm 1\n\n  \n"), tmp_path)
    assert ds.n == 1


def test_attr_list_repeated_attribute_name(tmp_path):
    # both columns would be reported under the one name
    with pytest.raises(ParseError, match="'a' is repeated") as err:
        load_attr_list(_write_list(tmp_path, "1\na b a\ni.pgm 1 1 -1\n"), tmp_path)
    assert err.value.line == 2


def test_attr_list_bad_count_line(tmp_path):
    for count in ("x", "-3"):
        path = _write_list(tmp_path, f"{count}\nA\na.pgm 1\n")
        with pytest.raises(ParseError) as err:
            load_attr_list(path, tmp_path)
        assert err.value.line == 1


def test_attr_list_not_utf8(tmp_path):
    path = tmp_path / "list_attr.txt"
    path.write_bytes(b"1\nA B\na.pgm \xff1 -1\n")
    with pytest.raises(ParseError, match="not UTF-8") as err:
        load_attr_list(path, tmp_path)
    assert err.value.line == 3


def test_attr_list_filename_with_nul(tmp_path):
    # a NUL would otherwise reach the image's system call as a ValueError
    path = tmp_path / "list_attr.txt"
    path.write_bytes(b"2\nA B\na.pgm 1 -1\ni5\x00.rcim -1 1\n")
    with pytest.raises(ParseError, match="holds a NUL byte") as err:
        load_attr_list(path, tmp_path)
    assert err.value.line == 4


def test_attr_list_proportional_split(tmp_path):
    body = "10\nA\n" + "\n".join(f"i{j}.pgm 1" for j in range(10)) + "\n"
    ds = load_attr_list(_write_list(tmp_path, body), tmp_path)
    assert len(ds.splits["ae-train"]) == 8
    assert len(ds.splits["clf-train"]) == 1
    assert len(ds.splits["test"]) == 1


def test_attr_list_forty_attribute_header(tmp_path):
    names = " ".join(f"Attr{i}" for i in range(40))
    body = "1\n" + names + "\ni.pgm " + " ".join(["1"] * 40) + "\n"
    ds = load_attr_list(_write_list(tmp_path, body), tmp_path)
    assert len(ds.names) == 40


def test_splits_never_overlap_guard():
    labels = np.zeros((4, 1), dtype=np.int64)
    bad = {"ae-train": np.array([0, 1]), "clf-train": np.array([1, 2]),
           "test": np.array([3])}
    with pytest.raises(ConfigError, match="overlap"):
        AttributeDataset(names=["A"], labels=labels, splits=bad,
                         images=np.zeros((4, 64, 64)))


def test_splits_must_be_exhaustive():
    labels = np.zeros((4, 1), dtype=np.int64)
    bad = {"ae-train": np.array([0]), "clf-train": np.array([1]),
           "test": np.array([2])}
    with pytest.raises(ConfigError, match="cover"):
        AttributeDataset(names=["A"], labels=labels, splits=bad,
                         images=np.zeros((4, 64, 64)))


def test_split_helpers():
    s = split_by_fractions(100)
    assert (len(s["ae-train"]), len(s["clf-train"]), len(s["test"])) == (80, 10, 10)
    s = split_by_counts((5, 2, 3))
    assert s["ae-train"].tolist() == [0, 1, 2, 3, 4]
    assert s["test"].tolist() == [7, 8, 9]


# ---------------------------------------------------------------------------
# image files


def test_pgm_fixture(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = load_gray_image(p)
    assert img.dtype == np.uint8 and img.flags.writeable and img.flags.owndata
    assert img.tolist() == [[0, 255], [128, 64]]


def test_pgm_with_comment(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 9]))
    assert load_gray_image(p).tolist() == [[7.0, 9.0]]


@pytest.mark.parametrize("header", [b"P5\n5# w\n4\n255\n", b"P5\n5 4#c\n255\n",
                                    b"P5\n5 4\n255#c\n", b"P5\n5# w\r4\n255\n",
                                    b"P5\n5 4\n255#c\r"])
def test_pgm_comment_inside_a_token_or_after_maxval(tmp_path, header):
    # Netpbm lets a comment start anywhere before the byte that ends the
    # header; it ends a token, and it ends at a carriage return or a
    # newline, which after maxval is that byte
    p = tmp_path / "a.pgm"
    p.write_bytes(header + bytes(range(20)))
    assert load_gray_image(p).tolist() == np.arange(20).reshape(4, 5).tolist()


def test_pgm_ascii_rejected(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(FormatError, match="P5"):
        load_gray_image(p)


def test_pgm_wrong_maxval(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n" + bytes([1, 1]))
    with pytest.raises(FormatError, match="maxval"):
        load_gray_image(p)


def test_pgm_truncated(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(FormatError, match="truncated"):
        load_gray_image(p)


@pytest.mark.parametrize("header", [b"P5 -4 -4 255\n", b"P5 0 4 255\n", b"P5 4 0 255\n",
                                    b"P5 -4 4 255\n", b"RCIM\x00\x00\x04\x00",
                                    b"RCIM\x04\x00\x00\x00"])
def test_image_size_not_positive(tmp_path, header):
    p = tmp_path / "a.img"
    p.write_bytes(header + bytes(16))
    with pytest.raises(FormatError, match="not positive"):
        load_gray_image(p)


def test_unknown_magic(tmp_path):
    p = tmp_path / "a.img"
    p.write_bytes(b"WHAT even is this")
    with pytest.raises(FormatError, match="magic"):
        load_gray_image(p)


def test_packed_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(31, 17)).astype(np.float64)
    p = tmp_path / "a.rcim"
    save_gray_image(p, img)
    back = load_gray_image(p)
    assert back.dtype == np.uint8 and back.flags.writeable and back.flags.owndata
    assert np.array_equal(back, img)
    assert back.tobytes() == p.read_bytes()[8:]


_ROUNDING_IMAGES = {
    "uint8": np.arange(256, dtype=np.uint8).reshape(16, 16),
    "int64": np.arange(-300, 600, 5, dtype=np.int64).reshape(9, 20),
    # .5 ties round to even; out-of-range values clip
    "float64": np.concatenate([np.arange(-3.5, 4.0), np.arange(250.5, 258.0)]).reshape(4, 4),
}


@pytest.mark.parametrize("kind", list(_ROUNDING_IMAGES))
def test_save_writes_rounded_clipped_pixels(tmp_path, kind):
    img = _ROUNDING_IMAGES[kind]
    p = tmp_path / "a.rcim"
    save_gray_image(p, img)
    # the expression the writer used before it kept integer dtypes
    old = np.clip(np.rint(img), 0, 255).astype(np.uint8).tobytes()
    assert p.read_bytes()[8:] == old


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_refuses_non_finite_pixels(tmp_path, bad):
    img = np.full((4, 5), 7.0)
    img[0, 0] = bad
    p = tmp_path / "a.rcim"
    with pytest.raises(FormatError, match="NaN or infinite"):
        save_gray_image(p, img)
    assert not p.exists()


def test_packed_truncated(tmp_path):
    p = tmp_path / "a.rcim"
    p.write_bytes(b"RCIM" + bytes([4, 0, 4, 0]) + bytes(5))
    with pytest.raises(FormatError, match="truncated"):
        load_gray_image(p)


def test_packed_empty_image_not_written(tmp_path):
    with pytest.raises(FormatError, match="1 to 65535"):
        save_gray_image(tmp_path / "a.rcim", np.zeros((0, 4)))


# Arbitrary image and attribute-list bytes must decode or raise
# FormatError (ParseError for lists), within a time bound. The files stay
# around a hundred bytes: a declared size never allocates more than
# the pixels present.

DECODE_SECONDS = 5.0
_SEP = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# note\n", b" # 1 2\n"])
_HEADER_JUNK = st.binary(max_size=3) | st.sampled_from(
    [b"x", b"+2", b"-0", b"2_0", b"", b"2147483648", b"-9223372036854775808", b"1" + b"0" * 30])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _decode_or_format_error(path):
    with time_bound(DECODE_SECONDS):
        try:
            img = load_gray_image(path)
        except FormatError:
            return
    assert img.ndim == 2 and min(img.shape) >= 1
    assert ((img >= 0) & (img <= 255)).all()


@FUZZ
@given(data=st.data())
def test_pgm_bytes_decode_or_format_error(fuzz_dir, data):
    width, height = (data.draw(st.sampled_from([-4, -1, 0, 1, 2, 3])) for _ in range(2))
    maxval = data.draw(st.sampled_from([255, 255, 255, 65535, 0, -255]))
    fields = [str(v).encode() for v in (width, height, maxval)]
    if data.draw(st.booleans()):
        fields[data.draw(st.integers(0, 2))] = data.draw(_HEADER_JUNK)
    # often exactly as many pixel bytes as the declared size asks for
    n_pixels = data.draw(st.integers(0, 40) | st.just(abs(width * height)))
    header = b"P5" + b"".join(data.draw(_SEP) + f for f in fields)
    p = fuzz_dir / "fuzz.pgm"
    p.write_bytes(header + data.draw(st.sampled_from([b"\n", b" ", b""]))
                  + data.draw(st.binary(min_size=n_pixels, max_size=n_pixels)))
    _decode_or_format_error(p)


@FUZZ
@given(size=st.binary(max_size=4) | st.tuples(st.integers(0, 6) | st.just(65535),
                                                st.integers(0, 6) | st.just(65535)
                                                ).map(lambda hw: struct.pack("<HH", *hw)),
       pixels=st.binary(max_size=40))
def test_packed_bytes_decode_or_format_error(fuzz_dir, size, pixels):
    p = fuzz_dir / "fuzz.rcim"
    p.write_bytes(b"RCIM" + size + pixels)
    _decode_or_format_error(p)


_LIST_TOKEN = st.sampled_from([b"1", b"-1", b"0", b"2", b"a.pgm", b"A", b"", b"\xff", b"\xc3",
                               b"\xc3\xa9", b"99999999999999999999"])
_LIST_LINE = st.lists(_LIST_TOKEN, max_size=4).map(b" ".join)


@FUZZ
@given(lines=st.lists(_LIST_LINE, max_size=6),
       newline=st.sampled_from([b"\n", b"\r\n", b"\r"]))
def test_attr_list_bytes_load_or_parse_error(fuzz_dir, lines, newline):
    p = fuzz_dir / "list_attr.txt"
    p.write_bytes(newline.join(lines))
    with time_bound(DECODE_SECONDS):
        try:
            ds = load_attr_list(p, fuzz_dir)
        except ParseError:
            return
    assert ds.labels.shape == (ds.n, len(ds.names))


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_deterministic():
    a = gen_synthetic(50, 3, seed=9)
    b = gen_synthetic(50, 3, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_seed_changes_data():
    a = gen_synthetic(20, 3, seed=1)
    b = gen_synthetic(20, 3, seed=2)
    assert not np.array_equal(a.images, b.images)


def test_synthetic_top_left_mean_gap():
    ds = gen_synthetic(200, 2, seed=11)
    pos = ds.labels[:, 0] == 1
    window = ds.images[:, 0:20, 0:20].mean(axis=(1, 2))
    assert window[pos].mean() > window[~pos].mean() + 40


def test_synthetic_bar_bottom_localization():
    ds = gen_synthetic(200, 2, seed=13)
    pos = ds.labels[:, 1] == 1
    bar = ds.images[:, 50:58, :].mean(axis=(1, 2))
    assert bar[pos].mean() > bar[~pos].mean() + 40


def test_synthetic_class_balance():
    ds = gen_synthetic(1000, 4, seed=17)
    rates = ds.labels.mean(axis=0)
    assert ((rates >= 0.45) & (rates <= 0.55)).all()


def test_synthetic_pixel_range_and_shape():
    ds = gen_synthetic(30, 8, seed=19)
    assert ds.images.shape == (30, 64, 64)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 255.0
    assert ds.names == list(SYNTHETIC_ATTRIBUTES)


def test_synthetic_rejects_too_many_attributes():
    with pytest.raises(ConfigError):
        gen_synthetic(10, 9, seed=0)


def test_synthetic_illumination_is_globally_neutral():
    # the lighting nuisance must not move the full-image mean: compare
    # global means of global-shift positives vs negatives; the gap should
    # be the shift itself, not inflated by lighting
    from rcodean.data import GLOBAL_SHIFT
    ds = gen_synthetic(600, 3, seed=23)
    pos = ds.labels[:, 2] == 1
    means = ds.images.mean(axis=(1, 2))
    gap = means[pos].mean() - means[~pos].mean()
    assert abs(gap - GLOBAL_SHIFT) < 1.5


# one image, a block edge, every attribute on a ragged last block, the
# reference run's set-up and the bench's stage-2 set-up shape
@pytest.mark.parametrize("n, k, seed", [(1, 1, 5), (255, 3, 9), (256, 4, 0),
                                        (257, 3, 9), (130, 8, 3), (1400, 4, 0),
                                        (2400, 8, 7)])
def test_block_wise_generator_equals_whole_stack_oracle_bitwise(n, k, seed):
    ds = gen_synthetic(n, k, seed=seed)
    images, labels = reference_gen_synthetic(n, k, seed=seed)
    assert np.array_equal(ds.labels, labels)
    assert ds.images.tobytes() == images.tobytes()


def test_generator_peak_is_the_stack_plus_a_few_blocks():
    n = 1000
    tracemalloc.start()
    try:
        ds = gen_synthetic(n, 8, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = SYNTH_BLOCK * 64 * 64 * 8
    # the whole-stack version held three (n, 64, 64) temporaries on top
    assert peak <= ds.images.nbytes + 4 * block + (1 << 20)
