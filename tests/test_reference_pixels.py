"""cut_tile and read_ppm against the versions they replaced, which copied
every pixel several times; the results must be equal, pixel for pixel."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

import reference_pipeline as reference
from tilepipe.detector import cut_tile
from tilepipe.frameio import read_ppm
from tilepipe.geometry import MODEL_SIDE, CropSpec, Rect

PLACEMENTS = ("inside", "flush", "partly_outside", "outside")


def random_pixels(height, width, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


@st.composite
def crop_cases(draw):
    """A frame size, a crop side on either side of the model's, and a crop
    origin placed inside, flush with an edge, partly or fully outside."""
    height = draw(st.integers(1, 1300))
    width = draw(st.integers(1, 1300))
    placement = draw(st.sampled_from(PLACEMENTS))
    if placement == "inside":
        side = draw(st.integers(1, min(width, height)))
    else:
        below, above = st.integers(1, MODEL_SIDE), st.integers(MODEL_SIDE + 1, 1400)
        side = draw(st.one_of(below, above))

    def origin(extent):
        if placement == "inside":
            return draw(st.integers(0, extent - side))
        if placement == "flush":
            return draw(st.sampled_from([0, extent - side]))
        if placement == "outside":
            gap = draw(st.integers(0, 50))
            return draw(st.sampled_from([extent + gap, -side - gap]))
        return draw(st.integers(-side + 1, extent - 1))

    x, y = origin(width), origin(height)
    return height, width, side, x, y, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(case=crop_cases(), prefill=st.booleans())
@example(case=(1300, 1300, 1100, 100, 150, 0), prefill=True)  # inside, side > 608
@example(case=(1, 1, 1, 0, 0, 1), prefill=True)  # 1x1 frame
@example(case=(1, 1, 700, -300, -300, 2), prefill=False)
@example(case=(720, 1280, 608, 672, 112, 3), prefill=True)  # flush right and bottom
def test_cut_tile_matches_reference(case, prefill):
    height, width, side, x, y, seed = case
    pixels = random_pixels(height, width, seed)
    crop = CropSpec(0, 0, 0, Rect(x, y, side, side), side / MODEL_SIDE)
    want = reference.cut_tile(pixels, crop)
    if prefill:
        out = np.full((MODEL_SIDE, MODEL_SIDE, 3), 0xAB, dtype=np.uint8)
        got = cut_tile(pixels, crop, out=out)
        assert got is out
    else:
        got = cut_tile(pixels, crop)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


SEPARATORS = (b" ", b"\n", b"\t", b"\r\n", b"  \n ")


@settings(max_examples=40, deadline=None)
@given(
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    comment_len=st.integers(4097, 12000),
    comment_at=st.integers(0, 2),
    separators=st.lists(st.sampled_from(SEPARATORS), min_size=3, max_size=3),
    trailing=st.binary(max_size=64),
)
def test_read_ppm_matches_reference(
    height, width, seed, comment_len, comment_at, separators, trailing
):
    pixels = random_pixels(height, width, seed)
    fields = [b"P6", b"%d" % width, b"%d" % height, b"255"]
    header = fields[0]
    for i, (sep, field) in enumerate(zip(separators, fields[1:])):
        if i == comment_at:
            # the comment alone is longer than the first 4 KiB read
            sep += b"#" + b"c" * comment_len + b"\n"
        header += sep + field
    data = header + b"\n" + pixels.tobytes() + trailing
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.ppm"
        path.write_bytes(data)
        want = reference.read_ppm(path)
        got = read_ppm(path)
    assert np.array_equal(want, pixels)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
