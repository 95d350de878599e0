"""cut_tile and read_ppm against the versions they replaced, which copied
every pixel several times; the results must be equal, pixel for pixel,
also when the frame pixels are a strided view of a larger array, and
whatever cut_tile's cached gather plans held before."""

import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_pipeline as reference
from tilepipe import detector
from tilepipe.detector import cut_tile
from tilepipe.frameio import read_ppm
from tilepipe.geometry import MODEL_SIDE, CropSpec, Rect
from tilepipe.pipeline import GridPlan, PipelineSettings

PLACEMENTS = ("inside", "flush", "partly_outside", "outside")
LAYOUTS = ("contiguous", "subslice", "reversed", "strided")


def random_pixels(height, width, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


def laid_out_pixels(height, width, seed, layout):
    """Random height x width x 3 pixels, contiguous or as a view: a window
    of a larger frame, the frame flipped on both axes, or every second row
    and third column of a larger one."""
    if layout == "contiguous":
        return random_pixels(height, width, seed)
    if layout == "subslice":
        return random_pixels(height + 7, width + 5, seed)[3 : 3 + height, 2 : 2 + width]
    if layout == "reversed":
        return random_pixels(height, width, seed)[::-1, ::-1]
    return random_pixels(2 * height, 3 * width, seed)[::2, ::3]


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


@settings(max_examples=80, deadline=None)
@given(case=crop_cases(), prefill=st.booleans(), layout=st.sampled_from(LAYOUTS))
@example(case=(1300, 1300, 1100, 100, 150, 0), prefill=True, layout="contiguous")
@example(case=(1, 1, 1, 0, 0, 1), prefill=True, layout="contiguous")  # 1x1 frame
@example(case=(1, 1, 700, -300, -300, 2), prefill=False, layout="reversed")
@example(case=(720, 1280, 608, 672, 112, 3), prefill=True, layout="subslice")
@example(case=(700, 900, 1100, -100, -50, 4), prefill=True, layout="strided")
# a 1298-px window in bands of 269, 269 and 70 rows
@example(case=(1300, 1300, 1300, 0, 0, 5), prefill=True, layout="strided")
# tile rows 0-303 overhang the top edge, across the band edge at row 269
@example(case=(1300, 1300, 1300, 0, -650, 6), prefill=True, layout="reversed")
# one window row is more than a band's budget: 608 bands of one row
@example(case=(2, 352_000, 352_000, -1000, 0, 7), prefill=True, layout="contiguous")
def test_cut_tile_matches_reference(case, prefill, layout):
    height, width, side, x, y, seed = case
    pixels = laid_out_pixels(height, width, seed, layout)
    assert pixels.shape == (height, width, 3)
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


def square_crop(x, y, side):
    return CropSpec(0, 0, 0, Rect(x, y, side, side), side / MODEL_SIDE)


class TestCutPlan:
    def test_a_plan_is_never_reused_for_another_frame_size_or_side(self):
        # overhangs the right and bottom edges of 1280x720, fits 1300x800
        # exactly: a plan kept from the first frame would zero real pixels
        crop = square_crop(900, 400, 400)
        for (height, width), side in [((720, 1280), MODEL_SIDE),
                                      ((800, 1300), MODEL_SIDE),
                                      ((800, 1300), 416)]:
            pixels = random_pixels(height, width, width)
            got = cut_tile(pixels, crop, side)
            assert np.array_equal(got, reference.cut_tile(pixels, crop, side))

    def test_threads_cut_two_frames_at_once(self):
        # the 4K bench scene's grid, on a frame of its size and on a smaller
        # one that its edge crops overhang; plans are built while threads
        # race for them
        settings_4k = PipelineSettings.from_preset("1 att, 2 fin, 20 over")
        plan = GridPlan.build(3840, 2160, settings_4k)
        crops = [*plan.attention_grid.crops, *plan.final_grid.crops]
        frames = [random_pixels(2160, 3840, 1), random_pixels(2000, 3600, 2)]
        jobs = [(f, c) for f in range(len(frames)) for c in range(len(crops))]
        want = {(f, c): reference.cut_tile(frames[f], crops[c]) for f, c in jobs}
        detector._cut_plan.cache_clear()
        start = threading.Barrier(8)

        def cut_all(thread):
            out = np.empty((MODEL_SIDE, MODEL_SIDE, 3), np.uint8)
            start.wait(timeout=30)
            wrong = []
            for _ in range(2):
                for f, c in jobs[thread:] + jobs[:thread]:
                    cut_tile(frames[f], crops[c], out=out)
                    if not np.array_equal(out, want[f, c]):
                        wrong.append((f, c))
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(cut_all, t) for t in range(8)]
                wrong = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [[]] * 8

    @pytest.mark.parametrize(
        "key",
        [
            (2160, 3840, 840, 0, 2160, MODEL_SIDE),  # 4K attention crop
            (2160, 3840, 2742, 1062, 1098, MODEL_SIDE),  # 4K final crop
            (4320, 7680, 1680, 0, 4320, MODEL_SIDE),  # 8K attention crop
            (720, 1280, 100, 100, 608, MODEL_SIDE),  # native resolution
            (720, 1280, -50, -60, 1400, 416),  # overhangs every edge
            (1, 1, 0, 0, 1, MODEL_SIDE),  # one pixel
            (2, 352_000, -1000, 0, 352_000, MODEL_SIDE),  # one row over budget
        ],
    )
    def test_bands_cover_the_tile_rows_once_within_the_budget(self, key):
        input_side = key[-1]
        plan = detector._cut_plan(*key)
        row_bytes = 3 * (plan.cols.stop - plan.cols.start)
        sizes = [band.stop - band.start for band in plan.bands]
        starts = [band.start for band in plan.bands]
        assert all(band.step is None for band in plan.bands)
        assert starts == [0, *np.cumsum(sizes[:-1])]
        assert sum(sizes) == input_side and min(sizes) >= 1
        for size in sizes:
            assert size * row_bytes <= detector._BAND_BYTES or size == 1
        # no two neighbouring bands would fit in one
        for a, b in zip(sizes, sizes[1:]):
            assert (a + b) * row_bytes > detector._BAND_BYTES

    def test_plan_arrays_are_read_only(self):
        # overhangs every edge, so the plan holds both fill masks
        plan = detector._cut_plan(720, 1280, -50, -60, 1400, MODEL_SIDE)
        arrays = [plan.rows, plan.byte_index, plan.row_fill, plan.col_fill]
        assert all(isinstance(a, np.ndarray) for a in arrays)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


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
