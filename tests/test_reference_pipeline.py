"""run_sequence in every mode against the per-frame functions it replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_pipeline import reference_sequence
from tilepipe.frameio import result_line
from tilepipe.geometry import CropSettings
from tilepipe.pipeline import (
    RUN_MODES,
    Frame,
    PipelineSettings,
    oracle_for_scene,
    run_sequence,
)
from tilepipe.synthetic import SceneSpec, generate_scene, render_frame


@st.composite
def runs(draw):
    # a stride > 1 skips scene frames, so objects move far enough between
    # evaluated frames for TEMPORAL_WINDOW to change the active set
    frame_count = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 30))
    spec = SceneSpec(
        kind=draw(st.sampled_from(["mixed", "small", "straddle"])),
        width=draw(st.integers(320, 1280)),
        height=draw(st.integers(240, 720)),
        frame_count=(frame_count - 1) * stride + 1,
        seed=draw(st.integers(0, 2**16)),
    )
    att_rows = draw(st.integers(1, 2))
    overlap = draw(st.sampled_from([0, 20, 50]))
    run_settings = PipelineSettings(
        CropSettings(att_rows, overlap),
        CropSettings(draw(st.integers(att_rows, 3)), overlap),
    )
    return spec, stride, run_settings, draw(st.booleans())


def scene_frames(spec, stride, with_pixels):
    """The scene of a drawn run, every stride-th frame of it, and its frames."""
    scene = generate_scene(spec)
    scene = {fid: scene[fid] for fid in range(0, spec.frame_count, stride)}
    frames = [
        Frame(
            fid,
            spec.width,
            spec.height,
            render_frame(spec.width, spec.height, objects) if with_pixels else None,
        )
        for fid, objects in sorted(scene.items())
    ]
    return scene, frames


@pytest.mark.parametrize("mode", RUN_MODES)
@settings(max_examples=30, deadline=None)
@given(run=runs())
def test_run_sequence_matches_reference(mode, run):
    spec, stride, run_settings, with_pixels = run
    scene, frames = scene_frames(spec, stride, with_pixels)
    oracle = oracle_for_scene(spec.width, spec.height, run_settings, scene)
    got = [result_line(r) for r in run_sequence(frames, run_settings, oracle, mode=mode)]
    want = [result_line(r) for r in reference_sequence(frames, run_settings, oracle, mode)]
    assert got == want
