"""The traced benchmark run (perfbench/layers.py) wraps module-level names of
the program to time each layer. These tests install its client hooks, run
each benchmark workload's entry point on a small pixel scene, and check that
every span the traced run requires was recorded. A refactor that moves a
hooked call out from under its hook fails here, not only in
`python3 perfbench/run.py --trace 1`.
"""

import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import (  # noqa: E402
    _request_key,
    expected_spans,
    install_client,
)
from perfbench.spans import Hooks, Recorder  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from tilepipe.distribution import ClusterConfig, DetectorServer, run_stream  # noqa: E402
from tilepipe.geometry import MODEL_SIDE  # noqa: E402
from tilepipe.pipeline import (  # noqa: E402
    Frame,
    GridPlan,
    PipelineSettings,
    oracle_for_scene,
    run_sequence,
)
from tilepipe.synthetic import SceneSpec, generate_scene, render_frame  # noqa: E402

WIDTH, HEIGHT = 1280, 720
TILE_BYTES = MODEL_SIDE * MODEL_SIDE * 3


def counting_tiles(tiles_by_key):
    """A send_message wrapper that notes how many tiles each request carries."""

    def make(original):
        def send_message(sock, header, payload=b""):
            if header.get("type") == "EVAL_REQUEST":
                tiles_by_key[_request_key(header)] = sum(
                    1 for crop in header["crops"] if crop["width"]
                )
            return original(sock, header, payload)

        return send_message

    return make


@pytest.fixture(scope="module")
def ground_truth():
    return generate_scene(SceneSpec("mixed", WIDTH, HEIGHT, frame_count=3, seed=0))


@pytest.mark.parametrize("name", ["local-4k-mixed", "cluster-4k-mixed"])
def test_traced_run_records_every_required_span(name, ground_truth):
    workload = WORKLOADS[name]
    settings = PipelineSettings.from_preset(workload.scene.preset)
    oracle = oracle_for_scene(WIDTH, HEIGHT, settings, ground_truth)
    plan = GridPlan.build(WIDTH, HEIGHT, settings)
    frames = [
        Frame(fid, WIDTH, HEIGHT, render_frame(WIDTH, HEIGHT, objects))
        for fid, objects in sorted(ground_truth.items())
    ]
    recorder = Recorder()
    hooks = Hooks()
    with ExitStack() as stack:
        if workload.cluster:
            att, fin = (stack.enter_context(DetectorServer(oracle)) for _ in range(2))
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
        tiles_by_key = {}
        try:
            if workload.cluster:
                # wrapped first, so the benchmark's hook wraps this one
                hooks.wrap("tilepipe.distribution.wire:send_message",
                           counting_tiles(tiles_by_key))
            install_client(hooks, recorder, workload, len(plan.attention_grid.crops))
            if workload.cluster:
                results = run_stream(frames, settings, cluster)
            else:
                results = list(run_sequence(frames, settings, oracle, plan=plan))
        finally:
            hooks.restore()

    assert [r.frame_id for r in results] == [0, 1, 2]
    # frameio.next comes from the benchmark's own frame iterator
    required = expected_spans(workload)[0] - {"frameio.next"}
    recorded = {span.name for span in recorder.spans}
    assert not required - recorded, f"no spans for {sorted(required - recorded)}"
    # the benchmark counts request bytes with len(payload): each request
    # must count at least its tiles' bytes, not, say, its number of tiles
    for span in recorder.spans:
        if span.name == "wire.send":
            tiles = tiles_by_key[span.attrs["key"]]
            assert tiles > 0
            assert span.attrs["bytes"] >= tiles * TILE_BYTES, span.attrs
