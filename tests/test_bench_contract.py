"""The traced benchmark run (perfbench/layers.py) wraps module-level names of
the program to time each layer. These tests install its client hooks, run
each benchmark workload's entry point on a small pixel scene, and check that
every span the traced run requires was recorded. A refactor that moves a
hooked call out from under its hook fails here, not only in
`python3 perfbench/run.py --trace 1`.

The cluster case runs on both request transports: tiles as the TCP payload
(the probe is made to fail, as for a worker on another host) and tiles in a
shared-memory block, which in-process workers can map. Every case runs on
frames built in memory and on the same frames written as PPMs and read
through FrameSource, as the benchmark reads them: the oracle never looks at
pixels, so only the block check here sees tiles cut from mapped files.
"""

import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

import reference_pipeline as reference

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
from tilepipe.distribution import client, shm  # noqa: E402
from tilepipe.frameio import FrameSource, frame_file_name, write_ppm  # noqa: E402
from tilepipe.geometry import TILE_BYTES  # noqa: E402
from tilepipe.pipeline import (  # noqa: E402
    Frame,
    GridPlan,
    PipelineSettings,
    oracle_for_scene,
    run_sequence,
)
from tilepipe.synthetic import SceneSpec, generate_scene, render_frame  # noqa: E402

WIDTH, HEIGHT = 1280, 720


def counting_tiles(tiles_by_key, sent_by_key, frames, crops_by_id):
    """A send_message wrapper that notes how many tiles each request carries,
    and for a request whose tiles are in a block, what the block and the
    payload held when it was sent, beside the reference tiles."""

    def make(original):
        def send_message(sock, header, payload=b""):
            if header.get("type") == "EVAL_REQUEST":
                key = _request_key(header)
                carries_tiles = len(payload) or "shm" in header
                tiles_by_key[key] = len(header["crops"]) if carries_tiles else 0
                if "shm" in header:
                    pixels = frames[header["frame_id"]].pixels
                    want = b"".join(
                        reference.cut_tile(pixels, crops_by_id[c["crop_id"]]).tobytes()
                        for c in header["crops"]
                    )
                    block = shm.attach(header["shm"])
                    try:
                        held = block[: len(want)]
                    finally:
                        shm.detach(block)
                    sent_by_key[key] = (header["shm"], bytes(payload), held, want)
            return original(sock, header, payload)

        return send_message

    return make


@pytest.fixture(scope="module")
def ground_truth():
    return generate_scene(SceneSpec("mixed", WIDTH, HEIGHT, frame_count=3, seed=0))


CASES = [
    ("local-4k-mixed", None, "local-4k-mixed"),
    ("cluster-4k-mixed", "tcp", "cluster-4k-mixed"),
    ("cluster-4k-mixed", "shm", "cluster-4k-mixed-shm"),
]


@pytest.mark.parametrize(
    "name, transport, source",
    [
        pytest.param(name, transport, source, id=case + suffix)
        for name, transport, case in CASES
        for source, suffix in (("memory", ""), ("ppm", "-ppm"))
    ],
)
def test_traced_run_records_every_required_span(
    name, transport, source, ground_truth, monkeypatch, tmp_path
):
    workload = WORKLOADS[name]
    settings = PipelineSettings.from_preset(workload.scene.preset)
    oracle = oracle_for_scene(WIDTH, HEIGHT, settings, ground_truth)
    plan = GridPlan.build(WIDTH, HEIGHT, settings)
    frames = [
        Frame(fid, WIDTH, HEIGHT, render_frame(WIDTH, HEIGHT, objects))
        for fid, objects in sorted(ground_truth.items())
    ]
    run_frames = frames
    if source == "ppm":
        for frame in frames:
            write_ppm(tmp_path / frame_file_name(frame.frame_id), frame.pixels)
        run_frames = FrameSource.open(tmp_path).frames()
    if transport == "tcp":
        monkeypatch.setattr(client, "_echoes_probe", lambda reply, nonce: False)
    recorder = Recorder()
    hooks = Hooks()
    with ExitStack() as stack:
        if workload.cluster:
            att, fin = (stack.enter_context(DetectorServer(oracle)) for _ in range(2))
            cluster = ClusterConfig(
                final_workers=(fin.endpoint,), attention_workers=(att.endpoint,)
            )
        tiles_by_key = {}
        sent_by_key = {}
        try:
            if workload.cluster:
                # wrapped first, so the benchmark's hook wraps this one
                hooks.wrap("tilepipe.distribution.wire:send_message",
                           counting_tiles(tiles_by_key, sent_by_key, frames,
                                          plan.crops_by_id()))
            install_client(hooks, recorder, workload, len(plan.attention_grid.crops))
            if workload.cluster:
                results = run_stream(run_frames, settings, cluster)
            else:
                results = list(run_sequence(run_frames, settings, oracle, plan=plan))
        finally:
            hooks.restore()

    assert [r.frame_id for r in results] == [0, 1, 2]
    # frameio.next comes from the benchmark's own frame iterator
    required = expected_spans(workload)[0] - {"frameio.next"}
    recorded = {span.name for span in recorder.spans}
    assert not required - recorded, f"no spans for {sorted(required - recorded)}"
    if workload.cluster:
        # the benchmark tells a stage's span by evaluate_remote's leading
        # (frame, crops): one span per frame and stage, frames with no
        # active crop included
        stages = sorted(
            (span.frame, span.attrs["stage"])
            for span in recorder.spans
            if span.name == "client.evaluate_remote"
        )
        assert stages == [(f, s) for f in (0, 1, 2) for s in ("attention", "final")]
    sends = [span for span in recorder.spans if span.name == "wire.send"]
    if transport == "shm":
        # no tiles on the wire: each request names a block that held them
        assert sends
        for span in sends:
            key = span.attrs["key"]
            assert tiles_by_key[key] > 0
            name, payload, held, want = sent_by_key[key]
            assert payload == b""
            assert name.startswith(shm.PREFIX)
            assert held == want
        return
    assert not sent_by_key
    # the benchmark counts request bytes with len(payload): each request
    # must count at least its tiles' bytes, not, say, its number of tiles
    for span in recorder.spans:
        if span.name == "wire.send":
            tiles = tiles_by_key[span.attrs["key"]]
            assert tiles > 0
            assert span.attrs["bytes"] >= tiles * TILE_BYTES, span.attrs
