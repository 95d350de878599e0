"""End-to-end tests of the tilepipe command line, run in process."""

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import tilepipe
from tilepipe.cli import main
from tilepipe.detector import Detector, DetectorProfile
from tilepipe.distribution import DetectorServer, client
from tilepipe.frameio import FrameSource, read_ground_truth, read_results, result_line
from tilepipe.metrics import ap_report, count_report
from tilepipe.pipeline import RUN_MODES, PipelineSettings, oracle_for_scene, run_sequence

PRESET = "1 att, 3 fin, 50 over"
SETTINGS = PipelineSettings.from_preset(PRESET)


def write_config(path, scene_dir, detector="oracle", cluster=None):
    lines = [
        "[pipeline]",
        f"preset = {PRESET}",
        "[detector]",
        f"kind = {detector}",
        "[paths]",
        f"ground_truth = {scene_dir / 'gt.jsonl'}",
        f"frames = {scene_dir}",
        f"results = {path.parent / (path.stem + '.jsonl')}",
    ]
    if cluster is not None:
        lines += ["[cluster]", *(f"{k} = {v}" for k, v in cluster.items())]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    argv = ["gen-synthetic", "--out", str(out), "--kind", "mixed", "--width", "1280",
            "--height", "720", "--frame-count", "3", "--seed", "1"]
    assert main(argv) == 0
    return out


def reference_bytes(scene_dir, mode="pipeline") -> bytes:
    source = FrameSource.open(scene_dir)
    gt = read_ground_truth(scene_dir / "gt.jsonl")
    oracle = oracle_for_scene(source.width, source.height, SETTINGS, gt)
    results = run_sequence(source.frames(), SETTINGS, oracle, mode=mode)
    return "".join(result_line(r) + "\n" for r in results).encode()


@pytest.mark.parametrize("mode", RUN_MODES)
def test_gen_synthetic_then_run_matches_run_sequence(scene_dir, tmp_path, mode):
    config = write_config(tmp_path / "local.ini", scene_dir)
    assert main(["run", "--config", str(config), "--mode", mode]) == 0
    written = (tmp_path / "local.jsonl").read_bytes()
    assert written.count(b"\n") == 3
    assert written == reference_bytes(scene_dir, mode)


@pytest.fixture(scope="module")
def results_path(scene_dir, tmp_path_factory):
    config = write_config(tmp_path_factory.mktemp("run") / "eval.ini", scene_dir)
    assert main(["run", "--config", str(config)]) == 0
    return config.with_suffix(".jsonl")


def test_eval_prints_ap_report_and_counts(scene_dir, results_path, capsys):
    gt_path = scene_dir / "gt.jsonl"
    argv = ["eval", "--detections", str(results_path), "--gt", str(gt_path)]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    dets = {r.frame_id: list(r.detections) for r in read_results(results_path)}
    gts = read_ground_truth(gt_path)
    expected = ap_report(dets, gts)
    expected["counts"] = [list(row) for row in count_report(dets, gts)]
    assert printed == expected
    assert set(printed) == {"ap25", "ap50", "ap75", "per_class", "counts"}


def test_eval_keys_close_thresholds_apart(scene_dir, results_path, capsys):
    argv = ["eval", "--detections", str(results_path), "--gt",
            str(scene_dir / "gt.jsonl"), "--thresholds", "0.25,0.251,0.005"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"ap0.5", "ap25", "ap25.1", "per_class", "counts"}
    for per_class in printed["per_class"].values():
        assert set(per_class) == {"ap0.5", "ap25", "ap25.1"}


def test_eval_rejects_thresholds_sharing_a_key(scene_dir, results_path, capsys):
    argv = ["eval", "--detections", str(results_path), "--gt",
            str(scene_dir / "gt.jsonl"), "--thresholds", "0.25,0.2500001"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "share an ap_report key" in captured.err


@pytest.mark.parametrize("listen", ["127.0.0.1:70000", "localhost:abc", "localhost"])
def test_serve_bad_listen_exits_2(scene_dir, tmp_path, capsys, listen):
    config = write_config(tmp_path / "serve.ini", scene_dir)
    assert main(["serve", "--config", str(config), "--listen", listen]) == 2
    assert "expected host:port" in capsys.readouterr().err


def test_cluster_bad_endpoint_exits_2(scene_dir, tmp_path, capsys):
    config = write_config(
        tmp_path / "remote.ini",
        scene_dir,
        detector="remote",
        cluster={"final_workers": "127.0.0.1:abc"},
    )
    assert main(["run", "--config", str(config)]) == 2
    assert "'127.0.0.1:abc'" in capsys.readouterr().err


def run_on_in_process_workers(scene_dir, tmp_path) -> bytes:
    gt = read_ground_truth(scene_dir / "gt.jsonl")
    oracle = oracle_for_scene(1280, 720, SETTINGS, gt)
    with DetectorServer(oracle) as att, DetectorServer(oracle) as fin:
        config = write_config(
            tmp_path / "remote.ini",
            scene_dir,
            detector="remote",
            cluster={"final_workers": fin.endpoint, "attention_workers": att.endpoint},
        )
        assert main(["run", "--config", str(config)]) == 0
    return (tmp_path / "remote.jsonl").read_bytes()


def test_remote_run_matches_local_bytes(scene_dir, tmp_path, sent_blocks):
    assert run_on_in_process_workers(scene_dir, tmp_path) == reference_bytes(scene_dir)
    # same-host workers: every request's tiles went in a shared-memory block
    assert sent_blocks and all(sent_blocks)


def test_remote_run_over_tcp_matches_local_bytes(
    scene_dir, tmp_path, sent_blocks, monkeypatch
):
    monkeypatch.setattr(client, "_echoes_probe", lambda reply, nonce: False)
    assert run_on_in_process_workers(scene_dir, tmp_path) == reference_bytes(scene_dir)
    assert sent_blocks and not any(sent_blocks)


def test_run_on_serve_workers_matches_local_bytes(scene_dir, tmp_path, sent_blocks):
    """Two `tilepipe serve` processes, each with its own resource tracker,
    pipelined (attention + final) and sequential (two final workers)."""
    serve_config = write_config(tmp_path / "serve.ini", scene_dir)
    argv = [sys.executable, "-m", "tilepipe.cli", "serve", "--config",
            str(serve_config), "--listen", "127.0.0.1:0"]
    env = {"PYTHONPATH": str(Path(tilepipe.__file__).parents[1])}
    workers = [
        subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    try:
        first, second = (
            w.stdout.readline().removeprefix("listening on ").strip() for w in workers
        )
        for cluster in (
            {"attention_workers": first, "final_workers": second},
            {"final_workers": f"{first}, {second}"},
        ):
            config = write_config(
                tmp_path / "remote.ini", scene_dir, detector="remote", cluster=cluster
            )
            assert main(["run", "--config", str(config)]) == 0
            assert (tmp_path / "remote.jsonl").read_bytes() == reference_bytes(scene_dir)
    finally:
        for w in workers:
            w.send_signal(signal.SIGINT)
        errors = [w.communicate(timeout=10)[1] for w in workers]
    assert sent_blocks and all(sent_blocks)
    # a worker that registered the client's blocks with its resource
    # tracker would have them unlinked, with a warning, when it exits
    assert errors == ["", ""]
    assert [w.returncode for w in workers] == [0, 0]


def test_mismatched_worker_exits_2(scene_dir, tmp_path, capsys):
    class Mismatched(Detector):
        profile = DetectorProfile(input_side=416)

        def detect(self, frame_id, crop_id, tile=None):
            return []

    with DetectorServer(Mismatched()) as fin:
        config = write_config(
            tmp_path / "remote.ini", scene_dir, detector="remote",
            cluster={"final_workers": fin.endpoint},
        )
        assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert fin.endpoint in err
    assert "input_side" in err
    assert not (tmp_path / "remote.jsonl").exists()


def test_bad_preset_exits_2(scene_dir, tmp_path, capsys):
    config = write_config(tmp_path / "local.ini", scene_dir)
    assert main(["run", "--config", str(config), "--preset", "three rows"]) == 2
    assert "bad preset" in capsys.readouterr().err


def test_grid_without_preset_or_rows_exits_2(scene_dir, tmp_path, capsys):
    config = write_config(tmp_path / "local.ini", scene_dir)
    text = config.read_text().replace(f"preset = {PRESET}", "final_rows = 2")
    config.write_text(text)
    assert main(["run", "--config", str(config)]) == 2
    assert "attention_rows" in capsys.readouterr().err


MALFORMED_CONFIGS = {
    "no-section-header": lambda text: text.replace("[pipeline]\n", "", 1),
    "duplicate-key": lambda text: text.replace(
        "[detector]\n", f"preset = {PRESET}\n[detector]\n", 1
    ),
    "lone-percent": lambda text: text.replace(
        "[detector]\n", "[detector]\nmin_tile_px = 8%\n", 1
    ),
}
CONFIG_COMMANDS = {
    "run": [],
    "serve": ["--listen", "127.0.0.1:0"],
    "eval": [],
}


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("malformed", MALFORMED_CONFIGS)
def test_malformed_config_exits_2(scene_dir, tmp_path, capsys, command, malformed):
    config = write_config(tmp_path / "local.ini", scene_dir)
    config.write_text(MALFORMED_CONFIGS[malformed](config.read_text()))
    argv = [command, "--config", str(config), *CONFIG_COMMANDS[command]]
    assert main(argv) == 2
    assert f"{config}: malformed config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "eval"])
def test_malformed_ground_truth_exits_2(scene_dir, results_path, tmp_path, capsys, command):
    gt_path = tmp_path / "gt.jsonl"
    gt_path.write_text((scene_dir / "gt.jsonl").read_text() + "5\n")
    if command == "run":
        config = write_config(tmp_path / "local.ini", scene_dir)
        config.write_text(
            config.read_text().replace(str(scene_dir / "gt.jsonl"), str(gt_path))
        )
        argv = ["run", "--config", str(config)]
    else:
        argv = ["eval", "--detections", str(results_path), "--gt", str(gt_path)]
    assert main(argv) == 2
    assert f"{gt_path}:" in capsys.readouterr().err
    assert not (tmp_path / "local.jsonl").exists()
