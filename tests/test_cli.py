"""End-to-end tests of the tilepipe command line, run in process."""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import tilepipe
from tilepipe import cli
from tilepipe.cli import build_parser, main
from tilepipe.distribution import DetectorServer, client
from tilepipe.frameio import (
    FrameSource,
    frame_file_name,
    read_ground_truth,
    read_results,
    result_line,
)
from tilepipe.metrics import ap_report, count_report
from tilepipe.pipeline import RUN_MODES, PipelineSettings, oracle_for_scene, run_sequence

# a child writes no bytecode caches when this interpreter does not
PYTHON = [sys.executable, *(["-B"] if sys.flags.dont_write_bytecode else [])]

PRESET = "1 att, 3 fin, 50 over"
SETTINGS = PipelineSettings.from_preset(PRESET)


def write_config(path, scene_dir, cluster=None):
    """A run config for scene_dir; with cluster, a run on those workers."""
    lines = [
        "[pipeline]",
        f"preset = {PRESET}",
        "[detector]",
        "visibility_threshold = 0.3",
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


@pytest.mark.parametrize("key", ["final_workers", "attention_workers"])
def test_cluster_endpoint_listed_twice_exits_2(scene_dir, tmp_path, capsys, key):
    cluster = {"final_workers": "127.0.0.1:1", key: "127.0.0.1:2, 127.0.0.1:2"}
    config = write_config(tmp_path / "remote.ini", scene_dir, cluster=cluster)
    assert main(["run", "--config", str(config)]) == 2
    assert f"[cluster] {key}: '127.0.0.1:2' listed twice" in capsys.readouterr().err
    assert not (tmp_path / "remote.jsonl").exists()


def test_cluster_bad_endpoint_exits_2(scene_dir, tmp_path, capsys):
    config = write_config(
        tmp_path / "remote.ini", scene_dir, cluster={"final_workers": "127.0.0.1:abc"}
    )
    assert main(["run", "--config", str(config)]) == 2
    assert "'127.0.0.1:abc'" in capsys.readouterr().err


def test_baseline_mode_with_a_cluster_exits_2_naming_it(scene_dir, tmp_path, capsys):
    config = write_config(
        tmp_path / "remote.ini", scene_dir, cluster={"final_workers": "127.0.0.1:1"}
    )
    assert main(["run", "--config", str(config), "--mode", "downscale"]) == 2
    assert "baseline modes run locally; remove [cluster]" in capsys.readouterr().err
    assert not (tmp_path / "remote.jsonl").exists()


def run_on_in_process_workers(scene_dir, tmp_path) -> bytes:
    gt = read_ground_truth(scene_dir / "gt.jsonl")
    oracle = oracle_for_scene(1280, 720, SETTINGS, gt)
    with DetectorServer(oracle) as att, DetectorServer(oracle) as fin:
        config = write_config(
            tmp_path / "remote.ini",
            scene_dir,
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
    """Two `tilepipe serve` processes, each with its own resource tracker:
    one per stage, then both as final workers that also run attention."""
    serve_config = write_config(tmp_path / "serve.ini", scene_dir)
    argv = [*PYTHON, "-m", "tilepipe.cli", "serve", "--config",
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
            config = write_config(tmp_path / "remote.ini", scene_dir, cluster=cluster)
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


def test_worker_on_another_grid_exits_2(scene_dir, tmp_path, capsys):
    """Workers built for 1 att, 3 fin; the client's config names 1 att, 2 fin."""
    gt = read_ground_truth(scene_dir / "gt.jsonl")
    oracle = oracle_for_scene(1280, 720, SETTINGS, gt)
    with DetectorServer(oracle) as att, DetectorServer(oracle) as fin:
        config = write_config(
            tmp_path / "remote.ini",
            scene_dir,
            cluster={"final_workers": fin.endpoint, "attention_workers": att.endpoint},
        )
        config.write_text(
            config.read_text().replace(PRESET, "1 att, 2 fin, 50 over")
        )
        assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert att.endpoint in err
    assert "catalog" in err
    assert not (tmp_path / "remote.jsonl").exists()


def test_bad_preset_exits_2(scene_dir, tmp_path, capsys):
    config = write_config(tmp_path / "local.ini", scene_dir)
    config.write_text(config.read_text().replace(PRESET, "three rows"))
    assert main(["run", "--config", str(config)]) == 2
    assert "bad preset" in capsys.readouterr().err


def test_grid_without_preset_or_rows_exits_2(scene_dir, tmp_path, capsys):
    config = write_config(tmp_path / "local.ini", scene_dir)
    text = config.read_text().replace(f"preset = {PRESET}", "final_rows = 2")
    config.write_text(text)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: [pipeline] final_rows: unknown key" in err
    assert "preset" in err


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


@pytest.fixture
def no_server(monkeypatch):
    """A serve that gets past its checks fails here instead of serving."""

    def refuse(*args, **kwargs):
        raise AssertionError("serve started a server")

    monkeypatch.setattr(cli, "DetectorServer", refuse)


UNKNOWN_KEYS = {
    "overlap-beside-preset": (
        "[detector]\n", "overlap_px = 50\n[detector]\n",
        "[pipeline] overlap_px: unknown key",
    ),
    "run-section": (
        "[paths]\n", "[run]\nmode = downscale\n[paths]\n", "unknown section [run]",
    ),
}


@pytest.mark.usefixtures("no_server")
@pytest.mark.parametrize("unknown", UNKNOWN_KEYS)
@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_unknown_config_key_exits_2(scene_dir, tmp_path, capsys, command, unknown):
    before, after, named = UNKNOWN_KEYS[unknown]
    config = write_config(tmp_path / "local.ini", scene_dir)
    config.write_text(config.read_text().replace(before, after, 1))
    argv = [command, "--config", str(config), *CONFIG_COMMANDS[command]]
    assert main(argv) == 2
    assert f"{config}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "local.jsonl").exists()


# (section, key, value): each a value the key's type or range refuses
BAD_VALUES = {
    "zero-width": ("[frame]", "width", "0"),
    "nan-timeout": ("[cluster]", "request_timeout_s", "nan"),
    "inf-timeout": ("[cluster]", "request_timeout_s", "inf"),
    "word-window": ("[pipeline]", "temporal_window", "two"),
    "zero-window": ("[pipeline]", "temporal_window", "0"),
    "negative-margin": ("[pipeline]", "attention_margin_px", "-1"),
    "confidence-over-1": ("[pipeline]", "min_confidence", "1.5"),
    "fewer-final-rows": ("[pipeline]", "preset", "2 att, 1 fin, 50 over"),
    # not a key: [cluster] alone says whether a run is remote
    "unknown-kind": ("[detector]", "kind", "banana"),
}


@pytest.mark.parametrize("case", BAD_VALUES)
def test_bad_config_value_exits_2_naming_it(scene_dir, tmp_path, capsys, case):
    section, key, value = BAD_VALUES[case]
    cluster = {"final_workers": "127.0.0.1:1"} if section == "[cluster]" else None
    config = write_config(tmp_path / "local.ini", scene_dir, cluster)
    text = config.read_text()
    if section == "[frame]":  # raster-free, so that only the config sizes frames
        text = text.replace(f"frames = {scene_dir}\n", "") + "[frame]\nheight = 720\n"
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} = ")]
    text = "\n".join(lines) + "\n"  # without the key, if write_config set it
    config.write_text(text.replace(f"{section}\n", f"{section}\n{key} = {value}\n", 1))
    assert main(["run", "--config", str(config)]) == 2
    assert f"{config}: {section} {key}: " in capsys.readouterr().err
    assert not (tmp_path / "local.jsonl").exists()


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


def test_run_into_a_closed_stdout_exits_0(scene_dir, tmp_path):
    """A reader that went away (`tilepipe run … | head -1`) after the run
    wrote its files does not make a finished run fail."""
    config = write_config(tmp_path / "local.ini", scene_dir)
    argv = [*PYTHON, "-m", "tilepipe.cli", "run", "--config", str(config)]
    env = {"PYTHONPATH": str(Path(tilepipe.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "local.jsonl").read_bytes() == reference_bytes(scene_dir)


BAD_FRAME_DIRS = {
    "no-frames": {},
    "p5-first-frame": {frame_file_name(0): b"P5\n1280 720\n255\n" + bytes(1280 * 720)},
}


def test_serve_into_a_closed_stdout_exits_1(scene_dir, tmp_path):
    """serve prints its endpoint before it serves: a worker whose stdout is
    gone never served, and must not read as a clean exit."""
    config = write_config(tmp_path / "serve.ini", scene_dir)
    argv = [*PYTHON, "-m", "tilepipe.cli", "serve", "--config", str(config),
            "--listen", "127.0.0.1:0"]
    env = {"PYTHONPATH": str(Path(tilepipe.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=30)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Broken pipe" in done.stderr
    assert "Exception ignored" not in done.stderr


@pytest.mark.usefixtures("no_server")
@pytest.mark.parametrize("command", ["run", "serve"])
def test_frame_size_disagreeing_with_frames_exits_2(scene_dir, tmp_path, capsys, command):
    config = write_config(tmp_path / "local.ini", scene_dir)
    config.write_text(config.read_text() + "[frame]\nwidth = 1920\nheight = 1080\n")
    argv = [command, "--config", str(config), *CONFIG_COMMANDS[command]]
    assert main(argv) == 2
    assert "config says 1920x1080 but frames are 1280x720" in capsys.readouterr().err
    assert not (tmp_path / "local.jsonl").exists()


def test_run_and_serve_take_no_settings_flags():
    """A run's grid and oracle settings come only from its config file."""
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )

    def options(command):
        return {
            option
            for action in subparsers.choices[command]._actions
            for option in action.option_strings
        } - {"-h", "--help"}

    assert options("run") == {"--config", "--mode", "--results", "--timing"}
    assert options("serve") == {"--config", "--listen"}


@pytest.mark.parametrize("command", ["run", "serve"])
@pytest.mark.parametrize("frames", BAD_FRAME_DIRS)
def test_bad_frames_directory_exits_2(scene_dir, tmp_path, capsys, command, frames):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for name, data in BAD_FRAME_DIRS[frames].items():
        (frames_dir / name).write_bytes(data)
    config = write_config(tmp_path / "local.ini", scene_dir)
    config.write_text(
        config.read_text().replace(f"frames = {scene_dir}", f"frames = {frames_dir}")
    )
    argv = [command, "--config", str(config), *CONFIG_COMMANDS[command]]
    assert main(argv) == 2
    assert str(frames_dir) in capsys.readouterr().err
    assert not (tmp_path / "local.jsonl").exists()
