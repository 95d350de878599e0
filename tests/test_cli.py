"""End-to-end tests of the tilepipe command line, run in process."""

import csv
import io
import json

import pytest

from tilepipe.cli import main
from tilepipe.distribution import DetectorServer
from tilepipe.distribution.sim import (
    SimScenario,
    mean_latency_ms,
    simulate_scaling,
    write_sim_csv,
)
from tilepipe.frameio import FrameSource, read_ground_truth, read_results, result_line
from tilepipe.metrics import ap_report, count_report
from tilepipe.pipeline import PipelineSettings, oracle_for_scene, run_sequence

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


def reference_bytes(scene_dir) -> bytes:
    source = FrameSource.open(scene_dir)
    gt = read_ground_truth(scene_dir / "gt.jsonl")
    oracle = oracle_for_scene(source.width, source.height, SETTINGS, gt)
    lines = [result_line(r) for r in run_sequence(source.frames(), SETTINGS, oracle)]
    return "".join(line + "\n" for line in lines).encode()


def test_gen_synthetic_then_run_matches_run_sequence(scene_dir, tmp_path):
    config = write_config(tmp_path / "local.ini", scene_dir)
    assert main(["run", "--config", str(config)]) == 0
    written = (tmp_path / "local.jsonl").read_bytes()
    assert written.count(b"\n") == 3
    assert written == reference_bytes(scene_dir)


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


def test_remote_run_matches_local_bytes(scene_dir, tmp_path):
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
    assert (tmp_path / "remote.jsonl").read_bytes() == reference_bytes(scene_dir)


SCENARIO = {
    "frames": [[2, 5], [2, 3], [2, 7]],
    "per_crop_cost_ms": 10.0,
    "transfer_cost_per_crop_ms": 1.0,
    "attention_worker_counts": [0, 1],
    "final_worker_counts": [1, 2],
}


def expected_sim_rows():
    spec = {**SCENARIO, "frames": tuple(tuple(f) for f in SCENARIO["frames"])}
    return simulate_scaling(SimScenario(**spec))


def test_simulate_writes_csv_to_stdout(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    assert main(["simulate", "--scenario", str(scenario)]) == 0
    expected = io.StringIO(newline="")
    write_sim_csv(expected_sim_rows(), expected)
    out = capsys.readouterr().out
    assert list(csv.reader(io.StringIO(out))) == list(
        csv.reader(io.StringIO(expected.getvalue()))
    )
    assert out.startswith("attention_workers,final_workers,frame_id,")


def test_simulate_to_file_prints_mean_latencies(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    out_csv = tmp_path / "sim.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out_csv)]) == 0
    rows = expected_sim_rows()
    printed = capsys.readouterr().out.splitlines()
    assert printed[:4] == [
        f"attention_workers={n_a} final_workers={n_f} "
        f"mean_latency_ms={mean_latency_ms(rows, n_a, n_f):.3f}"
        for n_a in (0, 1)
        for n_f in (1, 2)
    ]
    assert printed[4] == f"wrote {len(rows)} rows to {out_csv}"


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
