import csv
import json

import numpy as np
import pytest

from tilepipe.detector import Detection, GroundTruthObject
from tilepipe.distribution import ClusterConfig
from tilepipe.frameio import (
    TIMING_CSV_COLUMNS,
    FrameDecodeError,
    FrameDimensionError,
    FrameSource,
    RunConfig,
    frame_file_name,
    load_frame,
    read_ground_truth,
    read_ppm,
    read_results,
    read_run_config,
    result_line,
    write_ground_truth,
    write_ppm,
    write_results,
    write_run_config,
    write_timing_csv,
)
from tilepipe.geometry import CropSettings, Rect
from tilepipe.pipeline import FrameResult, PipelineSettings, TimingProfile


def checker(width, height, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


class TestPpm:
    def test_round_trip(self, tmp_path):
        pixels = checker(13, 7)
        path = tmp_path / "frame_000000.ppm"
        write_ppm(path, pixels)
        assert np.array_equal(read_ppm(path), pixels)

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "f.ppm"
        write_ppm(path, np.zeros((3, 2, 3), dtype=np.uint8))
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n2 3\n255\n")
        assert len(raw) == len(b"P6\n2 3\n255\n") + 18

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# made elsewhere\n2 2\n255\n" + bytes(12))
        assert read_ppm(path).shape == (2, 2, 3)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "p5.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FrameDecodeError):
            read_ppm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(FrameDecodeError):
            read_ppm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))  # needs 12
        with pytest.raises(FrameDecodeError):
            read_ppm(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "g.ppm"
        path.write_bytes(b"hello")
        with pytest.raises(FrameDecodeError):
            read_ppm(path)

    def test_write_validates_array(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.float32))

    def test_read_does_not_alias_file(self, tmp_path):
        pixels = checker(4, 4)
        path = tmp_path / "a.ppm"
        write_ppm(path, pixels)
        before = path.read_bytes()
        loaded = read_ppm(path)
        loaded[:] = 0  # returned array is a private copy
        assert path.read_bytes() == before
        assert np.array_equal(read_ppm(path), pixels)

    def test_header_claiming_more_than_the_file_holds(self, tmp_path):
        path = tmp_path / "big.ppm"
        # 3 TB of raster declared; raises before allocating any of it
        path.write_bytes(b"P6\n1000000 1000000\n255\n" + bytes(12))
        with pytest.raises(FrameDecodeError, match="12 of 3000000000000 bytes"):
            read_ppm(path)

    def test_trailing_bytes_after_raster_ignored(self, tmp_path):
        pixels = checker(5, 3)
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n5 3\n255\n" + pixels.tobytes() + b"extra")
        assert np.array_equal(read_ppm(path), pixels)


def write_sequence(directory, ids, width=16, height=8):
    directory.mkdir(exist_ok=True)
    for i in ids:
        write_ppm(directory / frame_file_name(i), checker(width, height, seed=i))


class TestFrameSource:
    def test_open_sorts_by_numeric_index(self, tmp_path):
        write_sequence(tmp_path / "frames", [10, 0, 2])
        source = FrameSource.open(tmp_path / "frames")
        assert source.frame_ids == (0, 2, 10)
        assert (source.width, source.height) == (16, 8)
        assert len(source) == 3

    def test_load_first_frame(self, tmp_path):
        write_sequence(tmp_path / "frames", [0, 1])
        source = FrameSource.open(tmp_path / "frames")
        raster = load_frame(source, 0)
        assert raster.shape == (8, 16, 3)
        assert np.array_equal(raster, checker(16, 8, seed=0))

    def test_frames_iterator_carries_ids_and_pixels(self, tmp_path):
        write_sequence(tmp_path / "frames", [3, 7])
        source = FrameSource.open(tmp_path / "frames")
        frames = list(source.frames())
        assert [f.frame_id for f in frames] == [3, 7]
        assert all(f.pixels is not None for f in frames)

    def test_frames_held_together_do_not_share_memory(self, tmp_path):
        write_sequence(tmp_path / "frames", [0, 1, 2])
        source = FrameSource.open(tmp_path / "frames")
        frames = source.frames()
        first, second = next(frames), next(frames)
        third = next(frames)
        for a, b in ((first, second), (first, third), (second, third)):
            assert not np.shares_memory(a.pixels, b.pixels)
        for frame in (first, second, third):
            assert np.array_equal(frame.pixels, checker(16, 8, seed=frame.frame_id))

    def test_truncated_raster_raises_on_iteration(self, tmp_path):
        write_sequence(tmp_path / "frames", [0, 1])
        path = tmp_path / "frames" / frame_file_name(1)
        path.write_bytes(path.read_bytes()[:-1])
        frames = FrameSource.open(tmp_path / "frames").frames()
        assert next(frames).frame_id == 0
        with pytest.raises(FrameDecodeError, match="383 of 384 bytes"):
            next(frames)

    def test_out_of_range_index(self, tmp_path):
        write_sequence(tmp_path / "frames", [0, 1])
        source = FrameSource.open(tmp_path / "frames")
        with pytest.raises(IndexError):
            load_frame(source, 2)
        with pytest.raises(IndexError):
            load_frame(source, -1)

    def test_mixed_sizes_rejected(self, tmp_path):
        frames = tmp_path / "frames"
        write_sequence(frames, [0])
        write_ppm(frames / frame_file_name(1), checker(9, 9))
        source = FrameSource.open(frames)
        with pytest.raises(FrameDimensionError):
            load_frame(source, 1)

    def test_missing_file_after_open(self, tmp_path):
        write_sequence(tmp_path / "frames", [0, 1])
        source = FrameSource.open(tmp_path / "frames")
        (tmp_path / "frames" / frame_file_name(1)).unlink()
        with pytest.raises(FileNotFoundError):
            load_frame(source, 1)

    def test_decode_failure_on_load(self, tmp_path):
        write_sequence(tmp_path / "frames", [0, 1])
        source = FrameSource.open(tmp_path / "frames")
        (tmp_path / "frames" / frame_file_name(1)).write_bytes(b"junk")
        with pytest.raises(FrameDecodeError):
            load_frame(source, 1)

    def test_empty_directory(self, tmp_path):
        (tmp_path / "frames").mkdir()
        with pytest.raises(FileNotFoundError):
            FrameSource.open(tmp_path / "frames")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FrameSource.open(tmp_path / "nope")

    def test_open_reads_only_the_header(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        # the comment pushes the size fields past the first read block
        header = b"P6\n#" + b"x" * 10000 + b"\n16 8\n255\n"
        (frames / frame_file_name(0)).write_bytes(header + bytes(10))
        source = FrameSource.open(frames)
        assert (source.width, source.height) == (16, 8)
        with pytest.raises(FrameDecodeError):
            load_frame(source, 0)  # the truncated raster shows on load

    @pytest.mark.parametrize(
        "data",
        [b"P5\n16 8\n255\n" + bytes(384), b"P6\n16 8\n65535\n" + bytes(768), b"P6\n16"],
        ids=["magic", "maxval", "truncated"],
    )
    def test_open_rejects_bad_first_header(self, tmp_path, data):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / frame_file_name(0)).write_bytes(data)
        with pytest.raises(FrameDecodeError):
            FrameSource.open(frames)

    def test_loading_never_mutates(self, tmp_path):
        write_sequence(tmp_path / "frames", [0])
        path = tmp_path / "frames" / frame_file_name(0)
        before = path.read_bytes()
        source = FrameSource.open(tmp_path / "frames")
        load_frame(source, 0)
        load_frame(source, 0)
        assert path.read_bytes() == before


def gt(x, y, w, h, label="person", oid="a", fid=0):
    return fid, GroundTruthObject(Rect(x, y, w, h), label, oid)


class TestGroundTruthIo:
    def test_round_trip(self, tmp_path):
        scene = {
            0: [
                GroundTruthObject(Rect(10, 20, 60, 80), "person", "a"),
                GroundTruthObject(Rect(100, 40, 50, 30), "car", "b"),
            ],
            2: [GroundTruthObject(Rect(5, 5, 9, 9), "person", "c")],
        }
        path = tmp_path / "gt.jsonl"
        write_ground_truth(scene, path)
        assert read_ground_truth(path) == scene

    def test_golden_line(self, tmp_path):
        scene = {0: [GroundTruthObject(Rect(10, 20, 60, 80), "person", "a")]}
        path = tmp_path / "gt.jsonl"
        write_ground_truth(scene, path)
        expected = (
            '{"class":"person","frame_id":0,"h":80,"object_id":"a","w":60,'
            '"x":10,"y":20}\n'
        )
        assert path.read_text() == expected

    def test_fractional_coordinates_survive(self, tmp_path):
        scene = {0: [GroundTruthObject(Rect(10.5, 20, 60, 80), "person", "a")]}
        path = tmp_path / "gt.jsonl"
        write_ground_truth(scene, path)
        assert read_ground_truth(path)[0][0].rect.x == 10.5

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '\n{"class":"car","frame_id":1,"h":4,"object_id":"z","w":4,"x":0,"y":0}\n\n'
        )
        loaded = read_ground_truth(path)
        assert list(loaded) == [1]

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"class":"car","frame_id":0,"h":4,"object_id":"z","w":4,"x":0,"y":0}\n'
            "{broken\n"
        )
        with pytest.raises(ValueError, match=":2:"):
            read_ground_truth(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        path.write_text('{"class":"car","frame_id":0,"h":4,"w":4,"x":0,"y":0}\n')
        with pytest.raises(ValueError, match="object_id"):
            read_ground_truth(path)


def make_result(fid=7, timing=None):
    detections = (
        Detection(Rect(10, 20, 30, 40), "person", 0.5),
        Detection(Rect(700, 80, 120, 60), "car", 2 / 3),
    )
    return FrameResult(fid, detections, 3, 18, timing or TimingProfile())


class TestResultsIo:
    def test_golden_line(self):
        line = result_line(make_result())
        assert line == (
            '{"active_count":3,"detections":['
            '{"class":"person","confidence":0.500000,"h":40,"w":30,"x":10,"y":20},'
            '{"class":"car","confidence":0.666667,"h":60,"w":120,"x":700,"y":80}'
            '],"frame_id":7,"total_count":18}'
        )

    def test_lines_are_valid_json(self):
        row = json.loads(result_line(make_result()))
        assert row["detections"][0]["confidence"] == 0.5
        assert row["detections"][1]["confidence"] == 0.666667

    def test_empty_results_empty_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_results([], path)
        assert path.read_bytes() == b""

    def test_timing_does_not_change_bytes(self, tmp_path):
        # wall-clock timing varies between identical runs, so it must not
        # leak into the results file
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_results([make_result(timing=TimingProfile())], a)
        write_results(
            [make_result(timing=TimingProfile(final_eval_ms=123.4, io_ms=9.9))], b
        )
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_fields(self, tmp_path):
        path = tmp_path / "results.jsonl"
        written = [make_result(fid=0), make_result(fid=1)]
        write_results(written, path)
        loaded = read_results(path)
        assert [r.frame_id for r in loaded] == [0, 1]
        for ours, theirs in zip(loaded, written):
            assert ours.active_count == theirs.active_count
            assert ours.total_count == theirs.total_count
            assert len(ours.detections) == len(theirs.detections)
            for got, want in zip(ours.detections, theirs.detections):
                assert got.rect == want.rect
                assert got.class_label == want.class_label
                assert got.confidence == pytest.approx(want.confidence, abs=5e-7)

    def test_rewrite_of_readback_is_identical(self, tmp_path):
        # quantization to 6 decimals happens once; after that the file is a
        # fixed point of write(read(...))
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        write_results([make_result()], first)
        write_results(read_results(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_two_writes_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        results = [make_result(fid=i) for i in range(3)]
        write_results(results, a)
        write_results(results, b)
        assert a.read_bytes() == b.read_bytes()

    def test_read_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ValueError, match=":1:"):
            read_results(path)
        path.write_text('{"frame_id":0}\n')
        with pytest.raises(ValueError, match="bad result row"):
            read_results(path)


class TestTimingCsv:
    def rows(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_header_matches_documented_columns(self, tmp_path):
        path = tmp_path / "timing.csv"
        write_timing_csv([make_result()], path)
        assert self.rows(path)[0] == list(TIMING_CSV_COLUMNS)

    def test_row_per_frame(self, tmp_path):
        path = tmp_path / "timing.csv"
        write_timing_csv([make_result(fid=i) for i in range(4)], path)
        assert len(self.rows(path)) == 5

    def test_stage_sum_bounds_stage_max(self, tmp_path):
        timing = TimingProfile(
            attention_wait_ms=5.0,
            client_processing_ms=1.0,
            final_eval_ms=20.0,
            postprocess_ms=2.0,
        )
        path = tmp_path / "timing.csv"
        write_timing_csv([make_result(timing=timing)], path)
        header, row = self.rows(path)
        stages = [
            float(row[header.index(name)]) for name in TimingProfile.COLUMNS
        ]
        total = float(row[header.index("total_ms")])
        assert total == pytest.approx(sum(stages))
        assert sum(stages) >= max(stages)

    def test_per_worker_flattened(self, tmp_path):
        timing = TimingProfile(
            final_eval_ms=20.0,
            per_worker=(("127.0.0.1:7601", 20.0), ("127.0.0.1:7602", 12.5)),
        )
        path = tmp_path / "timing.csv"
        write_timing_csv([make_result(timing=timing)], path)
        header, row = self.rows(path)
        assert row[header.index("final_workers")] == (
            "127.0.0.1:7601=20.000;127.0.0.1:7602=12.500"
        )


def write_minimal_gt(path):
    write_ground_truth({0: [GroundTruthObject(Rect(0, 0, 4, 4), "car", "x")]}, path)


class TestRunConfig:
    def oracle_config(self, tmp_path, **overrides):
        write_minimal_gt(tmp_path / "gt.jsonl")
        fields = dict(
            settings=PipelineSettings.from_preset("1 att, 3 fin, 20 over"),
            detector="oracle",
            ground_truth_path=tmp_path / "gt.jsonl",
            results_path=tmp_path / "results.jsonl",
            frame_width=1280,
            frame_height=720,
        )
        fields.update(overrides)
        return RunConfig(**fields)

    def test_round_trip_local(self, tmp_path):
        config = self.oracle_config(tmp_path, timing_path=tmp_path / "timing.csv")
        path = tmp_path / "run.cfg"
        write_run_config(config, path)
        assert read_run_config(path) == config

    def test_round_trip_remote(self, tmp_path):
        cluster = ClusterConfig(
            final_workers=("127.0.0.1:7601", "127.0.0.1:7602"),
            attention_workers=("127.0.0.1:7600",),
            request_timeout_s=12.5,
        )
        config = self.oracle_config(tmp_path, detector="remote", cluster=cluster)
        path = tmp_path / "run.cfg"
        write_run_config(config, path)
        assert read_run_config(path) == config

    def test_round_trip_with_frames_dir(self, tmp_path):
        write_sequence(tmp_path / "frames", [0])
        config = self.oracle_config(
            tmp_path, frames_dir=tmp_path / "frames",
            frame_width=None, frame_height=None,
        )
        path = tmp_path / "run.cfg"
        write_run_config(config, path)
        assert read_run_config(path) == config

    def test_relative_paths_resolve_against_config(self, tmp_path):
        write_minimal_gt(tmp_path / "gt.jsonl")
        (tmp_path / "run.cfg").write_text(
            "[pipeline]\npreset = 1 att, 3 fin, 20 over\n"
            "[detector]\nkind = oracle\n"
            "[frame]\nwidth = 1280\nheight = 720\n"
            "[paths]\nground_truth = gt.jsonl\nresults = results.jsonl\n"
        )
        config = read_run_config(tmp_path / "run.cfg")
        assert config.ground_truth_path == tmp_path / "gt.jsonl"
        assert config.results_path == tmp_path / "results.jsonl"
        assert config.settings.final.rows == 3
        assert config.visibility_threshold == 0.3

    def test_explicit_grid_keys(self, tmp_path):
        write_minimal_gt(tmp_path / "gt.jsonl")
        (tmp_path / "run.cfg").write_text(
            "[pipeline]\nattention_rows = 2\nfinal_rows = 6\noverlap_px = 20\n"
            "min_confidence = 0.4\n"
            "[detector]\nkind = oracle\nvisibility_threshold = 0.25\n"
            "[frame]\nwidth = 3840\nheight = 2160\n"
            "[paths]\nground_truth = gt.jsonl\nresults = out.jsonl\n"
        )
        config = read_run_config(tmp_path / "run.cfg")
        assert config.settings.attention == CropSettings(2, 20)
        assert config.settings.final == CropSettings(6, 20)
        assert config.settings.min_confidence == 0.4
        assert config.visibility_threshold == 0.25

    def test_missing_ground_truth_rejected(self, tmp_path):
        (tmp_path / "run.cfg").write_text(
            "[pipeline]\npreset = 1 att, 3 fin, 20 over\n"
            "[detector]\nkind = oracle\n"
            "[frame]\nwidth = 1280\nheight = 720\n"
            "[paths]\nground_truth = nope.jsonl\nresults = results.jsonl\n"
        )
        with pytest.raises(FileNotFoundError):
            read_run_config(tmp_path / "run.cfg")

    def test_missing_frames_dir_rejected(self, tmp_path):
        write_minimal_gt(tmp_path / "gt.jsonl")
        (tmp_path / "run.cfg").write_text(
            "[pipeline]\npreset = 1 att, 3 fin, 20 over\n"
            "[detector]\nkind = oracle\n"
            "[paths]\nframes = missing/\nground_truth = gt.jsonl\n"
            "results = results.jsonl\n"
        )
        with pytest.raises(FileNotFoundError):
            read_run_config(tmp_path / "run.cfg")

    def test_missing_section_rejected(self, tmp_path):
        (tmp_path / "run.cfg").write_text("[pipeline]\npreset = 1 att, 3 fin, 20 over\n")
        with pytest.raises(ValueError, match="detector"):
            read_run_config(tmp_path / "run.cfg")

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="detector"):
            self.oracle_config(tmp_path, detector="banana")
        with pytest.raises(ValueError, match="cluster"):
            self.oracle_config(tmp_path, detector="remote")
        with pytest.raises(ValueError, match="cluster"):
            self.oracle_config(
                tmp_path, cluster=ClusterConfig(final_workers=("h:1",))
            )
        with pytest.raises(ValueError, match="width"):
            self.oracle_config(tmp_path, frame_width=None, frame_height=None)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_run_config(tmp_path / "absent.cfg")
