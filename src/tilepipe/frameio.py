"""Frame, annotation, result, and configuration persistence.

Frames are binary PPM (P6) files named frame_%06d.ppm so any tool can
produce or inspect them without codec dependencies. All persisted
coordinates are integer global pixels; confidences are written with six
decimal places so identical runs produce identical bytes. Wall-clock
timings never go into the results file (reruns would differ byte-wise);
they are persisted separately as CSV.
"""

from __future__ import annotations

import configparser
import csv
import json
import os
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import Detection, GroundTruthObject
from .distribution import ClusterConfig
from .geometry import CropSettings, Rect
from .pipeline import Frame, FrameResult, PipelineSettings, TimingProfile

FRAME_NAME_FORMAT = "frame_%06d.ppm"
FRAME_NAME_RE = re.compile(r"^frame_(\d{6})\.ppm$")

GROUND_TRUTH_FIELDS = ("frame_id", "class", "x", "y", "w", "h", "object_id")

# Column order of the timing CSV. One row per frame; *_ms columns are
# wall-clock milliseconds; final_workers flattens per-worker busy time as
# endpoint=busy_ms pairs joined with ";" (empty for local runs).
TIMING_CSV_COLUMNS = (
    "frame_id",
    *TimingProfile.COLUMNS,
    "total_ms",
    "active_count",
    "total_count",
    "final_workers",
)


class FrameDecodeError(ValueError):
    """The file does not parse as a binary 8-bit PPM."""


class FrameDimensionError(ValueError):
    """A frame's dimensions disagree with the rest of the sequence."""


def frame_file_name(frame_id: int) -> str:
    return FRAME_NAME_FORMAT % frame_id


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write an 8-bit RGB raster as binary PPM."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"need a HxWx3 uint8 array, got {pixels.dtype} {pixels.shape}")
    height, width = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(np.ascontiguousarray(pixels).tobytes())


def _ppm_header(data: bytes, path) -> tuple[int, int, int] | None:
    """Checked width, height and raster offset of a binary 8-bit PPM, or
    None when ``data`` ends before the header does."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            newline = data.find(b"\n", pos)
            if newline == -1:
                return None
            pos = newline + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        # a token is complete only once the whitespace byte after it is in
        if pos == len(data):
            return None
        tokens.append(data[start:pos])
    magic = tokens[0]
    if magic != b"P6":
        raise FrameDecodeError(f"{path}: not a binary PPM (magic {magic!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise FrameDecodeError(f"{path}: non-numeric header field") from exc
    if width < 1 or height < 1:
        raise FrameDecodeError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FrameDecodeError(f"{path}: only maxval 255 supported, got {maxval}")
    # exactly one whitespace byte separates the header from the raster
    return width, height, pos + 1


def _read_header(fh, path) -> tuple[int, int, int]:
    """Width, height and raster offset of an open PPM, read from its start.

    Reads 4 KiB, doubling what it holds until the header is complete.
    """
    data = b""
    while (header := _ppm_header(data, path)) is None:
        more = fh.read(len(data) or 4096)
        if not more:
            raise FrameDecodeError(f"{path}: truncated header")
        data += more
    return header


def _ppm_size(path) -> tuple[int, int]:
    """Width and height from a PPM's header, without reading the raster."""
    with open(path, "rb") as fh:
        width, height, _ = _read_header(fh, path)
    return width, height


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a new HxWx3 uint8 array.

    The raster is read straight into the array's memory, so each call
    returns an array of its own that aliases no file data or other frame.
    Nothing is allocated for a header that claims more than the file holds.
    """
    with open(path, "rb") as fh:
        width, height, offset = _read_header(fh, path)
        expected = width * height * 3
        got = os.fstat(fh.fileno()).st_size - offset
        if got >= expected:
            pixels = np.empty((height, width, 3), dtype=np.uint8)
            fh.seek(offset)
            got = fh.readinto(memoryview(pixels).cast("B"))
    if got < expected:
        raise FrameDecodeError(f"{path}: raster truncated, {got} of {expected} bytes")
    return pixels


@dataclass(frozen=True)
class FrameSource:
    """A directory of frame_%06d.ppm files, ordered by numeric index.

    Dimensions are taken from the first frame's header; every loaded frame
    is checked against them.
    """

    directory: Path
    frame_ids: tuple[int, ...]
    width: int
    height: int

    @classmethod
    def open(cls, directory) -> "FrameSource":
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"frame directory not found: {directory}")
        ids = sorted(
            int(m.group(1))
            for p in directory.iterdir()
            if (m := FRAME_NAME_RE.match(p.name))
        )
        if not ids:
            raise FileNotFoundError(f"no {FRAME_NAME_FORMAT} files in {directory}")
        width, height = _ppm_size(directory / frame_file_name(ids[0]))
        return cls(directory, tuple(ids), width, height)

    def __len__(self) -> int:
        return len(self.frame_ids)

    def path_for(self, index: int) -> Path:
        if not 0 <= index < len(self.frame_ids):
            raise IndexError(
                f"frame index {index} out of range, have {len(self.frame_ids)} frames"
            )
        return self.directory / frame_file_name(self.frame_ids[index])

    def frame(self, index: int) -> Frame:
        return Frame(
            self.frame_ids[index], self.width, self.height, load_frame(self, index)
        )

    def frames(self) -> Iterator[Frame]:
        for index in range(len(self.frame_ids)):
            yield self.frame(index)


def load_frame(source: FrameSource, index: int) -> np.ndarray:
    """Load one frame's raster, checking it against the sequence dimensions."""
    path = source.path_for(index)
    if not path.is_file():
        raise FileNotFoundError(f"frame file missing: {path}")
    raster = read_ppm(path)
    height, width = raster.shape[:2]
    if (width, height) != (source.width, source.height):
        raise FrameDimensionError(
            f"{path}: {width}x{height} does not match sequence "
            f"{source.width}x{source.height}"
        )
    return raster


def _int_or_float(value: float):
    return int(value) if float(value).is_integer() else float(value)


def write_ground_truth(
    gt_by_frame: Mapping[int, Sequence[GroundTruthObject]], path
) -> None:
    """Write ground truth as JSON lines, one object per line."""
    with open(path, "w", newline="\n") as fh:
        for frame_id in sorted(gt_by_frame):
            for obj in gt_by_frame[frame_id]:
                row = {
                    "frame_id": frame_id,
                    "class": obj.class_label,
                    "x": _int_or_float(obj.rect.x),
                    "y": _int_or_float(obj.rect.y),
                    "w": _int_or_float(obj.rect.w),
                    "h": _int_or_float(obj.rect.h),
                    "object_id": obj.object_id,
                }
                fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
                fh.write("\n")


def read_ground_truth(path) -> dict[int, list[GroundTruthObject]]:
    """Read JSON-lines ground truth into per-frame object lists."""
    out: dict[int, list[GroundTruthObject]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            missing = [f for f in GROUND_TRUTH_FIELDS if f not in row]
            if missing:
                raise ValueError(f"{path}:{lineno}: missing fields {missing}")
            obj = GroundTruthObject(
                Rect(row["x"], row["y"], row["w"], row["h"]),
                str(row["class"]),
                str(row["object_id"]),
            )
            out.setdefault(int(row["frame_id"]), []).append(obj)
    return out


def _detection_json(det: Detection) -> str:
    return (
        '{"class":%s,"confidence":%.6f,"h":%d,"w":%d,"x":%d,"y":%d}'
        % (
            json.dumps(det.class_label),
            det.confidence,
            round(det.rect.h),
            round(det.rect.w),
            round(det.rect.x),
            round(det.rect.y),
        )
    )


def result_line(result: FrameResult) -> str:
    """One frame's results as canonical JSON: integer global pixel
    coordinates, confidences with six decimal places, keys sorted."""
    detections = ",".join(_detection_json(d) for d in result.detections)
    return '{"active_count":%d,"detections":[%s],"frame_id":%d,"total_count":%d}' % (
        result.active_count,
        detections,
        result.frame_id,
        result.total_count,
    )


def write_results(results: Sequence[FrameResult], path) -> None:
    """Write results as JSON lines, one frame per line, byte-stable."""
    with open(path, "w", newline="\n") as fh:
        for result in results:
            fh.write(result_line(result))
            fh.write("\n")


def read_results(path) -> list[FrameResult]:
    """Read a results file back; timings are not persisted there and come
    back zeroed."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            try:
                detections = tuple(
                    Detection(
                        Rect(d["x"], d["y"], d["w"], d["h"]),
                        d["class"],
                        d["confidence"],
                    )
                    for d in row["detections"]
                )
                out.append(
                    FrameResult(
                        int(row["frame_id"]),
                        detections,
                        int(row["active_count"]),
                        int(row["total_count"]),
                        TimingProfile(),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad result row: {exc!r}") from exc
    return out


def write_timing_csv(results: Sequence[FrameResult], path) -> None:
    """Write one row per frame with the TIMING_CSV_COLUMNS header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMING_CSV_COLUMNS)
        for result in results:
            timing = result.timing
            per_worker = ";".join(
                f"{endpoint}={busy:.3f}" for endpoint, busy in timing.per_worker
            )
            writer.writerow(
                [
                    result.frame_id,
                    *(f"{getattr(timing, name):.3f}" for name in TimingProfile.COLUMNS),
                    f"{timing.total_ms:.3f}",
                    result.active_count,
                    result.total_count,
                    per_worker,
                ]
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: pipeline settings, detector choice, where the
    data lives, and (for remote runs) the cluster."""

    settings: PipelineSettings
    detector: str  # "oracle" | "remote"
    ground_truth_path: Path
    results_path: Path
    cluster: ClusterConfig | None = None
    frames_dir: Path | None = None
    timing_path: Path | None = None
    frame_width: int | None = None
    frame_height: int | None = None
    visibility_threshold: float = 0.3
    min_tile_px: int = 8

    def __post_init__(self):
        if self.detector not in ("oracle", "remote"):
            raise ValueError(f"detector must be oracle or remote, got {self.detector!r}")
        if self.detector == "remote" and self.cluster is None:
            raise ValueError("remote detector needs a [cluster] section")
        if self.detector == "oracle" and self.cluster is not None:
            raise ValueError("local oracle run must not configure a cluster")
        if self.frames_dir is None and (
            self.frame_width is None or self.frame_height is None
        ):
            raise ValueError("need either a frames directory or frame width/height")
        if not 0.0 < self.visibility_threshold <= 1.0:
            raise ValueError("visibility_threshold must be in (0, 1]")
        if self.min_tile_px < 0:
            raise ValueError("min_tile_px must be >= 0")


def _split_endpoints(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.replace(",", " ").split() if part.strip())


def _load_settings(parser: configparser.ConfigParser) -> PipelineSettings:
    section = parser["pipeline"]
    kwargs = {}
    if "attention_margin_px" in section:
        kwargs["attention_margin_px"] = section.getint("attention_margin_px")
    if "temporal_window" in section:
        kwargs["temporal_window"] = section.getint("temporal_window")
    if "min_confidence" in section:
        kwargs["min_confidence"] = section.getfloat("min_confidence")
    if "preset" in section:
        return PipelineSettings.from_preset(section["preset"], **kwargs)
    for key in ("attention_rows", "final_rows"):
        if key not in section:
            raise ValueError(f"[pipeline] needs preset or {key}")
    overlap = section.getint("overlap_px", 20)
    attention = CropSettings(
        section.getint("attention_rows"),
        section.getint("attention_overlap_px", overlap),
    )
    final = CropSettings(
        section.getint("final_rows"), section.getint("final_overlap_px", overlap)
    )
    return PipelineSettings(attention, final, **kwargs)


def read_run_config(path) -> RunConfig:
    """Load a run configuration, resolving relative paths against the file
    and checking that every referenced input exists."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    base = path.parent

    def resolve(raw: str) -> Path:
        p = Path(raw)
        return p if p.is_absolute() else (base / p).resolve()

    for section in ("pipeline", "detector", "paths"):
        if section not in parser:
            raise ValueError(f"{path}: missing [{section}] section")

    settings = _load_settings(parser)
    det = parser["detector"]
    detector = det.get("kind", "oracle")

    paths = parser["paths"]
    if "ground_truth" not in paths or "results" not in paths:
        raise ValueError(f"{path}: [paths] needs ground_truth and results")
    gt_path = resolve(paths["ground_truth"])
    results_path = resolve(paths["results"])
    frames_dir = resolve(paths["frames"]) if "frames" in paths else None
    timing_path = resolve(paths["timing"]) if "timing" in paths else None

    if not gt_path.is_file():
        raise FileNotFoundError(f"{path}: ground truth not found: {gt_path}")
    if frames_dir is not None and not frames_dir.is_dir():
        raise FileNotFoundError(f"{path}: frames directory not found: {frames_dir}")
    for out in (results_path, timing_path):
        if out is not None and not out.parent.is_dir():
            raise FileNotFoundError(f"{path}: output directory not found: {out.parent}")

    cluster = None
    if "cluster" in parser:
        sect = parser["cluster"]
        cluster = ClusterConfig(
            final_workers=_split_endpoints(sect.get("final_workers", "")),
            attention_workers=_split_endpoints(sect.get("attention_workers", "")),
            request_timeout_s=sect.getfloat("request_timeout_s", 30.0),
        )

    frame = parser["frame"] if "frame" in parser else {}
    width = int(frame["width"]) if "width" in frame else None
    height = int(frame["height"]) if "height" in frame else None

    return RunConfig(
        settings=settings,
        detector=detector,
        ground_truth_path=gt_path,
        results_path=results_path,
        cluster=cluster,
        frames_dir=frames_dir,
        timing_path=timing_path,
        frame_width=width,
        frame_height=height,
        visibility_threshold=det.getfloat("visibility_threshold", 0.3),
        min_tile_px=det.getint("min_tile_px", 8),
    )


def write_run_config(config: RunConfig, path) -> None:
    """Write a configuration back out as the same key-value format."""
    parser = configparser.ConfigParser()
    settings = config.settings
    pipeline: dict[str, str] = {}
    preset = settings.preset_name()
    if preset is not None:
        pipeline["preset"] = preset
    else:
        pipeline["attention_rows"] = str(settings.attention.rows)
        pipeline["attention_overlap_px"] = str(settings.attention.overlap_px)
        pipeline["final_rows"] = str(settings.final.rows)
        pipeline["final_overlap_px"] = str(settings.final.overlap_px)
    pipeline["attention_margin_px"] = str(settings.attention_margin_px)
    pipeline["temporal_window"] = str(settings.temporal_window)
    pipeline["min_confidence"] = repr(settings.min_confidence)
    parser["pipeline"] = pipeline

    parser["detector"] = {
        "kind": config.detector,
        "visibility_threshold": repr(config.visibility_threshold),
        "min_tile_px": str(config.min_tile_px),
    }

    paths = {
        "ground_truth": str(config.ground_truth_path),
        "results": str(config.results_path),
    }
    if config.frames_dir is not None:
        paths["frames"] = str(config.frames_dir)
    if config.timing_path is not None:
        paths["timing"] = str(config.timing_path)
    parser["paths"] = paths

    if config.frame_width is not None and config.frame_height is not None:
        parser["frame"] = {
            "width": str(config.frame_width),
            "height": str(config.frame_height),
        }

    if config.cluster is not None:
        cluster = {
            "final_workers": ", ".join(config.cluster.final_workers),
            "request_timeout_s": repr(config.cluster.request_timeout_s),
        }
        if config.cluster.attention_workers:
            cluster["attention_workers"] = ", ".join(config.cluster.attention_workers)
        parser["cluster"] = cluster

    with open(path, "w") as fh:
        parser.write(fh)
