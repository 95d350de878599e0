"""Frame, annotation, result, and configuration persistence.

Frames are binary PPM (P6) files named frame_%06d.ppm so any tool can
produce or inspect them without codec dependencies. A frame's pixels are a
read-only view of its file, mapped rather than copied (see read_ppm): a
frame file may be unlinked or replaced with os.replace while its frame is
alive, but must not be truncated or rewritten in place. All persisted
coordinates are integer global pixels; confidences are written with six
decimal places so identical runs produce identical bytes. Wall-clock
timings never go into the results file (reruns would differ byte-wise);
they are persisted separately as CSV.
"""

from __future__ import annotations

import configparser
import csv
import json
import mmap
import os
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import (
    Detection,
    GroundTruthObject,
    detection_from_row,
)
from .distribution import ClusterConfig
from .geometry import Rect
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
    """A binary PPM's pixels as a read-only HxWx3 uint8 view of the file.

    The file is mapped, not read: no pixel is copied, and a page is read in
    only when something first touches it. Each call makes a mapping of its
    own, with a file descriptor of its own, which lives as long as the
    returned array (or a view of it) does.
    Nothing is mapped for a header that claims more than the file holds.

    The mapping shares the file's pages. Unlinking the file, or replacing
    it with os.replace, leaves the array as it was. Truncating or rewriting
    the file in place while the array is alive does not: the array then
    shows the new bytes, and touching a page past the new end kills the
    process with SIGBUS.
    """
    with open(path, "rb") as fh:
        width, height, offset = _read_header(fh, path)
        expected = width * height * 3
        got = os.fstat(fh.fileno()).st_size - offset
        if got < expected:
            raise FrameDecodeError(
                f"{path}: raster truncated, {got} of {expected} bytes"
            )
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    pixels = np.frombuffer(mapped, dtype=np.uint8, count=expected, offset=offset)
    return pixels.reshape(height, width, 3)


@dataclass(frozen=True)
class FrameSource:
    """A directory of frame_%06d.ppm files, ordered by numeric index.

    Dimensions are taken from the first frame's header; every frame that
    frames() reads is checked against them.
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

    def frames(self) -> Iterator[Frame]:
        """Each frame in order, its file read only when it is pulled. A file
        gone since open raises FileNotFoundError, one that does not decode
        FrameDecodeError, and one of another size FrameDimensionError."""
        for frame_id in self.frame_ids:
            path = self.directory / frame_file_name(frame_id)
            pixels = read_ppm(path)
            height, width = pixels.shape[:2]
            if (width, height) != (self.width, self.height):
                raise FrameDimensionError(
                    f"{path}: {width}x{height} does not match sequence "
                    f"{self.width}x{self.height}"
                )
            yield Frame(frame_id, width, height, pixels)


def _json_int(row: Mapping, key: str) -> int:
    """row[key], which must be a JSON integer: not a float, nor a bool."""
    value = row[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


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
            if not isinstance(row, dict):
                raise ValueError(
                    f"{path}:{lineno}: bad ground-truth row: not a JSON object"
                )
            missing = [f for f in GROUND_TRUTH_FIELDS if f not in row]
            if missing:
                raise ValueError(f"{path}:{lineno}: missing fields {missing}")
            try:
                obj = GroundTruthObject(
                    Rect(row["x"], row["y"], row["w"], row["h"]),
                    row["class"],
                    str(row["object_id"]),
                )
                frame_id = _json_int(row, "frame_id")
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad ground-truth row: {exc}"
                ) from exc
            out.setdefault(frame_id, []).append(obj)
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
                detections = tuple(detection_from_row(d) for d in row["detections"])
                out.append(
                    FrameResult(
                        _json_int(row, "frame_id"),
                        detections,
                        _json_int(row, "active_count"),
                        _json_int(row, "total_count"),
                        TimingProfile(),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
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
    """A run's inputs: pipeline settings, its ground truth and frames, and
    the cluster of a run on workers. A run is remote if and only if it has a
    cluster. The frames are sized by the frames directory or, for a
    raster-free run, by frame_width and frame_height; never by both."""

    settings: PipelineSettings
    ground_truth_path: Path
    cluster: ClusterConfig | None = None
    frames_dir: Path | None = None
    frame_width: int | None = None
    frame_height: int | None = None

    def __post_init__(self):
        if self.frames_dir is not None:
            if self.frame_width is not None or self.frame_height is not None:
                raise ValueError(
                    "[frame]: frames are sized by [paths] frames; remove [frame]"
                )
        elif self.frame_width is None or self.frame_height is None:
            raise ValueError("need either a frames directory or frame width/height")
        for key, side in (("width", self.frame_width), ("height", self.frame_height)):
            if side is not None and side < 1:
                raise ValueError(f"[frame] {key}: must be >= 1, got {side}")


def _split_endpoints(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.replace(",", " ").split() if part.strip())


# Every section of a run config and the keys each may hold.
_CONFIG_KEYS = {
    "pipeline": ("preset",),
    "paths": ("ground_truth", "frames"),
    "frame": ("width", "height"),
    "cluster": ("final_workers", "attention_workers", "request_timeout_s"),
}


def read_run_config(path) -> RunConfig:
    """Load a run configuration, resolving relative paths against the file
    and checking that every referenced input exists.

    This is the one place a run's inputs come from; where its outputs go
    is the command line's business. An INI file with these sections and
    keys, and no others:

      [pipeline]  preset (required): the grid, like "1 att, 3 fin, 20 over".
                  The active-crop policy is pipeline's constants
                  ATTENTION_MARGIN_PX, TEMPORAL_WINDOW and MIN_CONFIDENCE,
                  set by no key.
      [paths]     ground_truth (required) and frames (a directory of
                  frame_%06d.ppm files, whose first frame sizes the run).
      [frame]     width and height of a raster-free run: required without
                  frames, refused beside them.
      [cluster]   final_workers and attention_workers (host:port lists,
                  comma- or space-separated, each naming an endpoint at
                  most once) and request_timeout_s (30). A run with this
                  section runs on those workers; one without it runs the
                  oracle in process.

    A file that does not parse as INI, has a section or key not listed
    here ([DEFAULT] keys included), or a value its key's type or range
    refuses, raises ValueError naming the file, section and key.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
        _check_keys(parser)
        return _run_config(parser, path)
    except configparser.Error as exc:
        raise ValueError(f"{path}: malformed config: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Raise ValueError naming the first section or key not in _CONFIG_KEYS.

    A [DEFAULT] key would reach every section, so none is allowed."""
    if parser.defaults():
        key = next(iter(parser.defaults()))
        raise ValueError(f"[DEFAULT] {key}: a run config has no [DEFAULT] keys")
    for section in parser.sections():
        known = _CONFIG_KEYS.get(section)
        if known is None:
            raise ValueError(
                f"unknown section [{section}], expected one of "
                + ", ".join(f"[{name}]" for name in _CONFIG_KEYS)
            )
        for key in parser[section]:
            if key not in known:
                raise ValueError(
                    f"[{section}] {key}: unknown key, expected one of "
                    + ", ".join(known)
                )


def _run_config(parser: configparser.ConfigParser, path: Path) -> RunConfig:
    base = path.parent

    def resolve(raw: str) -> Path:
        p = Path(raw)
        return p if p.is_absolute() else (base / p).resolve()

    def given(section: str, converters: Mapping) -> dict:
        """The value, through its converter, of each key of converters that
        the file sets, so that an absent key takes its field's default; a
        ValueError names the section and key."""
        values = {}
        for key, convert in converters.items():
            if section in parser and key in parser[section]:
                try:
                    values[key] = convert(parser[section][key])
                except ValueError as exc:
                    raise ValueError(f"[{section}] {key}: {exc}") from exc
        return values

    for section in ("pipeline", "paths"):
        if section not in parser:
            raise ValueError(f"missing [{section}] section")

    pipeline = parser["pipeline"]
    if "preset" not in pipeline:
        raise ValueError("[pipeline] needs preset")
    try:
        settings = PipelineSettings.from_preset(pipeline["preset"])
    except ValueError as exc:
        raise ValueError(f"[pipeline] {exc}") from exc

    paths = parser["paths"]
    if "ground_truth" not in paths:
        raise ValueError("[paths] needs ground_truth")
    gt_path = resolve(paths["ground_truth"])
    frames_dir = resolve(paths["frames"]) if "frames" in paths else None

    if not gt_path.is_file():
        raise FileNotFoundError(f"{path}: ground truth not found: {gt_path}")
    if frames_dir is not None and not frames_dir.is_dir():
        raise FileNotFoundError(f"{path}: frames directory not found: {frames_dir}")

    cluster = None
    if "cluster" in parser:
        sect = parser["cluster"]
        timeout = given("cluster", {"request_timeout_s": float})
        try:
            cluster = ClusterConfig(
                final_workers=_split_endpoints(sect.get("final_workers", "")),
                attention_workers=_split_endpoints(sect.get("attention_workers", "")),
                **timeout,
            )
        except ValueError as exc:
            raise ValueError(f"[cluster] {exc}") from exc

    size = given("frame", {"width": int, "height": int})
    return RunConfig(
        settings=settings,
        ground_truth_path=gt_path,
        cluster=cluster,
        frames_dir=frames_dir,
        frame_width=size.get("width"),
        frame_height=size.get("height"),
    )
