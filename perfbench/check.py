"""Output check: every frame a workload delivers must match the expected
result line, compared by SHA-256 of `frameio.result_line`.

Expected lines come from the raster-free local run of the same scene and
seed, and on the default seed also from the digests stored in digests.json.
A frame whose line differs, or that never arrives, is a failed frame.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


def failed_frames(expected, delivered) -> list[int]:
    """Frame ids of ``expected`` not matched, in order, by ``delivered``.

    Both are sequences of (frame_id, digest) pairs. Results must arrive in
    input order, so a frame is matched only by the entry at its position.
    """
    return [
        fid
        for i, (fid, digest) in enumerate(expected)
        if i >= len(delivered) or tuple(delivered[i]) != (fid, digest)
    ]


def stored_digests(scene_name: str) -> list[list]:
    """The default seed's stored (frame_id, digest) pairs for a scene."""
    return json.loads(DIGESTS_PATH.read_text())[scene_name]
