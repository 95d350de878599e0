"""Localhost cluster for the cluster workload.

Each worker is its own process, started with the spawn method, serving a
DetectorServer with the scene's oracle on an ephemeral port. The driving
process talks to each worker over a pipe: it learns the endpoint, switches
span recording on before the traced loop, and at teardown asks the worker to
stop and hand back its spans. A worker whose pipe closes stops too, so a
killed measuring process leaves no worker behind.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from pathlib import Path

from tilepipe.distribution import ClusterConfig, DetectorServer, check_health
from tilepipe.frameio import read_ground_truth
from tilepipe.pipeline import PipelineSettings, oracle_for_scene

from perfbench.layers import install_worker
from perfbench.spans import Hooks, Recorder, Span

START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 10
REQUEST_TIMEOUT_S = 30


def worker_main(conn, scene, gt_path: str) -> None:
    settings = PipelineSettings.from_preset(scene.preset)
    gt = read_ground_truth(gt_path)
    oracle = oracle_for_scene(scene.width, scene.height, settings, gt)
    recorder = Recorder()
    hooks = Hooks()
    server = DetectorServer(oracle).start()
    try:
        conn.send(server.endpoint)
        while True:
            try:
                command = conn.recv()
            except EOFError:
                return
            if command == "trace":
                install_worker(hooks, recorder)
                conn.send("tracing")
            elif command == "stop":
                break
    finally:
        server.shutdown()
        hooks.restore()
    conn.send([dataclasses.asdict(s) for s in recorder.spans])


class Cluster:
    """One attention and one final worker process."""

    def __init__(self, scene, gt_path: Path):
        self._args = (scene, str(gt_path))
        self._workers: list[tuple[multiprocessing.Process, object]] = []
        self.config: ClusterConfig | None = None

    def start(self) -> "Cluster":
        """Spawn the workers and health-check each; on failure, stop them."""
        try:
            self._spawn()
        except BaseException:
            self.close()
            raise
        return self

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        for role in ("attention", "final"):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main, args=(theirs, *self._args),
                name=f"perfbench-{role}-worker", daemon=True,
            )
            proc.start()
            theirs.close()
            self._workers.append((proc, ours))
        endpoints = []
        for proc, conn in self._workers:
            if not conn.poll(START_TIMEOUT_S):
                raise RuntimeError(f"{proc.name} did not start within {START_TIMEOUT_S}s")
            endpoint = conn.recv()
            check_health(endpoint, timeout_s=REQUEST_TIMEOUT_S)
            endpoints.append(endpoint)
        self.config = ClusterConfig(
            final_workers=(endpoints[1],),
            attention_workers=(endpoints[0],),
            request_timeout_s=REQUEST_TIMEOUT_S,
        )

    def trace_on(self) -> None:
        """Make every worker record spans from now on."""
        for _, conn in self._workers:
            conn.send("trace")
        for proc, conn in self._workers:
            if not conn.poll(START_TIMEOUT_S) or conn.recv() != "tracing":
                raise RuntimeError(f"{proc.name} did not start tracing")

    def close(self) -> list[Span]:
        """Stop every worker, waiting for each; returns their spans."""
        spans = []
        for _, conn in self._workers:
            try:
                conn.send("stop")
            except OSError:
                pass
        for proc, conn in self._workers:
            try:
                if conn.poll(STOP_TIMEOUT_S):
                    spans += [Span(**s) for s in conn.recv()]
            except (EOFError, OSError):
                pass
            proc.join(STOP_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join(STOP_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join(STOP_TIMEOUT_S)
            conn.close()
        self._workers = []
        return spans
