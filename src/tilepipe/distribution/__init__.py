"""Client-server crop evaluation: framed TCP wire protocol, worker servers,
a dispatching client whose one stream loop (run_stream) evaluates frames
with the next frame's attention precomputed, and a scaling simulator for
planning worker counts.
"""

from .client import (
    ClusterConfig,
    RemoteFault,
    StreamAborted,
    WorkerError,
    WorkerTimeout,
    WorkerUnavailable,
    check_health,
    dispatch,
    evaluate_remote,
    parse_endpoint,
    run_stream,
)
from .sim import SimScenario, simulate_scaling, stage_latency_ms, write_sim_csv
from .wire import ProtocolError, recv_message, send_message
from .worker import DetectorServer

__all__ = [
    "ClusterConfig",
    "DetectorServer",
    "ProtocolError",
    "RemoteFault",
    "SimScenario",
    "StreamAborted",
    "WorkerError",
    "WorkerTimeout",
    "WorkerUnavailable",
    "check_health",
    "dispatch",
    "evaluate_remote",
    "parse_endpoint",
    "recv_message",
    "run_stream",
    "send_message",
    "simulate_scaling",
    "stage_latency_ms",
    "write_sim_csv",
]
