"""Client-server crop evaluation: framed TCP wire protocol, worker servers,
and a dispatching client whose one stream loop (run_stream) evaluates
frames with the next frame's attention precomputed.
"""

from .client import (
    ClusterConfig,
    RemoteFault,
    StreamAborted,
    WorkerError,
    WorkerMismatch,
    WorkerTimeout,
    WorkerUnavailable,
    check_health,
    dispatch,
    evaluate_remote,
    parse_endpoint,
    run_stream,
)
from .wire import ProtocolError, recv_message, send_message
from .worker import DetectorServer

__all__ = [
    "ClusterConfig",
    "DetectorServer",
    "ProtocolError",
    "RemoteFault",
    "StreamAborted",
    "WorkerError",
    "WorkerMismatch",
    "WorkerTimeout",
    "WorkerUnavailable",
    "check_health",
    "dispatch",
    "evaluate_remote",
    "parse_endpoint",
    "recv_message",
    "run_stream",
    "send_message",
]
