"""The concurrent query service (``repro.server``).

A multi-query front door over the RecStep engine, on the simulated
clock: session lifecycle management with isolated failure domains,
admission control with bounded queueing and memory-reservation
backpressure, per-class circuit breakers, per-request deadlines, and
graceful drain with crash-safe checkpoints. See DESIGN.md,
"Concurrent query service".

Quickstart::

    from repro.server import QueryService, QueryRequest, ServerConfig

    service = QueryService(ServerConfig(max_concurrent=2, queue_limit=4))
    response = service.submit(QueryRequest(get_program("TC"), {"arc": edges}))
    service.pump()
    print(service.status(response["session_id"]))
    print(service.drain(checkpoint_dir="/tmp/drain"))
"""

from repro.server.admission import (
    AdmissionController,
    Overloaded,
    QueryRequest,
)
from repro.server.breaker import BreakerBoard, CircuitBreaker
from repro.server.service import QueryService, ServerConfig
from repro.server.session import (
    Session,
    SessionError,
    SessionManager,
    SessionState,
)

__all__ = [
    "AdmissionController",
    "BreakerBoard",
    "CircuitBreaker",
    "Overloaded",
    "QueryRequest",
    "QueryService",
    "ServerConfig",
    "Session",
    "SessionError",
    "SessionManager",
    "SessionState",
]
