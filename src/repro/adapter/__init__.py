"""Adapter layer: SUL interface, pooling, protocol adapters."""

from .executor import (
    ExecutorBackend,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    build_executor,
)
from .h3_adapter import H3AppLayer, build_h3_app, build_http3_sul
from .http2_adapter import (
    HTTP2AppLayer,
    abstract_frame,
    abstract_frames,
    build_http2_app,
    build_http2_sul,
    frame_params,
)
from .layered import (
    AppLayer,
    LayeredSUL,
    QuicStreamTransport,
    ReliableByteTransport,
    StreamEvent,
    Transport,
    TransportError,
    compose,
)
from .pool import SULPool
from .quic_adapter import QUICAdapterSUL, abstract_packet, abstract_response
from .remote import (
    RemoteDisconnectError,
    RemoteProtocolError,
    RemoteSULError,
    SocketSUL,
    SubprocessSUL,
    SULTimeoutError,
)
from .sul import SUL, SULStats
from .tcp_adapter import TCPAdapterSUL, abstract_segment, segment_params

__all__ = [
    "AppLayer",
    "ExecutorBackend",
    "ExecutorError",
    "H3AppLayer",
    "HTTP2AppLayer",
    "LayeredSUL",
    "ProcessExecutor",
    "QUICAdapterSUL",
    "QuicStreamTransport",
    "ReliableByteTransport",
    "RemoteDisconnectError",
    "RemoteProtocolError",
    "RemoteSULError",
    "SerialExecutor",
    "SocketSUL",
    "StreamEvent",
    "SubprocessSUL",
    "SUL",
    "SULPool",
    "SULStats",
    "SULTimeoutError",
    "TCPAdapterSUL",
    "ThreadExecutor",
    "Transport",
    "TransportError",
    "abstract_frame",
    "abstract_frames",
    "abstract_packet",
    "abstract_response",
    "abstract_segment",
    "build_executor",
    "build_h3_app",
    "build_http2_app",
    "build_http2_sul",
    "build_http3_sul",
    "compose",
    "frame_params",
    "segment_params",
]
