"""Stream state: ordered reassembly plus send buffering.

A QUIC stream is two independent byte pipes.  The receive side reassembles
out-of-order STREAM frames into a contiguous prefix; the send side queues
response bytes and drains them through a
:class:`~repro.quic.flowcontrol.SendFlowController`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.state import BYTES, DICT, fields, nested
from .flowcontrol import ReceiveFlowController, SendFlowController


class StreamError(Exception):
    """Raised on final-size violations or writes after FIN."""


@dataclass
class ReceiveStream:
    """Reassembles the peer's bytes for one stream."""

    __state__ = fields("_delivered final_size", flow=nested(ReceiveFlowController), _segments=DICT)

    flow: ReceiveFlowController = field(default_factory=ReceiveFlowController)
    _segments: dict[int, bytes] = field(default_factory=dict)
    _delivered: int = 0
    final_size: int | None = None

    def on_frame(self, offset: int, data: bytes, fin: bool) -> None:
        end = offset + len(data)
        if self.final_size is not None and end > self.final_size:
            raise StreamError(
                f"data beyond final size: {end} > {self.final_size}"
            )
        if fin:
            if self.final_size is not None and self.final_size != end:
                raise StreamError("conflicting final sizes")
            self.final_size = end
        self.flow.on_data(end)
        if data:
            self._segments[offset] = data

    def readable(self) -> bytes:
        """The contiguous prefix not yet consumed."""
        out = bytearray()
        cursor = self._delivered
        while cursor in self._segments:
            segment = self._segments[cursor]
            out.extend(segment)
            cursor += len(segment)
        return bytes(out)

    def consume(self, count: int) -> bytes:
        """Pop ``count`` bytes off the contiguous prefix."""
        data = self.readable()[:count]
        cursor = self._delivered
        remaining = len(data)
        while remaining > 0 and cursor in self._segments:
            segment = self._segments.pop(cursor)
            if len(segment) > remaining:
                self._segments[cursor + remaining] = segment[remaining:]
                cursor += remaining
                remaining = 0
            else:
                cursor += len(segment)
                remaining -= len(segment)
        self._delivered = cursor
        return data

    @property
    def bytes_received(self) -> int:
        return self.flow.received

    @property
    def finished(self) -> bool:
        return self.final_size is not None and self._delivered >= self.final_size


@dataclass
class SendStream:
    """Buffers our bytes for one stream and drains under flow control."""

    __state__ = fields("offset fin_queued fin_sent", flow=nested(SendFlowController),
                       _pending=BYTES)

    flow: SendFlowController = field(default_factory=SendFlowController)
    _pending: bytearray = field(default_factory=bytearray)
    offset: int = 0
    fin_queued: bool = False
    fin_sent: bool = False

    def write(self, data: bytes, fin: bool = False) -> None:
        if self.fin_queued:
            raise StreamError("write after FIN")
        self._pending.extend(data)
        if fin:
            self.fin_queued = True

    def drain(self, max_bytes: int | None = None) -> tuple[int, bytes, bool]:
        """Take a chunk to put in a STREAM frame.

        Returns ``(offset, data, fin)``; records blocked state in the flow
        controller when credit cuts the send short.
        """
        wanted = len(self._pending)
        if max_bytes is not None:
            wanted = min(wanted, max_bytes)
        granted = self.flow.consume(wanted)
        data = bytes(self._pending[:granted])
        del self._pending[:granted]
        offset = self.offset
        self.offset += granted
        fin = self.fin_queued and not self._pending
        if fin:
            self.fin_sent = True
        return offset, data, fin

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    @property
    def is_blocked(self) -> bool:
        return self.has_pending and self.flow.available() == 0
