"""Connection- and stream-level flow control.

QUIC flow control is credit-based: the receiver advertises a maximum
absolute offset (``MAX_DATA`` / ``MAX_STREAM_DATA``) and the sender may not
send past it.  :class:`SendFlowController` tracks the sender side -- how
much credit remains and the offset at which a send got *blocked* (the value
a correct implementation reports in ``STREAM_DATA_BLOCKED``; Google's bug in
Issue 4 is reporting 0 instead).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.state import fields


class FlowControlError(Exception):
    """Raised when a peer violates an advertised limit."""


@dataclass
class SendFlowController:
    """Sender-side credit tracking for one stream or the connection."""

    __state__ = fields("limit sent blocked_at")

    limit: int = 0
    sent: int = 0
    blocked_at: int | None = None

    def available(self) -> int:
        return max(0, self.limit - self.sent)

    def consume(self, wanted: int) -> int:
        """Send up to ``wanted`` bytes; returns how many fit in the credit.

        Records ``blocked_at`` (the current limit) when the send is cut
        short -- the value ``STREAM_DATA_BLOCKED.maximum_stream_data``
        should carry.
        """
        granted = min(wanted, self.available())
        self.sent += granted
        if granted < wanted:
            self.blocked_at = self.limit
        else:
            self.blocked_at = None
        return granted

    def raise_limit(self, new_limit: int) -> bool:
        """Apply a MAX_DATA / MAX_STREAM_DATA update; returns True if raised.

        Limits never regress (RFC 9000: a smaller value is ignored).
        """
        if new_limit > self.limit:
            self.limit = new_limit
            if self.available() > 0:
                self.blocked_at = None
            return True
        return False

    @property
    def is_blocked(self) -> bool:
        return self.blocked_at is not None


@dataclass
class ReceiveFlowController:
    """Receiver-side accounting for one stream or the connection."""

    __state__ = fields("limit received")

    limit: int = 0
    received: int = 0

    def on_data(self, new_final_offset: int) -> None:
        """Account for data up to ``new_final_offset``; enforce our limit."""
        if new_final_offset > self.limit:
            raise FlowControlError(
                f"peer exceeded flow-control limit: {new_final_offset} > {self.limit}"
            )
        self.received = max(self.received, new_final_offset)

    def grant(self, extra: int) -> int:
        """Raise the advertised limit by ``extra``; returns the new limit."""
        self.limit += extra
        return self.limit
