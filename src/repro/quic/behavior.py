"""Per-implementation protocol cores for the simulated QUIC servers.

Each server's observable behaviour -- which packets it emits for each
``(packet type, frame set)`` input in each connection phase -- is encoded as
an explicit behaviour table.  The tables are our reconstruction of the
models Prognosis learned from the real servers (paper appendix A.2/A.3):
the appendix figures are rendered as flattened GraphViz text whose edge
structure is partially ambiguous, so we rebuilt semantically coherent
machines that

* have exactly the state/transition counts the paper reports (Google-like:
  12 states / 84 transitions; Quiche-like: 8 states / 56 transitions),
* produce the documented handshake flights, connection-close reactions,
  flow-control and ``STREAM_DATA_BLOCKED`` behaviour, and
* exhibit the four issues of section 6.2 (RETRY divergence, mvfst's
  nondeterministic stateless resets, the tracker port bug's fallout, and
  Google's constant-zero ``maximum_stream_data``).

The tables drive *real* packet processing: the connection layer realizes
each :class:`PacketSpec` as an encrypted packet whose frames carry live
values (packet numbers, offsets, flow-control limits), which is what the
synthesizer later mines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.state import fields

InputKey = tuple[str, tuple[str, ...]]


def input_key(packet_type: str, frames: tuple[str, ...] | list[str]) -> InputKey:
    """Canonical table key: packet type + sorted frame kinds."""
    return packet_type, tuple(sorted(frames))


# The seven abstract inputs of section 6.2.2.
I_CH = input_key("INITIAL", ("CRYPTO",))
I_IHD = input_key("INITIAL", ("ACK", "HANDSHAKE_DONE"))
I_HC = input_key("HANDSHAKE", ("ACK", "CRYPTO"))
I_HHD = input_key("HANDSHAKE", ("ACK", "HANDSHAKE_DONE"))
I_MD = input_key("SHORT", ("ACK", "MAX_DATA", "MAX_STREAM_DATA"))
I_ST = input_key("SHORT", ("ACK", "STREAM"))
I_SHD = input_key("SHORT", ("ACK", "HANDSHAKE_DONE"))

ALL_INPUTS = (I_CH, I_IHD, I_HC, I_HHD, I_MD, I_ST, I_SHD)


@dataclass(frozen=True)
class PacketSpec:
    """One response packet to realize: type plus the frame kinds it carries."""

    packet_type: str
    frames: tuple[str, ...]


def spec(packet_type: str, *frames: str) -> PacketSpec:
    return PacketSpec(packet_type, tuple(frames))


OutputSpec = tuple[PacketSpec, ...]

NIL: OutputSpec = ()


@dataclass(frozen=True)
class BehaviorTable:
    """A complete deterministic behaviour table for one implementation.

    ``rows[state][input] == (output_spec, next_state)``.  ``flaky_states``
    marks states where the implementation responds *nondeterministically*
    with a stateless reset (mvfst, Issue 2); the connection layer handles
    those before consulting the table.
    """

    name: str
    initial_state: str
    rows: Mapping[str, Mapping[InputKey, tuple[OutputSpec, str]]]
    #: state entered when the server aborts due to a post-RETRY packet-number
    #: space reset (Issue 1); None means the implementation tolerates it.
    pn_reset_abort_state: str | None = None
    flaky_states: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for state, row in self.rows.items():
            missing = [key for key in ALL_INPUTS if key not in row]
            if missing:
                raise ValueError(
                    f"{self.name}: state {state} missing inputs {missing}"
                )
            for _, (_, target) in row.items():
                if target not in self.rows:
                    raise ValueError(
                        f"{self.name}: transition into unknown state {target}"
                    )

    def react(self, state: str, key: InputKey) -> tuple[OutputSpec, str]:
        """Table lookup; unknown inputs are ignored (stay, no output)."""
        row = self.rows[state]
        if key in row:
            return row[key]
        return NIL, state


# ---------------------------------------------------------------------------
# Shared output vocabulary
# ---------------------------------------------------------------------------

# Google sends 0.5-RTT data with its first flight; Quiche does not.  The
# INITIAL goes first so the peer derives handshake keys before the
# handshake-level packets arrive (real servers coalesce in this order too).
FLIGHT_GOOGLE: OutputSpec = (
    spec("INITIAL", "ACK", "CRYPTO"),
    spec("HANDSHAKE", "CRYPTO"),
    spec("HANDSHAKE", "CRYPTO"),
    spec("SHORT", "STREAM"),
)
FLIGHT_QUICHE: OutputSpec = (
    spec("INITIAL", "ACK", "CRYPTO"),
    spec("HANDSHAKE", "CRYPTO"),
    spec("HANDSHAKE", "CRYPTO"),
)

# Post-handshake flight: session ticket + HANDSHAKE_DONE.
FIN_GOOGLE: OutputSpec = (spec("SHORT", "CRYPTO"), spec("SHORT", "HANDSHAKE_DONE"))
FIN_QUICHE: OutputSpec = (
    spec("HANDSHAKE", "ACK"),
    spec("SHORT", "CRYPTO", "HANDSHAKE_DONE", "STREAM"),
    spec("SHORT", "STREAM"),
    spec("SHORT", "STREAM"),
)

# Close reactions at various encryption levels.
CLOSE_INITIAL: OutputSpec = (
    spec("HANDSHAKE", "CONNECTION_CLOSE"),
    spec("INITIAL", "ACK", "CONNECTION_CLOSE"),
    spec("SHORT", "CONNECTION_CLOSE", "STREAM"),
)
CLOSE_HANDSHAKE: OutputSpec = (
    spec("HANDSHAKE", "ACK", "CONNECTION_CLOSE"),
    spec("SHORT", "CONNECTION_CLOSE", "STREAM"),
)
CLOSE_SHORT_RETX: OutputSpec = (spec("SHORT", "ACK", "CONNECTION_CLOSE", "STREAM"),)
CLOSE_Q_HANDSHAKE: OutputSpec = (spec("HANDSHAKE", "CONNECTION_CLOSE"),)
CLOSE_Q_SHORT: OutputSpec = (spec("SHORT", "CONNECTION_CLOSE"),)

ACK_ONLY: OutputSpec = (spec("SHORT", "ACK"),)
FLUSH: OutputSpec = (spec("SHORT", "ACK", "STREAM"),)
ECHO: OutputSpec = (spec("SHORT", "ACK", "STREAM"),)
BLOCKED: OutputSpec = (spec("SHORT", "ACK", "STREAM", "STREAM_DATA_BLOCKED"),)

# Google's reaction to a ClientHello arriving after an earlier violation:
# a fresh server flight fused with the pending close (appendix A.2, s11).
REFLIGHT_GOOGLE: OutputSpec = (
    spec("INITIAL", "ACK", "CRYPTO"),
    spec("INITIAL", "ACK", "CONNECTION_CLOSE"),
    spec("HANDSHAKE", "CRYPTO"),
    spec("HANDSHAKE", "CRYPTO"),
    spec("HANDSHAKE", "CONNECTION_CLOSE"),
    spec("SHORT", "STREAM"),
    spec("SHORT", "CONNECTION_CLOSE", "STREAM"),
)


# ---------------------------------------------------------------------------
# Google-like implementation: 12 states, 84 transitions
# ---------------------------------------------------------------------------

def google_table() -> BehaviorTable:
    """Behaviour core of the Google-like server.

    States: g0 idle; g1 flight sent; g2 connected; g3 idle after a premature
    HANDSHAKE_DONE; g4 closed during handshake (close retransmitted in the
    handshake space); g5 request in progress; g6 early 1-RTT data buffered
    during handshake; g7 connected with buffered early data; g8 response
    blocked by stream flow control; g9 response flushed after unblocking;
    g10 closed post-handshake (close retransmitted in 1-RTT space); g11
    flight sent while a close is pending.
    """
    rows = {
        "g0": {
            I_CH: (FLIGHT_GOOGLE, "g1"),
            I_IHD: (NIL, "g3"),
            I_HC: (NIL, "g0"),
            I_HHD: (NIL, "g0"),
            I_MD: (NIL, "g0"),
            I_ST: (NIL, "g0"),
            I_SHD: (NIL, "g0"),
        },
        "g1": {
            I_CH: (CLOSE_INITIAL, "g4"),
            I_IHD: (CLOSE_INITIAL, "g4"),
            I_HC: (FIN_GOOGLE, "g2"),
            I_HHD: (CLOSE_HANDSHAKE, "g4"),
            I_MD: (NIL, "g1"),
            I_ST: (NIL, "g6"),
            I_SHD: (NIL, "g1"),
        },
        "g2": {
            I_CH: (NIL, "g2"),
            I_IHD: (NIL, "g2"),
            I_HC: (FIN_GOOGLE, "g2"),
            I_HHD: (CLOSE_HANDSHAKE, "g4"),
            I_MD: (ACK_ONLY, "g2"),
            I_ST: (ACK_ONLY, "g5"),
            I_SHD: (CLOSE_SHORT_RETX, "g10"),
        },
        "g3": {
            I_CH: (REFLIGHT_GOOGLE, "g11"),
            I_IHD: (NIL, "g3"),
            I_HC: (NIL, "g3"),
            I_HHD: (NIL, "g3"),
            I_MD: (NIL, "g3"),
            I_ST: (NIL, "g3"),
            I_SHD: (NIL, "g3"),
        },
        "g4": {
            I_CH: (NIL, "g4"),
            I_IHD: (NIL, "g4"),
            I_HC: (CLOSE_HANDSHAKE, "g4"),
            I_HHD: (NIL, "g4"),
            I_MD: (NIL, "g4"),
            I_ST: (NIL, "g4"),
            I_SHD: (NIL, "g4"),
        },
        "g5": {
            I_CH: (NIL, "g5"),
            I_IHD: (NIL, "g5"),
            I_HC: (NIL, "g5"),
            I_HHD: (CLOSE_HANDSHAKE, "g4"),
            I_MD: (ACK_ONLY, "g5"),
            I_ST: (BLOCKED, "g8"),
            I_SHD: (CLOSE_SHORT_RETX, "g10"),
        },
        "g6": {
            I_CH: (CLOSE_INITIAL, "g4"),
            I_IHD: (CLOSE_INITIAL, "g4"),
            I_HC: (FIN_GOOGLE, "g7"),
            I_HHD: (CLOSE_HANDSHAKE, "g4"),
            I_MD: (NIL, "g6"),
            I_ST: (NIL, "g6"),
            I_SHD: (NIL, "g6"),
        },
        "g7": {
            I_CH: (NIL, "g7"),
            I_IHD: (NIL, "g7"),
            I_HC: (FIN_GOOGLE, "g7"),
            I_HHD: (CLOSE_HANDSHAKE, "g4"),
            I_MD: (FLUSH, "g2"),
            I_ST: (ACK_ONLY, "g5"),
            I_SHD: (CLOSE_SHORT_RETX, "g10"),
        },
        "g8": {
            I_CH: (NIL, "g8"),
            I_IHD: (NIL, "g8"),
            I_HC: (NIL, "g8"),
            I_HHD: (CLOSE_HANDSHAKE, "g4"),
            I_MD: (FLUSH, "g9"),
            I_ST: (BLOCKED, "g8"),
            I_SHD: (CLOSE_SHORT_RETX, "g10"),
        },
        "g9": {
            I_CH: (NIL, "g9"),
            I_IHD: (NIL, "g9"),
            I_HC: (NIL, "g9"),
            I_HHD: (CLOSE_HANDSHAKE, "g4"),
            I_MD: (ACK_ONLY, "g9"),
            I_ST: (ACK_ONLY, "g5"),
            I_SHD: (CLOSE_SHORT_RETX, "g10"),
        },
        "g10": {
            I_CH: (NIL, "g10"),
            I_IHD: (NIL, "g10"),
            I_HC: (NIL, "g10"),
            I_HHD: (NIL, "g10"),
            I_MD: (NIL, "g10"),
            I_ST: (NIL, "g10"),
            I_SHD: (CLOSE_SHORT_RETX, "g10"),
        },
        "g11": {
            I_CH: (NIL, "g11"),
            I_IHD: (NIL, "g11"),
            I_HC: (CLOSE_HANDSHAKE, "g4"),
            I_HHD: (CLOSE_HANDSHAKE, "g4"),
            I_MD: (NIL, "g11"),
            I_ST: (NIL, "g11"),
            I_SHD: (NIL, "g11"),
        },
    }
    return BehaviorTable(
        name="google", initial_state="g0", rows=rows, pn_reset_abort_state="g4"
    )


# ---------------------------------------------------------------------------
# Quiche-like implementation: 8 states, 56 transitions
# ---------------------------------------------------------------------------

def quiche_table() -> BehaviorTable:
    """Behaviour core of the Quiche-like server.

    States: q0 idle; q1 flight sent; q2 connected (handshake keys still
    held, so handshake-space violations draw a 1-RTT close); q3 closed
    (silent); q4 connected after a flow-control update (handshake keys
    dropped: late handshake packets are ignored); q5 streaming (echoes);
    q6 early 1-RTT data during handshake; q7 connected with buffered early
    data (echoes immediately).
    """
    rows = {
        "q0": {
            I_CH: (FLIGHT_QUICHE, "q1"),
            I_IHD: (NIL, "q0"),
            I_HC: (NIL, "q0"),
            I_HHD: (NIL, "q0"),
            I_MD: (NIL, "q0"),
            I_ST: (NIL, "q0"),
            I_SHD: (NIL, "q0"),
        },
        "q1": {
            I_CH: (CLOSE_Q_HANDSHAKE, "q3"),
            I_IHD: (CLOSE_Q_HANDSHAKE, "q3"),
            I_HC: (FIN_QUICHE, "q2"),
            I_HHD: (CLOSE_Q_HANDSHAKE, "q3"),
            I_MD: (NIL, "q1"),
            I_ST: (NIL, "q6"),
            I_SHD: (NIL, "q1"),
        },
        "q2": {
            I_CH: (NIL, "q2"),
            I_IHD: (NIL, "q2"),
            I_HC: (CLOSE_Q_SHORT, "q3"),
            I_HHD: (CLOSE_Q_SHORT, "q3"),
            I_MD: (ACK_ONLY, "q4"),
            I_ST: (ACK_ONLY, "q5"),
            I_SHD: (CLOSE_Q_SHORT, "q3"),
        },
        "q3": {
            I_CH: (NIL, "q3"),
            I_IHD: (NIL, "q3"),
            I_HC: (NIL, "q3"),
            I_HHD: (NIL, "q3"),
            I_MD: (NIL, "q3"),
            I_ST: (NIL, "q3"),
            I_SHD: (NIL, "q3"),
        },
        "q4": {
            I_CH: (NIL, "q4"),
            I_IHD: (NIL, "q4"),
            I_HC: (NIL, "q4"),
            I_HHD: (NIL, "q4"),
            I_MD: (ACK_ONLY, "q4"),
            I_ST: (ACK_ONLY, "q5"),
            I_SHD: (CLOSE_Q_SHORT, "q3"),
        },
        "q5": {
            I_CH: (NIL, "q5"),
            I_IHD: (NIL, "q5"),
            I_HC: (NIL, "q5"),
            I_HHD: (NIL, "q5"),
            I_MD: (ACK_ONLY, "q4"),
            I_ST: (ECHO, "q5"),
            I_SHD: (CLOSE_Q_SHORT, "q3"),
        },
        "q6": {
            I_CH: (CLOSE_Q_HANDSHAKE, "q3"),
            I_IHD: (CLOSE_Q_HANDSHAKE, "q3"),
            I_HC: (FIN_QUICHE, "q7"),
            I_HHD: (CLOSE_Q_HANDSHAKE, "q3"),
            I_MD: (NIL, "q6"),
            I_ST: (NIL, "q6"),
            I_SHD: (NIL, "q6"),
        },
        "q7": {
            I_CH: (NIL, "q7"),
            I_IHD: (NIL, "q7"),
            I_HC: (CLOSE_Q_SHORT, "q3"),
            I_HHD: (CLOSE_Q_SHORT, "q3"),
            I_MD: (ACK_ONLY, "q4"),
            I_ST: (ECHO, "q5"),
            I_SHD: (CLOSE_Q_SHORT, "q3"),
        },
    }
    return BehaviorTable(name="quiche", initial_state="q0", rows=rows)


# ---------------------------------------------------------------------------
# mvfst-like implementation: Quiche-shaped, but nondeterministic after close
# ---------------------------------------------------------------------------

def mvfst_table() -> BehaviorTable:
    """Behaviour core of the mvfst-like server (Issue 2).

    Structurally similar to Quiche, but every closed state is *flaky*: the
    server answers subsequent packets with a stateless RESET only with
    probability ~0.82 and stays silent otherwise, with no back-off -- the
    DoS-amplifying bug of section 6.2.4.  Deterministic learning therefore
    fails on this implementation, exactly as the paper reports.
    """
    base = quiche_table()
    rows = {state: dict(row) for state, row in base.rows.items()}
    return BehaviorTable(
        name="mvfst",
        initial_state=base.initial_state,
        rows=rows,
        flaky_states=frozenset({"q3"}),
    )


@dataclass
class BehaviorCore:
    """A mutable cursor over a behaviour table (one per connection)."""

    __state__ = fields("state")
    __shared__ = "table"

    table: BehaviorTable
    state: str = field(default="")

    def __post_init__(self) -> None:
        if not self.state:
            self.state = self.table.initial_state

    def react(self, key: InputKey) -> OutputSpec:
        output, self.state = self.table.react(self.state, key)
        return output

    def abort_for_pn_reset(self) -> bool:
        """Move to the abort state if this implementation is strict about
        post-RETRY packet-number resets (Issue 1).  Returns True if moved."""
        if self.table.pn_reset_abort_state is None:
            return False
        self.state = self.table.pn_reset_abort_state
        return True

    @property
    def is_flaky(self) -> bool:
        return self.state in self.table.flaky_states
