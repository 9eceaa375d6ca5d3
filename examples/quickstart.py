"""Quickstart: learn a model of a TCP implementation in ~20 lines.

Reproduces the paper's section 6.1 headline: the Linux-like TCP stack
learns to a 6-state, 42-transition Mealy machine, whose handshake fragment
is exactly Fig. 3(b).

Run:  python examples/quickstart.py
"""

from repro import ExperimentSpec, Prognosis
from repro.analysis import check_property, parse_ltl, transition_table
from repro.core.alphabet import parse_tcp_symbol


def main() -> None:
    # The "tcp" target: a simulated Linux-like TCP server plus the
    # instrumented reference client acting as the concretization oracle.
    # The context manager releases the SUL's resources when learning is done.
    spec = ExperimentSpec(target="tcp", name="tcp-linux")
    with Prognosis(spec) as prognosis:
        report = prognosis.learn()
        print(report.summary())
        print()
        print(transition_table(report.model))
        print()

        # Drive the learned model through the 3-way handshake (Fig. 3b).
        syn = parse_tcp_symbol("SYN(?,?,0)")
        ack = parse_tcp_symbol("ACK(?,?,0)")
        outputs = report.model.run((syn, ack))
        print(f"{syn} -> {outputs[0]}")
        print(f"{ack} -> {outputs[1]}")

        # Check a safety property: a reset listener never SYN+ACKs.
        violation = check_property(
            report.model,
            parse_ltl("G ((out ~ RST) -> X (out != ACK+SYN(?,?,0)))"),
            depth=6,
        )
        print(f"safety property: {'violated: ' + violation.render() if violation else 'holds'}")


if __name__ == "__main__":
    main()
