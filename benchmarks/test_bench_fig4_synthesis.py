"""E2 -- Figure 3(c) / Figure 4: synthesized register machines."""

from conftest import report

from repro.experiments import learn_tcp_handshake, synthesize_handshake_registers
from repro.synth.terms import PlusOne, InputTerm, RegisterTerm


def test_fig3c_handshake_registers():
    experiment = learn_tcp_handshake()
    result = synthesize_handshake_registers(experiment)
    assert result is not None

    # The SYN transition from the initial state must acknowledge sn + 1:
    # either directly (an = sn+1) or through a register holding sn + 1.
    syn_key = next(
        key
        for key in result.output_terms("an")
        if key[0] == result.machine.skeleton.initial_state
    )
    term = result.output_terms("an")[syn_key]
    direct = term == PlusOne(InputTerm("sn"))
    via_register = isinstance(term, (RegisterTerm, PlusOne))
    report(
        "E2 Fig3c register synthesis",
        [
            ("an term on SYN", "sn+1 (or register)", str(term)),
            ("solver branches", "(Z3 in paper)", result.stats.branches),
            ("search space", "8^11 in paper", result.problem.search_space()),
        ],
    )
    assert direct or via_register
    # Semantics: prediction for a fresh handshake must be ISS+1 (rebased: 1).
    entry_traces = result.training_traces
    assert any(result.machine.consistent_with(t) for t in entry_traces)


def test_fig4_worked_example():
    """The paper's section 4.3 toy traces synthesize consistently."""
    from repro.core.alphabet import Alphabet, parse_tcp_symbol
    from repro.core.extended import ConcreteStep
    from repro.core.mealy import mealy_from_table
    from repro.synth import synthesize

    SYN = parse_tcp_symbol("SYN(?,?,0)")
    ACK = parse_tcp_symbol("ACK(?,?,0)")
    SYNACK = parse_tcp_symbol("ACK+SYN(?,?,0)")
    NIL = parse_tcp_symbol("NIL")
    alphabet = Alphabet.of([SYN, ACK])
    skeleton = mealy_from_table(
        "s0",
        alphabet,
        [
            ("s0", ACK, NIL, "s0"),
            ("s0", SYN, SYNACK, "s1"),
            ("s1", SYN, NIL, "s1"),
            ("s1", ACK, NIL, "s1"),
        ],
        "fig4",
    )

    def step(symbol, out, sn, an, **outputs):
        return ConcreteStep(symbol, out, {"sn": sn, "an": an}, outputs)

    t1 = [step(ACK, NIL, 0, 3), step(SYN, SYNACK, 2, 5, o1=4, o2=5)]
    t2 = [step(SYN, SYNACK, 1, 3, o1=3, o2=4)]

    result = synthesize(skeleton, [t1, t2], register_names=("r", "pr"))
    assert result is not None
    assert result.machine.consistent_with(t1)
    assert result.machine.consistent_with(t2)
    report(
        "E2 Fig4 worked example",
        [
            ("consistent machine found", True, True),
            ("solver branches", "(Z3 in paper)", result.stats.branches),
        ],
    )
