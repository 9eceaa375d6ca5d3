"""A1 -- Ablation: TTT vs L* query cost (the design choice of section 4.2)."""

from conftest import report

from repro.experiments import learn_tcp_full


def test_ablation_ttt_vs_lstar():
    ttt = learn_tcp_full(learner="ttt")
    lstar = learn_tcp_full(learner="lstar")
    report(
        "A1 TTT vs L*",
        [
            ("TTT SUL queries", "-", ttt.report.sul_queries),
            ("L* SUL queries", "-", lstar.report.sul_queries),
            (
                "TTT advantage",
                ">= 1x",
                f"{lstar.report.sul_queries / ttt.report.sul_queries:.2f}x",
            ),
        ],
    )
    # Both learn the same 6-state machine...
    assert ttt.model.num_states == lstar.model.num_states == 6
    # ...but TTT needs no more queries than L* (usually far fewer).
    assert ttt.report.sul_queries <= lstar.report.sul_queries
