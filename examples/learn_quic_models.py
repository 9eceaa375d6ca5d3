"""Learn and compare QUIC implementation models (paper section 6.2.2).

Learns the Google-like and Quiche-like servers (12 and 8 states), prints
their differences (design decisions, not necessarily bugs), and the
trace-space reduction statistic: ~330M raw traces of length <= 10 versus
the ~1k traces the learned models make it sufficient to check.

Run:  python examples/learn_quic_models.py
"""

from repro.analysis import diff_models, side_by_side, summary
from repro.experiments import learn_quic, quic_trace_reduction


def main() -> None:
    print("learning the Google-like implementation ...")
    with learn_quic("google") as google:
        print(" ", google.report.summary())

    print("learning the Quiche-like implementation ...")
    with learn_quic("quiche") as quiche:
        print(" ", quiche.report.summary())

    print()
    diff = diff_models(google.model, quiche.model, max_witnesses=3)
    print(diff.render())

    print()
    for experiment in (google, quiche):
        print(quic_trace_reduction(experiment).render())

    print()
    print("first divergence, side by side:")
    print(side_by_side(google.model, quiche.model).splitlines()[0])

    # Export appendix-style DOT renderings next to this script.
    for experiment, filename in ((google, "google.dot"), (quiche, "quiche.dot")):
        with open(filename, "w") as handle:
            handle.write(experiment.model.to_dot())
        print(f"wrote {filename} ({summary(experiment.model)})")


if __name__ == "__main__":
    main()
