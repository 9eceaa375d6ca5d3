"""Extension bench -- model-based differential testing (paper sections 5/7).

The learned Quiche model's test suite is replayed against both a fresh
Quiche-like SUL (conformance: zero divergences) and the Google-like SUL
(differential testing: the design differences of section 6.2 surface as
divergences with concrete witnesses).
"""

from conftest import report

from repro.analysis.testgen import generate_test_suite
from repro.experiments import make_quic_sul
from repro.learn.teacher import replay


def test_differential_testing_quic(quic_quiche):
    model = quic_quiche.model
    suite = generate_test_suite(model, "transition-cover")

    conformance = replay(model, make_quic_sul("quiche", seed=321), [suite])
    cross = replay(model, make_quic_sul("google", seed=321), [suite])
    report(
        "EXT differential testing",
        [
            ("suite size (transition cover)", "-", conformance.sent),
            ("self-conformance divergences", 0, len(conformance.divergences)),
            ("cross-implementation divergences", "> 0", len(cross.divergences)),
            (
                "first divergence",
                "design difference",
                cross.divergences[0].render()[:60] if cross.divergences else "-",
            ),
        ],
    )
    assert conformance.conforms
    assert not cross.conforms
    assert cross.divergence_rate > 0.3
