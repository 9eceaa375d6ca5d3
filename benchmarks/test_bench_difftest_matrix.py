"""S2 -- Differential conformance matrix: pooled vs serial wall-clock.

A :class:`~repro.campaign.DiffCampaign` has three parallelism levers:
concurrent learning runs, concurrent (row, column) replay pairs, and SUL
pools inside each run/replay.  This benchmark measures the full matrix
over two latency-injected toy implementations (1 ms per exchanged
symbol, standing in for the network round-trips a real closed-box SUL
pays) serially and with all three levers at ``workers=4``.  Verdicts and
witnesses must be identical; only wall-clock may change.
"""

import statistics
import time

from conftest import report

from repro.adapter.mealy_sul import MealySUL, toy_machine
from repro.campaign import DiffCampaign
from repro.core.mealy import MealyMachine
from repro.registry import SUL_REGISTRY
from repro.spec import ExperimentSpec

STEP_LATENCY = 0.001  # 1 ms per exchanged symbol
POOL_WORKERS = 4
#: Alternating serial/pooled runs; the medians are compared.
PAIRS = 9


class _LatentMealySUL(MealySUL):
    """A machine-backed SUL with a per-step delay standing in for RTT."""

    def _step_impl(self, symbol):
        time.sleep(STEP_LATENCY)
        return super()._step_impl(symbol)


def _mutant_machine() -> MealyMachine:
    """The toy machine except the established state RSTs an ACK."""
    base = toy_machine()
    syn, ack = base.input_alphabet.symbols
    rst = base.step("s1", syn)[1]
    table = {
        (t.source, t.input): (t.target, t.output) for t in base.transitions()
    }
    table[("s1", ack)] = (table[("s1", ack)][0], rst)
    return MealyMachine("s0", base.input_alphabet, table, "bench-latent-mutant")


def _campaign(workers: int) -> DiffCampaign:
    specs = [
        ExperimentSpec(
            target="bench-latent-toy", workers=workers, name="latent-toy"
        ),
        ExperimentSpec(
            target="bench-latent-mutant", workers=workers, name="latent-mutant"
        ),
    ]
    return DiffCampaign(specs, kinds=("wmethod",), workers=workers)


def _run_matrix(workers: int):
    start = time.perf_counter()
    result = _campaign(workers).run()
    return result, time.perf_counter() - start


def test_difftest_matrix_pooled_beats_serial():
    SUL_REGISTRY.register(
        "bench-latent-toy",
        lambda: _LatentMealySUL(toy_machine(), name="bench-latent-toy"),
    )
    SUL_REGISTRY.register(
        "bench-latent-mutant",
        lambda: _LatentMealySUL(_mutant_machine(), name="bench-latent-mutant"),
    )
    try:
        # Alternate serial and pooled runs so drift on a shared box
        # lands on both sides; compare medians, not single samples.
        pairs = [
            (_run_matrix(workers=1), _run_matrix(workers=POOL_WORKERS))
            for _ in range(PAIRS)
        ]
    finally:
        SUL_REGISTRY.unregister("bench-latent-toy")
        SUL_REGISTRY.unregister("bench-latent-mutant")

    serial_wall = statistics.median(serial[1] for serial, _ in pairs)
    pooled_wall = statistics.median(pooled[1] for _, pooled in pairs)
    serial_result = pairs[0][0][0]
    divergent = serial_result.matrix.divergent_pairs()
    report(
        "S2 difftest matrix scaling",
        [
            (f"serial wall-clock (median of {PAIRS})", "-", f"{serial_wall:.3f}s"),
            (
                f"pooled wall-clock (w={POOL_WORKERS}, median of {PAIRS})",
                "-",
                f"{pooled_wall:.3f}s",
            ),
            ("speedup", "> 1x", f"{serial_wall / pooled_wall:.2f}x"),
            ("divergent pairs", 2, len(divergent)),
            (
                "witness length",
                2,
                len(divergent[0].witness) if divergent else "-",
            ),
        ],
    )
    # Parallelism must not change the matrix, on any run ...
    for (serial, _), (pooled, _) in pairs:
        _assert_same_matrix(serial_result, serial)
        _assert_same_matrix(serial_result, pooled)
        assert len(serial.matrix.divergent_pairs()) == 2
        for cell in serial.matrix.divergent_pairs() + pooled.matrix.divergent_pairs():
            assert cell.witness_validated
    # ... only how fast (generous margin: CI boxes are noisy).
    assert pooled_wall < serial_wall


def _assert_same_matrix(expected, result) -> None:
    assert len(expected.matrix.cells) == len(result.matrix.cells)
    for key, cell in expected.matrix.cells.items():
        other = result.matrix.cells[key]
        assert cell.verdict == other.verdict
        assert cell.witness == other.witness
        assert cell.suite_size == other.suite_size
