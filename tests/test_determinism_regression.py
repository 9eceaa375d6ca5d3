"""Determinism regression: same spec + same seed => byte-identical results.

Campaign artifacts are diffed and cached across runs (and the difftest
matrix compares suites generated from re-learned models), so learning
must be reproducible down to the serialized byte: two runs of an
identical spec must produce byte-identical model JSON and identical
generated test suites -- serially *and* on a 4-worker pool, which must
also match the serial bytes exactly.
"""

import json

import pytest

from digests import oracle_digest
from repro.analysis.testgen import generate_test_suite
from repro.campaign import run_spec
from repro.framework import Prognosis
from repro.spec import ExecutorSpec, ExperimentSpec


def learn_model_json(spec: ExperimentSpec) -> tuple[str, object]:
    result = run_spec(spec)
    assert result.ok, result.error
    model = result.model.minimize()
    return json.dumps(model.to_dict(), sort_keys=True), model


def suites_of(model) -> dict[str, list]:
    return {
        kind: generate_test_suite(model, kind, extra_states=1, seed=3)
        for kind in ("transition-cover", "wmethod", "random")
    }


@pytest.mark.parametrize(
    "workers,executor",
    [(1, None), (4, None), (4, "process")],
    ids=["serial", "pooled", "process"],
)
@pytest.mark.parametrize("target", ["toy", "tcp-handshake"])
def test_same_spec_same_seed_is_byte_identical(target, workers, executor):
    spec = ExperimentSpec(
        target=target, seed=7, workers=workers, name=target, executor=executor
    )
    first_json, first_model = learn_model_json(spec)
    second_json, second_model = learn_model_json(spec.clone())
    assert first_json == second_json
    assert suites_of(first_model) == suites_of(second_model)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("target", ["toy", "tcp-handshake"])
def test_pooled_matches_serial_bytes(target, backend):
    serial_json, serial_model = learn_model_json(
        ExperimentSpec(target=target, seed=7, workers=1, name=target)
    )
    pooled_json, pooled_model = learn_model_json(
        ExperimentSpec(
            target=target, seed=7, workers=4, name=target, executor=backend
        )
    )
    assert serial_json == pooled_json
    assert suites_of(serial_model) == suites_of(pooled_model)


def test_socket_sul_is_byte_identical_and_matches_local():
    """The real process/socket boundary changes nothing the learner sees:
    two remote runs are byte-identical, and equal to the in-process run."""
    spec = ExperimentSpec(target="remote-tcp", seed=7, name="tcp")
    first_json, first_model = learn_model_json(spec)
    second_json, _ = learn_model_json(spec.clone())
    local_json, local_model = learn_model_json(
        ExperimentSpec(target="tcp", seed=7, name="tcp")
    )
    assert first_json == second_json == local_json
    assert suites_of(first_model) == suites_of(local_model)


def test_random_suite_seed_changes_bytes():
    """The seed is load-bearing: a different EQ seed may change queries but
    never the learned model; a different *suite* seed changes the suite."""
    spec = ExperimentSpec(target="toy", seed=7, name="toy")
    _, model = learn_model_json(spec)
    assert generate_test_suite(model, "random", seed=3) != generate_test_suite(
        model, "random", seed=4
    )


def _absolute_tcp_spec(seed: int, kind: str = "serial") -> ExperimentSpec:
    """tcp with absolute sequence numbers: the one configuration whose
    answers depend on the target seed, since each reset draws a fresh ISS
    from it.  Relative numbering hides the ISS, and the QUIC and stream
    seeds feed only connection ids and randoms that never reach a param,
    so the other targets learn byte-identical tables at any seed."""
    return ExperimentSpec(
        target="tcp",
        target_params={"relative_numbers": False, "seed": seed},
        seed=11,
        name="tcp",
        executor=ExecutorSpec(kind=kind, workers=1 if kind == "serial" else 2),
    )


@pytest.mark.parametrize("seed", [11, 17])
def test_seed_observable_tcp_matches_across_executors(seed):
    """Absolute-number tcp learns one model on every executor.

    Only the models are compared: the concrete params differ, because
    each pool worker draws its own ISS per physical reset.
    """
    serial_json, _ = learn_model_json(_absolute_tcp_spec(seed))
    for kind in ("thread", "process"):
        assert learn_model_json(_absolute_tcp_spec(seed, kind))[0] == serial_json


def test_seed_observable_tcp_seeds_give_different_tables():
    """The two seeds above really differ on the wire, so the gate cannot
    go vacuous: their serial Oracle-Table digests are not equal."""
    digests = []
    for seed in (11, 17):
        with Prognosis(_absolute_tcp_spec(seed)) as prognosis:
            prognosis.learn()
            digests.append(oracle_digest(prognosis.sul.oracle_table))
    assert digests[0] != digests[1]
