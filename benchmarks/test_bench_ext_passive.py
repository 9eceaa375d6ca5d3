"""Extension bench -- passive + active learning (paper section 8).

The paper's future-work suggestion: when logs are available, seed the
active learner with them.  We log random sessions against the TCP SUL,
seed the query cache, and measure the saved SUL queries; we also measure
what RPNI alone recovers from the same logs.
"""

import random

from conftest import report

from repro.adapter.tcp_adapter import TCPAdapterSUL
from repro.core.trace import IOTrace
from repro.framework import Prognosis
from repro.spec import ExperimentSpec
from repro.learn.passive import rpni_mealy, seed_cache_from_traces


def _log_sessions(model_sul, num=400, max_len=10, seed=11):
    rng = random.Random(seed)
    symbols = list(model_sul.input_alphabet)
    traces = []
    for _ in range(num):
        word = tuple(rng.choice(symbols) for _ in range(rng.randint(1, max_len)))
        traces.append(IOTrace(word, model_sul.query(word)))
    return traces


def test_passive_bootstrap():
    # Logs come from an independent SUL instance ("production logs").
    log_source = TCPAdapterSUL(seed=55)
    logs = _log_sessions(log_source)

    plain = Prognosis(
        ExperimentSpec(target="tcp", name="active-only"), sul=TCPAdapterSUL(seed=3)
    )
    plain_report = plain.learn()

    boosted = Prognosis(
        ExperimentSpec(target="tcp", name="log-boosted"), sul=TCPAdapterSUL(seed=3)
    )
    seed_cache_from_traces(boosted.cache_oracle.cache, logs)
    boosted_report = boosted.learn()

    passive_only = rpni_mealy(logs, log_source.input_alphabet)
    test_words = [t.inputs for t in _log_sessions(log_source, num=100, seed=77)]
    accuracy = passive_only.accuracy(plain_report.model, test_words)
    saved = plain_report.sul_queries - boosted_report.sul_queries
    report(
        "EXT passive+active learning",
        [
            ("active-only SUL queries", "-", plain_report.sul_queries),
            ("log-boosted SUL queries", "fewer", boosted_report.sul_queries),
            ("queries saved by logs", "> 0", saved),
            ("passive-only model states", "~6", passive_only.num_states),
            ("passive-only accuracy", "high", f"{accuracy:.0%}"),
        ],
    )
    assert boosted_report.model.num_states == plain_report.model.num_states == 6
    assert saved > 0
    assert accuracy > 0.8
