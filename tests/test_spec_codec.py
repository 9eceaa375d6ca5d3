"""The one spec codec: JSON form, copies and key checks of every section.

Every :class:`~repro.spec.ExperimentSpec` section takes its ``to_dict``,
``from_dict`` and ``clone`` from :class:`~repro.spec.SpecSection`, which
reads the dataclass fields.  These tests pin that codec over random field
values, its refusals, the bare-string chain refusal, and the exact JSON
bytes of a fully populated spec.
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.spec import (
    AttackSpec,
    ComponentSpec,
    CorpusSpec,
    ExecutorSpec,
    ExperimentSpec,
    PropertiesSpec,
    SpecError,
    StoreSpec,
)

GOLDEN = Path(__file__).parent / "golden" / "spec_full.json"

text = st.text(max_size=6)
maybe_text = st.none() | text
ints = st.integers(min_value=-3, max_value=10_000)
maybe_int = st.none() | ints
json_values = st.recursive(
    st.none() | st.booleans() | ints | text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=6,
)
params = st.dictionaries(text, json_values, max_size=3)

components = st.builds(ComponentSpec, kind=text, params=params)
properties = st.builds(
    PropertiesSpec,
    suite=maybe_text,
    depth=ints,
    formulas=st.lists(text, max_size=3),
    include_probes=st.booleans(),
    minimize=st.booleans(),
)
executors = st.builds(
    ExecutorSpec,
    kind=text,
    workers=maybe_int,
    timeout_s=st.none() | st.floats(allow_nan=False, allow_infinity=False),
)
stores = st.builds(StoreSpec, path=text, flush_every=ints)
corpora = st.builds(
    CorpusSpec, path=text, skip_conflicts=st.booleans(), max_traces=maybe_int
)
attacks = st.builds(
    AttackSpec,
    attacker=maybe_text,
    objective=maybe_text,
    budget=ints,
    fuzz=st.booleans(),
    max_suffix=ints,
    corpus_out=maybe_text,
)
experiments = st.builds(
    ExperimentSpec,
    target=text,
    target_params=params,
    learner=text,
    learner_params=params,
    equivalence=st.lists(components, max_size=3),
    middleware=st.lists(components, max_size=3),
    workers=ints,
    seed=ints,
    batch_size=ints,
    name=maybe_text,
    properties=st.none() | properties,
    executor=st.none() | executors,
    store=st.none() | stores,
    corpus=st.none() | corpora,
    attack=st.none() | attacks,
)
sections = st.one_of(
    components, properties, executors, stores, corpora, attacks, experiments
)

#: One valid mapping per section, and the keys it cannot do without.
MINIMAL = {
    ComponentSpec: ({"kind": "cache"}, ["kind"]),
    PropertiesSpec: ({}, []),
    ExecutorSpec: ({}, []),
    StoreSpec: ({"path": "store.sqlite"}, ["path"]),
    CorpusSpec: ({"path": "corpus.jsonl"}, ["path"]),
    AttackSpec: ({}, []),
    ExperimentSpec: ({"target": "tcp"}, ["target"]),
}


def _mutate_every_container(value) -> None:
    """Grow every list and dict reachable from ``value``."""
    if dataclasses.is_dataclass(value):
        for spec_field in dataclasses.fields(value):
            _mutate_every_container(getattr(value, spec_field.name))
    elif isinstance(value, dict):
        for item in list(value.values()):
            _mutate_every_container(item)
        value["mutated-by-test"] = True
    elif isinstance(value, list):
        for item in value:
            _mutate_every_container(item)
        value.append("mutated-by-test")


@settings(max_examples=300, deadline=None)
@given(sections)
def test_json_round_trip_is_lossless(section):
    restored = type(section).from_dict(json.loads(json.dumps(section.to_dict())))
    assert restored == section
    if isinstance(section, ExperimentSpec):
        assert ExperimentSpec.from_json(section.to_json()) == section


@settings(max_examples=300, deadline=None)
@given(sections)
def test_clone_is_equal_and_independent(section):
    before = section.to_dict()
    copy = section.clone()
    assert copy == section
    _mutate_every_container(copy)
    assert section.to_dict() == before


@pytest.mark.parametrize("section", list(MINIMAL), ids=lambda cls: cls.__name__)
class TestRefusals:
    def test_unknown_key(self, section):
        minimal, _ = MINIMAL[section]
        with pytest.raises(SpecError, match="unknown .* spec keys: \\['bogus'\\]"):
            section.from_dict({**minimal, "bogus": 1})
        with pytest.raises(SpecError, match="bogus"):
            section.from_dict(minimal).clone(bogus=1)

    def test_missing_required_key(self, section):
        minimal, required = MINIMAL[section]
        assert section.from_dict(minimal) == section(**minimal)
        for key in required:
            incomplete = {k: v for k, v in minimal.items() if k != key}
            with pytest.raises(SpecError, match=repr(key)):
                section.from_dict(incomplete)

    @pytest.mark.parametrize("value", [None, 5, 1.5, ["cache"], ("a",), b"x"])
    def test_non_mapping_value(self, section, value):
        with pytest.raises(SpecError, match="must be a mapping"):
            section.from_dict(value)

    def test_bare_string_fills_only_the_shorthand_field(self, section):
        if section.SHORTHAND is None:
            with pytest.raises(SpecError, match="must be a mapping"):
                section.from_dict("tcp")
        else:
            parsed = section.from_dict("tcp")
            assert getattr(parsed, section.SHORTHAND) == "tcp"
            assert parsed == section.from_dict({section.SHORTHAND: "tcp"})


@pytest.mark.parametrize(
    "name, value", [("equivalence", "wmethod"), ("middleware", "cache")]
)
class TestBareStringChains:
    """A chain given as one string is refused, naming the field, instead
    of being iterated into one-letter components."""

    def test_constructor(self, name, value):
        with pytest.raises(SpecError, match=f"'{name}' must be a list"):
            ExperimentSpec(target="tcp", **{name: value})

    def test_json(self, name, value):
        text = json.dumps({"target": "tcp", name: value})
        with pytest.raises(SpecError, match=f"'{name}' must be a list"):
            ExperimentSpec.from_json(text)

    def test_clone(self, name, value):
        with pytest.raises(SpecError, match=f"'{name}' must be a list"):
            ExperimentSpec(target="tcp").clone(**{name: value})

    def test_a_list_of_strings_is_still_shorthand(self, name, value):
        spec = ExperimentSpec(target="tcp", **{name: [value]})
        assert getattr(spec, name) == [ComponentSpec(value)]


def test_bare_string_formulas_refused():
    with pytest.raises(SpecError, match="'formulas' must be a list"):
        PropertiesSpec(formulas="G (out == NIL)")


def test_null_params_and_formulas_read_as_empty():
    spec = ExperimentSpec.from_dict(
        {
            "target": "tcp",
            "middleware": [{"kind": "cache", "params": None}],
            "properties": {"formulas": None},
        }
    )
    assert spec.middleware == [ComponentSpec("cache", {})]
    assert spec.properties.formulas == []


def _fully_populated() -> ExperimentSpec:
    """Every section, and every shorthand form the codec accepts."""
    return ExperimentSpec(
        target="quic-google",
        target_params={"lossy": False, "nested": {"a": [1, 2]}},
        learner="lstar",
        learner_params={"max_rounds": 9},
        equivalence=[
            "random",
            {"kind": "wmethod", "params": {"extra_states": 2}},
            ComponentSpec("rwalk", {"steps": 3}),
        ],
        middleware=[{"kind": "majority-vote", "params": {"votes": 3}}, "cache"],
        workers=2,
        seed=7,
        batch_size=32,
        name="full",
        properties={
            "suite": "quic",
            "depth": 3,
            "formulas": ["G (out == NIL)"],
            "include_probes": True,
            "minimize": False,
        },
        executor="process",
        store="store.sqlite",
        corpus={"path": "c.jsonl", "skip_conflicts": False, "max_traces": 10},
        attack="flood",
    )


def test_json_bytes_match_the_golden_file():
    """The JSON of a fully populated spec is pinned byte for byte: stored
    specs (campaign ``spec.json``, store rows) must not change."""
    spec = _fully_populated()
    assert spec.to_json() + "\n" == GOLDEN.read_text()
    assert ExperimentSpec.from_json(GOLDEN.read_text()) == spec


def test_compact_json_of_the_mapping_forms():
    spec = ExperimentSpec.from_dict(
        {
            "target": "http2",
            "executor": {"kind": "thread", "workers": 3, "timeout_s": 1.5},
            "store": {"path": "s.sqlite", "flush_every": 8},
            "corpus": "x.jsonl",
            "attack": {
                "attacker": None,
                "objective": "G (out == NIL)",
                "budget": 5,
                "fuzz": True,
                "max_suffix": 2,
                "corpus_out": "o.jsonl",
            },
            "properties": {},
        }
    )
    assert spec.to_json(indent=None) == (
        '{"target": "http2", "target_params": {}, "learner": "ttt", '
        '"learner_params": {}, "equivalence": [{"kind": "wmethod", "params": '
        '{"extra_states": 1}}], "middleware": [{"kind": "cache", "params": {}}], '
        '"workers": 1, "seed": 0, "batch_size": 64, "name": null, "properties": '
        '{"suite": null, "depth": 5, "formulas": [], "include_probes": false, '
        '"minimize": true}, "executor": {"kind": "thread", "workers": 3, '
        '"timeout_s": 1.5}, "store": {"path": "s.sqlite", "flush_every": 8}, '
        '"corpus": {"path": "x.jsonl", "skip_conflicts": true, "max_traces": '
        'null}, "attack": {"attacker": null, "objective": "G (out == NIL)", '
        '"budget": 5, "fuzz": true, "max_suffix": 2, "corpus_out": "o.jsonl"}}'
    )


@pytest.mark.parametrize(
    "data, section, name",
    [
        ({"target_params": None}, "experiment", "target_params"),
        ({"seed": "x"}, "experiment", "seed"),
        ({"batch_size": 2.5}, "experiment", "batch_size"),
        ({"name": 5}, "experiment", "name"),
        ({"workers": "2"}, "experiment", "workers"),
        ({"workers": True}, "experiment", "workers"),
        ({"executor": {"workers": "2"}}, "executor", "workers"),
        ({"executor": {"timeout_s": "5"}}, "executor", "timeout_s"),
        ({"executor": {"timeout_s": False}}, "executor", "timeout_s"),
        ({"properties": {"include_probes": 1}}, "properties", "include_probes"),
        ({"properties": {"formulas": ["G (out == NIL)", 3]}}, "properties", "formulas"),
        ({"middleware": [{"kind": "cache", "params": "abc"}]}, "component", "params"),
        ({"store": {"path": 7}}, "store", "path"),
    ],
)
def test_values_of_the_wrong_type_are_refused(data, section, name):
    with pytest.raises(SpecError, match=f"^{section} spec '{name}' must be "):
        ExperimentSpec.from_json(json.dumps({"target": "tcp", **data}))


def test_an_int_is_a_float_and_none_an_optional():
    spec = ExperimentSpec.from_dict(
        {"target": "tcp", "executor": {"timeout_s": 5, "workers": None}, "name": None}
    )
    assert spec.validate().executor.timeout_s == 5
    with pytest.raises(SpecError, match="'seed' must be int"):
        ExperimentSpec(target="tcp").clone(seed=1.0)
