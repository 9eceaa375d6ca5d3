"""Command-line interface: ``python -m repro <command>``.

Gives the framework the shape of a releasable tool:

* ``properties`` -- run a registered property suite (tcp, quic, http2,
  toy, plug-ins) and/or ad-hoc LTLf formulas against learned models;
  accepts targets, whole families and spec files, and emits
  ``properties.json`` verdict artifacts with minimized witnesses
* ``issues``     -- reproduce one of the paper's four findings
* ``run``        -- execute a declarative experiment spec (JSON file)
* ``passive``    -- bulk-trace passive learning: fold a JSONL session
  corpus into a partial Mealy machine (hardened RPNI), then actively
  refine the undetermined cells through the oracle stack; ``--generate``
  / ``--full`` produce corpora from a registered target first
* ``sweep``      -- run a campaign grid: targets x learners x seeds
* ``difftest``   -- differential conformance campaign over a target family:
  learn every implementation, cross-replay every model-derived suite,
  print the N x N verdict matrix with minimized witnesses
* ``ci``         -- incremental model CI: revalidate each target's stored
  model against the live SUL through the persistent query store, exit
  nonzero (with a minimized diff witness) on behavioural drift
* ``store``      -- inspect (``--stats``) or garbage-collect (``--gc``)
  a persistent query/model store file

``run``, ``sweep`` and ``difftest`` accept ``--store PATH`` to read and
persist membership observations (and model lineage) across invocations.

Target and learner choices come from the :mod:`repro.registry`
registries, so protocols registered by plug-ins appear automatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .registry import LEARNER_REGISTRY, SUL_REGISTRY, load_builtins


def _known_targets() -> tuple[str, ...]:
    load_builtins()
    return tuple(sorted(SUL_REGISTRY.names()))


def _known_learners() -> tuple[str, ...]:
    load_builtins()
    return tuple(sorted(LEARNER_REGISTRY.names()))


def _count(text: str) -> int:
    """argparse ``type`` of a count option: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _member_specs(args: argparse.Namespace, **fields) -> list:
    """The specs a verb's ``targets`` name (:func:`repro.campaign.member_specs`):
    each registered target clones one base spec of the verb's ``--learner``,
    ``--seed`` and ``fields``.  Raises :class:`~repro.spec.SpecError`."""
    from .campaign import member_specs
    from .spec import ExperimentSpec

    base = ExperimentSpec(target="toy", learner=args.learner, seed=args.seed, **fields)
    return member_specs(args.targets, base=base, exact=args.exact)


def _cmd_properties(args: argparse.Namespace) -> int:
    from .analysis.property_api import resolve_properties
    from .campaign import Campaign
    from .registry import RegistryError
    from .spec import PropertiesSpec, SpecError

    specs = _member_specs(args)
    formulas = args.formula or []
    for spec in specs:
        if spec.properties is None:
            spec.properties = PropertiesSpec(
                depth=args.depth,
                formulas=list(formulas),
                include_probes=args.probes,
            )
        else:
            # A spec file's own section wins; CLI formulas are appended.
            spec.properties.formulas.extend(formulas)
    try:
        resolved = [
            resolve_properties(
                spec.target,
                suite=spec.properties.suite,
                formulas=spec.properties.formulas,
                include_probes=True,
            )
            for spec in specs
        ]
    except RegistryError as error:
        print(f"invalid property campaign: {error}", file=sys.stderr)
        return 2
    if args.list:
        for spec, properties in zip(specs, resolved):
            print(f"{spec.display_name()}:")
            if not properties:
                print("  (no properties registered for this target)")
            for prop in properties:
                print(f"  {prop.name:<32} [{prop.kind}] {prop.description}")
        return 0
    if not any(resolved):
        print(
            "no properties to check: no registered suite for these targets "
            "and no --formula given (see 'repro properties --list')",
            file=sys.stderr,
        )
        return 2
    try:
        results = Campaign(
            specs, workers=args.workers, output_dir=args.out, share_cache=True
        ).run()
    except (SpecError, KeyError) as error:
        print(f"invalid property campaign: {error}", file=sys.stderr)
        return 2
    failed = False
    for result in results:
        if len(results) > 1:
            print(f"== {result.spec.display_name()}")
        if not result.ok:
            print(f"FAILED ({result.error})", file=sys.stderr)
            failed = True
            continue
        print(result.properties.render())
        print(result.properties.summary())
        if result.artifact_dir:
            print(f"artifacts: {result.artifact_dir}")
        if not result.properties.ok:
            failed = True
    return 1 if failed else 0


def _cmd_issues(args: argparse.Namespace) -> int:
    from .experiments import (
        issue1_retry_divergence,
        issue2_nondeterminism,
        issue3_retry_port,
        issue4_stream_data_blocked,
    )

    if args.number == 1:
        result = issue1_retry_divergence()
        print(result.diff.render())
    elif args.number == 2:
        result = issue2_nondeterminism()
        print(f"learning aborted: {result.error}")
        print(f"RESET rate: {result.reset_rate:.0%} (paper: ~82%)")
    elif args.number == 3:
        result = issue3_retry_port()
        print(f"buggy client establishes: {result.buggy_establishes}")
        print(f"fixed client establishes: {result.fixed_establishes}")
    else:
        result = issue4_stream_data_blocked()
        print(f"buggy  max_stream_data: constant {result.buggy_constant}")
        print(
            "fixed  max_stream_data: "
            + (
                "state-dependent"
                if result.fixed_constant is None
                else f"constant {result.fixed_constant}"
            )
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .campaign import member_specs, run_spec
    from .spec import ExperimentSpec, SpecError

    # The CLI --executor overrides the file's own.
    base = ExperimentSpec(target="toy", executor=args.executor)
    specs = member_specs([args.spec], base=base)
    if len(specs) != 1:
        raise SpecError(f"{args.spec} names {len(specs)} runs; run takes one")
    spec = specs[0]
    try:
        spec.validate()
    except (SpecError, KeyError) as error:
        print(f"invalid spec: {error}", file=sys.stderr)
        return 2
    result = run_spec(spec, output_dir=args.out, store=args.store)
    print(result.summary())
    if result.artifact_dir:
        print(f"artifacts: {result.artifact_dir}")
    return 0 if result.ok else 1


def _cmd_passive(args: argparse.Namespace) -> int:
    import json
    import os

    from .learn.bulk import (
        bulk_passive_learn,
        generate_corpus,
        record_full_corpus,
    )
    from .spec import ExperimentSpec, SpecError

    if args.generate is not None and args.full:
        print("--generate and --full are mutually exclusive", file=sys.stderr)
        return 2
    spec = ExperimentSpec(
        target=args.target,
        learner=args.learner,
        seed=args.seed,
        middleware=["cache"],
        corpus=args.corpus,
        store=args.store,
        executor=args.executor,
    )
    try:
        spec.validate()
    except (SpecError, KeyError) as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    if args.generate is not None:
        count = generate_corpus(
            spec, args.corpus,
            num_sessions=args.generate, max_len=args.gen_max_len,
        )
        print(f"generated {count} session traces -> {args.corpus}")
    elif args.full:
        count = record_full_corpus(spec, args.corpus)
        print(f"recorded covering corpus ({count} observations) -> {args.corpus}")
    elif not os.path.exists(args.corpus):
        print(
            f"no corpus at {args.corpus} "
            "(use --generate N or --full to create one)",
            file=sys.stderr,
        )
        return 2
    try:
        result = bulk_passive_learn(spec, refine=not args.no_refine)
    except ValueError as error:  # corpus format errors, strict conflicts
        print(f"passive run failed: {error}", file=sys.stderr)
        return 1
    print(result.summary())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "passive.json"), "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        if result.model is not None:
            with open(os.path.join(args.out, "model.json"), "w") as handle:
                json.dump(result.model.to_dict(), handle, indent=2, sort_keys=True)
            with open(os.path.join(args.out, "model.dot"), "w") as handle:
                handle.write(result.model.to_dot())
        print(f"artifacts: {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .campaign import Campaign

    try:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    except ValueError:
        print(f"--seeds must be comma-separated integers, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    base = None
    if args.executor is not None or args.sul_workers != 1:
        from .spec import ExperimentSpec

        base = ExperimentSpec(
            target="toy",
            workers=args.sul_workers,
            executor=args.executor,
        )
    campaign = Campaign.grid(
        targets=args.target,
        learners=args.learner or ["ttt"],
        seeds=seeds or [0],
        base=base,
        workers=args.workers,
        output_dir=args.out,
        share_cache=not args.no_share_cache,
        store=args.store,
    )
    results = campaign.run()
    for result in results:
        print(result.summary())
    failed = sum(1 for result in results if not result.ok)
    if failed:
        print(f"{failed}/{len(results)} runs failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_difftest(args: argparse.Namespace) -> int:
    from .campaign import DiffCampaign
    from .spec import SpecError

    specs = _member_specs(args, workers=args.sul_workers, executor=args.executor)
    try:
        campaign = DiffCampaign(
            specs,
            kinds=tuple(args.kind or ["wmethod"]),
            workers=args.workers,
            output_dir=args.out,
            max_divergences=args.max_divergences,
            store=args.store,
        )
        result = campaign.run()
    except (SpecError, KeyError) as error:
        print(f"invalid difftest campaign: {error}", file=sys.stderr)
        return 2
    print(result.render())
    print()
    print(result.summary())
    if result.artifact_dir:
        print(f"artifacts: {result.artifact_dir}")
    if result.artifact_error:
        print(result.artifact_error, file=sys.stderr)
    if all(run.model is None for run in result.runs):
        print("no model could be learned", file=sys.stderr)
        return 1
    if args.fail_on_diverge and result.matrix.divergent_pairs():
        return 1
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    import os

    from .attack.automata import resolve_attacker
    from .campaign import Campaign
    from .registry import RegistryError, attacks_for
    from .spec import AttackSpec, SpecError

    specs = _member_specs(args, workers=args.sul_workers, executor=args.executor)
    if args.list:
        for spec in specs:
            names = attacks_for(spec.target)
            print(f"{spec.display_name()}: {', '.join(names) if names else '<none>'}")
        return 0

    if args.attacker is not None:
        try:
            resolve_attacker(args.attacker)
        except RegistryError as error:
            print(error.args[0], file=sys.stderr)
            return 2

    for spec in specs:
        corpus_out = None
        if args.out:
            corpus_out = os.path.join(
                args.out, f"attack-{spec.display_name()}-corpus.jsonl"
            )
        spec.attack = AttackSpec(
            attacker=args.attacker,
            objective=args.objective,
            budget=args.budget,
            fuzz=args.fuzz,
            max_suffix=args.max_suffix,
            corpus_out=corpus_out,
        )
        try:
            spec.validate()
        except (SpecError, KeyError) as error:
            print(f"invalid configuration: {error}", file=sys.stderr)
            return 2

    campaign = Campaign(
        specs, workers=args.workers, output_dir=args.out, store=args.store
    )
    failed = False
    for result in campaign.run():
        if not result.ok:
            print(f"{result.spec.display_name()}: FAILED ({result.error})")
            failed = True
            continue
        print(result.attacks.render())
        if result.artifact_dir:
            print(f"  artifacts: {result.artifact_dir}")
        if not result.attacks.ok:
            failed = True
    return 1 if failed else 0


def _cmd_ci(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .campaign import _safe_name
    from .store import incremental_learn

    specs = _member_specs(args)
    out = Path(args.out) if args.out else None
    drifted = failed = False
    for spec in specs:
        try:
            result = incremental_learn(
                spec,
                args.store,
                baseline=args.baseline,
                save=not args.no_save,
            )
        except Exception as error:
            print(
                f"{spec.display_name()}: FAILED "
                f"({type(error).__name__}: {error})",
                file=sys.stderr,
            )
            failed = True
            continue
        print(result.summary())
        if result.drifted and result.diff is not None:
            print(result.diff.render())
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            (out / f"ci-{_safe_name(spec.display_name())}.json").write_text(
                json.dumps(result.to_dict(), indent=2) + "\n"
            )
        drifted = drifted or result.drifted
    if failed:
        return 2
    return 1 if drifted else 0


def _cmd_store(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .spec import ExperimentSpec
    from .store import FingerprintStats, ModelStore, QueryStore

    path = Path(args.path)
    if not path.exists():
        print(f"no store at {args.path}", file=sys.stderr)
        return 2
    if args.gc is not None:
        load_builtins()
        fingerprint = args.gc
        if fingerprint in SUL_REGISTRY:
            # A target name resolves to its default-params fingerprint.
            fingerprint = ExperimentSpec(target=fingerprint).sul_fingerprint()
        with QueryStore(path) as store:
            observations = store.gc(fingerprint)
        with ModelStore(path) as models:
            dropped = models.gc(fingerprint)
        print(
            f"gc {fingerprint}: removed {observations} observations, "
            f"{dropped} models"
        )
        return 0
    with QueryStore(path) as store, ModelStore(path) as models:
        fingerprints = sorted(
            set(store.fingerprints()) | set(models.fingerprints())
        )
        if not fingerprints:
            print(f"{args.path}: empty store")
            return 0
        print(f"{args.path}: {len(fingerprints)} fingerprints")
        for fingerprint in fingerprints:
            hits, misses = store.usage(fingerprint)
            stats = FingerprintStats(
                fingerprint=fingerprint,
                observations=store.word_count(fingerprint),
                models=models.version_count(fingerprint),
                hits=hits,
                misses=misses,
            )
            print(fingerprint)
            print(
                f"  observations: {stats.observations}  "
                f"models: {stats.models}  "
                f"recorded hit rate: {stats.hit_rate:.0%} "
                f"({stats.hits} hits / {stats.misses} misses)"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prognosis: closed-box protocol model learning and analysis",
        epilog="verbs: properties (check a model), issues, run, "
        "passive (bulk-trace corpora), sweep (learn a grid of targets), "
        "difftest (diff implementations), "
        "attack (synthesize + confirm attacker strategies), ci, store",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    targets = _known_targets()
    learners = _known_learners()

    # What to run, for every verb over a list of members (properties,
    # difftest, attack, ci): resolved by repro.campaign.member_specs.
    members = argparse.ArgumentParser(add_help=False)
    members.add_argument(
        "targets",
        nargs="+",
        metavar="target|family|spec.json",
        help="registered targets, families (e.g. 'quic': every quic-* "
        "target) and ExperimentSpec JSON files, mixable; a family stem "
        "that is also a target (http2, tcp) expands only when named alone",
    )
    members.add_argument("--learner", choices=learners, default="ttt")
    members.add_argument("--seed", type=int, default=0)
    members.add_argument(
        "--exact",
        action="store_true",
        help="treat every name as an exact target; never expand families "
        "(e.g. 'repro difftest tcp --exact' is a 1x1 self-conformance run)",
    )

    properties = sub.add_parser(
        "properties",
        parents=[members],
        help="run a registered property suite (and ad-hoc LTLf formulas) "
        "against learned models; suites resolve by target name, then "
        "family stem",
    )
    properties.add_argument("--depth", type=_count, default=5)
    properties.add_argument(
        "--formula",
        action="append",
        metavar="LTLF",
        help='ad-hoc LTLf property, e.g. "G (out != NIL)" (repeatable)',
    )
    properties.add_argument(
        "--probes", action="store_true", help="include design-decision probes"
    )
    properties.add_argument(
        "--list",
        action="store_true",
        help="list the resolved properties without learning anything",
    )
    properties.add_argument(
        "--workers", type=_count, default=1, help="concurrent runs"
    )
    properties.add_argument(
        "--out", help="write properties.json artifacts under this directory"
    )
    properties.set_defaults(func=_cmd_properties)

    issues = sub.add_parser("issues", help="reproduce a paper finding")
    issues.add_argument("number", type=int, choices=(1, 2, 3, 4))
    issues.set_defaults(func=_cmd_issues)

    executor_kwargs = dict(
        choices=("serial", "thread", "process"),
        default=None,
        help="SUL executor backend (overrides the spec's executor "
        "section; process fans each run's query shards over worker "
        "processes)",
    )

    store_kwargs = dict(
        default=None,
        metavar="PATH",
        help="persistent sqlite query/model store: warm-start membership "
        "queries from it and append fresh observations (specs with "
        "their own store section keep it)",
    )

    sul_workers_kwargs = dict(
        type=_count,
        default=1,
        help="SUL pool size within each run (a spec file keeps its own)",
    )

    run = sub.add_parser("run", help="execute a JSON experiment spec")
    run.add_argument("spec", help="path to an ExperimentSpec JSON file")
    run.add_argument("--out", help="write artifacts under this directory")
    run.add_argument("--executor", **executor_kwargs)
    run.add_argument("--store", **store_kwargs)
    run.set_defaults(func=_cmd_run)

    passive = sub.add_parser(
        "passive",
        help="bulk-trace passive learning: fold a corpus, actively refine",
    )
    passive.add_argument("target", choices=targets)
    passive.add_argument(
        "--corpus",
        required=True,
        metavar="PATH",
        help="JSONL trace corpus, one "
        '{"inputs": [...], "outputs": [...]} object per line',
    )
    passive.add_argument("--learner", choices=learners, default="ttt")
    passive.add_argument("--seed", type=int, default=0)
    passive.add_argument(
        "--generate",
        type=_count,
        default=None,
        metavar="N",
        help="first random-walk N sessions of the target into the corpus file",
    )
    passive.add_argument(
        "--gen-max-len",
        type=_count,
        default=8,
        help="maximum session length for --generate (default 8)",
    )
    passive.add_argument(
        "--full",
        action="store_true",
        help="first record a covering corpus (one active run's whole "
        "observation set); refinement then needs zero SUL resets",
    )
    passive.add_argument(
        "--no-refine",
        action="store_true",
        help="stop at the partial (passive-only) machine",
    )
    passive.add_argument("--executor", **executor_kwargs)
    passive.add_argument("--store", **store_kwargs)
    passive.add_argument(
        "--out", help="write passive.json/model.json/model.dot artifacts here"
    )
    passive.set_defaults(func=_cmd_passive)

    sweep = sub.add_parser(
        "sweep", help="run a campaign grid: targets x learners x seeds"
    )
    sweep.add_argument(
        "--target",
        action="append",
        choices=targets,
        required=True,
        help="SUL target (repeatable)",
    )
    sweep.add_argument(
        "--learner",
        action="append",
        choices=learners,
        help="learner (repeatable; default: ttt)",
    )
    sweep.add_argument(
        "--seeds", default="0", help="comma-separated EQ-oracle seeds"
    )
    sweep.add_argument(
        "--workers", type=_count, default=1, help="concurrent runs"
    )
    sweep.add_argument("--out", help="write artifacts under this directory")
    sweep.add_argument(
        "--no-share-cache",
        action="store_true",
        help="isolate each run's query cache",
    )
    sweep.add_argument("--executor", **executor_kwargs)
    sweep.add_argument("--store", **store_kwargs)
    sweep.add_argument("--sul-workers", **sul_workers_kwargs)
    sweep.set_defaults(func=_cmd_sweep)

    difftest = sub.add_parser(
        "difftest",
        parents=[members],
        help="differential conformance campaign: learn a family of "
        "implementations, cross-replay every model-derived suite, print "
        "the verdict matrix",
    )
    difftest.add_argument(
        "--kind",
        action="append",
        choices=("transition-cover", "wmethod", "random"),
        help="suite kind derived from each model (repeatable; "
        "default: wmethod)",
    )
    difftest.add_argument(
        "--workers", type=_count, default=1, help="concurrent runs/replays"
    )
    difftest.add_argument("--sul-workers", **sul_workers_kwargs)
    difftest.add_argument(
        "--max-divergences",
        type=_count,
        default=25,
        help="stop collecting divergences per pair after this many",
    )
    difftest.add_argument("--out", help="write artifacts under this directory")
    difftest.add_argument(
        "--fail-on-diverge",
        action="store_true",
        help="exit 1 when any off-diagonal pair diverges (CI gate)",
    )
    difftest.add_argument("--executor", **executor_kwargs)
    difftest.add_argument("--store", **store_kwargs)
    difftest.set_defaults(func=_cmd_difftest)

    attack = sub.add_parser(
        "attack",
        parents=[members],
        help="model-guided attack synthesis: search the learned-model x "
        "attacker-automaton product for goal strategies, replay them "
        "against the live SUL (CONFIRMED/REFUTED/DIVERGED), optionally "
        "fuzz the model's frontier states",
    )
    attack.add_argument(
        "--attacker",
        metavar="NAME",
        help="pin one registered attacker automaton (default: every "
        "automaton applicable to each target)",
    )
    attack.add_argument(
        "--objective",
        metavar="LTLF",
        help="an LTLf formula the attack trace must violate "
        "(e.g. 'G (out != NIL)')",
    )
    attack.add_argument(
        "--budget",
        type=int,
        default=200,
        help="fuzzer word budget (default 200)",
    )
    attack.add_argument(
        "--fuzz",
        action="store_true",
        help="also fuzz the model's frontier states; divergences join "
        "the attack corpus",
    )
    attack.add_argument(
        "--max-suffix",
        type=int,
        default=4,
        help="longest random fuzz suffix (default 4)",
    )
    attack.add_argument(
        "--list",
        action="store_true",
        help="list the attacker automata applicable to each target and exit",
    )
    attack.add_argument(
        "--workers", type=_count, default=1, help="concurrent runs"
    )
    attack.add_argument("--sul-workers", **sul_workers_kwargs)
    attack.add_argument("--executor", **executor_kwargs)
    attack.add_argument("--store", **store_kwargs)
    attack.add_argument(
        "--out",
        help="write attacks.json artifacts and confirmed-attack corpora "
        "under this directory",
    )
    attack.set_defaults(func=_cmd_attack)

    ci = sub.add_parser(
        "ci",
        parents=[members],
        help="incremental model CI: revalidate each target's stored model "
        "against the live SUL through the persistent store; exit 1 (with "
        "a minimized diff witness) on behavioural drift",
    )
    ci.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="sqlite store file holding the observations and model lineage",
    )
    ci.add_argument(
        "--baseline",
        metavar="TARGET",
        help="diff against this target's stored model lineage instead of "
        "each spec's own (cross-variant drift checks)",
    )
    ci.add_argument(
        "--no-save",
        action="store_true",
        help="do not append changed models to the store's lineage",
    )
    ci.add_argument(
        "--out", help="write ci-<name>.json artifacts under this directory"
    )
    ci.set_defaults(func=_cmd_ci)

    store = sub.add_parser(
        "store",
        help="inspect (--stats, the default) or garbage-collect (--gc) a "
        "persistent query/model store",
    )
    store.add_argument("path", help="sqlite store file")
    store.add_argument(
        "--stats",
        action="store_true",
        help="print per-fingerprint statistics (the default action)",
    )
    store.add_argument(
        "--gc",
        metavar="FINGERPRINT|TARGET",
        help="drop every observation and model for this fingerprint (a "
        "registered target name resolves to its default-params "
        "fingerprint)",
    )
    store.set_defaults(func=_cmd_store)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from .spec import SpecError
    from .store import StoreError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, StoreError) as error:  # e.g. an unknown target, a non-sqlite store
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2
