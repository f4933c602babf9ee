"""flpkit command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the protocol catalog.
``check <protocol>``
    Partial correctness + validity + initial-hypercube valency census.
``attack <protocol>``
    Run the FLP adversary and report the non-deciding run certificate,
    with admissibility accounting.
``simulate <protocol>``
    Forward-simulate under a chosen scheduler/crash plan.
``map <protocol>``
    Valency map of the reachable graph; optional DOT export.
``chaos <protocol>``
    Fault-injection suite: kill/hang pool workers, force batch
    timeouts, interrupt and resume, SIGKILL a ``serve`` daemon or a
    ``spectrum`` sweep mid-run and rerun it — each must recover with
    the answer of an uninterrupted run.
``experiments [ids...]``
    Alias for ``python -m repro.experiments``.
``serve``
    Run the exploration service: an HTTP daemon with a bounded job
    queue, per-job deadlines, crash recovery from a spool directory,
    and a persistent result cache.
``query <verb> <protocol>``
    Submit one job to a running daemon and wait for the result.

The exploration-backed commands (``check``, ``attack``, ``map``) accept
resilience flags: ``--checkpoint``/``--checkpoint-every`` snapshot the
engine periodically, ``--resume`` restores a snapshot, ``--max-seconds``
/ ``--max-memory-mb`` stop gracefully at a budget, and ``--batch-timeout``
bounds each parallel frontier batch.  ^C exits with status 130 after
printing the partial progress and the latest checkpoint path.
"""

from __future__ import annotations

import argparse
import sys

from repro import registry
from repro.adversary.flp import FLPAdversary
from repro.analysis.admissibility import analyze_admissibility
from repro.analysis.stats import format_counters, format_table
from repro.analysis.valency_map import build_valency_map
from repro.core.correctness import (
    check_determinism,
    check_partial_correctness,
    check_validity,
)
from repro.core.errors import (
    AdversaryStuck,
    CheckpointError,
    SymmetryError,
)
from repro.core.exploration import GlobalConfigurationGraph
from repro.core.resilience import (
    CHAOS_SCENARIOS,
    CheckpointConfig,
    ResilienceConfig,
    run_chaos_suite,
)
from repro.core.simulation import StopCondition, simulate
from repro.core.store import DEFAULT_SPILL_BUDGET_MB, StoreConfig
from repro.core.valency import ValencyAnalyzer
from repro.schedulers import CrashPlan, RandomScheduler, RoundRobinScheduler

__all__ = ["main"]

#: Batch deadline applied when ``--workers`` is given without an
#: explicit ``--batch-timeout``: generous enough that no legitimate
#: level trips it, tight enough that a SIGKILLed worker (whose batch
#: never completes) is detected instead of hanging the run forever.
DEFAULT_BATCH_TIMEOUT_S = 60.0

#: The analyzer serving the current command, for the ^C handler.
_ACTIVE: ValencyAnalyzer | None = None


def _parse_inputs(text: str | None, n: int) -> list[int]:
    if text is None:
        return [i % 2 for i in range(n)]
    bits = [int(c) for c in text if c in "01"]
    if len(bits) != n:
        raise SystemExit(
            f"--inputs must supply exactly {n} bits, got {text!r}"
        )
    return bits


def _print_engine_stats(analyzer: ValencyAnalyzer) -> None:
    """Dump the shared configuration-graph engine's counters."""
    # analyzer.stats mirrors the kernel's counters on read, so
    # as_dict() is the complete picture.
    counters = analyzer.stats.as_dict()
    print()
    print(format_counters(counters, title="engine counters:"))


def _reduction_policy(args):
    """The :class:`ReductionPolicy` requested by the command's flags."""
    por = getattr(args, "por", False)
    symmetry = getattr(args, "symmetry", False)
    if not (por or symmetry):
        return None
    from repro.core.reduction import ReductionPolicy

    return ReductionPolicy(por=por, symmetry=symmetry)


def _make_analyzer(protocol, args) -> ValencyAnalyzer:
    """Build the analyzer honoring the command's engine flags."""
    global _ACTIVE
    workers = getattr(args, "workers", 0)
    batch_timeout = getattr(args, "batch_timeout", None)
    if batch_timeout is None and workers > 1:
        batch_timeout = DEFAULT_BATCH_TIMEOUT_S
    store_mode = getattr(args, "store", "ram")
    memory_mb = getattr(args, "max_memory_mb", None)
    if store_mode == "mmap":
        # The budget *drives the spill* instead of stopping the run:
        # past it, the flat buffers move to mmap-backed temp files and
        # exploration continues, so the RSS guard is not armed.
        store = StoreConfig(
            mode="mmap",
            spill_budget_mb=(
                memory_mb if memory_mb else DEFAULT_SPILL_BUDGET_MB
            ),
        )
        memory_guard_mb = None
    else:
        store = StoreConfig(mode="ram")
        memory_guard_mb = memory_mb
    resilience = ResilienceConfig(
        batch_timeout_s=batch_timeout,
        wall_clock_limit_s=getattr(args, "max_seconds", None),
        memory_limit_mb=memory_guard_mb,
    )
    checkpoint = None
    path = getattr(args, "checkpoint", None)
    if path:
        checkpoint = CheckpointConfig(
            path=path,
            every_seconds=getattr(args, "checkpoint_every", 30.0),
        )
    analyzer = ValencyAnalyzer(
        protocol,
        workers=workers,
        resilience=resilience,
        checkpoint=checkpoint,
        resume_from=getattr(args, "resume", None),
        reduction=_reduction_policy(args),
        store=store,
    )
    _ACTIVE = analyzer
    return analyzer


def _cmd_list(_args) -> int:
    rows = []
    for name in registry.names():
        entry = registry.info(name)
        rows.append(
            {
                "name": entry.name,
                "N": entry.default_n,
                "safe": entry.safe,
                "order-sensitive": entry.order_sensitive,
                "analyzable": entry.analyzable,
                "description": entry.description,
            }
        )
    print(format_table(rows))
    return 0


def _cmd_check(args) -> int:
    entry = registry.info(args.protocol)
    protocol = entry.build(args.n)
    print(f"protocol: {protocol}")
    determinism = check_determinism(protocol)
    print(f"determinism: {determinism.summary()}")
    if entry.analyzable:
        # The reports read the census engine, so one exploration serves
        # all three and the engine flags cover it.  A reduced engine
        # (asked for, or adopted from a --resume checkpoint) prunes or
        # folds the accessible set the reports count, so they grow a
        # plain engine of their own, released before the census grows.
        analyzer = _make_analyzer(protocol, args)
        separate = analyzer.graph.reduced
        graph = (
            GlobalConfigurationGraph(protocol) if separate else analyzer.graph
        )
        report = check_partial_correctness(protocol, graph=graph)
        print(f"partial correctness: {report.summary()}")
        validity = check_validity(protocol, graph=graph)
        print(f"validity: {'holds' if validity.valid else 'VIOLATED'}")
        del graph
        rows = [
            {
                "inputs": "".join(str(b) for b in vector),
                "valency": valency.value,
            }
            for vector, valency in sorted(
                analyzer.classify_initials().items()
            )
        ]
        print()
        print("initial-configuration valencies:")
        print(format_table(rows))
        if args.stats:
            _print_engine_stats(analyzer)
            if separate:
                print(
                    "(the correctness reports read a separate unreduced "
                    "engine: POR or symmetry prunes or folds the "
                    "accessible set they count)"
                )
        analyzer.close()
        return 0 if report.is_partially_correct else 1

    # Unbounded state space: exhaustive checking is infeasible, so run
    # a simulation sweep instead — every input vector under a fair
    # scheduler and a few random ones — checking agreement, validity,
    # and that both decision values occur.  Honest but not exhaustive.
    print(
        "(unbounded state space: exhaustive checking skipped; running "
        "a simulation sweep instead)"
    )
    values_seen: set[int] = set()
    agreement_ok = True
    validity_ok = True
    runs = 0
    n = protocol.num_processes
    for bits in range(2**n):
        inputs = [(bits >> i) & 1 for i in range(n)]
        for scheduler in (
            RoundRobinScheduler(),
            RandomScheduler(seed=bits),
        ):
            result = simulate(
                protocol,
                protocol.initial_configuration(inputs),
                scheduler,
                max_steps=4000,
                stop=StopCondition.ALL_DECIDED,
            )
            runs += 1
            values_seen |= result.decision_values
            agreement_ok = agreement_ok and result.agreement_holds
            validity_ok = validity_ok and (
                result.decision_values <= set(inputs)
            )
    both = values_seen == {0, 1}
    print(
        f"simulation sweep over {runs} runs: agreement="
        f"{agreement_ok}, validity={validity_ok}, "
        f"both-values-reachable={both}"
    )
    if args.stats:
        print(
            "(no engine counters: the simulation sweep does not use "
            "the exploration engine)"
        )
    return 0 if agreement_ok and validity_ok and both else 1


def _cmd_attack(args) -> int:
    # --symmetry is fine here: quotient edges record the renaming they
    # applied, so the adversary's schedules are un-quotiented back to
    # concrete replayable runs before they leave the engine.
    entry = registry.info(args.protocol)
    if not entry.analyzable:
        print(
            f"{entry.name} has an unbounded state space; the adversary "
            "needs exact valency analysis.  Pick an analyzable protocol "
            "(see `list`).",
            file=sys.stderr,
        )
        return 2
    protocol = entry.build(args.n)
    adversary = FLPAdversary(protocol, analyzer=_make_analyzer(protocol, args))
    try:
        certificate = adversary.build_run(stages=args.stages)
    except AdversaryStuck as error:
        print(f"adversary stuck: {error}", file=sys.stderr)
        return 1
    print(f"protocol: {protocol}")
    print(f"outcome:  {certificate.summary()}")
    faulty = (
        frozenset({certificate.faulty_process})
        if certificate.faulty_process
        else frozenset()
    )
    admissibility = analyze_admissibility(
        protocol,
        certificate.initial,
        certificate.schedule,
        faulty=faulty,
        fault_point=certificate.fault_point,
    )
    print(f"fairness: {admissibility.summary()}")
    verified = certificate.verify(protocol)
    print(f"verified by replay: {verified}")
    if args.trace:
        from repro.analysis.trace import trace_run

        trace = trace_run(
            protocol, certificate.initial, certificate.schedule
        )
        print()
        print(trace.describe(limit=args.trace))
    if args.spacetime:
        from repro.analysis.spacetime import spacetime_diagram

        print()
        print(
            spacetime_diagram(
                protocol,
                certificate.initial,
                certificate.schedule,
                max_rows=args.spacetime,
            )
        )
    if args.save:
        from repro.adversary.bundle import export_bundle

        with open(args.save, "w") as handle:
            handle.write(
                export_bundle(args.protocol, certificate, protocol)
            )
        print(f"proof bundle written to {args.save}")
    if args.stats:
        _print_engine_stats(adversary.analyzer)
    adversary.analyzer.close()
    return 0 if verified else 1


def _cmd_verify(args) -> int:
    from repro.adversary.bundle import verify_bundle
    from repro.core.errors import FLPError

    with open(args.bundle) as handle:
        text = handle.read()
    try:
        report = verify_bundle(text)
    except (FLPError, ValueError, KeyError) as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.verified else 1


def _cmd_simulate(args) -> int:
    entry = registry.info(args.protocol)
    protocol = entry.build(args.n)
    inputs = _parse_inputs(args.inputs, protocol.num_processes)
    crash_plan = CrashPlan(
        dict(
            (spec.split("@")[0], int(spec.split("@")[1]))
            for spec in (args.crash or [])
        )
    )
    if args.scheduler == "round-robin":
        scheduler = RoundRobinScheduler(crash_plan=crash_plan)
    else:
        scheduler = RandomScheduler(seed=args.seed, crash_plan=crash_plan)
    result = simulate(
        protocol,
        protocol.initial_configuration(inputs),
        scheduler,
        max_steps=args.max_steps,
        stop=StopCondition.ALL_DECIDED,
    )
    print(f"protocol: {protocol}  inputs={inputs}")
    print(
        f"stop: {result.stop_reason} after {result.steps} steps; "
        f"decisions: {result.decisions or 'none'}"
    )
    print(f"agreement: {'holds' if result.agreement_holds else 'VIOLATED'}")
    return 0


def _cmd_map(args) -> int:
    entry = registry.info(args.protocol)
    if not entry.analyzable:
        print(f"{entry.name} is not analyzable", file=sys.stderr)
        return 2
    protocol = entry.build(args.n)
    inputs = _parse_inputs(args.inputs, protocol.num_processes)
    root = protocol.initial_configuration(inputs)
    analyzer = _make_analyzer(protocol, args)
    vmap = build_valency_map(protocol, root, analyzer=analyzer)
    print(f"protocol: {protocol}  inputs={inputs}")
    print(vmap.summary())
    if args.hypercube:
        from repro.analysis.diagrams import hypercube_diagram

        print()
        print(hypercube_diagram(analyzer.classify_initials()))
    if args.dot:
        from repro.analysis.diagrams import graph_to_dot
        from repro.core.exploration import GlobalConfigurationGraph

        # A fresh engine grown from the root alone numbers the nodes in
        # BFS order from it.
        graph = GlobalConfigurationGraph(protocol)
        graph.explore(root)
        with open(args.dot, "w") as handle:
            handle.write(graph_to_dot(graph, analyzer))
        print(f"wrote {args.dot}")
    if args.stats:
        _print_engine_stats(analyzer)
    analyzer.close()
    return 0


def _cmd_chaos(args) -> int:
    protocol = registry.build(args.protocol, args.n)
    scenarios = (
        tuple(args.scenarios) if args.scenarios else CHAOS_SCENARIOS
    )
    print(
        f"protocol: {protocol}  workers={args.workers}  "
        f"budget={args.max_configurations}"
    )
    outcomes = run_chaos_suite(
        args.protocol,
        n=args.n,
        workers=args.workers,
        scenarios=scenarios,
        max_configurations=args.max_configurations,
    )
    print(format_table([outcome.as_row() for outcome in outcomes]))
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        names = ", ".join(outcome.scenario for outcome in failed)
        print(f"FAILED scenarios: {names}", file=sys.stderr)
        return 1
    print("all scenarios recovered with byte-identical fingerprints")
    return 0


def _cmd_survive(args) -> int:
    from repro.faults.survivability import (
        FAULT_MODELS,
        check_expectations,
        survivability_matrix,
    )

    if getattr(args, "por", False) or getattr(args, "symmetry", False):
        print(
            "note: --por/--symmetry shape the exploration engine; "
            "survive is simulation-based and runs unreduced."
        )
    protocols = [args.protocol] if args.protocol else None
    fault_models = (
        tuple(args.fault_models) if args.fault_models else FAULT_MODELS
    )
    cells = survivability_matrix(
        protocols,
        fault_models,
        n=args.n,
        seeds=args.seeds,
        max_steps=args.max_steps,
    )
    rows = [
        {
            "protocol": cell.protocol,
            "fault model": cell.model,
            "agreement": cell.agreement,
            "validity": cell.validity,
            "termination": cell.termination,
            "admissible": f"{cell.admissible_runs}/{cell.runs}",
            "flagged clauses": ",".join(sorted(cell.flagged)) or "-",
        }
        for cell in cells
    ]
    print(format_table(rows))
    witnesses = [cell for cell in cells if cell.witness]
    if witnesses:
        print("\nwitnesses:")
        for cell in witnesses:
            print(f"  {cell.protocol} × {cell.model}: {cell.witness}")
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(
                {"cells": [cell.as_dict() for cell in cells]},
                handle,
                indent=2,
            )
        print(f"\nwrote {args.json}")
    failures = check_expectations(cells)
    if failures:
        print(
            "survivability expectations FAILED:\n  "
            + "\n  ".join(failures),
            file=sys.stderr,
        )
        return 1
    print("\nall survivability expectations hold")
    return 0


def _cmd_spectrum(args) -> int:
    import dataclasses
    import json

    from repro.spectrum import (
        SweepRunner,
        check_phase_expectations,
        default_grid,
        smoke_grid,
    )

    cells = smoke_grid() if args.preset == "smoke" else default_grid()
    if args.samples is not None:
        cells = [
            dataclasses.replace(cell, samples=args.samples)
            for cell in cells
        ]
    runner = SweepRunner(
        cells,
        base_seed=args.seed,
        workers=max(1, args.workers),
        checkpoint_path=args.checkpoint,
        max_seconds=args.max_seconds,
        max_memory_mb=args.max_memory_mb,
        throttle_s=args.throttle_s,
    )
    try:
        result = runner.run()
    except KeyboardInterrupt:
        runner.request_stop("interrupt")
        print("interrupted", file=sys.stderr)
        if args.checkpoint:
            print(
                f"resume with the same command; completed cells are in "
                f"{args.checkpoint}",
                file=sys.stderr,
            )
        return 130

    rows = []
    for key in sorted(result.outcomes):
        outcome = result.outcomes[key]
        cell = outcome.cell
        low, high = outcome.termination_ci
        rows.append(
            {
                "cell": (
                    f"{cell.protocol}/n{cell.n}/f{cell.f} {cell.grade} "
                    f"gst={'inf' if cell.gst is None else cell.gst} "
                    f"det={cell.detector}"
                ),
                "samples": cell.samples,
                "terminated": (
                    f"{outcome.termination_rate:.3f} "
                    f"[{low:.3f},{high:.3f}]"
                ),
                "rounds": (
                    "-"
                    if outcome.mean_rounds is None
                    else f"{outcome.mean_rounds:.2f}"
                ),
                "post-GST": (
                    "-"
                    if outcome.max_post_gst is None
                    else outcome.max_post_gst
                ),
                "violations": outcome.agreement_violations
                + outcome.validity_violations,
            }
        )
    print(format_table(rows))
    print(
        f"\n{len(result.outcomes)}/{result.total_cells} cells "
        f"(resumed {result.resumed_cells}), seed={result.base_seed}"
    )
    print(f"fingerprint: {result.fingerprint()}")
    if result.partial is not None:
        print(result.partial.summary())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    violations = check_phase_expectations(result)
    if violations:
        print(
            "phase expectations FAILED:\n  " + "\n  ".join(violations),
            file=sys.stderr,
        )
        if args.check:
            return 1
    elif args.check and not result.complete:
        print(
            "phase check requires a complete sweep; this one is partial",
            file=sys.stderr,
        )
        return 1
    else:
        print("phase expectations hold on all completed cells")
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as experiments_main

    argv = list(args.ids)
    if args.full:
        argv.append("--full")
    return experiments_main(argv)


def _cmd_serve(args) -> int:
    import asyncio
    import logging

    from repro.serve.server import ServeApp, ServeConfig

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    app = ServeApp(
        ServeConfig(
            host=args.host,
            port=args.port,
            spool=args.spool,
            max_pending=args.max_pending,
            job_workers=args.job_workers,
            checkpoint_every_s=args.checkpoint_every,
            drain_timeout_s=args.drain_timeout,
        )
    )
    asyncio.run(app.run())
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.serve.client import ServeClient

    spec: dict[str, object] = {"verb": args.verb, "protocol": args.protocol}
    optional = {
        "n": args.n,
        "inputs": args.inputs,
        "budget": args.budget,
        "stages": args.stages,
        "max_seconds": args.max_seconds,
        "max_memory_mb": args.max_memory_mb,
        "seeds": args.seeds,
        "max_steps": args.max_steps,
        "preset": args.preset,
        "samples": args.samples,
        "seed": args.seed,
    }
    spec.update(
        {name: value for name, value in optional.items() if value is not None}
    )
    if args.por:
        spec["por"] = True
    if args.symmetry:
        spec["symmetry"] = True
    try:
        if args.port is not None:
            client = ServeClient(args.host, args.port, args.timeout)
        else:
            client = ServeClient.from_spool(args.spool, args.timeout)
        response = client.query(spec, retry=not args.no_retry)
    except (ConnectionError, OSError, TimeoutError) as error:
        print(f"cannot reach daemon: {error}", file=sys.stderr)
        return 2
    cache = response.headers.get("x-repro-cache", "?")
    if response.status != 200:
        print(
            f"query failed ({response.status}): "
            f"{response.body.decode(errors='replace')}",
            file=sys.stderr,
        )
        return 1
    try:
        print(json.dumps(json.loads(response.body), indent=2, sort_keys=True))
    except ValueError:
        sys.stdout.buffer.write(response.body + b"\n")
    print(f"[{cache}]", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="flpkit: executable FLP impossibility toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="show the protocol catalog")

    stats_help = "print shared-engine counters (interning, cache, phases)"
    workers_help = (
        "expand exploration frontiers on N worker processes "
        "(default serial; results are byte-identical either way)"
    )

    def add_reduction_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--por",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="Lemma-1 partial-order reduction: expand an ample "
            "subset of events per node (default off; valency verdicts "
            "are identical to the full graph)",
        )
        sub.add_argument(
            "--symmetry",
            action="store_true",
            help="canonicalize configurations under process renaming "
            "via partition refinement (needs the protocol's automata "
            "to declare symmetric=True; witnesses and attacks are "
            "un-quotiented back to concrete replayable schedules)",
        )

    def add_resilience_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--checkpoint",
            metavar="PATH",
            help="periodically snapshot the exploration engine to PATH "
            "(atomic; also written on ^C and budget stops)",
        )
        sub.add_argument(
            "--checkpoint-every",
            type=float,
            default=30.0,
            metavar="SECONDS",
            help="checkpoint cadence in seconds (default 30)",
        )
        sub.add_argument(
            "--resume",
            metavar="PATH",
            help="restore the exploration engine from a checkpoint "
            "before running (resumed runs are byte-identical to "
            "uninterrupted ones)",
        )
        sub.add_argument(
            "--max-seconds",
            type=float,
            default=None,
            metavar="S",
            help="stop exploring gracefully after S seconds of graph "
            "growth (final checkpoint + partial result, not a crash)",
        )
        sub.add_argument(
            "--max-memory-mb",
            type=float,
            default=None,
            metavar="MB",
            help="memory budget in MB: with --store ram, stop exploring "
            "gracefully once peak RSS exceeds it; with --store mmap, "
            "spill the flat node/edge buffers to disk past it and keep "
            "exploring",
        )
        sub.add_argument(
            "--store",
            choices=("ram", "mmap"),
            default="ram",
            metavar="MODE",
            help="graph-store backing: 'ram' keeps the flat buffers in "
            "memory; 'mmap' spills them to memory-mapped temp files "
            "past the --max-memory-mb budget (default "
            f"{DEFAULT_SPILL_BUDGET_MB:g} MB), letting multi-million-"
            "node graphs exceed RAM (default: ram)",
        )
        sub.add_argument(
            "--batch-timeout",
            type=float,
            default=None,
            metavar="S",
            help="seconds to wait for one parallel frontier batch "
            f"before rebuilding the pool (default "
            f"{DEFAULT_BATCH_TIMEOUT_S:g} when --workers > 1)",
        )

    def add_engine_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--profile",
            type=int,
            default=0,
            metavar="N",
            help="run under cProfile and print the top N functions by "
            "cumulative time after the command finishes",
        )

    check = commands.add_parser("check", help="correctness + valency census")
    check.add_argument("protocol", choices=registry.names())
    check.add_argument("-n", type=int, default=None)
    check.add_argument("--stats", action="store_true", help=stats_help)
    check.add_argument(
        "--workers", type=int, default=0, metavar="N", help=workers_help
    )
    add_reduction_flags(check)
    add_resilience_flags(check)
    add_engine_flags(check)

    attack = commands.add_parser("attack", help="run the FLP adversary")
    attack.add_argument("protocol", choices=registry.names())
    attack.add_argument("-n", type=int, default=None)
    attack.add_argument("--stages", type=int, default=20)
    attack.add_argument(
        "--trace",
        type=int,
        default=0,
        metavar="K",
        help="print the first K steps of the run",
    )
    attack.add_argument(
        "--spacetime",
        type=int,
        default=0,
        metavar="K",
        help="print a space-time diagram of the first K steps",
    )
    attack.add_argument(
        "--save",
        metavar="PATH",
        help="write a portable proof bundle (JSON) to PATH",
    )
    attack.add_argument("--stats", action="store_true", help=stats_help)
    attack.add_argument(
        "--workers", type=int, default=0, metavar="N", help=workers_help
    )
    add_reduction_flags(attack)
    add_resilience_flags(attack)
    add_engine_flags(attack)

    verify = commands.add_parser(
        "verify",
        help="re-verify a proof bundle produced by `attack --save`",
    )
    verify.add_argument("bundle", help="path to the bundle JSON")

    sim = commands.add_parser("simulate", help="forward simulation")
    sim.add_argument("protocol", choices=registry.names())
    sim.add_argument("-n", type=int, default=None)
    sim.add_argument("--inputs", help="bit string, one per process")
    sim.add_argument(
        "--scheduler", choices=("round-robin", "random"),
        default="round-robin",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-steps", type=int, default=2000)
    sim.add_argument(
        "--crash",
        action="append",
        metavar="PROC@STEP",
        help="crash PROC at STEP (repeatable)",
    )

    vmap = commands.add_parser("map", help="valency map of reachable graph")
    vmap.add_argument("protocol", choices=registry.names())
    vmap.add_argument("-n", type=int, default=None)
    vmap.add_argument("--inputs")
    vmap.add_argument("--dot", help="write Graphviz DOT to this path")
    vmap.add_argument(
        "--hypercube",
        action="store_true",
        help="also print the Lemma-2 initial hypercube (Gray-code walk)",
    )
    vmap.add_argument("--stats", action="store_true", help=stats_help)
    vmap.add_argument(
        "--workers", type=int, default=0, metavar="N", help=workers_help
    )
    add_reduction_flags(vmap)
    add_resilience_flags(vmap)
    add_engine_flags(vmap)

    chaos = commands.add_parser(
        "chaos",
        help="fault-injection suite: kill/hang workers, force timeouts, "
        "interrupt + resume, SIGKILL a serve daemon or a spectrum sweep "
        "and rerun it; every recovery must match an uninterrupted run",
    )
    chaos.add_argument("protocol", choices=registry.names())
    chaos.add_argument("-n", type=int, default=None)
    chaos.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="pool size for the worker-fault scenarios (default 2; "
        "<= 1 skips them)",
    )
    chaos.add_argument(
        "--max-configurations",
        type=int,
        default=8_000,
        metavar="K",
        help="exploration budget per scenario run, and the daemon "
        "job's in server-kill (default 8000; sweep-kill ignores it)",
    )
    chaos.add_argument(
        "--scenarios",
        nargs="*",
        choices=CHAOS_SCENARIOS,
        metavar="NAME",
        help=f"subset of scenarios to run (default: all of "
        f"{', '.join(CHAOS_SCENARIOS)})",
    )

    survive = commands.add_parser(
        "survive",
        help="survivability matrix: sweep protocols × fault models, "
        "audit every run, check the paper's predictions",
    )
    survive.add_argument(
        "protocol",
        nargs="?",
        choices=registry.names(),
        help="one protocol (default: the whole zoo)",
    )
    survive.add_argument("-n", type=int, default=None)
    survive.add_argument(
        "--fault-models",
        nargs="*",
        metavar="MODEL",
        help="subset of fault models to sweep (default: all)",
    )
    survive.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="K",
        help="random-scheduler seeds per plan (default 1; round-robin "
        "always runs too)",
    )
    survive.add_argument(
        "--max-steps",
        type=int,
        default=800,
        metavar="N",
        help="step budget per run; an undecided run at the budget "
        "marks the cell stalled (default 800)",
    )
    survive.add_argument(
        "--json",
        metavar="PATH",
        help="also write the matrix as machine-readable JSON",
    )
    add_reduction_flags(survive)

    spectrum = commands.add_parser(
        "spectrum",
        help="Monte-Carlo resilience sweep over (protocol, n, f, "
        "adversary grade, GST, detector): termination probability and "
        "rounds-to-decide with confidence intervals",
    )
    spectrum.add_argument(
        "--preset",
        choices=("smoke", "default"),
        default="default",
        help="grid preset: 'default' is the full phase diagram, "
        "'smoke' a seconds-scale slice with the same headline cells",
    )
    spectrum.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="K",
        help="override the per-cell sample count",
    )
    spectrum.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="base seed; every run is a pure function of "
        "(seed, cell, sample index) (default 0)",
    )
    spectrum.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="fan cells out over N worker processes (default serial; "
        "fingerprints are byte-identical either way)",
    )
    spectrum.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="checkpoint completed cells to PATH (atomic, per cell); "
        "rerunning with the same grid and seed resumes from it",
    )
    spectrum.add_argument(
        "--json",
        metavar="PATH",
        help="write the full sweep result (cells + fingerprint) as JSON",
    )
    spectrum.add_argument(
        "--check",
        action="store_true",
        help="gate the paper's phase-boundary expectations: exit 1 "
        "on any violation or an incomplete sweep",
    )
    spectrum.add_argument("--max-seconds", type=float, default=None,
                          metavar="S",
                          help="wall-clock budget: stop at the next cell "
                          "boundary with a partial result")
    spectrum.add_argument("--max-memory-mb", type=float, default=None,
                          metavar="MB",
                          help="memory budget: stop at the next cell "
                          "boundary once peak RSS exceeds it")
    spectrum.add_argument(
        "--throttle-s",
        type=float,
        default=0.0,
        help=argparse.SUPPRESS,  # chaos-harness knob: sleep per cell
    )

    experiments = commands.add_parser(
        "experiments", help="run the paper-reproduction experiments"
    )
    experiments.add_argument("ids", nargs="*")
    experiments.add_argument("--full", action="store_true")

    serve = commands.add_parser(
        "serve",
        help="run the exploration service: jobs over HTTP with admission "
        "control, deadlines, crash recovery, and a result cache",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0: pick a free port and record it "
        "in <spool>/endpoint.json)",
    )
    serve.add_argument(
        "--spool",
        default=".repro-spool",
        metavar="DIR",
        help="crash-safe state directory: job records, checkpoints, "
        "results, cache (default .repro-spool)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=16,
        metavar="N",
        help="admission limit on queued+running jobs; beyond it new "
        "submissions get 429 (default 16)",
    )
    serve.add_argument(
        "--job-workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent job executions (default 2)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="per-job engine checkpoint cadence (default 1.0)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="max wait for running jobs to checkpoint on shutdown "
        "(default 30)",
    )

    query = commands.add_parser(
        "query",
        help="submit one job to a running serve daemon and wait for "
        "the result",
    )
    query.add_argument(
        "verb", choices=("check", "attack", "map", "survive", "spectrum")
    )
    query.add_argument(
        "protocol",
        choices=tuple(registry.names())
        + tuple(
            name
            for name in ("all", "rotating")
            if name not in registry.names()
        ),
        help="a registry protocol, or a family filter (all/benor/"
        "rotating) for the spectrum verb",
    )
    query.add_argument("-n", type=int, default=None)
    query.add_argument("--inputs", default=None, metavar="BITS")
    query.add_argument("--budget", type=int, default=None, metavar="K")
    query.add_argument("--stages", type=int, default=None, metavar="K")
    query.add_argument("--max-seconds", type=float, default=None)
    query.add_argument("--max-memory-mb", type=float, default=None)
    query.add_argument("--seeds", type=int, default=None, metavar="K")
    query.add_argument("--max-steps", type=int, default=None, metavar="N")
    query.add_argument(
        "--preset",
        choices=("smoke", "default"),
        default=None,
        help="spectrum grid preset (spectrum verb only)",
    )
    query.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="K",
        help="override Monte-Carlo samples per cell (spectrum verb only)",
    )
    query.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="SEED",
        help="sweep base seed (spectrum verb only)",
    )
    query.add_argument(
        "--no-retry",
        action="store_true",
        help="fail immediately on 429 instead of honoring Retry-After "
        "with bounded jittered backoff",
    )
    add_reduction_flags(query)
    query.add_argument(
        "--spool",
        default=".repro-spool",
        metavar="DIR",
        help="find the daemon via <spool>/endpoint.json (default "
        ".repro-spool)",
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument(
        "--port",
        type=int,
        default=None,
        help="connect directly instead of reading endpoint.json",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="client-side wait for the synchronous result (default 300)",
    )

    return parser


_HANDLERS = {
    "list": _cmd_list,
    "check": _cmd_check,
    "attack": _cmd_attack,
    "simulate": _cmd_simulate,
    "map": _cmd_map,
    "chaos": _cmd_chaos,
    "verify": _cmd_verify,
    "survive": _cmd_survive,
    "spectrum": _cmd_spectrum,
    "experiments": _cmd_experiments,
    "serve": _cmd_serve,
    "query": _cmd_query,
}


def _interrupt_summary() -> str:
    """Partial-progress report for a ^C, from the active analyzer."""
    lines = ["interrupted"]
    analyzer = _ACTIVE
    if analyzer is not None:
        graph = analyzer.graph
        partial = graph.last_partial
        if partial is not None:
            lines.append(partial.summary())
        else:
            lines.append(
                f"explored {len(graph)} configurations before the "
                "interrupt"
            )
        if graph.last_checkpoint is not None:
            lines.append(
                f"resume with: --resume {graph.last_checkpoint.path}"
            )
    return "\n".join(lines)


def _run_profiled(handler, args) -> int:
    """Run *handler* under cProfile, then print the top-N cumulative."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(handler, args)
    finally:
        print()
        print(f"profile (top {args.profile} by cumulative time):")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats(
            "cumulative"
        ).print_stats(args.profile)


def main(argv: list[str] | None = None) -> int:
    global _ACTIVE
    args = build_parser().parse_args(argv)
    # An earlier in-process command's analyzer does not serve this one:
    # forget it, so ^C reports this command's engine and the old engine
    # is freed before this command grows its own.
    _ACTIVE = None
    try:
        handler = _HANDLERS[args.command]
        if getattr(args, "profile", 0) > 0:
            return _run_profiled(handler, args)
        return handler(args)
    except CheckpointError as error:
        # A checkpoint from another protocol / engine mode (or a
        # damaged file) is an operator mistake, not a crash: one line,
        # no traceback.
        message = str(error).replace("\n", " ")
        print(f"cannot resume: {message}", file=sys.stderr)
        return 2
    except SymmetryError as error:
        # --symmetry on a protocol that never declared it: operator
        # mistake, one line, no traceback.
        message = str(error).replace("\n", " ")
        print(f"cannot reduce: {message}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The engine already wrote its final checkpoint (explore()
        # catches the interrupt first); report progress and exit with
        # the conventional SIGINT status.
        print(_interrupt_summary(), file=sys.stderr)
        if _ACTIVE is not None:
            _ACTIVE.close()
        return 130
