"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``fig2`` — regenerate Figure 2 (basic scheduling test);
* ``fig3`` — regenerate Figure 3 (software dispatch test);
* ``speedup`` — the accelerated-vs-unaccelerated comparison (§5.1.1);
* ``run`` — a single experiment point with full statistics;
* ``checkpoint`` / ``resume`` — run a point partway, snapshot the whole
  machine to JSON, and finish it later (in any interpreter) with a
  bit-identical outcome;
* ``inject`` — the seeded fault-injection dependability campaign;
* ``trace`` — one point with event tracing and timelines;
* ``synth`` — profiler-driven custom-instruction synthesis: report the
  mined candidate windows for a workload and compare makespans with
  synthesis off vs. on (``--sweep`` runs the fig2-style sweep);
* ``prefetch`` — speculative configuration prefetch: compare the
  reactive CIS against the predictive CIS with the asynchronous
  transfer engine (``--sweep`` runs the fig2-style sweep over the
  phase-changing and bursty workloads);
* ``serve`` — the long-lived multi-tenant simulation daemon (with a
  crash-safe job journal, recovery on start, and SIGTERM drain);
* ``submit`` — one point through a running daemon, events streamed;
* ``cache`` — result/checkpoint store stats and age-based pruning;
* ``chaos`` — the seeded infra-fault campaign: kill workers, kill -9
  the daemon, tear the journal, corrupt the cache, drop the client —
  and prove the sweep CSV stays byte-identical.

All commands accept ``--scale`` (default 1e-3; smaller is faster and
coarser) and write CSV next to the plain-text rendering when ``--csv``
is given.  The sweep commands (``fig2``/``fig3``/``speedup``) also take
``--jobs N`` (fan points out over N worker processes; results stay
bit-identical to serial) and ``--no-cache`` (bypass the on-disk result
cache keyed by experiment-spec content hashes).  When a ``repro
serve`` daemon is listening on the socket, sweeps are submitted to it
instead of a private pool — under ``--tenant``, in the daemon's one
FIFO queue — unless ``--no-daemon`` opts out.

Layout: every subcommand is one row of the :data:`COMMANDS` table —
its help line, a function adding its arguments, and a handler taking
the parsed arguments.  :func:`main` builds the parser from the table
and dispatches.  Shared helpers keep the rows small: ``_add_common``
(scale, seed, sweep and daemon options), ``_add_point`` and
``_spec_from_args`` (one experiment point from ``workload instances
--quantum-ms --policy --soft [--architecture]``), ``_run_sweep``
(runner → sweep → summary line → close), ``_figure`` (a fig2-style
sweep, printed) and ``_off_on`` (one point with its optional feature
plan cleared and set — see :mod:`repro.plans`).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from ..apps.registry import WORKLOADS
from ..errors import ExperimentError
from ..kernel.replacement import POLICY_NAMES
from ..machine import Machine
from ..prefetch import PrefetchPlan
from ..synth.plan import SynthesisPlan
from ..trace.counters import PrefetchStats
from ..trace.sinks import JsonlSink, RingBufferSink
from ..trace.timeline import TimelineAggregator
from .campaign import CampaignConfig, render_campaign, run_campaign
from .client import ServeClient
from .experiment import (
    ARCHITECTURES,
    ExperimentSpec,
    run_experiment,
    start_machine,
)
from .figures import (
    contention_knees,
    figure2,
    figure3,
    plan_sweep,
    speedup_table,
)
from .jobs import DEFAULT_TENANT, Scheduler
from .journal import Journal
from .report import render_figure, render_speedup, render_table, render_trace
from .runner import (
    CheckpointStore,
    ResultCache,
    SweepRunner,
    default_cache_dir,
)
from .scaling import DEFAULT_SCALE
from .serve import ServeDaemon, daemon_available
from .store import CHECKPOINT, JOB_CHECKPOINT, RESULT, Store

#: Every registered workload, in stable (sorted) order, for argparse.
WORKLOAD_CHOICES = tuple(sorted(WORKLOADS))

#: Parsed-argument names :func:`_spec_from_args` copies onto a spec.
_POINT_ARGS = (
    "workload", "instances", "quantum_ms", "policy", "soft", "architecture",
)


def _progress(stream):
    start = time.perf_counter()

    def report(label: str, done: int, total: int) -> None:
        elapsed = time.perf_counter() - start
        print(
            f"\r[{done:3d}/{total}] {elapsed:6.1f}s  {label:<40}",
            end="",
            file=stream,
            flush=True,
        )

    return report


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE,
        help="platform scale (1.0 = paper-faithful 100 MHz; default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="experiment seed (default: the machine's built-in seed)",
    )
    parser.add_argument(
        "--max-instances", type=int, default=8,
        help="sweep 1..N concurrent instances (default 8)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="check every process output against the reference models",
    )
    parser.add_argument("--csv", metavar="PATH", help="also write CSV data")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run sweep points on N worker processes (default 1: serial; "
             "results are bit-identical either way)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not update the on-disk result cache "
             f"(default location: {default_cache_dir()})",
    )
    parser.add_argument(
        "--warm-start", action="store_true",
        help="resume executed points from stored machine checkpoints and "
             "capture checkpoints for future runs (stored beside the "
             "results in the cache directory); results are bit-identical "
             "either way",
    )
    parser.add_argument(
        "--tenant", default=DEFAULT_TENANT, metavar="NAME",
        help="tenant namespace for cache accounting and daemon "
             "submission (default %(default)s)",
    )
    parser.add_argument(
        "--no-daemon", action="store_true",
        help="run in-process even when a repro serve daemon is listening",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon socket (default: $REPRO_SERVE_SOCKET or the "
             "per-user path in the temp directory)",
    )


def _add_point(
    parser: argparse.ArgumentParser, architecture: bool = True
) -> None:
    """The common options plus one experiment point's arguments."""
    _add_common(parser)
    parser.add_argument("workload", choices=WORKLOAD_CHOICES)
    parser.add_argument("instances", type=int)
    parser.add_argument("--quantum-ms", type=float, default=10.0)
    parser.add_argument("--policy", default="round_robin",
                        choices=POLICY_NAMES)
    parser.add_argument("--soft", action="store_true",
                        help="defer to software alternatives when the array is full")
    if architecture:
        parser.add_argument("--architecture", default="proteus",
                            choices=ARCHITECTURES)


def _spec_from_args(args, **fields) -> ExperimentSpec:
    """The experiment point the parsed arguments name; ``fields``
    (optional plans, overrides) are applied on top."""
    point = {name: getattr(args, name)
             for name in _POINT_ARGS if hasattr(args, name)}
    point.update(fields)
    return ExperimentSpec(scale=args.scale, seed=args.seed, **point)


def _knobs(args, **fields: str) -> dict:
    """Plan field -> the argument that sets it, for every one given."""
    return {field: getattr(args, dest) for field, dest in fields.items()
            if getattr(args, dest) is not None}


def _stores(args) -> tuple[ResultCache | None, CheckpointStore | None]:
    """The result cache and checkpoint store that ``--no-cache`` and
    ``--warm-start`` select, both in the default cache directory."""
    root = default_cache_dir()
    return (
        None if args.no_cache else ResultCache(root),
        CheckpointStore(root) if args.warm_start else None,
    )


def _make_runner(args) -> SweepRunner:
    cache, checkpoints = _stores(args)
    scheduler = None
    if not args.no_daemon and daemon_available(args.socket):
        # A live daemon owns the worker fleet (and the stores): the
        # sweep becomes one of its tenants instead of forking a pool.
        try:
            scheduler = ServeClient(args.socket)
        except ExperimentError:
            # The daemon died between the ping and the connect; fall
            # back to the in-process pool rather than failing the run.
            scheduler = None
    return SweepRunner(
        jobs=args.jobs,
        cache=cache,
        checkpoints=checkpoints,
        scheduler=scheduler,
        tenant=args.tenant,
    )


def _report_sweep(runner: SweepRunner, args, stream=sys.stderr) -> None:
    """One summary line after a sweep: point count, cache hits, timing."""
    if args.quiet:
        return
    stats = runner.stats
    warm = (
        f"warm-started {stats.warm_started} | captured {stats.captured} | "
        if runner.checkpoints is not None
        else ""
    )
    retried = (
        f"retried {stats.worker_retries} | " if stats.worker_retries else ""
    )
    evicted = (
        f"evicted {stats.cache_evictions} | " if stats.cache_evictions else ""
    )
    coalesced = (
        f"coalesced {stats.coalesced} | " if stats.coalesced else ""
    )
    preempted = (
        f"preempted {stats.preemptions} | " if stats.preemptions else ""
    )
    via = (
        "daemon" if isinstance(runner.scheduler, ServeClient)
        else f"jobs {runner.jobs}"
    )
    print(file=stream)
    print(
        f"sweep: {stats.points} points | cache hits {stats.cache_hits} | "
        f"executed {stats.executed} | {warm}{retried}{evicted}"
        f"{coalesced}{preempted}"
        f"{stats.elapsed:.2f}s | {via}",
        file=stream,
    )


def _run_sweep(args, sweep, **kwargs):
    """``sweep(runner=..., **kwargs)`` on the runner the options ask
    for; prints the summary line and releases the runner."""
    runner = _make_runner(args)
    result = sweep(runner=runner, **kwargs)
    _report_sweep(runner, args)
    if isinstance(runner.scheduler, ServeClient):
        runner.scheduler.close()
    return result


def _sweep_args(args) -> dict:
    """The figure-function keywords the common options determine."""
    return dict(
        scale=args.scale,
        seed=args.seed,
        verify=args.verify,
        progress=None if args.quiet else _progress(sys.stderr),
    )


def _figure(args, sweep, **kwargs) -> None:
    """A fig2-style sweep over 1..--max-instances, rendered."""
    instances = range(1, args.max_instances + 1)
    figure = _run_sweep(
        args, sweep, instances=instances, **_sweep_args(args), **kwargs
    )
    _emit(figure, args)


def _off_on(spec: ExperimentSpec, field: str, verify: bool):
    """``spec`` run with its ``field`` plan cleared, then as given."""
    off = run_experiment(replace(spec, **{field: None}), verify=verify)
    return off, run_experiment(spec, verify=verify)


def _print_speedup(off, on) -> None:
    if on.makespan:
        print(f"speedup       : {off.makespan / on.makespan:.3f}x")


def _print_outcome(outcome) -> None:
    spec = outcome.spec
    print(f"workload      : {spec.workload} x{spec.instances}")
    print(f"makespan      : {outcome.makespan:,} cycles")
    print(f"completions   : {[f'{c:,}' for c in outcome.completions]}")
    print(f"context sw    : {outcome.kernel_stats.context_switches}")
    print(f"faults        : {outcome.kernel_stats.fault_actions}")
    for key, value in outcome.cis.items():
        print(f"cis.{key:<22}: {value:,}")


def _write_csv(args, text: str) -> None:
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(text + "\n")
        print(f"\nCSV written to {args.csv}")


def _emit(figure, args) -> None:
    print(file=sys.stderr)
    print(render_table(figure))
    print()
    print(render_figure(figure))
    print()
    knees = contention_knees(figure)
    print("Contention knees (first instance count above the linear trend):")
    for label, knee in knees.items():
        print(f"  {label:<32} {knee if knee is not None else '-'}")
    _write_csv(args, figure.to_csv())


# ----------------------------------------------------------------------
# subcommands: argument setup (``_args_*``) and handlers (``_cmd_*``)
# ----------------------------------------------------------------------
def _cmd_fig2(args) -> None:
    _figure(args, figure2)


def _cmd_fig3(args) -> None:
    _figure(args, figure3)


def _cmd_speedup(args) -> None:
    figure = _run_sweep(args, speedup_table, **_sweep_args(args))
    print(render_speedup(figure))
    _write_csv(args, figure.to_csv())


def _cmd_run(args) -> None:
    _print_outcome(run_experiment(_spec_from_args(args), verify=args.verify))


def _args_checkpoint(parser) -> None:
    _add_point(parser)
    parser.add_argument("out", help="checkpoint file to write")
    parser.add_argument(
        "--at-quanta", type=int, default=64, metavar="N",
        help="checkpoint after N scheduler quanta (default 64); the "
             "machine may finish earlier, in which case no checkpoint "
             "is written",
    )


def _cmd_checkpoint(args) -> int | None:
    spec = _spec_from_args(args)
    machine, _ = start_machine(spec)
    executed = machine.run_quanta(args.at_quanta)
    if machine.finished:
        print(
            f"machine finished after {executed} quanta "
            f"({machine.clock:,} cycles); nothing left to checkpoint",
            file=sys.stderr,
        )
        return 1
    machine.save_checkpoint(args.out)
    print(f"workload      : {spec.workload} x{spec.instances}")
    print(f"checkpointed  : after {executed} quanta at "
          f"{machine.clock:,} cycles")
    print(f"written to    : {args.out}")
    return None


def _args_resume(parser) -> None:
    parser.add_argument("checkpoint", help="checkpoint file to resume")
    parser.add_argument(
        "--verify", action="store_true",
        help="check every process output against the reference models",
    )


def _cmd_resume(args) -> None:
    machine = Machine.load_checkpoint(args.checkpoint)
    resumed_from = machine.clock
    machine.run()
    outcome = machine.outcome(verify=args.verify)
    print(f"resumed from  : {resumed_from:,} cycles")
    _print_outcome(outcome)


def _args_inject(parser) -> None:
    _add_common(parser)
    parser.add_argument(
        "--workload", default="alpha", choices=WORKLOAD_CHOICES,
        help="workload under injection (default alpha: has software "
             "alternatives, so the fallback policy is meaningful)",
    )
    parser.add_argument("--instances", type=int, default=4)
    parser.add_argument(
        "--trials", type=int, default=3,
        help="seeded trials per recovery policy (default 3)",
    )
    parser.add_argument(
        "--policies", default="reload,fallback,quarantine",
        help="comma-separated recovery policies to compare "
             "(default: reload,fallback,quarantine)",
    )
    parser.add_argument("--quantum-ms", type=float, default=1.0)
    parser.add_argument(
        "--replacement", default="round_robin", choices=POLICY_NAMES,
        help="PFU replacement policy (default round_robin)",
    )
    parser.add_argument("--config-rate", type=float, default=0.02,
                        help="per-quantum config-bit upset probability")
    parser.add_argument("--datapath-rate", type=float, default=0.02,
                        help="per-quantum transient PFU datapath error probability")
    parser.add_argument("--transfer-rate", type=float, default=0.05,
                        help="per-attempt configuration transfer failure probability")
    parser.add_argument("--state-rate", type=float, default=0.05,
                        help="per-eviction saved-state corruption probability")
    parser.add_argument("--scrub-interval", type=int, default=16, metavar="Q",
                        help="scrub the fabric every Q quanta (default 16)")
    parser.add_argument("--strikes", type=int, default=2,
                        help="faults before quarantine under that policy")
    parser.add_argument("--retries", type=int, default=2,
                        help="bounded config-load retry attempts")
    parser.add_argument(
        "--campaign-seed", type=int, default=7,
        help="campaign seed; per-trial fault-plan seeds derive from it",
    )


def _cmd_inject(args) -> None:
    config = CampaignConfig(
        workload=args.workload,
        instances=args.instances,
        trials=args.trials,
        policies=tuple(
            name.strip() for name in args.policies.split(",") if name.strip()
        ),
        quantum_ms=args.quantum_ms,
        scale=args.scale,
        seed=args.campaign_seed if args.seed is None else args.seed,
        config_upset_rate=args.config_rate,
        datapath_error_rate=args.datapath_rate,
        transfer_error_rate=args.transfer_rate,
        state_upset_rate=args.state_rate,
        scrub_interval_quanta=args.scrub_interval,
        quarantine_strikes=args.strikes,
        max_load_retries=args.retries,
        policy=args.replacement,
    )
    # Campaigns always verify: counting silently corrupted outputs is
    # the point of the exercise.
    report = _run_sweep(args, run_campaign, config=config, verify=True)
    print(render_campaign(report))
    _write_csv(args, report.to_csv())


def _args_trace(parser) -> None:
    _add_point(parser, architecture=False)
    parser.add_argument(
        "--jsonl", metavar="PATH",
        help="also stream every event to PATH as JSON lines",
    )
    parser.add_argument(
        "--events", type=int, default=8,
        help="show the last N raw events (default 8; 0 disables)",
    )
    parser.add_argument(
        "--prefetch", action="store_true",
        help="enable the speculative configuration prefetcher (default "
             "plan) and add its hit/waste statistics to the report",
    )


def _cmd_trace(args) -> None:
    spec = _spec_from_args(
        args, prefetch=PrefetchPlan() if args.prefetch else None
    )
    timeline = TimelineAggregator()
    ring = RingBufferSink(capacity=max(args.events, 1))
    sinks: list = [timeline, ring]
    jsonl = None
    if args.jsonl:
        jsonl = JsonlSink(args.jsonl)
        sinks.append(jsonl)
    try:
        outcome = run_experiment(spec, verify=args.verify, sinks=sinks)
    finally:
        if jsonl is not None:
            jsonl.close()
    timeline.close(outcome.makespan)
    prefetch_stats = None
    if outcome.prefetch:
        prefetch_stats = PrefetchStats(
            issued=outcome.prefetch["issued"],
            hits=outcome.prefetch["hits"],
            wasted=outcome.prefetch["wasted"],
            cancelled=dict(outcome.prefetch["cancelled"]),
            overlap_cycles=outcome.prefetch["overlap_cycles"],
        )
    print(f"workload      : {spec.workload} x{spec.instances}")
    print(f"makespan      : {outcome.makespan:,} cycles")
    print()
    print(render_trace(
        timeline, pfu_count=spec.pfu_count, prefetch=prefetch_stats
    ))
    if args.events:
        print()
        print(f"Last {min(args.events, len(ring))} of "
              f"{ring.seen:,} events:")
        for event in ring:
            print(f"  @{event.cycle:<12,} {event.to_dict()}")
    if args.jsonl:
        print(f"\nJSONL event stream written to {args.jsonl}")


def _args_synth(parser) -> None:
    _add_common(parser)
    parser.add_argument(
        "workload", nargs="?", default="hash", choices=WORKLOAD_CHOICES,
        help="workload to synthesise for (default hash: ships no "
             "hand-written circuit, so synthesis is the only "
             "acceleration it can get)",
    )
    parser.add_argument("--instances", type=int, default=2)
    parser.add_argument("--quantum-ms", type=float, default=10.0)
    parser.add_argument(
        "--min-executions", type=int, default=None, metavar="N",
        help="rehearsal executions a window needs before it is "
             "considered hot (default: the plan's built-in threshold)",
    )
    parser.add_argument(
        "--max-circuits", type=int, default=None, metavar="N",
        help="cap on adopted circuits per process (default: plan value)",
    )
    parser.add_argument(
        "--trigger", type=int, default=None, metavar="N",
        help="retired-instruction count that triggers synthesis "
             "(default: plan value)",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the fig2-style synthesis on/off sweep over "
             "1..--max-instances instead of a single comparison point",
    )


def _cmd_synth(args) -> None:
    plan = SynthesisPlan(**_knobs(
        args,
        min_executions="min_executions",
        max_circuits_per_process="max_circuits",
        trigger_instructions="trigger",
    ))
    if args.sweep:
        _figure(args, plan_sweep, field="synthesis", plan=plan,
                workloads=(args.workload,))
        return
    from ..synth.mine import mine_candidates
    from .experiment import _cached_program

    spec = _spec_from_args(args, synthesis=plan)
    program = _cached_program(
        spec.workload,
        spec.resolve_items(),
        spec.variant,
        spec.register_soft,
        spec.data_seed,
    )
    candidates = mine_candidates(program, plan, spec.build_config())
    print(f"workload      : {args.workload} ({program.name})")
    print(f"candidates    : {len(candidates)}")
    for cand in candidates:
        inputs = ", ".join(f"r{reg}" for reg in cand.inputs)
        print(f"  {cand.name}:")
        print(f"    window      : instructions "
              f"[{cand.start}, {cand.end})")
        print(f"    dataflow    : ({inputs}) -> r{cand.out_reg}")
        print(f"    hotness     : {cand.count} rehearsal "
              f"executions")
        print(f"    cycles      : {cand.sw_cycles} software vs "
              f"{cand.hw_cycles} dispatched")
        print(f"    circuit     : {cand.clbs} CLBs, "
              f"latency {cand.latency}")
        print(f"    score       : {cand.score:,}")
    if not candidates:
        print("  (nothing profitable under this plan)")
    off, on = _off_on(spec, "synthesis", args.verify)
    adopted = on.cis.get("registrations", 0)
    print(f"baseline      : {off.makespan:,} cycles "
          f"({spec.instances} instances)")
    print(f"synthesis     : {on.makespan:,} cycles "
          f"({adopted} adoptions)")
    _print_speedup(off, on)


def _args_prefetch(parser) -> None:
    _add_common(parser)
    parser.add_argument(
        "workload", nargs="?", default=None, choices=WORKLOAD_CHOICES,
        help="workload to compare on (default: phases for the single "
             "comparison, phases+burst for --sweep)",
    )
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--quantum-ms", type=float, default=1.0)
    parser.add_argument(
        "--min-confidence", type=int, default=None, metavar="PCT",
        help="confidence gate for issuing a speculative transfer "
             "(default: the plan's built-in threshold)",
    )
    parser.add_argument(
        "--min-observations", type=int, default=None, metavar="N",
        help="observed transitions out of a CID before its statistics "
             "are trusted (default: plan value)",
    )
    parser.add_argument(
        "--due-margin", type=int, default=None, metavar="PCT",
        help="how early before the learned mean run length a circuit "
             "switch counts as due (default: plan value)",
    )
    parser.add_argument(
        "--no-steal", action="store_true",
        help="restrict speculative transfers to already-free PFUs "
             "(never evict a victim to make room)",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the fig2-style prefetch on/off sweep over "
             "1..--max-instances instead of a single comparison point",
    )


def _cmd_prefetch(args) -> None:
    knobs = _knobs(
        args,
        min_confidence_pct="min_confidence",
        min_observations="min_observations",
        due_margin_pct="due_margin",
    )
    if args.no_steal:
        knobs["steal_victims"] = False
    plan = PrefetchPlan(**knobs)
    if args.sweep:
        workloads = (args.workload,) if args.workload else ("phases", "burst")
        _figure(args, plan_sweep, field="prefetch", plan=plan,
                workloads=workloads)
        return
    spec = _spec_from_args(
        args, workload=args.workload or "phases", prefetch=plan
    )
    off, on = _off_on(spec, "prefetch", args.verify)
    stats = on.prefetch
    cancelled = ",".join(
        f"{reason}:{count}"
        for reason, count in sorted(stats["cancelled"].items())
    ) or "-"
    print(f"workload      : {spec.workload} "
          f"x{spec.instances} @ {spec.quantum_ms:g}ms")
    print(f"baseline      : {off.makespan:,} cycles")
    print(f"prefetch      : {on.makespan:,} cycles")
    _print_speedup(off, on)
    print(f"issued        : {stats['issued']:,} "
          f"(hits {stats['hits']:,}, wasted {stats['wasted']:,}, "
          f"cancelled {cancelled})")
    print(f"accuracy      : {stats['accuracy_pct']}% of issues hit")
    print(f"coverage      : {stats['coverage_pct']}% of loads "
          f"were prefetched")
    print(f"overlap       : {stats['overlap_cycles']:,} demand "
          f"cycles hidden")


def _args_serve(parser) -> None:
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes (default 2)")
    parser.add_argument(
        "--slice-quanta", type=int, default=256, metavar="N",
        help="preempt (checkpoint + requeue) every job after N scheduler "
             "quanta so jobs can migrate between workers under pressure "
             "(default 256; 0 runs jobs to completion)",
    )
    parser.add_argument(
        "--rotate-workers", action="store_true",
        help="retire the worker pool at every preemption, forcing each "
             "resume onto a fresh process (migration stress mode)",
    )
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="listen here instead of the default socket")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the on-disk result cache",
    )
    parser.add_argument(
        "--warm-start", action="store_true",
        help="warm-start jobs from stored machine checkpoints",
    )
    parser.add_argument(
        "--no-journal", action="store_true",
        help="disable the crash-safe job journal (on by default as "
             "<cache-dir>/journal.log; with it, a killed daemon's jobs are "
             "recovered by the next one)",
    )
    parser.add_argument(
        "--journal-sync", action="store_true",
        help="fsync every journal record (survives machine crashes, "
             "not just daemon crashes; slower)",
    )
    parser.add_argument(
        "--hang-timeout", type=float, default=120.0, metavar="S",
        help="watchdog deadline per dispatched slice: a worker silent "
             "past S seconds is SIGKILLed and its job requeued from "
             "checkpoint (default %(default)ss; 0 disables)",
    )


def _cmd_serve(args) -> None:
    cache, checkpoints = _stores(args)
    journal = None if args.no_journal else Journal(
        default_cache_dir(), sync=args.journal_sync
    )
    scheduler = Scheduler(
        workers=args.workers,
        cache=cache,
        checkpoints=checkpoints,
        slice_quanta=args.slice_quanta or None,
        rotate_workers=args.rotate_workers,
        journal=journal,
        hang_timeout_s=args.hang_timeout or None,
    )
    daemon = ServeDaemon(scheduler, args.socket)
    print(
        f"repro serve: {args.workers} workers | "
        f"slice {args.slice_quanta or 'off'} quanta | "
        f"journal {'off' if journal is None else journal.path} | "
        f"socket {daemon.socket_path}",
        file=sys.stderr,
    )
    recovered = scheduler.recover()
    if recovered:
        print(
            f"serve: recovered {recovered} interrupted job(s) "
            "from the journal",
            file=sys.stderr,
        )
    try:
        daemon.run()
    except KeyboardInterrupt:
        pass
    finally:
        if daemon.drain_requested:
            # SIGTERM: quiesce to slice boundaries (checkpointing and
            # journaling in-flight jobs) instead of cancelling — the
            # next daemon's recover() picks them back up.
            drained = scheduler.drain()
            scheduler.shutdown(wait=True, cancel_pending=False)
            print(
                "serve: drained"
                + ("" if drained else " (timed out with slices "
                   "still running)"),
                file=sys.stderr,
            )
        else:
            scheduler.shutdown(wait=True, cancel_pending=True)
        if journal is not None:
            journal.close()
        stats = scheduler.stats
        recovery = (
            f"hung restarts {stats.hung_restarts} | "
            f"replays {stats.journal_replays} | "
            f"recovered {stats.jobs_recovered} | "
            f"resubmits {stats.reconnects} | "
            if (stats.hung_restarts or stats.journal_replays
                or stats.jobs_recovered or stats.reconnects)
            else ""
        )
        print(
            f"serve: {stats.submitted} submitted | "
            f"{stats.executed} executed | "
            f"cache hits {stats.cache_hits} | "
            f"coalesced {stats.coalesced} | "
            f"preemptions {stats.preemptions} | {recovery}"
            f"journal {'degraded' if journal and journal.degraded else 'ok' if journal else 'off'}",
            file=sys.stderr,
        )


def _cmd_submit(args) -> None:
    with ServeClient(args.socket) as client:
        job = client.submit(
            _spec_from_args(args), tenant=args.tenant, verify=args.verify
        )
        if not args.quiet:
            job.add_listener(
                lambda job, kind, message: print(
                    f"[job {job.id}] {kind}", file=sys.stderr
                )
            )
        outcome = job.result()
        if not args.quiet:
            how = (
                "cache" if job.cached
                else "coalesced" if job.coalesced
                else f"{job.preemptions} preemptions on "
                     f"{len(set(job.worker_pids))} workers"
            )
            print(f"[job {job.id}] done ({how})", file=sys.stderr)
    _print_outcome(outcome)


def _args_chaos(parser) -> None:
    parser.add_argument(
        "workdir", nargs="?", default=None,
        help="working directory for daemon state, logs and CSVs "
             "(default: a fresh temp directory)",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="chaos schedule seed (default %(default)s)")
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE,
        help="platform scale for the sweep (default %(default)s)",
    )
    parser.add_argument(
        "--max-instances", type=int, default=3,
        help="sweep 1..N instances (default %(default)s)",
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon worker processes (default %(default)s)")
    parser.add_argument(
        "--slice-quanta", type=int, default=64,
        help="daemon slice budget (default %(default)s: small, so "
             "faults land mid-job)",
    )
    parser.add_argument(
        "--event-log", metavar="PATH", default=None,
        help="write the injected-fault schedule as JSON lines",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )


def _cmd_chaos(args) -> int | None:
    import tempfile

    from .chaos import ChaosHarness, render_chaos

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    harness = ChaosHarness(
        workdir,
        seed=args.seed,
        scale=args.scale,
        max_instances=args.max_instances,
        workers=args.workers,
        slice_quanta=args.slice_quanta,
        event_log=args.event_log,
        quiet=args.quiet,
    )
    report = harness.run()
    print(render_chaos(report))
    if not report.ok:
        print(f"\nCSVs kept under {workdir} for diffing", file=sys.stderr)
        return 1
    return None


def _args_cache(parser) -> None:
    ksub = parser.add_subparsers(dest="cache_command", required=True)
    ksub.add_parser(
        "stats", help="entry counts, bytes, per-tenant reference breakdown"
    )
    kpr = ksub.add_parser(
        "prune", help="drop entries unused for longer than --max-age"
    )
    kpr.add_argument(
        "--max-age", type=float, default=7 * 24 * 3600.0, metavar="SECONDS",
        help="age threshold in seconds (default: 7 days)",
    )


#: (label, object kind) of each line of ``repro cache`` output.
_CACHE_KINDS = (
    ("results", RESULT),
    ("checkpoints", CHECKPOINT),
    ("job ckpts", JOB_CHECKPOINT),
)


def _cmd_cache(args) -> None:
    disk = Store(default_cache_dir())
    if args.cache_command == "stats":
        stats = disk.stats()
        print(f"cache root    : {disk.root}")
        for label, kind in _CACHE_KINDS:
            entries, total = stats["kinds"].get(kind, (0, 0))
            print(f"{label:<14}: {entries} entries, {total:,} bytes")
            if kind == RESULT:
                for tenant, refs in sorted(stats["tenants"].items()):
                    print(f"  tenant {tenant:<12}: {refs} refs")
    else:
        pruned = disk.prune(args.max_age)
        for label, kind in _CACHE_KINDS:
            line = (f"{label:<14}: removed {pruned['removed'][kind]}, "
                    f"kept {pruned['kept'][kind]}")
            if kind == RESULT:
                line += f", dangling refs {pruned['dangling_refs']}"
            print(line)


#: name -> (help line, argument setup, handler).  The handler returns
#: the exit status, or ``None`` for success.
COMMANDS = {
    "fig2": ("basic scheduling test (Figure 2)", _add_common, _cmd_fig2),
    "fig3": ("software dispatch test (Figure 3)", _add_common, _cmd_fig3),
    "speedup": ("accelerated vs unaccelerated", _add_common, _cmd_speedup),
    "run": ("one experiment point", _add_point, _cmd_run),
    "checkpoint": (
        "run one experiment point partway and write a machine "
        "checkpoint (JSON) that `repro resume` can finish",
        _args_checkpoint, _cmd_checkpoint,
    ),
    "resume": (
        "resume a `repro checkpoint` file, run it to completion, "
        "and report the outcome (bit-identical to an "
        "uninterrupted run)",
        _args_resume, _cmd_resume,
    ),
    "inject": (
        "dependability campaign: seeded fault injection across "
        "recovery policies, reporting detection/recovery/availability",
        _args_inject, _cmd_inject,
    ),
    "trace": (
        "run one experiment point with event tracing and show "
        "per-process attribution + FPL occupancy timelines",
        _args_trace, _cmd_trace,
    ),
    "synth": (
        "profiler-driven custom-instruction synthesis: report the "
        "mined candidate windows and compare synthesis off vs. on "
        "(--sweep runs the full fig2-style sweep)",
        _args_synth, _cmd_synth,
    ),
    "prefetch": (
        "speculative configuration prefetch: compare the reactive "
        "CIS against the predictive CIS with the asynchronous "
        "transfer engine (--sweep runs the full fig2-style sweep "
        "over the phase-changing and bursty workloads)",
        _args_prefetch, _cmd_prefetch,
    ),
    "serve": (
        "run the multi-tenant simulation daemon: concurrent clients "
        "submit experiment points over a local socket into one "
        "shared, preemptible worker fleet",
        _args_serve, _cmd_serve,
    ),
    "submit": (
        "submit one experiment point to a running daemon and wait "
        "for (streamed) completion",
        _add_point, _cmd_submit,
    ),
    "chaos": (
        "seeded infra-fault campaign against a real daemon: "
        "SIGKILL a worker, kill -9 + restart the daemon (tearing "
        "the journal tail and corrupting a cache object while it "
        "is down), drop the client — then verify the sweep CSV "
        "is byte-identical to the undisturbed run",
        _args_chaos, _cmd_chaos,
    ),
    "cache": (
        "result/checkpoint store maintenance (stats, pruning)",
        _args_cache, _cmd_cache,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Dales, 'Managing a Reconfigurable Processor "
            "in a General Purpose Workstation Environment' (DATE 2003)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    args = parser.parse_args(argv)
    return COMMANDS[args.command][2](args) or 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
