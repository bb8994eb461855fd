"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation:

- ``run BENCH``          one experiment (pick ``--target O|L|E|P|P2``)
- ``figure2``            N-vs-O breakdowns
- ``figure3``            the O/L/E/P retargeting study
- ``figure4``            realistic-profiling robustness
- ``figure5 idle|memlat|l2``  sensitivity panels
- ``table3``             model validation ratios
- ``list``               available benchmarks
- ``cache stats|clear``  inspect / empty the persistent simulation cache
- ``trace BENCH``        run one experiment with microarchitectural
  tracing: Chrome/Perfetto + Kanata exports, top-down stall
  attribution, and a per-event energy audit land in ``--out``
- ``report [DIR]``       render a self-contained HTML report from a run
  directory's manifest/results/utrace artifacts
- ``analytics ingest|query|stats``  the fleet-scale result analytics
  layer: ingest run directories into the columnar run store and
  aggregate cross-run trends (gmean per objective, stall-mix drift,
  phase walls).  Runs with ``--out`` auto-ingest on completion
  unless ``REPRO_ANALYTICS=0``; ``--store DIR`` (or
  ``REPRO_ANALYTICS_DIR``) picks the store location

Every evaluation command accepts the global observability flags:

- ``--log-level LEVEL``  emit JSON-lines telemetry (spans, heartbeats,
  simulator throughput) to stderr at ``debug|info|warning|error``;
- ``--json``             print result rows as JSON lines instead of the
  rendered text table;
- ``--out DIR``          write machine-readable artifacts into ``DIR``:
  ``manifest.json`` (provenance + config fingerprints + counters),
  ``results.jsonl`` (one row per (benchmark, target)) and an
  appendable ``run_table.csv``;
- ``--quiet``            suppress heartbeat/progress telemetry.

``repro serve`` runs the engine as an HTTP/JSON service (``/v1/stats``
reports its queue, breakers and admission state); ``repro loadtest``
drives one with a load model.

the performance flags:

- ``--jobs N``           worker processes for figure grids (default:
  ``REPRO_JOBS`` or ``os.cpu_count()``; ``1`` = fully sequential);
- ``--cache-dir DIR``    persistent simulation cache location
  (default ``~/.cache/repro-sim``);
- ``--no-sim-cache``     disable the persistent cache for this run;

and the robustness flags:

- ``--retries N``        attempts per grid cell before it becomes a
  failure row (default 3);
- ``--job-timeout S``    per-job wall-clock timeout in seconds (the
  worker pool is rebuilt around hung cells);
- ``--resume``           with ``--out DIR``, skip cells already recorded
  in ``DIR/journal.jsonl`` by a previous (interrupted) run;
- ``--inject-fault SITE:prob[:seed]``  deterministically inject faults
  (repeatable; see ``repro.faults`` for sites).

``repro chaos`` runs a grid twice -- fault-free and under injected
faults -- and reports whether recovery was complete, bit-identical, and
fully accounted.

Any evaluation command combined with ``--out DIR --trace-window
START:END`` runs with microarchitectural tracing enabled (per-cell
trace files under ``DIR/utrace/``, indexed in ``manifest.json``); the
``trace`` subcommand is the single-experiment front door to the same
machinery.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Dict, List, Optional

from repro import faults, obs
from repro.obs import utrace
from repro.config import (
    EnergyConfig,
    MachineConfig,
    SelectionConfig,
    SimulationConfig,
)
from repro.cpu import engine as sim_engine
from repro.errors import ConfigError
from repro.harness import figures, simcache
from repro.harness.experiment import run_experiment
from repro.harness.figures import result_row
from repro.harness.journal import Journal
from repro.harness.parallel import RetryPolicy, engine_options
from repro.harness.report import (
    format_table,
    render_json_lines,
    visible_columns,
)
from repro.pthsel.targets import Target
from repro.workloads import benchmark_names

_TARGETS = {t.label: t for t in Target}


def _parser() -> argparse.ArgumentParser:
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--log-level",
        default="off",
        choices=obs.LEVEL_NAMES,
        help="emit JSON-lines telemetry to stderr at this level",
    )
    obs_flags.add_argument(
        "--json",
        action="store_true",
        help="print result rows as JSON lines instead of text tables",
    )
    obs_flags.add_argument(
        "--quiet",
        action="store_true",
        help="suppress heartbeat/progress telemetry (and, for run, the "
        "selection description)",
    )
    obs_flags.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write manifest.json/results.jsonl and append run_table.csv "
        "under DIR",
    )
    obs_flags.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for experiment grids "
        "(default: REPRO_JOBS or cpu count; 1 = sequential)",
    )
    obs_flags.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent simulation cache directory "
        "(default ~/.cache/repro-sim)",
    )
    obs_flags.add_argument(
        "--no-sim-cache",
        action="store_true",
        help="disable the persistent simulation cache for this run",
    )
    obs_flags.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="attempts per grid cell before it degrades to a failure "
        "row (default 3)",
    )
    obs_flags.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout; hung workers are killed and "
        "their cells retried (default: none)",
    )
    obs_flags.add_argument(
        "--resume",
        action="store_true",
        help="with --out DIR: skip cells already completed in "
        "DIR/journal.jsonl (from a previous interrupted run)",
    )
    obs_flags.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SITE:PROB[:SEED]",
        help="deterministically inject faults at SITE with probability "
        "PROB (repeatable; sites: " + ", ".join(faults.SITES) + ")",
    )
    obs_flags.add_argument(
        "--sim-backend",
        choices=sim_engine.SIM_BACKENDS,
        default=None,
        metavar="BACKEND",
        help="cycle-engine backend: reference (the oracle Pipeline) or "
        "native (default: the compiled C cycle kernel when a C compiler "
        "or a built artifact is available, the reference otherwise); "
        "both are bit-identical (REPRO_SIM_BACKEND also selects it)",
    )
    obs_flags.add_argument(
        "--trace-window",
        metavar="START:END",
        default=None,
        help="with --out DIR: enable microarchitectural tracing for "
        "this cycle range (either side may be empty); traces land in "
        "DIR/utrace/ and are indexed in manifest.json",
    )
    obs_flags.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="analytics run store directory (default: "
        "REPRO_ANALYTICS_DIR or ~/.cache/repro-analytics); runs with "
        "--out auto-ingest into it unless REPRO_ANALYTICS=0",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PTHSEL/PTHSEL+E reproduction (Petric & Roth, ISCA 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[obs_flags],
                         help="run one experiment")
    run.add_argument("benchmark", choices=benchmark_names())
    run.add_argument("--target", default="L", choices=sorted(_TARGETS))
    run.add_argument("--profile-input", default="train",
                     choices=("train", "ref"))
    run.add_argument("--branch-pthreads", action="store_true",
                     help="also select branch-outcome p-threads (Section 7)")

    sub.add_parser("figure2", parents=[obs_flags],
                   help="N vs O breakdowns")
    fig3 = sub.add_parser("figure3", parents=[obs_flags],
                          help="O/L/E/P retargeting study")
    fig3.add_argument("--benchmarks", nargs="*", default=None)
    sub.add_parser("figure4", parents=[obs_flags],
                   help="realistic profiling study")
    fig5 = sub.add_parser("figure5", parents=[obs_flags],
                          help="sensitivity panels")
    fig5.add_argument("panel", choices=("idle", "memlat", "l2"))
    sub.add_parser("table3", parents=[obs_flags],
                   help="model validation ratios")
    sub.add_parser("list", parents=[obs_flags], help="list benchmarks")

    cache = sub.add_parser("cache", parents=[obs_flags],
                           help="persistent simulation cache maintenance")
    cache.add_argument("action", choices=("stats", "clear"))

    trace = sub.add_parser(
        "trace", parents=[obs_flags],
        help="run one experiment with microarchitectural tracing "
        "(Chrome/Perfetto + Kanata exports, stall attribution, "
        "energy audit)",
    )
    trace.add_argument("benchmark", choices=benchmark_names())
    trace.add_argument("--target", default="L", choices=sorted(_TARGETS))
    trace.add_argument("--profile-input", default="train",
                       choices=("train", "ref"))
    trace.add_argument("--quick", action="store_true",
                       help="trace only the first 50k cycles "
                       "(CI smoke mode; overridden by --trace-window)")
    trace.add_argument("--format", action="append", default=None,
                       choices=("chrome", "kanata"), dest="formats",
                       help="export format(s) to write (default: both; "
                       "repeatable)")
    trace.add_argument("--max-insts", type=int, default=None,
                       metavar="N",
                       help="cap on recorded instruction lifecycles per "
                       "simulation (default 200000)")
    trace.add_argument("--no-energy-audit", action="store_true",
                       help="skip per-event energy accumulation and the "
                       "E1-E8 cross-check")

    report = sub.add_parser(
        "report", parents=[obs_flags],
        help="render a self-contained HTML report from a run "
        "directory's manifest/results/utrace artifacts",
    )
    report.add_argument("dir", nargs="?", default=None,
                        help="run directory to render (default: --out)")
    report.add_argument("--output", default=None, metavar="PATH",
                        help="HTML output path (default: DIR/report.html)")

    # No parents=[obs_flags] on the group parser itself: nested
    # subparser defaults would clobber values parsed at this level
    # (argparse re-applies defaults), so the flags live on the actions.
    analytics = sub.add_parser(
        "analytics",
        help="fleet-scale result analytics: ingest runs into the "
        "columnar store and query cross-run trends",
    )
    asub = analytics.add_subparsers(dest="action", required=True)
    a_ingest = asub.add_parser(
        "ingest", parents=[obs_flags],
        help="ingest run directories",
    )
    a_ingest.add_argument("paths", nargs="+", metavar="PATH",
                          help="run directory (--out style)")
    a_ingest.add_argument("--force", action="store_true",
                          help="re-ingest runs whose run_id is already "
                          "in the store")
    a_query = asub.add_parser(
        "query", parents=[obs_flags],
        help="group-by aggregation over the store",
    )
    a_query.add_argument("--metric", default="ed2_save_pct",
                         help="numeric column to aggregate "
                         "(default ed2_save_pct)")
    a_query.add_argument("--group-by", default="run_seq,target",
                         metavar="COL[,COL...]",
                         help="group columns (default run_seq,target)")
    a_query.add_argument("--agg", default="gmean",
                         choices=("gmean", "mean", "sum", "count",
                                  "min", "max"))
    a_query.add_argument("--kind", default="result",
                         choices=("result", "run", "trace"),
                         help="row family (default result)")
    a_query.add_argument("--where", action="append", default=None,
                         metavar="COL=VALUE",
                         help="exact-match filter (repeatable)")
    asub.add_parser(
        "stats", parents=[obs_flags],
        help="store occupancy (segments, rows, bytes)",
    )

    chaos = sub.add_parser(
        "chaos", parents=[obs_flags],
        help="prove fault recovery: run a grid fault-free and under "
        "injected faults, compare",
    )
    chaos.add_argument("--quick", action="store_true",
                       help="small grid + a seed guaranteed to inject "
                       "(CI smoke mode)")
    chaos.add_argument("--benchmarks", nargs="*", default=None)
    chaos.add_argument("--spec", action="append", default=None,
                       metavar="SITE:PROB[:SEED]",
                       help="fault spec(s) for the chaotic run "
                       "(default worker.run:0.3)")
    chaos.add_argument("--max-attempts", type=int, default=None,
                       metavar="N",
                       help="retry budget for the chaotic run "
                       "(default 8)")
    chaos.add_argument("--server", action="store_true",
                       help="server drill instead: kill -9 a faulted "
                       "repro serve mid-grid, --resume it, verify every "
                       "acknowledged job completes bit-identically")
    chaos.add_argument("--kill-after", type=int, default=None,
                       metavar="N",
                       help="with --server: SIGKILL the server after N "
                       "acknowledged submits (default 2: the first "
                       "completes, the second dies in flight)")

    serve = sub.add_parser(
        "serve", parents=[obs_flags],
        help="HTTP/JSON experiment service: async job queue over the "
        "engine with crash-safe state",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023,
                       help="bind port; 0 picks a free one (default 8023)")
    serve.add_argument("--state", metavar="DIR", default="serve_state",
                       help="state directory for the accept ledger and "
                       "completion journal (default ./serve_state)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="job worker threads (default: --jobs or 2)")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="admission-control queue depth bound; "
                       "beyond it submits shed with 429 + Retry-After "
                       "(default 64)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-job deadline: jobs still "
                       "queued after SECONDS fail instead of running "
                       "(default: none)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="graceful-shutdown budget for in-flight "
                       "jobs on SIGTERM/^C (default 30)")
    serve.add_argument("--pool", type=int, default=None, metavar="N",
                       help="run jobs in a persistent pool of N worker "
                       "processes instead of the queue's threads "
                       "(default: in-thread execution)")

    loadtest = sub.add_parser(
        "loadtest", parents=[obs_flags],
        help="drive a repro server with a closed- or open-loop load "
        "model and report throughput/latency/failure-rate",
    )
    loadtest.add_argument("--server", metavar="URL", default=None,
                          help="server base URL (default: self-host an "
                          "in-process server for the run)")
    loadtest.add_argument("--mode", choices=("closed", "open"),
                          default="closed",
                          help="closed: N workers with one outstanding "
                          "request each; open: fixed-rate arrivals "
                          "regardless of completions (default closed)")
    loadtest.add_argument("--requests", type=int, default=None,
                          metavar="N", help="total requests to issue")
    loadtest.add_argument("--concurrency", type=int, default=None,
                          metavar="N",
                          help="closed-loop worker count (default 3)")
    loadtest.add_argument("--rate", type=float, default=2.0,
                          metavar="RPS",
                          help="open-loop arrival rate (default 2.0)")
    loadtest.add_argument("--benchmarks", nargs="*", default=None)
    loadtest.add_argument("--target", default="L",
                          choices=sorted(_TARGETS))
    loadtest.add_argument("--quick", action="store_true",
                          help="CI smoke: one benchmark, 6 requests, "
                          "concurrency 3")
    loadtest.add_argument("--budget", type=float, default=None,
                          metavar="SECONDS",
                          help="latency budget for the report's "
                          "max-concurrency math (default 60)")
    loadtest.add_argument("--wait-timeout", type=float, default=180.0,
                          metavar="SECONDS",
                          help="per-request completion wait (default 180)")
    loadtest.add_argument("--max-failure-rate", type=float, default=0.0,
                          metavar="FRACTION",
                          help="exit non-zero if failure_rate exceeds "
                          "this (default 0.0; sheds are not failures)")
    return parser


def _default_configs() -> Dict[str, object]:
    return {
        "machine": MachineConfig(),
        "energy": EnergyConfig(),
        "selection": SelectionConfig(),
        "simulation": SimulationConfig(),
    }


def _write_artifacts(
    args: argparse.Namespace,
    argv: Optional[List[str]],
    rows: List[Dict[str, object]],
    **extra: object,
) -> None:
    """Write manifest/results/run-table artifacts when ``--out`` was given.

    A partial grid is flagged ``degraded: true`` (any failure rows, or
    recorded engine failures).  Artifact I/O failure -- ENOSPC, a
    read-only directory, the ``manifest.write`` fault site -- is logged
    and swallowed: the results were already printed, and dying while
    writing provenance would turn a finished run into a failed one.
    """
    if not args.out:
        return
    degraded = any(row.get("failed") for row in rows)
    extra.setdefault("degraded", degraded)
    if utrace.enabled():
        files = utrace.drain_artifacts()
        extra.setdefault("utrace", {
            "config": utrace.encode(),
            "n_files": len(files),
            "total_bytes": sum(int(a.get("bytes", 0)) for a in files),
            "files": files,
        })
    try:
        faults.raise_os_if("manifest.write", key=args.command)
        writer = obs.RunWriter(
            args.out,
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            configs=_default_configs(),
            started=getattr(args, "_started", None),
        )
        for row in rows:
            writer.add_row(row)
        path = writer.finalize(counters=obs.counters.snapshot(), **extra)
    except OSError as exc:
        obs.log_event(
            "manifest_write_failed",
            level="warning",
            dir=args.out,
            error=type(exc).__name__,
            detail=str(exc),
        )
        print(f"warning: could not write artifacts to {args.out}: {exc}",
              file=sys.stderr)
        return
    print(f"wrote {len(rows)} rows to {args.out} "
          f"(manifest: {path})", file=sys.stderr)
    _auto_ingest(args)


def _auto_ingest(args: argparse.Namespace) -> None:
    """Ingest the finished run into the analytics store.

    On by default for every ``--out`` run; ``REPRO_ANALYTICS=0``
    disables it (and any store failure is warn-and-continue -- the
    run's own artifacts are already on disk and must stay the source
    of truth).
    """
    from repro.analytics import RunStore, ingest_enabled

    if not args.out or not ingest_enabled():
        return
    try:
        store = RunStore(getattr(args, "store", None))
        report = store.ingest_run(args.out)
    except Exception as exc:
        obs.log_event(
            "analytics_auto_ingest_failed",
            level="warning",
            dir=args.out,
            error=type(exc).__name__,
            detail=str(exc),
        )
        return
    if not report.skipped:
        print(
            f"ingested {report.rows_ingested} rows into analytics "
            f"store {store.root} (run_seq {report.run_seq})",
            file=sys.stderr,
        )


def _emit_rows(args: argparse.Namespace,
               rows: List[Dict[str, object]]) -> None:
    """Print rows as a text table, or as JSON lines under ``--json``."""
    if args.json:
        print(render_json_lines(rows))
    else:
        print(format_table(rows, columns=visible_columns(rows) or None))


#: Commands whose grids are journaled under ``--out`` for ``--resume``.
_GRID_COMMANDS = ("figure2", "figure3", "figure4", "figure5", "table3")


def main(argv: Optional[List[str]] = None) -> int:
    started = time.time()
    args = _parser().parse_args(argv)
    args._started = started

    if getattr(args, "log_level", "off") != "off":
        obs.configure(level=args.log_level)
    if getattr(args, "quiet", False):
        obs.set_quiet(True)

    if getattr(args, "cache_dir", None) or getattr(args, "no_sim_cache",
                                                   False):
        simcache.configure(
            cache_dir=args.cache_dir,
            enabled=False if args.no_sim_cache else None,
        )
    jobs = getattr(args, "jobs", None)

    if getattr(args, "inject_fault", None):
        try:
            faults.configure(args.inject_fault)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if getattr(args, "sim_backend", None):
        sim_engine.set_sim_backend(args.sim_backend)

    if (
        getattr(args, "resume", False)
        and not getattr(args, "out", None)
        and args.command != "serve"  # serve resumes from --state instead
    ):
        print("error: --resume requires --out DIR", file=sys.stderr)
        return 2

    traced = False
    if args.command == "trace" or getattr(args, "trace_window", None):
        if args.command == "trace" and not args.out:
            args.out = f"trace_{args.benchmark}"
        if not args.out:
            print("error: --trace-window requires --out DIR",
                  file=sys.stderr)
            return 2
        try:
            window = None
            if getattr(args, "trace_window", None):
                window = utrace.parse_window(args.trace_window)
            elif args.command == "trace" and args.quick:
                window = (0, 50_000)
            utrace.configure(
                out_dir=args.out,
                window=window,
                formats=tuple(args.formats)
                if getattr(args, "formats", None) else None,
                energy_audit=not getattr(args, "no_energy_audit", False),
                max_insts=getattr(args, "max_insts", None)
                or utrace.DEFAULT_MAX_INSTS,
            )
            traced = True
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    policy = RetryPolicy(
        max_attempts=(
            args.retries
            if getattr(args, "retries", None)
            else RetryPolicy.max_attempts
        ),
        timeout_s=getattr(args, "job_timeout", None),
    )
    journal = None
    if getattr(args, "out", None) and args.command in _GRID_COMMANDS:
        journal = Journal.for_run_dir(args.out)
        if args.resume:
            resumed = len(journal.load())
            if resumed:
                print(
                    f"resuming: {resumed} cell(s) already completed in "
                    f"{journal.path}",
                    file=sys.stderr,
                )
        else:
            journal.discard()

    # SIGTERM gets the same clean shutdown as ^C: workers terminated and
    # joined, journal already flushed, manifest marked interrupted.
    def _on_sigterm(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass

    try:
        with engine_options(
            policy=policy, journal=journal, degrade=True
        ):
            return _dispatch(args, argv, jobs)
    except KeyboardInterrupt:
        _write_artifacts(args, argv, [], interrupted=True)
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        # The fault plan is process-global; don't leak --inject-fault
        # into a later in-process invocation (tests call main directly).
        if getattr(args, "inject_fault", None):
            faults.reset()
        if traced:  # same hygiene for the tracing configuration
            utrace.disable()
        if getattr(args, "quiet", False):
            obs.set_quiet(False)


def _dispatch(
    args: argparse.Namespace,
    argv: Optional[List[str]],
    jobs: Optional[int],
) -> int:
    if args.command == "cache":
        cache = simcache.get_cache() or simcache.SimCache(args.cache_dir)
        if args.action == "stats":
            print(json.dumps(cache.stats(), indent=1, sort_keys=True))
        else:
            removed = cache.clear()
            print(f"removed {removed} entries from {cache.root}")
        return 0

    if args.command == "list":
        rows = [{"benchmark": name} for name in benchmark_names()]
        if args.json:
            print(render_json_lines(rows))
        else:
            for name in benchmark_names():
                print(name)
        _write_artifacts(args, argv, rows)
        return 0

    if args.command == "run":
        result = run_experiment(
            args.benchmark,
            target=_TARGETS[args.target],
            profile_input=args.profile_input,
            include_branch_pthreads=args.branch_pthreads,
        )
        row = result_row(result)
        if args.json:
            print(render_json_lines([row]))
        else:
            if not args.quiet:
                print(result.selection.describe())
                print()
            print(format_table([result.summary_row()]))
        _write_artifacts(args, argv, [row])
        return 0

    if args.command == "trace":
        result = run_experiment(
            args.benchmark,
            target=_TARGETS[args.target],
            profile_input=args.profile_input,
        )
        row = result_row(result)
        if args.json:
            print(render_json_lines([row]))
        else:
            print(format_table([result.summary_row()]))
        for art in result.trace_artifacts:
            print(
                f"  {art['kind']:<16} {art['bytes']:>12,} B  {art['path']}",
                file=sys.stderr,
            )
        _write_artifacts(args, argv, [row])
        return 0

    if args.command == "report":
        from repro.harness.htmlreport import render_report

        run_dir = args.dir or args.out
        if not run_dir:
            print("error: report needs a run directory "
                  "(positional DIR or --out DIR)", file=sys.stderr)
            return 2
        try:
            path = render_report(run_dir, output=args.output)
        except (ConfigError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(path)
        return 0

    if args.command == "analytics":
        return _dispatch_analytics(args)

    if args.command == "figure2":
        data = figures.figure2(jobs=jobs)
        _emit_rows(args, data.rows)
        _write_artifacts(args, argv, data.rows)
        return 0

    if args.command == "figure3":
        benchmarks = args.benchmarks or list(benchmark_names())
        data = figures.figure3(benchmarks=benchmarks, jobs=jobs)
        gmeans = {
            metric: {t: round(v, 4) for t, v in data.gmeans(metric).items()}
            for metric in ("speedup_pct", "energy_save_pct", "ed_save_pct")
        }
        if args.json:
            print(render_json_lines(data.rows))
            print(render_json_lines([{"event": "gmeans", **gmeans}]))
        else:
            print(data.render())
            for metric, gm in gmeans.items():
                print(f"GMean {metric}: "
                      + "  ".join(f"{t}={v:+.1f}%" for t, v in gm.items()))
        _write_artifacts(args, argv, data.rows, gmeans=gmeans,
                         benchmarks=benchmarks)
        return 0

    if args.command == "figure4":
        data = figures.figure4(jobs=jobs)
        _emit_rows(args, data.rows)
        _write_artifacts(args, argv, data.rows)
        return 0

    if args.command == "figure5":
        panel = {
            "idle": figures.figure5_idle,
            "memlat": figures.figure5_memory_latency,
            "l2": figures.figure5_l2_size,
        }[args.panel]
        rows = panel(jobs=jobs)
        _emit_rows(args, rows)
        _write_artifacts(args, argv, rows, panel=args.panel)
        return 0

    if args.command == "table3":
        rows = figures.table3(jobs=jobs)
        _emit_rows(args, rows)
        _write_artifacts(args, argv, rows)
        return 0

    if args.command == "chaos":
        from repro.harness.chaos import run_chaos, run_server_chaos

        if args.server:
            server_kwargs: Dict[str, object] = {
                "benchmarks": args.benchmarks or None,
                "specs": args.spec,
                "quick": args.quick,
            }
            if args.kill_after:
                server_kwargs["kill_after"] = args.kill_after
            report = run_server_chaos(**server_kwargs)  # type: ignore[arg-type]
            print(json.dumps(report, indent=1, sort_keys=True))
            _write_artifacts(args, argv, [], server_chaos=report)
            return 0 if report["ok"] else 1

        kwargs: Dict[str, object] = {
            "benchmarks": args.benchmarks or None,
            "specs": args.spec,
            "jobs": jobs,
            "timeout_s": args.job_timeout,
            "quick": args.quick,
        }
        if args.max_attempts:
            kwargs["max_attempts"] = args.max_attempts
        report = run_chaos(**kwargs)  # type: ignore[arg-type]
        print(json.dumps(report, indent=1, sort_keys=True))
        _write_artifacts(
            args,
            argv,
            [dict(row) for row in report["failed_cells"]],
            chaos=report,
        )
        return 0 if report["ok"] else 1

    if args.command == "serve":
        return _dispatch_serve(args)

    if args.command == "loadtest":
        from repro.server.loadtest import (
            QUICK_BENCHMARKS,
            QUICK_CONCURRENCY,
            QUICK_REQUESTS,
            run_loadtest,
        )

        requests = args.requests or (
            QUICK_REQUESTS if args.quick else 12
        )
        concurrency = args.concurrency or QUICK_CONCURRENCY
        benchmarks = args.benchmarks or (
            list(QUICK_BENCHMARKS) if args.quick
            else list(benchmark_names()[:2])
        )
        lt_kwargs: Dict[str, object] = {
            "server_url": args.server,
            "mode": args.mode,
            "benchmarks": benchmarks,
            "requests": requests,
            "concurrency": concurrency,
            "rate_rps": args.rate,
            "wait_timeout_s": args.wait_timeout,
            "target": args.target,
        }
        if args.budget:
            lt_kwargs["latency_budget_s"] = args.budget
        report = run_loadtest(**lt_kwargs)  # type: ignore[arg-type]
        row = report["row"]
        if args.json:
            print(render_json_lines([row]))
        else:
            print(json.dumps(report, indent=1, sort_keys=True))
        # One summary row plus one row per request.
        request_rows = [
            {"request": i + 1, **sample}
            for i, sample in enumerate(report["samples"])
        ]
        _write_artifacts(
            args, argv, [dict(row)] + request_rows, loadtest=report
        )
        failure_rate = float(row.get("failure_rate", 1.0))
        if failure_rate > args.max_failure_rate:
            print(
                f"error: failure_rate {failure_rate:.3f} exceeds "
                f"--max-failure-rate {args.max_failure_rate:.3f}",
                file=sys.stderr,
            )
            return 1
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


def _dispatch_serve(args: argparse.Namespace) -> int:
    """``repro serve``: bring the service up, run until SIGTERM/^C,
    drain gracefully, exit 0."""
    from repro.server import (
        AdmissionController,
        CircuitBreaker,
        ExperimentServer,
        JobQueue,
        PoolRunner,
        ServerState,
    )

    workers = args.workers or args.jobs or 2
    state = ServerState(args.state)
    pool_breaker = CircuitBreaker("pool")
    cache_breaker = CircuitBreaker("simcache")
    admission = AdmissionController(
        max_queue_depth=args.max_queue,
        workers=workers,
        pool_breaker=pool_breaker,
    )
    pool_runner = None
    if args.pool:
        pool_runner = PoolRunner(
            workers=args.pool,
            job_timeout_s=getattr(args, "job_timeout", None),
        )
        pool_runner.start()
    queue = JobQueue(
        state,
        workers=workers,
        runner=pool_runner,
        admission=admission,
        pool_breaker=pool_breaker,
        cache_breaker=cache_breaker,
        default_deadline_s=args.deadline,
    )
    server = ExperimentServer(
        queue, host=args.host, port=args.port, drain_s=args.drain_timeout
    )
    resumed = server.start(resume=args.resume)
    # The URL line is machine-parsed (tests, the chaos drill): keep the
    # format stable and flush it before serve_forever blocks.
    print(
        f"serving on {server.url} (state: {args.state}, "
        f"workers: {workers}, resumed: {resumed})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # SIGTERM and ^C both land here (main() installs the handler):
        # stop accepting, drain in-flight work, then exit cleanly.
        pass
    drained = server.shutdown_and_drain()
    if pool_runner is not None:
        pool_runner.close()
    print(f"drained: {drained}", file=sys.stderr)
    return 0


def _dispatch_analytics(args: argparse.Namespace) -> int:
    """``repro analytics ingest|query|stats``."""
    from repro.analytics import RunStore
    from repro.analytics.query import aggregate

    store = RunStore(getattr(args, "store", None))

    if args.action == "ingest":
        reports = []
        for path in args.paths:
            try:
                report = store.ingest_path(path, force=args.force)
            except ConfigError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            reports.append(report.to_dict())
            status = (
                f"skipped ({report.reason})" if report.skipped
                else f"run_seq {report.run_seq}: "
                f"{report.rows_ingested} rows"
                + (f", {report.rows_flagged} flagged"
                   if report.rows_flagged else "")
                + (f", {report.lines_damaged} damaged lines"
                   if report.lines_damaged else "")
                + (f", {report.rows_rejected} rejected"
                   if report.rows_rejected else "")
            )
            print(f"{path}: {status}")
        if args.json:
            print(render_json_lines(reports))
        return 0

    if args.action == "query":
        group_by = tuple(
            c.strip() for c in args.group_by.split(",") if c.strip()
        )
        where = {}
        for spec in args.where or ():
            if "=" not in spec:
                print(f"error: bad --where {spec!r} (COL=VALUE)",
                      file=sys.stderr)
                return 2
            key, _, value = spec.partition("=")
            where[key.strip()] = value.strip()
        try:
            result = aggregate(
                store, args.metric, group_by=group_by, agg=args.agg,
                kind=args.kind, where=where or None,
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows = [
            {k: (round(v, 4) if isinstance(v, float) else v)
             for k, v in row.items()}
            for row in result.rows
        ]
        if args.json:
            print(render_json_lines(rows))
        else:
            print(format_table(rows) if rows else "(no rows)")
            print(
                f"# {result.n_input_rows} input rows, "
                f"{result.n_failed_skipped} failed skipped, "
                f"{result.n_missing_skipped} missing skipped",
                file=sys.stderr,
            )
        return 0

    if args.action == "stats":
        print(json.dumps(store.stats(), indent=1, sort_keys=True))
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
