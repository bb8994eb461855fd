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
- ``report DIR``         render a self-contained HTML report from a run
  directory's manifest and results
- ``analytics query RUN_DIR...``  the result analytics layer:
  aggregate the rows of ``--out`` run directories across runs (gmean
  per objective, cache hit rates, phase walls); the run directories
  are the only copy of the rows

Every evaluation command accepts the global observability flags
(``analytics query``, ``cache`` and ``report`` take only
``--log-level`` and ``--json``, plus ``cache --cache-dir`` and
``report --output``, since they run no experiment):

- ``--log-level LEVEL``  emit JSON-lines telemetry (spans, simulator
  throughput) to stderr at ``debug|info|warning|error``;
- ``--json``             print result rows as JSON lines instead of the
  rendered text table;
- ``--out DIR``          write machine-readable artifacts into ``DIR``:
  ``manifest.json`` (provenance + config fingerprints + counters),
  ``results.jsonl`` (one row per (benchmark, target)) and an
  appendable ``run_table.csv``.

``run --quiet`` prints the result table without the selection listing.

``repro serve`` runs the engine as an HTTP/JSON service (``/v1/stats``
reports its queue and admission state);
``repro loadtest`` drives one with a load model.

the performance flags:

- ``--jobs N``           worker processes for figure grids, N >= 1
  (default: ``REPRO_JOBS`` or ``os.cpu_count()``; ``1`` = fully
  sequential);
- ``--cache-dir DIR``    persistent simulation cache location
  (default ``~/.cache/repro-sim``);
- ``--no-sim-cache``     disable the persistent cache for this run;

and ``--inject-fault SITE:prob[:seed]``, which deterministically
injects faults (repeatable; see ``repro.faults`` for sites).

The grid commands (``figure2``-``figure5``, ``table3``) also take the
robustness flags:

- ``--retries N``        attempts per grid cell before it becomes a
  failure row (N >= 1, default 3);
- ``--job-timeout S``    per-job wall-clock timeout in seconds (S > 0;
  the worker pool is rebuilt around hung cells);
- ``--resume``           with ``--out DIR``, skip cells already recorded
  in ``DIR/journal.jsonl`` by a previous (interrupted) run.

``repro chaos`` runs a grid twice -- fault-free and under injected
faults -- and reports whether recovery was complete, bit-identical, and
fully accounted; it takes ``--retries`` (the faulted run's attempt
budget, default 8) and ``--job-timeout``, but ``chaos --server`` takes
neither.  ``repro serve --resume`` resumes from its ``--state``
directory.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Callable, Dict, List, Optional

from repro import faults, obs
from repro.config import (
    EnergyConfig,
    MachineConfig,
    SelectionConfig,
    SimulationConfig,
)
from repro.errors import ConfigError, JournalError
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


def _positive(kind: type) -> Callable[[str], object]:
    """An argparse ``type`` parsing ``kind`` and refusing values <= 0."""

    def parse(text: str) -> object:
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value"
    return parse


def _parser() -> argparse.ArgumentParser:
    # view_flags: how a command reports; obs_flags adds the run flags
    # (artifacts, engine, cache, faults) for commands that run or write;
    # attempt_flags and grid_flags add the per-cell retry budget and
    # journal resume, for the commands that run cells through the engine.
    view_flags = argparse.ArgumentParser(add_help=False)
    view_flags.add_argument(
        "--log-level",
        default="off",
        choices=obs.LEVEL_NAMES,
        help="emit JSON-lines telemetry to stderr at this level",
    )
    view_flags.add_argument(
        "--json",
        action="store_true",
        help="print result rows as JSON lines instead of text tables",
    )
    obs_flags = argparse.ArgumentParser(add_help=False, parents=[view_flags])
    obs_flags.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write manifest.json/results.jsonl and append run_table.csv "
        "under DIR",
    )
    obs_flags.add_argument(
        "--jobs",
        type=_positive(int),
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
        "--inject-fault",
        action="append",
        default=None,
        metavar="SITE:PROB[:SEED]",
        help="deterministically inject faults at SITE with probability "
        "PROB (repeatable; sites: " + ", ".join(faults.SITES) + ")",
    )
    attempt_flags = argparse.ArgumentParser(add_help=False)
    attempt_flags.add_argument(
        "--retries",
        type=_positive(int),
        default=None,
        metavar="N",
        help="attempts per grid cell before it degrades to a failure "
        "row, >= 1 (default 3; chaos: the faulted run's budget, "
        "default 8)",
    )
    attempt_flags.add_argument(
        "--job-timeout",
        type=_positive(float),
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout; hung workers are killed and "
        "their cells retried (default: none)",
    )
    grid_flags = argparse.ArgumentParser(
        add_help=False, parents=[obs_flags, attempt_flags]
    )
    grid_flags.add_argument(
        "--resume",
        action="store_true",
        help="with --out DIR: skip cells already completed in "
        "DIR/journal.jsonl (from a previous interrupted run)",
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
    run.add_argument("--quiet", action="store_true",
                     help="print the result table without the selection "
                     "listing")

    sub.add_parser("figure2", parents=[grid_flags],
                   help="N vs O breakdowns")
    fig3 = sub.add_parser("figure3", parents=[grid_flags],
                          help="O/L/E/P retargeting study")
    fig3.add_argument("--benchmarks", nargs="*", default=None)
    sub.add_parser("figure4", parents=[grid_flags],
                   help="realistic profiling study")
    fig5 = sub.add_parser("figure5", parents=[grid_flags],
                          help="sensitivity panels")
    fig5.add_argument("panel", choices=("idle", "memlat", "l2"))
    sub.add_parser("table3", parents=[grid_flags],
                   help="model validation ratios")
    sub.add_parser("list", parents=[obs_flags], help="list benchmarks")

    cache = sub.add_parser("cache", parents=[view_flags],
                           help="persistent simulation cache maintenance")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent simulation cache directory "
                       "(default ~/.cache/repro-sim)")

    report = sub.add_parser(
        "report", parents=[view_flags],
        help="render a self-contained HTML report from a run "
        "directory's manifest and results",
    )
    report.add_argument("dir", nargs="?", default=None,
                        help="run directory to render")
    report.add_argument("--output", default=None, metavar="PATH",
                        help="HTML output path (default: DIR/report.html)")

    # No parents=[obs_flags] on the group parser itself: nested
    # subparser defaults would clobber values parsed at this level
    # (argparse re-applies defaults), so the flags live on the actions.
    analytics = sub.add_parser(
        "analytics",
        help="result analytics: query cross-run trends over run "
        "directories",
    )
    asub = analytics.add_subparsers(dest="action", required=True)
    a_query = asub.add_parser(
        "query", parents=[view_flags],
        help="group-by aggregation over the rows of run directories",
    )
    a_query.add_argument("paths", nargs="+", metavar="RUN_DIR",
                         help="--out run directory; each run written "
                         "into it is one run_seq")
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
                         choices=("result", "run"),
                         help="row family (default result)")
    a_query.add_argument("--where", action="append", default=None,
                         metavar="COL=VALUE",
                         help="exact-match filter, numeric or string "
                         "(repeatable)")

    chaos = sub.add_parser(
        "chaos", parents=[obs_flags, attempt_flags],
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
    chaos.add_argument("--server", action="store_true",
                       help="server drill instead: kill -9 a faulted "
                       "repro serve mid-grid, --resume it, verify every "
                       "acknowledged job completes bit-identically "
                       "(takes no --retries or --job-timeout)")
    chaos.add_argument("--kill-after", type=_positive(int), default=None,
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
    serve.add_argument("--workers", type=_positive(int), default=None,
                       metavar="N",
                       help="job worker threads (default: --jobs or 2)")
    serve.add_argument("--max-queue", type=_positive(int), default=64,
                       metavar="N",
                       help="admission-control queue depth bound; "
                       "beyond it submits shed with 429 + Retry-After "
                       "(default 64)")
    serve.add_argument("--deadline", type=_positive(float), default=None,
                       metavar="SECONDS",
                       help="default per-job deadline: jobs still "
                       "queued after SECONDS fail instead of running "
                       "(default: none; serve has no --job-timeout, "
                       "since a running job cannot be preempted)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="graceful-shutdown budget for in-flight "
                       "jobs on SIGTERM/^C (default 30)")
    serve.add_argument("--resume", action="store_true",
                       help="resume from the --state directory: re-queue "
                       "every acknowledged job that has not completed")

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
    loadtest.add_argument("--requests", type=_positive(int), default=None,
                          metavar="N", help="total requests to issue")
    loadtest.add_argument("--concurrency", type=_positive(int),
                          default=None, metavar="N",
                          help="closed-loop worker count (default 3)")
    loadtest.add_argument("--rate", type=_positive(float), default=2.0,
                          metavar="RPS",
                          help="open-loop arrival rate (default 2.0)")
    loadtest.add_argument("--benchmarks", nargs="*", default=None)
    loadtest.add_argument("--target", default="L",
                          choices=sorted(_TARGETS))
    loadtest.add_argument("--quick", action="store_true",
                          help="CI smoke: one benchmark, 6 requests, "
                          "concurrency 3")
    loadtest.add_argument("--budget", type=_positive(float), default=None,
                          metavar="SECONDS",
                          help="latency budget for the report's "
                          "max-concurrency math (default 60)")
    loadtest.add_argument("--wait-timeout", type=_positive(float),
                          default=180.0,
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
    if not getattr(args, "out", None):
        return
    degraded = any(row.get("failed") for row in rows)
    extra.setdefault("degraded", degraded)
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
    parser = _parser()
    args = parser.parse_args(argv)
    args._started = started
    if args.command == "chaos" and args.server and (
        args.retries is not None or args.job_timeout is not None
    ):
        # The server drill has no attempt budget: served jobs run once.
        parser.error("chaos --server takes no --retries or --job-timeout")

    if getattr(args, "log_level", "off") != "off":
        obs.configure(level=args.log_level)

    if getattr(args, "cache_dir", None) or getattr(args, "no_sim_cache",
                                                   False):
        simcache.configure(
            cache_dir=args.cache_dir,
            enabled=False if getattr(args, "no_sim_cache", False) else None,
        )
    jobs = getattr(args, "jobs", None)

    try:
        if getattr(args, "inject_fault", None):
            faults.configure(args.inject_fault)
        else:
            # Resolve REPRO_FAULTS now: a bad spec exits 2 here even when
            # no fault site is ever consulted.
            faults.current_plan()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    grid = args.command in _GRID_COMMANDS
    if grid and args.resume and not args.out:
        print("error: --resume requires --out DIR", file=sys.stderr)
        return 2

    policy = RetryPolicy(
        max_attempts=getattr(args, "retries", None)
        or RetryPolicy.max_attempts,
        timeout_s=getattr(args, "job_timeout", None),
    )
    journal = None
    if grid and args.out:
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

    if args.command == "report":
        from repro.harness.htmlreport import render_report

        if not args.dir:
            print("error: report needs a run directory (DIR)",
                  file=sys.stderr)
            return 2
        try:
            path = render_report(args.dir, output=args.output)
        except (ConfigError, JournalError, OSError, ValueError) as exc:
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
        if args.retries:
            kwargs["max_attempts"] = args.retries
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
        if row.get("requests") and not row.get("ok"):
            # Sheds and drops are not failures, so a run that delivered
            # nothing would otherwise pass the failure-rate bound.
            print(
                f"error: none of {row['requests']} request(s) "
                "delivered a result",
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
        ExperimentServer,
        JobQueue,
        ServerState,
    )

    workers = args.workers or args.jobs or 2
    state = ServerState(args.state)
    admission = AdmissionController(
        max_queue_depth=args.max_queue, workers=workers
    )
    queue = JobQueue(
        state,
        workers=workers,
        admission=admission,
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
    print(f"drained: {drained}", file=sys.stderr)
    return 0


def _dispatch_analytics(args: argparse.Namespace) -> int:
    """``repro analytics query RUN_DIR...``."""
    from repro.analytics.query import aggregate
    from repro.obs.manifest import read_runs

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
            read_runs(args.paths), args.metric, group_by=group_by,
            agg=args.agg, kind=args.kind, where=where or None,
        )
    except (ConfigError, JournalError) as exc:
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
