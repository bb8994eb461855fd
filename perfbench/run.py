"""Cold-process benchmark of the p-thread selection pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload memlat-sweep --seed 1 \\
        --seconds 30 --trace 0 [--input train|ref] [--out DIR]

Each pass runs in a fresh child process (``child.py``) with the
program's ``REPRO_*`` switches removed from its environment, so the
repository defaults are measured, and with the persistent simulation
cache pointed at a new, empty directory, so every pass pays what a
first-time user pays.  Passes repeat while the next one is expected to
end within ``--seconds`` of the first one's start (at least one pass);
end-to-end metrics are medians over passes.
Set-up is measured in at least ``MIN_SETUPS`` children.

With ``--trace 1`` one more pass runs with the layer ledger
(``ledger.py``) installed and the per-layer metrics are printed
instead; the tracing overhead is the traced pass's wall minus the
untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
appends one row per (workload, run, metric) to ``DIR/run_table.csv``
and writes the column dictionary ``DIR/columns.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workload_spec import INPUT_SETS, WORKLOADS, check_activity  # noqa: E402

#: Set-up samples per run, topped up with set-up-only children.
MIN_SETUPS = 3
#: Wall-clock limit for one child process; a pass normally takes 4-15 s.
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": ("s", "child start to first timed call, median"),
    "wall_s": ("s", "timed region of one cold pass, median"),
    "peak_rss_mb": ("MB", "child ru_maxrss, median"),
}

#: Per-layer metric -> (unit, ledger key).
PER_LAYER = {
    "interpret.self_s": ("s", "interpret.self_s"),
    "interpret.calls": ("count", "interpret.calls"),
    "interpret.insts": ("count", "interpret.insts"),
    "base_sim.self_s": ("s", "base_sim.self_s"),
    "base_sim.calls": ("count", "base_sim.calls"),
    "base_sim.cycles_per_s": ("1/s", "base_sim.cycles_per_s"),
    "base_sim.insts_per_s": ("1/s", "base_sim.insts_per_s"),
    "batch_sim.self_s": ("s", "batch_sim.self_s"),
    "batch_sim.configs": ("count", "batch_sim.configs"),
    "opt_sim.self_s": ("s", "opt_sim.self_s"),
    "opt_sim.calls": ("count", "opt_sim.calls"),
    "opt_sim.cycles_per_s": ("1/s", "opt_sim.cycles_per_s"),
    "opt_sim.memo_hits": ("count", "opt_sim.memo_hits"),
    "classify.self_s": ("s", "classify.self_s"),
    "classify.calls": ("count", "classify.calls"),
    "classify.computed": ("count", "classify.computed"),
    "cost.self_s": ("s", "cost.self_s"),
    "cost.loads": ("count", "cost.loads"),
    "slice.self_s": ("s", "slice.self_s"),
    "slice.trees": ("count", "slice.trees"),
    "search.self_s": ("s", "search.self_s"),
    "search.trees": ("count", "search.trees"),
    "search.pthreads": ("count", "search.pthreads"),
    "augment.self_s": ("s", "augment.self_s"),
    "augment.interpret_s": ("s", "augment.interpret.self_s"),
    "augment.calls": ("count", "augment.calls"),
    "augment.spawns": ("count", "augment.spawns"),
    "augment.spawn_cache_hits": ("count", "augment.spawn_cache_hits"),
    "energy.self_s": ("s", "energy.self_s"),
    "energy.calls": ("count", "energy.calls"),
    "simcache.self_s": ("s", "simcache.self_s"),
    "simcache.writes": ("count", "simcache.writes"),
    "harness.overhead_s": ("s", "harness.overhead_s"),
    "harness.overhead_share": ("ratio", "harness.overhead_share"),
    "trace.overhead_s": ("s", None),
    "model_err_latency_pp": ("pp", None),
    "model_err_energy_pp": ("pp", None),
}

COLUMNS = {
    "run_id": ("-", "run start time and process id"),
    "workload": ("-", "--workload"),
    "input": ("-", "--input (train or ref)"),
    "seed": ("-", "--seed; permutes cell order only"),
    "trace": ("-", "--trace; 1 = per-layer metrics from a traced pass"),
    "passes": ("count", "untraced cold passes behind the medians"),
    "metric": ("-", "metric name"),
    "value": ("per unit", "median over passes (end-to-end) or the traced "
              "pass (per-layer)"),
    "unit": ("-", "unit of value"),
    "source": ("-", "how the value was measured"),
    "digest": ("-", "SHA-256 of the result rows without t_*, src_* and "
               "trace_id columns; equal on every run of one commit"),
}


def child_env(checkout: str, scratch: str) -> Dict[str, str]:
    """The child's environment: program defaults, state in ``scratch``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # One string-hash order for every pass: rows do not depend on it,
    # but dict and set layouts, and so timings, do.
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = os.path.join(scratch, "simcache")
    env["REPRO_NATIVE_DIR"] = os.path.join(scratch, "native")
    env["REPRO_ANALYTICS_DIR"] = os.path.join(scratch, "analytics")
    return env


def run_child(
    checkout: str, scratch: str, workload: str, input_name: str, seed: int,
    trace: bool = False, setup_only: bool = False,
) -> Dict[str, object]:
    """One fresh child process with an empty state directory."""
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    spec = {
        "workload": workload, "input": input_name, "seed": seed,
        "trace": trace, "setup_only": setup_only,
        "spawned": time.monotonic(),
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=checkout,
        env=child_env(checkout, scratch),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(
            f"{workload} child exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_table(
    out_dir: str, rows: List[Dict[str, object]]
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "run_table.csv")
    fresh = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(COLUMNS))
        if fresh:
            writer.writeheader()
        writer.writerows(rows)
    metrics = {
        name: {"unit": unit, "source": source}
        for name, (unit, source) in END_TO_END.items()
    }
    metrics.update(
        {
            name: {"unit": unit, "source": f"traced pass, ledger {key}"
                   if key else "traced run"}
            for name, (unit, key) in PER_LAYER.items()
        }
    )
    with open(os.path.join(out_dir, "columns.json"), "w") as fh:
        json.dump(
            {
                "columns": {
                    name: {"unit": unit, "source": source}
                    for name, (unit, source) in COLUMNS.items()
                },
                "metrics": metrics,
            },
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input", choices=INPUT_SETS, default="train")
    parser.add_argument("--out", default=".perfbench",
                        help="directory for run_table.csv and columns.json")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "repro",
                                       "__init__.py")):
        sys.stderr.write(
            "perfbench: no program source at ./src/repro; run from the "
            "root of a checkout\n"
        )
        return 2
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    scratch = os.path.join(checkout, ".perfbench", f"tmp-{os.getpid()}")
    common = (checkout, scratch, args.workload, args.input, args.seed)

    passes: List[Dict[str, object]] = []
    setups: List[float] = []
    started = time.monotonic()
    # Start another pass only while it is expected to fit in --seconds.
    while not passes or (
        (time.monotonic() - started) * (len(passes) + 1) / len(passes)
        <= args.seconds
    ):
        result = run_child(*common)
        passes.append(result)
        setups.append(result["setup_s"])
        print(f"pass {len(passes)}: setup_s={result['setup_s']:.4f} "
              f"wall_s={result['wall_s']:.4f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} "
              f"failed={result['failed']}/{result['attempted']}")
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(*common, setup_only=True)["setup_s"])
    traced = run_child(*common, trace=True) if args.trace else None

    runs = passes + ([traced] if traced else [])
    digests = {r["digest"] for r in runs}
    problems = []
    if len(digests) != 1:
        problems.append(f"rows digest differs between passes: {digests}")
    if traced:
        problems += check_activity(args.workload, traced["ledger"])

    untraced_wall = statistics.median(r["prep_s"] + r["wall_s"]
                                      for r in passes)
    if traced:
        ledger = traced["ledger"]
        metrics = {}
        for name, (unit, key) in PER_LAYER.items():
            value = ledger.get(key, 0.0) if key else traced.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"]["value"] = (
            ledger["traced.wall_s"] - untraced_wall
        )
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {
                "value": statistics.median(r["wall_s"] for r in passes),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in passes),
                "unit": "MB",
            },
        }

    digest = sorted(digests)[0]
    print(f"rows digest: {digest} ({passes[0]['rows']} rows)")
    if "model_err_latency_pp" in passes[0]:
        print(f"model_err_latency_pp={passes[0]['model_err_latency_pp']:.4f} "
              f"model_err_energy_pp={passes[0]['model_err_energy_pp']:.4f}")
    for problem in problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    write_table(
        args.out,
        [
            {
                "run_id": run_id, "workload": args.workload,
                "input": args.input, "seed": args.seed,
                "trace": args.trace, "passes": len(passes),
                "metric": name, "value": m["value"], "unit": m["unit"],
                "source": END_TO_END[name][1] if name in END_TO_END
                else "traced pass",
                "digest": digest,
            }
            for name, m in metrics.items()
        ],
    )
    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
