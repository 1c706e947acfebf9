"""The limitknow benchmark: one command that generates seeded inputs, runs a
workload in its own process, checks every answer, and prints the metrics.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 35 --trace 0

Workloads: ``cli-small`` (cold CLI calls on 8-11-world models),
``cli-large`` (cold CLI calls on 24-40-world models, plus the operations
that hit the 20-world enumeration limit), ``laws-warm`` (law batteries in
one process with warm operator caches). See ``bench/README.md``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

import gen
import verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-small", "cli-large", "laws-warm")

# Set-up is measured in this many processes per run and reported as the
# median CPU time: half start before the timed phase, half after it, and one
# is the process that runs the timed phase, so slow spells of the machine
# weigh less.
SETUP_RUNS = 7

# The tail percentile per workload. Each keeps at least ten successful
# samples beyond it in a 35-second run, even on a machine half again as slow,
# and falls near the middle of the workload's costliest class of operations
# (3 of 131 in cli-small, 7 of 58 in cli-large, 1 of 25 in laws-warm): a
# higher one would read only that class's slowest spells. See README.md.
TAIL_PERCENTILE = {"cli-small": 99, "cli-large": 95, "laws-warm": 98}

WORKER_TIMEOUT_S = 150


def spawn(plan_path, result_path, seconds, trace, setup_only):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path,
            "--result", result_path, "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def run(workload, seed, seconds, trace, tiny=False):
    out_dir = os.path.join(HERE, "out", f"{workload}-{seed}-{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if workload == "laws-warm":
        ops = gen.make_laws(seed, out_dir, tiny)
        plan = {"kind": "laws", "ops": [{k: op[k] for k in ("model", "trials", "seed")} for op in ops]}
        frames = None
    else:
        ops, frames = gen.make_cli(workload, seed, out_dir, tiny)
        plan = {"kind": "cli", "ops": [op["argv"] for op in ops]}
    plan_path = os.path.join(out_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    result_path = os.path.join(out_dir, "result.json")

    extra = 0 if trace else (SETUP_RUNS - 1) // 2
    setup_path = os.path.join(out_dir, "setup.json")
    setups = [spawn(plan_path, setup_path, seconds, trace, True)["setup_s"] for _ in range(extra)]
    res = spawn(plan_path, result_path, seconds, trace, False)
    setups.append(res["setup_s"])
    setups += [spawn(plan_path, setup_path, seconds, trace, True)["setup_s"] for _ in range(extra)]

    failing, problems = verify.check_pass(ops, res["outputs"], frames)
    if res["mismatches"]:
        problems.append(f"{res['mismatches']} answers changed between passes")
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    passes = len(res["latencies"]) + len(res["pass_times"]["traced"])
    attempted = len(ops) * passes
    failed = len(failing) * passes

    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(res["layers"].items())}
    else:
        ok_lat = [1000 * lat[i] for lat in res["latencies"] for i in range(len(ops)) if i not in failing]
        pass_s = statistics.median(res["pass_times"]["plain"])
        pct = TAIL_PERCENTILE[workload]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "latency_p50_ms": {"value": statistics.median(ok_lat), "unit": "ms"},
            "latency_tail_ms": {"value": percentile(ok_lat, pct), "unit": "ms"},
            "throughput_ops_s": {"value": (len(ops) - len(failing)) / pass_s, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        beyond = len(ok_lat) - math.ceil(len(ok_lat) * pct / 100)
        print(f"{workload}: {len(ok_lat)} successful samples, tail is p{pct} "
              f"({beyond} beyond it), "
              f"{len(res['latencies'])} passes of {len(ops)} operations, "
              f"reference job {1000 * res['reference_s']:.2f} ms", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # subprocess.run kills and reaps the workload process on any exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "limitknow", "cli.py")):
        print(f"error: no limitknow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        sys.exit(2)
    summary = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
