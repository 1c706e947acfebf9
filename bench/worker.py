"""One workload process: set up, replay whole passes of the plan for the
given time in a closed loop with one client, and write what it saw.

    python3 bench/worker.py --plan PLAN --result OUT --seconds S
                            [--trace 0|1] [--setup-only]

Set-up time, latencies and pass times are CPU time of this process
(``time.process_time``, user and system, set-up counted from the start of
the process), scaled to the reference speed: each is multiplied by
``REF_NOMINAL_S`` over the CPU time that ``reference()`` took at that point
of the run. On a few cores of a shared host wall time also counts the
spells in which other processes hold the core, and the CPU itself runs the
same code up to nearly twice as fast in some spells as in others; a fixed job
of the same kind of work, timed in the same process between operations,
slows and speeds up with it. The run length is wall time. With
``--trace 1`` untraced and traced passes alternate, so the tracing overhead
comes from the same process and inputs.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# Traced passes stop once this many spans are held; untraced passes fill
# the rest of the run.
SPAN_CAP = 300_000

# The reference job is timed before the first operation, then between
# operations whenever this much CPU time has passed, and after the last.
REF_EVERY_S = 0.25

# CPU time of one reference() on the reference machine in its usual state;
# scaled times read as seconds on that machine.
REF_NOMINAL_S = 0.014


def reference():
    """A fixed job of frozenset and dict work, the kind of work the program
    does, that does not use the program. Returns its CPU time in seconds.

    The collector is off while it runs, so that a collection of the
    program's objects is not charged to it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t = process_time()
    seen = {}
    for i in range(3000):
        a = frozenset(range(i % 13, i % 13 + 8))
        b = frozenset(range(i % 7, i % 7 + 10))
        c = a & b
        seen[c] = seen.get(c, 0) + len(a | b) + sum(1 for x in c if x % 2)
    t = process_time() - t
    if gc_was_on:
        gc.enable()
    return t


def scale(latencies, samples):
    """Scale per-operation CPU times, in the order they ran, to the reference
    speed. ``samples`` are ``(operations run before it, reference CPU time)``
    pairs in order, the first taken before operation 0 and the last after
    every operation; each operation uses the mean of the sample just before
    it and the sample just after it."""
    out, j = [], 0
    for k, lat in enumerate(latencies):
        while samples[j + 1][0] <= k:
            j += 1
        out.append(lat * REF_NOMINAL_S * 2 / (samples[j][1] + samples[j + 1][1]))
    return out


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the benchmark reports it as an incorrect answer
        return ["exception", out.getvalue(), traceback.format_exc()]
    return [code, out.getvalue(), err.getvalue()]


def run_battery(laws, model, op):
    try:
        return laws.law_battery(model, op["trials"], op["seed"])
    except Exception:  # the benchmark reports it as an incorrect answer
        return traceback.format_exc()


def battery_summary(report):
    if isinstance(report, str):
        return report
    return {
        "ok": report.ok,
        "results": [[r.name, r.trials, r.informative, len(r.failures)] for r in report.results],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # ---- set-up: what a user pays before the first answer
    from limitknow import cli, laws, logic  # the package imports every layer

    with open(args.plan) as fh:
        plan = json.load(fh)
    ops = plan["ops"]
    if plan["kind"] == "cli":
        def run(op):
            return run_cli(cli, op)

        def summarize(answer):
            return answer
    else:
        models = {op["model"]: logic.Model.from_file(op["model"]) for op in ops}

        def run(op):
            return run_battery(laws, models[op["model"]], op)

        summarize = battery_summary
        for op in ops:  # warm the operator caches
            run(op)
    setup_s = process_time()
    speed = statistics.median(reference() for _ in range(3))
    setup_s *= REF_NOMINAL_S / speed
    if args.setup_only:
        _dump(args.result, {"setup_s": setup_s})
        return

    # ---- timed phase: whole passes until the time is up
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    first, mismatches, traced_ops = None, 0, 0
    passes, raw = [], []  # whether each pass was traced; every latency in order
    samples = [(0, reference())]
    last_sample = process_time()
    start = perf_counter()
    while True:
        traced = (tracer is not None and len(tracer) < SPAN_CAP
                  and passes.count(False) > passes.count(True))
        if traced:
            tracer.install()
        outputs = []
        for op in ops:
            if process_time() - last_sample >= REF_EVERY_S:
                samples.append((len(raw), reference()))
                last_sample = process_time()
            if traced:
                tracer.op = traced_ops
                traced_ops += 1
            t = process_time()
            res = run(op)
            raw.append(process_time() - t)
            outputs.append(res)
        passes.append(traced)
        if traced:
            tracer.uninstall()
        outputs = [summarize(r) for r in outputs]
        if first is None:
            first = outputs
        else:
            mismatches += sum(a != b for a, b in zip(first, outputs))
        done = perf_counter() - start >= args.seconds
        if done and (tracer is None or True in passes):
            break
    samples.append((len(raw), reference()))

    scaled = scale(raw, samples)
    by_pass = [scaled[i * len(ops):(i + 1) * len(ops)] for i in range(len(passes))]
    latencies = [lat for lat, traced in zip(by_pass, passes) if not traced]
    pass_times = {"plain": [sum(lat) for lat in latencies],
                  "traced": [sum(lat) for lat, traced in zip(by_pass, passes) if traced]}
    result = {
        "setup_s": setup_s,
        "outputs": first,
        "mismatches": mismatches,
        "latencies": latencies,
        "pass_times": pass_times,
        "reference_s": statistics.median(t for _, t in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        # Each traced pass is paired with the untraced pass just before it.
        traced_s = sum(pass_times["traced"])
        plain_s = sum(pass_times["plain"][: len(pass_times["traced"])])
        result["layers"] = tracer.summary(traced_ops, 100 * (traced_s / plain_s - 1))
        tracer.write(os.path.join(os.path.dirname(args.result), "spans.jsonl"))
    _dump(args.result, result)


def _dump(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    main()
