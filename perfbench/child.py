"""Runs one workload in this process and prints its result as the last
line of standard output, as JSON.

Started by run.py, one process per run, with `src/` on the import path:

    python3 perfbench/child.py --workload exact --seed 1 --seconds 28 \
        --trace 0 --workdir .bench_build/work/exact [--toy]

Untraced (--trace 0), it repeats passes of the workload while the next
pass, judged by the last one, still ends within --seconds, and reports
each pass's wall time, in total and per command kind, and rescaled to
reference machine speed (probe.py).  Traced (--trace 1), it alternates
untraced and traced passes and reports the per-layer figures of the
traced ones, plus the difference between the two kinds of pass as the
tracing overhead.  Every pass is checked by the workload's oracle
outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

from probe import Clock
from spans import Tracer, layer_metrics
from workloads import KINDS, WORKLOADS

PROBE_EVERY_S = 1.0


def run_steps(steps, cli_main, clock, tracer=None) -> float:
    """Runs a pass; returns its wall time rescaled to reference speed,
    probing the machine after every PROBE_EVERY_S or more of commands
    and at the end."""
    ref_s = stretch = 0.0
    for step in steps.values():
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    step.rc = cli_main(step.argv)
                else:
                    step.rc = tracer.call(f"cli.{step.kind}", cli_main, (step.argv,), {})
            except SystemExit as e:  # argparse rejects bad usage this way
                step.rc = e.code
        step.seconds = time.perf_counter() - t0
        step.out, step.err = out.getvalue(), err.getvalue()
        stretch += step.seconds
        if stretch >= PROBE_EVERY_S:
            ref_s += clock.rescale(stretch)
            stretch = 0.0
    return ref_s + (clock.rescale(stretch) if stretch else 0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--toy", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)

    import numpy
    from sperner.cli import main as cli_main
    from sperner.search import BACKEND

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.toy, args.workdir)
    tracer = Tracer() if args.trace else None
    pass_s: list[float] = []  # untraced passes, wall time
    pass_ref_s: list[float] = []  # the same, at reference speed
    kind_s: dict[str, list[float]] = {k: [] for k in KINDS}
    traced: list[dict] = []
    traced_ref_s: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    clock = Clock()
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(pass_s) > len(traced)
        steps = workload.steps()
        pass_start = time.perf_counter()
        if on:
            tracer.install()
            first = len(tracer.spans)
        try:
            ref_s = run_steps(steps, cli_main, clock, tracer if on else None)
        finally:
            if on:
                tracer.uninstall()
        wall = sum(s.seconds for s in steps.values())
        if on:
            traced.append(layer_metrics(tracer.spans[first:]))
            traced_ref_s.append(ref_s)
        else:
            pass_s.append(wall)
            pass_ref_s.append(ref_s)
            for k in KINDS:
                kind_s[k].append(sum(s.seconds for s in steps.values() if s.kind == k))
        workload.check(steps)
        for label, s in steps.items():
            attempted += 1
            if s.problems:
                failed += 1
                problems.extend(f"{label}: {p}" for p in s.problems)
        # stop before a pass that would end past the deadline; a traced
        # run needs one pass of each kind
        now = time.perf_counter()
        done = now - start + (now - pass_start) > args.seconds
        if done and (tracer is None or traced):
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "pass_s": pass_s,
        "pass_ref_s": pass_ref_s,
        "probe_s": clock.probes,
        "kind_s": kind_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stamp": {"backend": BACKEND, "numpy": numpy.__version__, **workload.stamp},
    }
    if tracer is not None:
        # counts are equal in every traced pass; median_low keeps them whole
        layers = {k: statistics.median_low([t[k] for t in traced]) for k in traced[0]}
        for k in KINDS:
            layers[f"cmd.{k}_s"] = statistics.median(kind_s[k])
        layers["trace.overhead_s"] = (statistics.median(traced_ref_s)
                                      - statistics.median(pass_ref_s))
        layers["machine.probe_s"] = statistics.median(clock.probes)
        result["layers"] = layers
        spans_file = os.path.join(args.workdir, "spans.jsonl")
        with open(spans_file, "w", encoding="utf-8") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps(sp.__dict__) + "\n")
        result["spans_file"] = spans_file
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
