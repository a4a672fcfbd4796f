"""Entry point of the benchmark for the `sperner` CLI.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout.  It builds the package in place
(`setup.py build_ext --inplace`; without Cython that is a no-op and the
pure kernels run), checks pure-vs-compiled kernel parity when the
extension imports, runs the workload in one child process (child.py),
and times fresh interpreters up to `import sperner.cli` before and after
it.  The last line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it stamps the machine, the
backend and the build.  A fuller report, and the spans of a traced run,
go under .bench_build/.

Workloads: exact, table, anneal, witness (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
LIMIT_S = 170  # every run must end within 180 s
SETUP_REPS = 16  # half before the workload process, half after

sys.path.insert(0, str(BENCH))
from probe import Clock  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(argv, env, timeout, **kw):
    return subprocess.run(argv, cwd=ROOT, env=env, timeout=timeout,
                          capture_output=True, text=True, **kw)


def build(env) -> dict:
    """The repository's own build, in place.  A failed build leaves the
    pure kernels in use, which the stamp then shows."""
    t0 = time.perf_counter()
    p = _run([sys.executable, "setup.py", "-q", "build_ext", "--inplace",
              "--build-temp", str(OUT / "build-temp")], env, 900)
    return {"rc": p.returncode, "seconds": round(time.perf_counter() - t0, 3),
            "tail": p.stderr.strip().splitlines()[-1:] if p.returncode else []}


def setup_samples(env, reps: int) -> list[float]:
    """Wall times of fresh interpreters up to `import sperner.cli` with
    the kernel backend chosen, each rescaled to reference speed by the
    probes before and after it (probe.py)."""
    argv = [sys.executable, "-c", "import sperner.cli, sperner.search"]
    clock = Clock()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _run(argv, env, 60, check=True)
        times.append(clock.rescale(time.perf_counter() - t0))
    return times


def child_json(argv, env, timeout) -> dict:
    """Run a benchmark process and parse the JSON of its last output line."""
    p = _run([sys.executable, *argv], env, timeout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{argv[0]} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="self-test sizes (selftest.py); not for measurement")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "sperner" / "cli.py").is_file():
        print(f"error: no sperner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPERNER_BACKEND", None)
    env.pop("SPERNER_THREADS", None)

    stamp = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "build": build(env),
    }
    try:
        parity = child_json([str(BENCH / "parity.py")], env, LIMIT_S)
        if not args.trace:
            setup_samples(env, 1)  # warm-up; writes the bytecode caches
            setup = setup_samples(env, SETUP_REPS // 2)
        workdir = OUT / "work" / args.workload
        remaining = LIMIT_S - (time.perf_counter() - started)
        child = child_json([str(BENCH / "child.py"),
                            "--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--workdir", str(workdir)] + (["--toy"] if args.toy else []),
                           env, remaining)
        if not args.trace:
            setup += setup_samples(env, SETUP_REPS - SETUP_REPS // 2)
    except subprocess.TimeoutExpired as e:
        print(f"error: {e.cmd[1]} ran past the time limit", file=sys.stderr)
        return 1
    except (subprocess.CalledProcessError, RuntimeError, ValueError) as e:
        print(f"error: a benchmark process failed: {e}", file=sys.stderr)
        return 1

    stamp.update(child["stamp"], parity=parity["status"])
    attempted = child["attempted"] + parity["checked"]
    failed = child["failed"] + len(parity["mismatches"])
    if args.trace:
        metrics = {k: {"value": child["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setup),
                  "pass_s": statistics.median(child["pass_ref_s"]),
                  "peak_rss_mb": child["peak_rss_mb"],
                  "ok_ratio": 1 - failed / attempted}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "stamp": stamp,
              **{k: child[k] for k in ("pass_s", "pass_ref_s", "probe_s", "kind_s")},
              "problems": child["problems"] + parity["mismatches"],
              "spans_file": child.get("spans_file"), **result}
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
