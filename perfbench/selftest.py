"""Self-test of the benchmark harness at toy sizes (exact n=4, table
2..3, a few annealing steps, witness n=10).  Under a minute:

    python3 perfbench/selftest.py

For every workload it makes one plain and two traced runs.  It checks
that the last output line has exactly the keys correct, attempted,
failed and metrics, that every metric BENCHMARK.json names is there
with its unit, that no command failed, that the traced run's spans link
each layer to a parent, and that the work counts repeat exactly.  Last,
it checks that the benchmark refuses to run, without a result, where
only BENCHMARK.json and the benchmark's own files exist.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# the layers each toy workload must reach, besides the CLI
REACHES = {
    "exact": ("kernel.exact_search", "engine._cmp_forward", "lattice.", "constructions.",
              "witness."),
    "table": ("kernel.comp_scan", "engine._upset_bits", "engine._reflect_bits",
              "lattice.", "constructions.", "witness."),
    "anneal": ("kernel.anneal_chain", "engine._variants", "lattice.canonical_key",
               "constructions.", "witness."),
    "witness": ("kernel.exact_search", "lattice.from_masks", "lattice.is_cross_sperner",
                "constructions.", "witness."),
}
COUNTS = ("kernel.exact_nodes", "kernel.comp_scan_pairs", "kernel.anneal_steps",
          "witness.bytes")


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--toy"]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if p.returncode != 0:
        fail(f"{workload} trace={trace} exited {p.returncode}: {p.stderr[-1000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, res: dict) -> None:
    where = f"{workload} trace={trace}"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        fail(f"{where}: {res['failed']} of {res['attempted']} commands failed")
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = res["metrics"]
    names = {m["name"] for m in want}
    if set(got) != names:
        fail(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ names)}")
    for m in want:
        v = got[m["name"]]
        if v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)):
            fail(f"{where}: {m['name']} is {v}, want a number in {m['unit']}")
    if not trace and got["ok_ratio"]["value"] != 1:
        fail(f"{where}: fail ratio {1 - got['ok_ratio']['value']}")


def check_spans(workload: str) -> None:
    spans = [json.loads(line) for line in
             (ROOT / ".bench_build" / "work" / workload / "spans.jsonl").open()]
    ids = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"].startswith("cli."):
            if s["parent"] is not None:
                fail(f"{workload}: command span {s['name']} has a parent")
        elif s["parent"] not in ids:
            fail(f"{workload}: span {s['name']} has no parent span")
        elif not ids[s["parent"]]["start"] <= s["start"] <= s["end"] <= ids[s["parent"]]["end"]:
            fail(f"{workload}: span {s['name']} lies outside its parent")
    for prefix in REACHES[workload]:
        if not any(s["name"].startswith(prefix) for s in spans):
            fail(f"{workload}: no span for {prefix}")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, str(bare / SPEC["command"][1]), "--workload", "exact",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if p.returncode == 0 or '"correct"' in p.stdout:
        fail("the benchmark ran without the program's sources")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0, bench(workload, 0))
        first = bench(workload, 1)
        check_result(workload, 1, first)
        check_spans(workload)
        again = bench(workload, 1)
        for key in COUNTS:
            a, b = first["metrics"][key]["value"], again["metrics"][key]["value"]
            if a != b:
                fail(f"{workload}: count {key} is {a} in one traced run, {b} in another")
        print(f"selftest {workload}: ok")
    check_bare_directory()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
