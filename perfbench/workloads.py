"""The four workloads: the CLI commands of one pass, and the oracles that
check their output.

In each workload one command kind carries the load.  Around it run the
light commands a user would run to check that output: build the
construction floor, verify the written witnesses, compare against the
closed-form bounds or the comparability table.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

KINDS = ("search", "table", "construct", "verify")

# The exact optima frozen by PI_EXACT / SIGMA_EXACT in tests/test_search.py.
PI_EXACT = {(4, 2): 16, (4, 3): 9, (4, 4): 4, (5, 2): 64, (5, 3): 81, (5, 4): 108}
SIGMA_EXACT = {(4, 2): 10, (4, 3): 8, (4, 4): 7, (5, 2): 22, (5, 3): 18, (5, 4): 16}

# Theorem upper bounds from `table bounds`, by search measure.  The
# conjectured bounds are left out: one of them is known to be false.
UPPER_BOUNDS = {
    "pi": ("product-upper", "pair-product-upper"),
    "sigma": ("sum-upper", "pair-sum-upper"),
}
MEASURE_FIELD = {"pi": "product", "sigma": "sum"}


@dataclass
class Step:
    """One CLI command of a pass, with what it printed and what failed."""

    kind: str
    argv: list[str]
    rc: int | None = None
    out: str = ""
    err: str = ""
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def expect_rc(self) -> bool:
        """The command exited 0; records a failure otherwise."""
        if self.rc != 0:
            tail = self.err.strip().splitlines()[-1:] or [""]
            self.fail(f"exit code {self.rc} {tail[0]}".rstrip())
            return False
        return True

    def fields(self) -> dict[str, str]:
        """The key=value tokens of the first output line."""
        line = self.out.splitlines()[0] if self.out else ""
        return dict(t.split("=", 1) for t in line.split() if "=" in t)

    def int_field(self, key: str) -> int | None:
        try:
            return int(self.fields()[key])
        except (KeyError, ValueError):
            self.fail(f"no integer {key}= in output {self.out[:120]!r}")
            return None


def _number(text: str) -> Fraction | float:
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


class Workload:
    """A fixed command list, rebuilt for each pass, plus its oracle."""

    name = ""

    def __init__(self, seed: int, toy: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.stamp: dict = {}

    def file(self, stem: str) -> str:
        return os.path.join(self.workdir, stem + ".json")

    def steps(self) -> dict[str, Step]:
        raise NotImplementedError

    def check(self, steps: dict[str, Step]) -> None:
        raise NotImplementedError

    # -- shared oracle pieces --------------------------------------------

    def construct(self, mode: str, n: int, k: int | None, stem: str) -> Step:
        argv = ["construct", mode, "--n", str(n)]
        if k is not None:
            argv += ["--k", str(k)]
        return Step("construct", argv + ["--out", self.file(stem)])

    @staticmethod
    def wrote(step: Step) -> dict[str, int]:
        """Measures printed by `construct --out`: "wrote P: ... sum=S product=P"."""
        if not step.expect_rc():
            return {}
        got = {}
        for key in ("sum", "product"):
            v = step.int_field(key)
            if v is not None:
                got[key] = v
        return got

    @staticmethod
    def check_verify(step: Step) -> None:
        if not step.expect_rc():
            return
        files = step.argv[1:]
        ok = {line.split(":", 1)[0][3:] for line in step.out.splitlines()
              if line.startswith("OK ")}
        for path in files:
            if path not in ok:
                step.fail(f"verify did not report OK for {path}")

    @staticmethod
    def check_upper(step: Step, measure: str, n: int, k: int, value: int) -> None:
        """`step` printed `table bounds --format json`; no applicable
        theorem upper bound at (n, k) may lie below `value`.  Some (n, k)
        have none: sum-upper needs 2^n >= (k-1)(1+sqrt(k-1))^2."""
        if step.rc != 0:
            return  # reported once by the caller
        try:
            rows = json.loads(step.out)
        except ValueError:
            step.fail("table bounds did not print JSON")
            return
        for r in rows:
            if (r["n"], r["k"]) != (n, k) or not r["applicable"]:
                continue
            if r["bound_id"] not in UPPER_BOUNDS[measure]:
                continue
            bound = _number(r["value"])
            if value > bound * (1 + Fraction(1, 10**12)):
                step.fail(f"{measure}({n},{k})={value} exceeds {r['bound_id']}={r['value']}")


class Exact(Workload):
    """Six branch-and-bound proofs at n=5 (n=4 in the self-test)."""

    name = "exact"

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.n = 4 if toy else 5

    def steps(self):
        n = self.n
        s = {}
        for k in (2, 3, 4):
            for measure in ("pi", "sigma"):
                build = MEASURE_FIELD[measure]
                s[f"floor {measure} {k}"] = self.construct(build, n, k, f"floor-{build}-{k}")
        for k in (2, 3, 4):
            for measure in ("pi", "sigma"):
                s[f"proof {measure} {k}"] = Step("search", [
                    "search", measure, "--n", str(n), "--k", str(k),
                    "--out", self.file(f"proof-{measure}-{k}")])
        files = [st.argv[-1] for st in s.values()]
        s["verify"] = Step("verify", ["verify", *files])
        s["bounds"] = Step("table", ["table", "bounds", "--n", str(n), "--k", "2..4",
                                     "--format", "json"])
        return s

    def check(self, s):
        n = self.n
        bounds = s["bounds"]
        bounds.expect_rc()
        for k in (2, 3, 4):
            for measure, frozen in (("pi", PI_EXACT), ("sigma", SIGMA_EXACT)):
                proof = s[f"proof {measure} {k}"]
                floor = self.wrote(s[f"floor {measure} {k}"]).get(MEASURE_FIELD[measure])
                if not proof.expect_rc():
                    continue
                f = proof.fields()
                value = proof.int_field("value")
                if f.get("status") != "proved":
                    proof.fail(f"status={f.get('status')}, expected proved")
                if value is None:
                    continue
                if value != frozen[(n, k)]:
                    proof.fail(f"value {value} != frozen optimum {frozen[(n, k)]}")
                if floor is not None and floor > value:
                    proof.fail(f"value {value} below the construction floor {floor}")
                self.check_upper(bounds, measure, n, k, value)
        self.check_verify(s["verify"])


class Table(Workload):
    """`table comp --n 2..5` (2..3 in the self-test), cross-checked
    against exact pair searches: a cross-Sperner pair (A, B) with |A| = m
    has B inside the sets comparable to no member of A, so
    pi(n, 2) = max_m m (2^n - c(m)) and sigma(n, 2) = max_m m + 2^n - c(m)
    over the m with 2^n - c(m) > 0."""

    name = "table"

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.top = 3 if toy else 5
        # exact pi(5, 2) alone takes longer than the whole table; the pair
        # cross-check stops one size below
        self.pair_ns = range(2, self.top)

    def steps(self):
        s = {"comp": Step("table", ["table", "comp", "--n", f"2..{self.top}"])}
        for n in self.pair_ns:
            for measure in ("pi", "sigma"):
                s[f"pair {measure} {n}"] = Step("search", [
                    "search", measure, "--n", str(n), "--k", "2",
                    "--out", self.file(f"pair-{measure}-{n}")])
                mode = "pair-product" if measure == "pi" else "pair-sum"
                s[f"build {measure} {n}"] = self.construct(mode, n, None, f"{mode}-{n}")
        files = [st.argv[-1] for st in s.values() if "--out" in st.argv]
        s["verify"] = Step("verify", ["verify", *files])
        return s

    def check(self, s):
        from sperner.lattice import Family, comparability_number

        comp = s["comp"]
        rows: dict[int, list[tuple[int, int]]] = {}
        if comp.expect_rc():
            reader = csv.DictReader(io.StringIO(comp.out))
            for r in reader:
                n, m, c, lower = (int(r[key]) for key in ("n", "m", "c_exact", "lower_bound"))
                masks = [int(x) for x in r["witness_masks"].split()]
                fam = Family.from_masks(n, masks)
                if fam.size != m:
                    comp.fail(f"n={n} m={m}: witness has {fam.size} members")
                recount = comparability_number(fam)[0]
                if recount != c:
                    comp.fail(f"n={n} m={m}: witness counts {recount}, table says {c}")
                if c < lower:
                    comp.fail(f"n={n} m={m}: c_exact {c} below lower bound {lower}")
                if (r["equality"] == "true") != (c == lower):
                    comp.fail(f"n={n} m={m}: equality column disagrees")
                rows.setdefault(n, []).append((m, c))
            for n in range(2, self.top + 1):
                if [m for m, _ in rows.get(n, [])] != list(range(1, (1 << n) + 1)):
                    comp.fail(f"n={n}: rows are not m = 1..2^{n}")
        for n in self.pair_ns:
            free = [(m, (1 << n) - c) for m, c in rows.get(n, []) if (1 << n) - c > 0]
            want = {"pi": max((m * b for m, b in free), default=None),
                    "sigma": max((m + b for m, b in free), default=None)}
            for measure in ("pi", "sigma"):
                pair = s[f"pair {measure} {n}"]
                built = self.wrote(s[f"build {measure} {n}"]).get(MEASURE_FIELD[measure])
                if not pair.expect_rc():
                    continue
                value = pair.int_field("value")
                if pair.fields().get("status") != "proved":
                    pair.fail("pair search did not prove its value")
                if value is None or want[measure] is None:
                    continue
                if value != want[measure]:
                    pair.fail(f"{measure}({n},2)={value}, the table implies {want[measure]}")
                if built is not None and built > value:
                    pair.fail(f"pair construction {built} beats the proven {value}")
        self.check_verify(s["verify"])


class Anneal(Workload):
    """Heuristic product search on two threads at (6,3) and (10,3).  The
    only workload whose commands take the benchmark seed."""

    name = "anneal"
    FULL = ((6, 4000), (10, 300))  # (n, steps per chain)
    TOY = ((6, 40), (10, 4))

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.sizes = self.TOY if toy else self.FULL
        self.values: dict[int, int] = {}
        self.stamp["anneal_kernel"] = {}

    def steps(self):
        s = {}
        for n, steps in self.sizes:
            s[f"floor {n}"] = self.construct("product", n, 3, f"floor-{n}")
            s[f"anneal {n}"] = Step("search", [
                "search", "pi", "--mode", "heuristic", "--n", str(n), "--k", "3",
                "--threads", "2", "--seed", str(self.seed),
                "--budget-nodes", str(steps), "--out", self.file(f"anneal-{n}")])
            s[f"bounds {n}"] = Step("table", ["table", "bounds", "--n", str(n),
                                              "--k", "3", "--format", "json"])
        files = [st.argv[-1] for st in s.values() if "--out" in st.argv]
        s["verify"] = Step("verify", ["verify", *files])
        return s

    def check(self, s):
        for n, steps in self.sizes:
            run, bounds = s[f"anneal {n}"], s[f"bounds {n}"]
            floor = self.wrote(s[f"floor {n}"]).get("product")
            bounds.expect_rc()
            if not run.expect_rc():
                continue
            f = run.fields()
            self.stamp["anneal_kernel"][f"n={n} k=3"] = f.get("backend")
            value, nodes = run.int_field("value"), run.int_field("nodes")
            if nodes is not None and nodes != 2 * steps:
                run.fail(f"ran {nodes} steps, expected 2 chains x {steps}")
            if value is None:
                continue
            if floor is not None and value < floor:
                run.fail(f"value {value} below the construction floor {floor}")
            if self.values.setdefault(n, value) != value:
                run.fail(f"value {value} differs from an earlier pass ({self.values[n]}) "
                         "with the same seed and threads")
            self.check_upper(bounds, "pi", n, 3, value)
        self.check_verify(s["verify"])


class Witness(Workload):
    """Three witness files at n=18 (n=10 in the self-test), read back by
    one `verify`, beside a small exact search whose witness is verified
    with them."""

    name = "witness"
    BUILDS = (("product", 3), ("sum", 2), ("prefix", 4))

    def __init__(self, seed, toy, workdir):
        super().__init__(seed, toy, workdir)
        self.n = 10 if toy else 18

    def steps(self):
        n = self.n
        s = {}
        for mode, k in self.BUILDS:
            s[mode] = self.construct(mode, n, k, f"{mode}-{n}")
        s["search"] = Step("search", ["search", "sigma", "--n", "5", "--k", "2",
                                      "--out", self.file("sigma-5-2")])
        s["verify"] = Step("verify", ["verify", *(st.argv[-1] for st in s.values())])
        s["bounds"] = Step("table", ["table", "bounds", "--n", str(n), "--k", "2..4",
                                     "--format", "json"])
        return s

    def check(self, s):
        n = self.n
        bounds = s["bounds"]
        bounds.expect_rc()
        for mode, k in self.BUILDS:
            got = self.wrote(s[mode])
            if "sum" in got:
                self.check_upper(bounds, "sigma", n, k, got["sum"])
            if "product" in got:
                self.check_upper(bounds, "pi", n, k, got["product"])
        search = s["search"]
        if search.expect_rc() and search.int_field("value") != SIGMA_EXACT[(5, 2)]:
            search.fail(f"sigma(5,2) is not the frozen {SIGMA_EXACT[(5, 2)]}")
        self.check_verify(s["verify"])


WORKLOADS = {w.name: w for w in (Exact, Table, Anneal, Witness)}
