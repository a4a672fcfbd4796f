"""Spans around the public entry points of each layer, recorded from the
benchmark's side by swapping the names the program resolves at call time.

Only names looked up at call time are wrapped:

- the kernel functions, as attributes of each kernel module object;
- the engine entry points, builders and witness functions, as globals
  of `sperner.cli`;
- engine helpers, as globals of `sperner.search.engine`;
- `is_cross_sperner`, as a global of `engine` and of `witness`;
- `Family.from_masks` and `FamilyTuple.canonical_key`, on their classes.

Per-step calls inside a kernel (such as `_closure_bits`) are not wrapped.
Builders that the engine calls on its own (the construction floor, the
annealer's start pool) stay inside the engine helper that calls them.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    root: int  # id of the command span this one belongs to
    thread: int
    start: float
    end: float
    count: int | None = None
    module: str | None = None


def _third_result(args, out):
    # exact_search returns (value, labels, nodes), anneal_chain (value, labels, steps)
    return out[2]


def _pairs(args, out):
    return len(args[0]) * len(args[2])


def _text_bytes(args, out):
    return len(out.encode("utf-8"))


def _file_bytes(args, out):
    return os.path.getsize(args[0])


KERNEL_FUNCS = {"exact_search": _third_result, "comp_scan": _pairs,
                "anneal_chain": _third_result}
CLI_ENGINE = ("exact_max_product", "exact_max_sum", "anneal_max_product",
              "anneal_max_sum", "min_comparability_table")
CLI_BUILDERS = ("build_product_tuple", "build_sum_tuple", "build_prefix_tuple",
                "build_pair_product", "build_pair_sum")
CLI_WITNESS = {"witness_payload": None, "dumps_witness": _text_bytes,
               "write_witness": _file_bytes, "parse_witness": None,
               "check_witness": None}
ENGINE_HELPERS = ("_upset_bits", "_reflect_bits", "_cmp_forward",
                  "_best_construction", "_variants")


class Tracer:
    """Records spans in memory while installed.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (an annealing chain on a pool thread) takes
    the innermost open span of the main thread as its parent: in this
    program only the main thread starts pools, and it waits inside the
    engine call while they run.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[tuple[int, int]]] = {}  # (id, root) per thread
        self._main = threading.main_thread().ident
        self._undo: list[tuple[object, str, object]] = []

    def _enclosing(self, stack) -> tuple[int, int] | None:
        if stack:
            return stack[-1]
        if threading.get_ident() != self._main:
            main = self._stacks.get(self._main)
            if main:
                return main[-1]
        return None

    def call(self, name, fn, args, kwargs, count=None, module=None):
        sid = next(self._ids)
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent, root = self._enclosing(stack) or (None, sid)
        stack.append((sid, root))
        t0 = perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = perf_counter()
            stack.pop()
            n = count(args, out) if count and out is not None else None
            # list.append is atomic under the interpreter lock
            self.spans.append(Span(sid, name, parent, root, tid, t0, t1, n, module))

    def wrap(self, name, fn, count=None, module=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, module)
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from sperner import cli, witness
        from sperner.lattice import Family, FamilyTuple
        from sperner.search import _kernels_py, engine

        kernel_modules = [_kernels_py]
        try:
            from sperner.search import _kernels
            kernel_modules.append(_kernels)
        except ImportError:
            pass
        for mod in kernel_modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for fn, count in KERNEL_FUNCS.items():
                self._patch(mod, fn, self.wrap(f"kernel.{fn}", getattr(mod, fn),
                                               count, short))
        for fn in CLI_ENGINE:
            self._patch(cli, fn, self.wrap(f"engine.{fn}", getattr(cli, fn)))
        for fn in CLI_BUILDERS:
            self._patch(cli, fn, self.wrap(f"constructions.{fn}", getattr(cli, fn)))
        for fn, count in CLI_WITNESS.items():
            self._patch(cli, fn, self.wrap(f"witness.{fn}", getattr(cli, fn), count))
        for fn in ENGINE_HELPERS:
            self._patch(engine, fn, self.wrap(f"engine.{fn}", getattr(engine, fn)))
        for mod in (engine, witness):
            self._patch(mod, "is_cross_sperner",
                        self.wrap("lattice.is_cross_sperner", mod.is_cross_sperner))
        from_masks = Family.__dict__["from_masks"].__func__
        self._patch(Family, "from_masks",
                    classmethod(self.wrap("lattice.from_masks", from_masks)))
        self._patch(FamilyTuple, "canonical_key",
                    self.wrap("lattice.canonical_key", FamilyTuple.canonical_key))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _self_time(span: Span, children: list[Span]) -> float:
    return (span.end - span.start) - _union((c.start, c.end) for c in children)


PER_LAYER = {
    # name -> unit; every traced run reports all of them
    "kernel.exact_search_s": "s", "kernel.exact_nodes": "count",
    "kernel.exact_nodes_per_s": "1/s",
    "kernel.comp_scan_s": "s", "kernel.comp_scan_pairs": "count",
    "kernel.comp_pairs_per_s": "1/s",
    "kernel.anneal_chain_s": "s", "kernel.anneal_steps": "count",
    "kernel.anneal_steps_per_s": "1/s", "kernel.anneal_overlap": "ratio",
    "engine.upset_bits_s": "s", "engine.reflect_bits_s": "s",
    "engine.cmp_forward_s": "s", "engine.best_construction_s": "s",
    "engine.variants_s": "s", "engine.self_s": "s",
    "lattice.from_masks_s": "s", "lattice.canonical_key_s": "s",
    "lattice.is_cross_sperner_s": "s",
    "constructions.build_s": "s",
    "witness.payload_s": "s", "witness.dumps_s": "s", "witness.parse_s": "s",
    "witness.check_s": "s", "witness.bytes": "count",
    "cli.self_s": "s", "trace.overhead_s": "s",
    # wall time per command kind in the untraced passes of a traced run
    "cmd.search_s": "s", "cmd.table_s": "s", "cmd.construct_s": "s",
    "cmd.verify_s": "s",
    # median probe time (probe.py): how fast the machine ran
    "machine.probe_s": "s",
}

_SUMS = {
    "kernel.exact_search_s": ("kernel.exact_search",),
    "kernel.comp_scan_s": ("kernel.comp_scan",),
    "kernel.anneal_chain_s": ("kernel.anneal_chain",),
    "engine.upset_bits_s": ("engine._upset_bits",),
    "engine.reflect_bits_s": ("engine._reflect_bits",),
    "engine.cmp_forward_s": ("engine._cmp_forward",),
    "engine.best_construction_s": ("engine._best_construction",),
    "engine.variants_s": ("engine._variants",),
    "lattice.from_masks_s": ("lattice.from_masks",),
    "lattice.canonical_key_s": ("lattice.canonical_key",),
    "lattice.is_cross_sperner_s": ("lattice.is_cross_sperner",),
    "constructions.build_s": tuple(f"constructions.{f}" for f in CLI_BUILDERS),
    "witness.payload_s": ("witness.witness_payload",),
    "witness.dumps_s": ("witness.dumps_witness", "witness.write_witness"),
    "witness.parse_s": ("witness.parse_witness",),
    "witness.check_s": ("witness.check_witness",),
}
_COUNTS = {
    "kernel.exact_nodes": ("kernel.exact_search",),
    "kernel.comp_scan_pairs": ("kernel.comp_scan",),
    "kernel.anneal_steps": ("kernel.anneal_chain",),
    "witness.bytes": ("witness.dumps_witness", "witness.write_witness"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for the spans of one pass (trace.overhead_s is
    left to the caller, which times untraced passes too)."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def dur(names):
        return sum(sp.end - sp.start for n in names for sp in by_name.get(n, ()))

    out = {key: dur(names) for key, names in _SUMS.items()}
    for key, names in _COUNTS.items():
        out[key] = sum(sp.count or 0 for n in names for sp in by_name.get(n, ()))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out["kernel.exact_nodes_per_s"] = rate(out["kernel.exact_nodes"],
                                           out["kernel.exact_search_s"])
    out["kernel.comp_pairs_per_s"] = rate(out["kernel.comp_scan_pairs"],
                                          out["kernel.comp_scan_s"])
    # a pool's wall time runs from its first chain's start to its last end
    pools: dict[int | None, list[Span]] = {}
    for sp in by_name.get("kernel.anneal_chain", ()):
        pools.setdefault(sp.parent, []).append(sp)
    pool_wall = sum(max(c.end for c in p) - min(c.start for c in p)
                    for p in pools.values())
    out["kernel.anneal_steps_per_s"] = rate(out["kernel.anneal_steps"], pool_wall)
    out["kernel.anneal_overlap"] = rate(out["kernel.anneal_chain_s"], pool_wall)
    out["engine.self_s"] = sum(_self_time(sp, children.get(sp.id, []))
                               for fn in CLI_ENGINE
                               for sp in by_name.get(f"engine.{fn}", ()))
    out["cli.self_s"] = sum(_self_time(sp, children.get(sp.id, []))
                            for name, group in by_name.items() if name.startswith("cli.")
                            for sp in group)
    return out
