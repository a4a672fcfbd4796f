"""Command line front end.

Five subcommands:

  construct   build a named tuple construction, emit a witness file
  verify      check witness files (format, property, measures)
  search      exact branch-and-bound or annealing for best tuples
  table       comparability or bound tables (CSV or JSON)
  bounds      closed-form bound values at (n, k)

Exit codes: 0 success, 1 invalid witness, 2 bad usage or domain error,
3 search budget exhausted before the goal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import threading
from operator import itemgetter
from typing import Optional

from .bounds import BoundId, bounds_report, eval_bound, render_value
from .constructions import (
    PrefixParams,
    ProductParams,
    SumParams,
    build_pair_product,
    build_pair_sum,
    build_prefix_tuple,
    build_product_tuple,
    build_sum_tuple,
)
from .errors import SpernerError, WitnessFormatError
from .search import (
    SearchConfig,
    anneal_max_product,
    anneal_max_sum,
    exact_max_product,
    exact_max_sum,
    min_comparability_table,
    resolve_threads,
)
from .witness import (
    _read_text,
    _witness_chunks,
    check_witness,
    dumps_witness,  # noqa: F401  perfbench/spans.py traces it by this name
    parse_witness,
    witness_payload,
    write_witness,
)

MEASURES = {"product": "product", "sum": "sum", "pi": "product", "sigma": "sum"}


def _span(text: str) -> list[int]:
    """One integer "4" or an inclusive range "2..5"."""
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            return [int(text)]
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}")
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(a, b + 1))


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_witness(payload: dict, out: Optional[str], note: str = "") -> None:
    """The witness file streamed to stdout for None or "-"; otherwise to
    out, followed by a "wrote" line."""
    if out is None or out == "-":
        sys.stdout.writelines(_witness_chunks(payload))
    else:
        write_witness(out, payload)
        print(f"wrote {out}{note}")


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return " ".join(str(x) for x in v)
    return v


def _emit_rows(rows: list[dict], fmt: str, columns: list[str],
               out: Optional[str]) -> int:
    """Rows as indented JSON, or as CSV over the given columns."""
    if fmt == "json":
        _emit(json.dumps(rows, indent=2) + "\n", out)
        return 0
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([_csv_cell(r[c]) for c in columns])
    _emit(buf.getvalue(), out)
    return 0


# construct


def _cmd_construct(args) -> int:
    mode = args.mode
    for flag, owner in (("segments", "product"), ("a", "sum"), ("ell", "prefix")):
        if mode != owner and getattr(args, flag) is not None:
            args._parser.error(f"mode {mode} takes no --{flag}")
    if mode in ("pair-product", "pair-sum"):
        if args.k not in (None, 2):
            args._parser.error(f"mode {mode} builds pairs; drop --k or use --k 2")
        build = build_pair_product if mode == "pair-product" else build_pair_sum
        t = build(args.n)
        params = {"n": args.n, "k": 2}
    else:
        if args.k is None:
            args._parser.error(f"mode {mode} needs --k")
        if mode == "product":
            p = ProductParams(args.n, args.k, args.segments)
            t = build_product_tuple(p)
            params = {"n": p.n, "k": p.k, "segments": list(p.segment_sizes())}
        elif mode == "sum":
            p = SumParams(args.n, args.k, args.a)
            t = build_sum_tuple(p)
            params = {"n": p.n, "k": p.k, "a": p.a}
        else:
            p = PrefixParams(args.n, args.k, args.ell)
            t = build_prefix_tuple(p)
            params = {"n": p.n, "k": p.k, "ell": p.ell}
    payload = witness_payload(
        t, provenance={"builder": mode, "parameters": params}
    )
    m = payload["measures"]
    _emit_witness(payload, args.out,
                  f": n={t.n} k={t.k} sum={m['sum']} product={m['product']}")
    return 0


# verify


# a share of the files below this many bytes is verified in the parent:
# a fork plus waitpid costs about 5 ms and verify reads about 40 MB/s, so
# 1 MiB is about 25 ms of work
_FORK_BYTES = 1 << 20


def _verdict(path: str) -> tuple[int, str]:
    """One file checked: (0, its OK line), (1, its INVALID line) or
    (2, the stderr line for a file that cannot be read)."""
    try:
        payload = parse_witness(_read_text(path))
    except OSError as e:
        return 2, f"error: cannot read {path}: {e.strerror or e}"
    except WitnessFormatError as e:
        return 1, f"INVALID {path}: {e}"
    problems = check_witness(payload)
    if problems:
        return 1, f"INVALID {path}: " + "; ".join(problems)
    m = payload["measures"]
    return 0, (f"OK {path}: n={payload['n']} k={payload['k']} "
               f"sum={m['sum']} product={m['product']}")


def _verdicts(paths: list[str], share: list[int]) -> list[tuple[int, str]]:
    """The verdicts of a share in order, up to its first unreadable file:
    nothing after that file is reported."""
    out = []
    for i in share:
        out.append(_verdict(paths[i]))
        if out[-1][0] == 2:
            break
    return out


def _shares(paths: list[str]) -> list[list[int]]:
    """The path indices split for verification, each share in argument
    order.  The files are dealt into one share per CPU, largest first,
    each into the lightest share.  The first share is the parent's: the
    lightest, with every share under _FORK_BYTES folded in.  Each other
    share goes to a forked child.  All in one share when there is one
    CPU, no fork, or a second thread: a fork copies only the calling
    thread, so a lock another thread holds would stay held in the child."""
    cpus = min(os.cpu_count() or 1, len(paths))
    if cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [list(range(len(paths)))]
    sizes = []
    for path in paths:
        try:
            sizes.append(os.stat(path).st_size)
        except (OSError, ValueError):
            sizes.append(0)
    loads = [[0, []] for _ in range(cpus)]
    for i in sorted(range(len(paths)), key=sizes.__getitem__, reverse=True):
        lightest = min(loads, key=itemgetter(0))
        lightest[0] += sizes[i]
        lightest[1].append(i)
    loads.sort(key=itemgetter(0))
    mine = loads[0][1]
    theirs = []
    for size, share in loads[1:]:
        if size >= _FORK_BYTES:
            theirs.append(sorted(share))
        else:
            mine += share
    return [sorted(mine), *theirs]


def _fork(paths: list[str], share: list[int], children: list) -> tuple:
    """A child that verifies share and writes its verdicts as JSON to a
    pipe: (pid, read end, share).  The child leaves by os._exit, 0 only
    once everything is written."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for _, fd, _ in children:
                os.close(fd)
            with open(w, "wb") as fh:
                fh.write(json.dumps(_verdicts(paths, share)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r, share


def _collect(pid: int, fd: int, share: list[int]) -> dict[int, tuple[int, str]]:
    """The verdicts a child sent, by path index: none if it exited
    non-zero or sent anything but a list of (code, line) pairs.  Reads
    the pipe to its end, closes it and reaps the child."""
    chunks = []
    try:
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
        status = os.waitpid(pid, 0)[1]
    try:
        got = [(code, line) for code, line in json.loads(b"".join(chunks))]
    except (ValueError, TypeError):
        return {}
    if status or len(got) > len(share) or not all(
            type(code) is int and 0 <= code <= 2 and type(line) is str
            for code, line in got):
        return {}
    return dict(zip(share, got))


def _cmd_verify(args) -> int:
    """Verdicts in argument order, stopping at the first unreadable file.
    Shares big enough go to forked children (_shares) while the parent
    verifies its own.  Then the parent prints in order and verifies
    every file whose verdict it still lacks: all of them when nothing
    forked, the share of a child that failed, and its own share when a
    file in it raised."""
    paths = args.files
    mine, *theirs = _shares(paths)
    known: dict[int, tuple[int, str]] = {}
    children: list[tuple] = []
    try:
        for share in theirs:
            try:
                children.append(_fork(paths, share, children))
            except OSError:
                break
        if children:
            try:
                known.update(zip(mine, _verdicts(paths, mine)))
            except Exception:
                pass  # verified again below, where it raises in its place
            while children:
                known.update(_collect(*children.pop()))
    finally:
        for pid, fd, _ in children:
            os.close(fd)
            os.waitpid(pid, 0)
    bad = 0
    for i, path in enumerate(paths):
        code, line = known.pop(i, None) or _verdict(path)
        if code == 2:
            print(line, file=sys.stderr)
            return 2
        print(line)
        bad += code
    return 1 if bad else 0


# search


def _cmd_search(args) -> int:
    measure = MEASURES[args.measure]
    cfg = SearchConfig(
        n=args.n,
        k=args.k,
        mode=args.mode,
        budget_nodes=args.budget_nodes,
        budget_secs=args.budget_secs,
        seed=args.seed,
        threads=args.threads,
        target=args.target,
    )
    run = {
        ("exact", "product"): exact_max_product,
        ("exact", "sum"): exact_max_sum,
        ("heuristic", "product"): anneal_max_product,
        ("heuristic", "sum"): anneal_max_sum,
    }[(args.mode, measure)]
    res = run(cfg)

    met = args.target is not None and res.value >= args.target
    if res.optimal:
        status, code = "proved", 0
    elif met:
        status, code = "target-met", 0
    elif args.mode == "exact" or args.target is not None:
        status, code = "stopped", 3
    else:
        status, code = "heuristic", 0
    print(
        f"n={args.n} k={args.k} measure={measure} value={res.value} "
        f"status={status} nodes={res.nodes} elapsed={res.elapsed:.3f}s "
        f"backend={res.backend}"
    )
    if args.out:
        if res.witness is None:
            print("no witness to write")
        else:
            prov = {
                "search": {
                    "mode": args.mode,
                    "measure": measure,
                    "optimal": res.optimal,
                    "backend": res.backend,
                },
                "seed": args.seed,
            }
            if args.budget_nodes is not None:
                prov["search"]["budget_nodes"] = args.budget_nodes
            if args.budget_secs is not None:
                prov["search"]["budget_secs"] = args.budget_secs
            if args.mode == "heuristic":
                prov["search"]["threads"] = resolve_threads(args.threads)
            _emit_witness(witness_payload(res.witness, provenance=prov), args.out)
    return code


# tables


def _comp_rows(ns: list[int]) -> list[dict]:
    rows = []
    for n in ns:
        table = min_comparability_table(n)
        for r in table.rows:
            rows.append(
                {
                    "n": n,
                    "m": r.m,
                    "c_exact": r.c_exact,
                    "lower_bound": r.lower_bound,
                    "equality": r.equality,
                    "witness_masks": r.witness.masks(),
                }
            )
    return rows


def _emit_comp(args) -> int:
    for flag in ("k", "m", "ell"):
        if getattr(args, flag) is not None:
            args._parser.error(f"table comp takes no --{flag}")
    if args.format == "text":
        args._parser.error("table comp has no text format; use csv or json")
    columns = ["n", "m", "c_exact", "lower_bound", "equality", "witness_masks"]
    return _emit_rows(_comp_rows(args.n), args.format or "csv", columns, args.out)


def _bound_entries(n: int, k: int, m: Optional[int], ell: Optional[int]):
    entries = dict(bounds_report(n, k).entries)
    if m is not None:
        entries[BoundId.COMP_LOWER] = eval_bound(BoundId.COMP_LOWER, n, m)
    if ell is not None:
        entries[BoundId.ANTICHAIN_COMP] = eval_bound(
            BoundId.ANTICHAIN_COMP, n, k, ell=ell
        )
    return entries


def _emit_bounds(args) -> int:
    if args.k is None:
        args._parser.error("bound tables need --k")
    for k in args.k:
        if k < 2:
            args._parser.error(f"bounds need k >= 2, got {k}")
    grid = len(args.n) > 1 or len(args.k) > 1
    fmt = args.format or ("csv" if grid else "text")
    if fmt == "text" and grid:
        args._parser.error("text format shows a single (n, k); use --format csv")

    if fmt == "text":
        n, k = args.n[0], args.k[0]
        entries = _bound_entries(n, k, args.m, args.ell)
        lines = [f"bounds at n={n} k={k}"]
        for b, v in entries.items():
            tail = ""
            if not v.applicable:
                tail = f"  [n/a] {v.note}" if v.note else "  [n/a]"
            elif v.note:
                tail = f"  ({v.note})"
            lines.append(f"  {b.value:<28}{render_value(v.value):>18}{tail}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    rows = []
    for n in args.n:
        for k in args.k:
            for b, v in _bound_entries(n, k, args.m, args.ell).items():
                rows.append(
                    {
                        "n": n,
                        "k": k,
                        "bound_id": b.value,
                        "value": render_value(v.value),
                        "applicable": v.applicable,
                        "note": v.note,
                    }
                )
    return _emit_rows(rows, fmt, ["n", "k", "bound_id", "value", "applicable"],
                      args.out)


def _cmd_table(args) -> int:
    if args.kind == "comp":
        return _emit_comp(args)
    return _emit_bounds(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sperner",
        description="Cross-Sperner tuples: constructions, witnesses, "
        "exact and heuristic search, bound tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build a named construction")
    pc.add_argument(
        "mode",
        choices=["product", "sum", "prefix", "pair-product", "pair-sum"],
        help="which construction to build",
    )
    pc.add_argument("--n", type=int, required=True, help="ground set size")
    pc.add_argument("--k", type=int, help="tuple width (pairs imply 2)")
    pc.add_argument(
        "--segments",
        type=_csv_ints,
        help="product mode: per-block segment sizes, e.g. 2,2,2",
    )
    pc.add_argument("--a", type=int, help="sum mode: untouched element count")
    pc.add_argument("--ell", type=int, help="prefix mode: prefix ground size")
    pc.add_argument("--out", help="witness file (default stdout)")
    pc.set_defaults(_run=_cmd_construct, _parser=pc)

    pv = sub.add_parser("verify", help="check witness files")
    pv.add_argument("files", nargs="+", metavar="WITNESS")
    pv.set_defaults(_run=_cmd_verify, _parser=pv)

    ps = sub.add_parser("search", help="search for large tuples")
    ps.add_argument(
        "measure",
        choices=sorted(MEASURES),
        help="objective: product (alias pi) or sum (alias sigma)",
    )
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    ps.add_argument("--budget-nodes", type=int, help="node / step cap")
    ps.add_argument("--budget-secs", type=float, help="wall clock cap")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--threads",
        type=int,
        help="heuristic chain count, 1..256 (default 4); every chain runs at "
        "once and holds its own memory, about 9.4 MB at n = 20, k = 3",
    )
    ps.add_argument("--target", type=int, help="stop once this value is reached")
    ps.add_argument("--out", help="write the best witness here")
    ps.set_defaults(_run=_cmd_search, _parser=ps)

    def table_flags(p, with_k_required):
        p.add_argument("--n", type=_span, required=True, help="ground size N or A..B")
        p.add_argument(
            "--k",
            type=_span,
            required=with_k_required,
            help="tuple width K or A..B",
        )
        p.add_argument("--m", type=int, help="family size for the comparability bound")
        p.add_argument("--ell", type=int, help="tail size for the antichain bound")
        p.add_argument("--format", choices=["csv", "json", "text"])
        p.add_argument("--out", help="output file (default stdout)")

    pt = sub.add_parser("table", help="comparability or bound tables")
    pt.add_argument("kind", choices=["comp", "bounds"], help="which table")
    table_flags(pt, with_k_required=False)
    pt.set_defaults(_run=_cmd_table, _parser=pt)

    pb = sub.add_parser("bounds", help="closed-form bound values")
    table_flags(pb, with_k_required=True)
    pb.set_defaults(_run=_emit_bounds, _parser=pb)
    return parser


# built once at import: parse_args leaves the parser as it was, so every
# main() call in a process shares it
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args._run(args)
    except SpernerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
