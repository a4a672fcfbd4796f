"""Pure-vs-compiled kernel parity, the equality check of the former
`benchmarks/bench_backends.py`.

Runs a few small public entry points while recording the arguments of
every kernel call, then replays each recorded call on the pure kernels
and on the compiled extension and requires identical results.  The
inputs therefore come from the engine itself, not from its private
helpers.  Prints one JSON line:

    {"status": "checked" | "skipped: extension not built",
     "checked": <calls replayed>, "mismatches": [<kernel names>]}

Run by run.py with `src/` on the import path.
"""

from __future__ import annotations

import copy
import json
import sys

KERNELS = ("comp_scan", "exact_search", "anneal_chain")


def main() -> int:
    try:
        from sperner.search import _kernels as compiled
    except ImportError:
        print(json.dumps({"status": "skipped: extension not built",
                          "checked": 0, "mismatches": []}))
        return 0
    from sperner.search import (SearchConfig, anneal_max_product, exact_max_product,
                                exact_max_sum, min_comparability_table)
    from sperner.search import _kernels_py as pure

    calls: list[tuple[str, tuple]] = []
    undo = []
    for mod in (pure, compiled):
        for name in KERNELS:
            fn = getattr(mod, name)

            def record(*args, _fn=fn, _name=name):
                calls.append((_name, copy.deepcopy(args)))
                return _fn(*args)

            undo.append((mod, name, fn))
            setattr(mod, name, record)
    try:
        min_comparability_table(4)
        exact_max_product(SearchConfig(4, 3))
        exact_max_sum(SearchConfig(4, 4))
        # n=5 is within the compiled annealer's ground-size limit
        anneal_max_product(SearchConfig(5, 3, mode="heuristic", seed=1,
                                        threads=1, budget_nodes=2000))
    finally:
        for mod, name, fn in undo:
            setattr(mod, name, fn)

    mismatches = [] if len(calls) >= 4 else ["kernel calls not recorded"]
    for name, args in calls:
        want = getattr(pure, name)(*copy.deepcopy(args))
        got = getattr(compiled, name)(*copy.deepcopy(args))
        if want != got:
            mismatches.append(name)
    print(json.dumps({"status": "checked", "checked": len(calls),
                      "mismatches": mismatches}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
