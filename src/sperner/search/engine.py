"""Search engines: exact optima, annealing heuristics, comparability table.

Exact searches run a single kernel call and are deterministic in value,
witness and node count no matter how many threads are configured.  The
heuristic runs one annealing chain per thread with seeds derived from the
configured seed, so a fixed (seed, threads) pair reproduces exactly.

One rule, in `_select`, picks the kernels for every search: the compiled
ones whenever their library loads, the pure ones otherwise.  Either way
each chain runs on its own daemon thread, all started at once: compiled
chains release the interpreter lock and run in parallel, pure chains take
turns on it, so every chain steps before a shared deadline.  The caller
waits in an interruptible join, so Ctrl-C stops a heuristic search at
once; a pure exact search stops at once too.  A compiled exact search is
one C call that Ctrl-C cannot interrupt, so it ends only at its node
budget, at its deadline or on completion.
"""

from __future__ import annotations

import threading
import time
from array import array
from math import ceil, prod
from typing import NamedTuple

from ..bounds import BoundId, eval_bound
from ..constructions import (
    PrefixParams,
    ProductParams,
    SumParams,
    build_pair_product,
    build_pair_sum,
    build_prefix_tuple,
    build_product_tuple,
    build_sum_tuple,
)
from ..errors import GroundTooLarge, InfeasibleParams, SpernerError
from ..lattice import (
    MAX_LABEL,
    Family,
    FamilyTuple,
    _label_bits,
    _labels_of,
    bit_positions,
    bits_of,
    check_ground,
    comparable,
    is_cross_sperner,
)
from . import _kernels_py
from ._clib import _WORD
from ._kernels_py import sm64_next

try:
    from . import _kernels
except ImportError:
    _kernels = None

# the largest n whose 2**n - 2 proper masks fit the kernels' one-word pin row
EXACT_MAX_GROUND = (_WORD + 2).bit_length() - 1
TABLE_MAX_GROUND = 5  # a policy: a compiled n = 6 table scan takes about 4 min

_DEFAULT_STEPS = 60_000
_DEFAULT_CHAINS = 4
_MAX_CHAINS = 256  # chains run at once, one thread and one chain's memory each
_T0 = 0.35
_ALPHA = 0.99993
_RESTART = 10_000

BACKEND: str = (_kernels or _kernels_py).BACKEND
"""The kernels that serve every search: "compiled" when the library
loads, else "pure"."""


class SearchConfig(NamedTuple):
    """Knobs shared by the search entry points.

    budget_nodes caps DFS nodes in exact mode and annealing steps per
    chain in heuristic mode; it must be at least 1, and None means no cap
    (exact) or 60,000 steps (heuristic).  budget_secs is a wall-clock
    cap; it must be a number >= 0, and 0.0 stops at the first deadline
    check.  mode is not read by the engine, whose entry points each
    serve one mode; it records the caller's intent.  threads
    fixes the chain count for the heuristic (exact results never depend
    on it); it must be in 1..256, and None means 4.  Every chain starts at
    once on its own thread, so under budget_secs every chain takes steps.
    target stops a search early once
    the value is reached; it must be at least 1, and None means no target.
    """

    n: int
    k: int
    mode: str = "exact"
    budget_nodes: int | None = None
    budget_secs: float | None = None
    seed: int = 0
    threads: int | None = None
    target: int | None = None


class SearchResult(NamedTuple):
    value: int
    witness: FamilyTuple | None
    optimal: bool
    nodes: int
    elapsed: float
    backend: str


class CompRow(NamedTuple):
    m: int
    c_exact: int
    lower_bound: int
    equality: bool
    witness: Family


class CompTable(NamedTuple):
    n: int
    rows: tuple[CompRow, ...]

    def row(self, m: int) -> CompRow:
        return self.rows[m - 1]


def resolve_threads(explicit: int | None) -> int:
    return _DEFAULT_CHAINS if explicit is None else explicit


def _select():
    """The kernel module for every search, compiled whenever its library
    loads."""
    return _kernels or _kernels_py


# -- monotone families -------------------------------------------------------


def _upset_bits(n: int) -> tuple[list[int], list[int]]:
    """The upset bitsets of P([n]) in enumeration order, which the
    comparability table's tie-breaks refer to, and the ascending indices
    of the first upset of each S_n orbit, from the selected kernels'
    `upset_orbits`."""
    return _select().upset_orbits(n)


_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reflect_bits(ups: list[int], total: int) -> list[int]:
    """Each bitset of total <= 64 bits with its bit string reversed.

    Complementing every member turns an upset bitset into a downset one:
    mask p becomes total - 1 - p.  Reversing the bits of every byte and
    then the bytes of every 64-bit word takes bit p to 63 - p; the shift
    then takes it to total - 1 - p.
    """
    words = array("Q")
    words.frombytes(array("Q", ups).tobytes().translate(_BYTE_REVERSED))
    words.byteswap()
    shift = 64 - total
    return [w >> shift for w in words]


def min_comparability_table(n: int) -> CompTable:
    """Exact minimum comparability number for every family size m, with a
    witness family attaining it and the root-style lower bound.

    A family of size m comparable to c sets has a convex hull U & D, U its
    up-closure and D its down-closure, with |U| + |D| - |U & D| = c.  So
    the minimum over intersection sizes t >= m of the best |U| + |D| - t
    is c(m), and the first m members of the best hull are a witness.

    The scan pairs only the first upset of each S_n orbit, in enumeration
    order, with every downset; a permutation applied to both U and D keeps
    |U|, |D| and |U & D|, so every value and every minimum is the same.
    So is the recorded pair.  For each t the full scan records the
    lexicographically first pair (i*, j*) of upset and downset indices
    that reaches the minimum.  If a permutation s took an upset i0 < i*
    to i*, the pair (i0, s^-1 D_j*) would reach the same t and value
    earlier, a contradiction.  So i* is the first index of its orbit, and
    the reduced scan, whose upsets keep their order, records it too.
    """
    check_ground(n, minimum=1)
    if n > TABLE_MAX_GROUND:
        raise GroundTooLarge(f"comparability table supports n <= {TABLE_MAX_GROUND}")
    total = 1 << n
    ups, firsts = _upset_bits(n)
    usizes = list(map(int.bit_count, ups))
    downs = _reflect_bits(ups, total)
    kern = _select()
    best, bu, bd = kern.comp_scan([ups[i] for i in firsts],
                                  [usizes[i] for i in firsts],
                                  downs, usizes, total)
    rows = []
    c, pick = best[total], total
    for m in range(total, 0, -1):
        # the least best[t] over t >= m, at the least such t
        if best[m] <= c:
            c, pick = best[m], m
        # the m numerically lowest members: no dropped set is below a kept one
        hull = bits_of(bit_positions(ups[firsts[bu[pick]]] & downs[bd[pick]])[:m])
        lower = ceil(eval_bound(BoundId.COMP_LOWER, n, m).value)
        rows.append(CompRow(m=m, c_exact=c, lower_bound=lower,
                            equality=c == lower, witness=Family(n, hull)))
    rows.reverse()
    return CompTable(n=n, rows=tuple(rows))


# -- exact optimisation ------------------------------------------------------


def _usable_order(n: int) -> list[int]:
    total = 1 << n
    masks = [m for m in range(1, total - 1)]
    masks.sort(key=lambda m: (min(m.bit_count(), n - m.bit_count()),
                              m.bit_count(), m))
    return masks


def _cmp_forward(masks: list[int]) -> list[int]:
    out = []
    for i, x in enumerate(masks):
        bits = 0
        for j in range(i + 1, len(masks)):
            if comparable(x, masks[j]):
                bits |= 1 << j
        out.append(bits)
    return out


def _built(make) -> list[FamilyTuple]:
    """[make()], or [] when the construction does not exist at these
    parameters.  Parameter objects must be made inside `make`, since
    their constructors raise too."""
    try:
        return [make()]
    except SpernerError:
        return []


def _constructions(n: int, k: int, product: bool) -> list[FamilyTuple]:
    """The paper's lower-bound constructions for the measure that exist at
    (n, k), in a fixed order: the k-tuple, the extremal pair, the prefix
    partition."""
    if product:
        out = _built(lambda: build_product_tuple(ProductParams(n, k)))
    else:
        out = _built(lambda: build_sum_tuple(SumParams(n, k)))
    if k == 2:
        out += _built(lambda: (build_pair_product if product else build_pair_sum)(n))
    return out + _built(lambda: build_prefix_tuple(PrefixParams(n, k)))


def _measure(t: FamilyTuple, product: bool) -> int:
    return t.product_size() if product else t.sum_size()


def _best_construction(n: int, k: int, product: bool):
    cands = _constructions(n, k, product)
    if not cands:
        return 0, None
    top = max(cands, key=lambda t: _measure(t, product))
    return _measure(top, product), top


def _tuple_of(n: int, k: int, labels) -> FamilyTuple:
    # byte m in 1..k puts mask m into that family; 0 leaves it out
    return FamilyTuple(n, tuple(Family(n, _label_bits(labels, j))
                                for j in range(1, k + 1)))


def _check_config(cfg: SearchConfig, exact: bool) -> None:
    check_ground(cfg.n, minimum=1)
    if exact and cfg.n > EXACT_MAX_GROUND:
        raise GroundTooLarge(f"exact search supports n <= {EXACT_MAX_GROUND}")
    if cfg.k < 2:
        raise InfeasibleParams("searches need k >= 2")
    if not exact and cfg.k > MAX_LABEL:
        raise InfeasibleParams(f"the annealer's byte labels need k <= {MAX_LABEL}")
    if cfg.threads is not None and cfg.threads < 1:
        raise InfeasibleParams(f"threads must be at least 1, got {cfg.threads}")
    if cfg.threads is not None and cfg.threads > _MAX_CHAINS:
        raise InfeasibleParams(
            f"threads must be at most {_MAX_CHAINS}, got {cfg.threads}"
        )
    if cfg.budget_nodes is not None and cfg.budget_nodes < 1:
        raise InfeasibleParams(
            f"budget_nodes must be at least 1, got {cfg.budget_nodes}"
        )
    if cfg.target is not None and cfg.target < 1:
        raise InfeasibleParams(f"target must be at least 1, got {cfg.target}")
    if cfg.budget_secs is not None and not cfg.budget_secs >= 0:
        raise InfeasibleParams(
            f"budget_secs must be a number >= 0, got {cfg.budget_secs}"
        )


def _check_witness(witness: FamilyTuple, value: int, product: bool) -> None:
    # raised, not asserted, so that the check survives python -O
    if not is_cross_sperner(witness).ok:
        raise AssertionError("search returned a tuple that is not cross-Sperner")
    got = _measure(witness, product)
    if got != value:
        raise AssertionError(f"search reported value {value}, its witness has {got}")


def _exact(cfg: SearchConfig, product: bool) -> SearchResult:
    _check_config(cfg, exact=True)
    start = time.monotonic()
    masks = _usable_order(cfg.n)
    fwd = _cmp_forward(masks)
    floor, floor_tuple = _best_construction(cfg.n, cfg.k, product)
    deadline = start + cfg.budget_secs if cfg.budget_secs is not None else 0.0
    kern = _select()
    value, labels, nodes, completed = kern.exact_search(
        cfg.k, product, masks, fwd, floor,
        cfg.target or 0, cfg.budget_nodes or 0, deadline,
    )
    # both kernels move best off the floor only with a labeling
    witness = floor_tuple
    if labels is not None:
        full = bytearray(1 << cfg.n)
        for m, lab in zip(masks, labels):
            full[m] = lab
        witness = _tuple_of(cfg.n, cfg.k, full)
    if witness is not None:
        _check_witness(witness, value, product)
    return SearchResult(value=value, witness=witness, optimal=completed,
                        nodes=nodes, elapsed=time.monotonic() - start,
                        backend=kern.BACKEND)


def exact_max_product(cfg: SearchConfig) -> SearchResult:
    """Largest product of family sizes over cross-Sperner k-tuples,
    proven by exhaustive search (n <= EXACT_MAX_GROUND = 6)."""
    return _exact(cfg, product=True)


def exact_max_sum(cfg: SearchConfig) -> SearchResult:
    """Largest total size over cross-Sperner k-tuples, proven by
    exhaustive search (n <= EXACT_MAX_GROUND = 6)."""
    return _exact(cfg, product=False)


# -- annealing ---------------------------------------------------------------


def _variants(n: int, k: int, product: bool, seed: int) -> bytes:
    """The annealer's restart pool: the distinct labelings of the
    constructions at (n, k) and of up to eight jittered product tuples, in
    that order, joined into one buffer of 2**n bytes a labeling."""
    cands = _constructions(n, k, product)
    # jittered segment sizes diversify the restart pool; _check_config has
    # accepted (n, k), so the blocks exist, and _built drops every jittered
    # tuple that cannot be built
    blocks = ProductParams(n, k).block_sizes()
    state = (seed ^ 0x5EED5EED) & ((1 << 64) - 1)
    for _ in range(8):
        segs = []
        for b in blocks:
            state, z = sm64_next(state)
            segs.append(1 + (z * ((1 << b) - 1) >> 64))
        cands += _built(
            lambda segs=tuple(segs): build_product_tuple(ProductParams(n, k, segs))
        )
    pool = b"".join(dict.fromkeys(_labels_of(t) for t in cands))
    if not pool:
        raise InfeasibleParams(
            f"no feasible starting tuple for n={n}, k={k}"
        )
    return pool


def _run_chains(run, seeds: list[int]) -> list:
    """[run(seed) for seed in seeds], each on its own daemon thread, all
    started at once.  Each thread stores its result, or the exception it
    raised, in its own slot; the first exception in seed order is raised
    once every thread has ended.  The join can be interrupted, and daemon
    threads end with the process, so Ctrl-C stops the search at once."""
    slots: list = [None] * len(seeds)

    def chain(i: int, seed: int) -> None:
        try:
            slots[i] = run(seed)
        except BaseException as e:
            slots[i] = e

    threads = [threading.Thread(target=chain, args=(i, seed), daemon=True)
               for i, seed in enumerate(seeds)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for out in slots:
        if isinstance(out, BaseException):
            raise out
    return slots


def _anneal(cfg: SearchConfig, product: bool) -> SearchResult:
    _check_config(cfg, exact=False)
    start = time.monotonic()
    chains = resolve_threads(cfg.threads)
    steps = _DEFAULT_STEPS if cfg.budget_nodes is None else cfg.budget_nodes
    deadline = start + cfg.budget_secs if cfg.budget_secs is not None else 0.0
    variants = _variants(cfg.n, cfg.k, product, cfg.seed)
    state = cfg.seed & ((1 << 64) - 1)
    seeds = []
    for _ in range(chains):
        state, z = sm64_next(state)
        seeds.append(z)
    stop = cfg.target or 0
    kern = _select()

    def run(chain_seed: int):
        return kern.anneal_chain(
            cfg.n, cfg.k, product, variants, chain_seed, steps,
            _T0, _ALPHA, _RESTART, stop, deadline,
        )

    outs = _run_chains(run, seeds)
    best_val = max(out[0] for out in outs)
    # every chain starts from the pool's first labeling, so a later one
    # may beat them all; the first best labeling of the pool is reported then
    size = 1 << cfg.n
    starts = []
    for i in range(0, len(variants), size):
        counts = [variants.count(j, i, i + size) for j in range(1, cfg.k + 1)]
        starts.append(prod(counts) if product else sum(counts))
    if max(starts) > best_val:
        best_val = max(starts)
        i = starts.index(best_val) * size
        best_tuple = _tuple_of(cfg.n, cfg.k, variants[i:i + size])
    else:
        # best value, then least canonical key, then seed order; a key is
        # made only when chains tie, once for each of them
        ties = [_tuple_of(cfg.n, cfg.k, labels)
                for value, labels, _, _ in outs if value == best_val]
        best_tuple = (ties[0] if len(ties) == 1
                      else min(ties, key=FamilyTuple.canonical_key))
    steps_done = sum(out[2] for out in outs)
    _check_witness(best_tuple, best_val, product)
    return SearchResult(value=best_val, witness=best_tuple, optimal=False,
                        nodes=steps_done, elapsed=time.monotonic() - start,
                        backend=kern.BACKEND)


def anneal_max_product(cfg: SearchConfig) -> SearchResult:
    """Heuristic lower bound for the largest size product; never claims
    optimality."""
    return _anneal(cfg, product=True)


def anneal_max_sum(cfg: SearchConfig) -> SearchResult:
    """Heuristic lower bound for the largest total size; never claims
    optimality."""
    return _anneal(cfg, product=False)
