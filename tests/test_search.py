import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from sperner.bounds import BoundId, eval_bound
from sperner.errors import GroundTooLarge, InfeasibleParams
from sperner.lattice import (
    MAX_GROUND,
    Family,
    FamilyTuple,
    _comparable_bits,
    _label_bits,
    _labels_of,
    bit_positions,
    comparability_number,
    comparable,
    is_cross_sperner,
)
from sperner.search import (
    BACKEND,
    TABLE_MAX_GROUND,
    SearchConfig,
    anneal_max_product,
    anneal_max_sum,
    exact_max_product,
    exact_max_sum,
    min_comparability_table,
)
from sperner.search._kernels_py import sm64_next
from sperner.search.engine import _reflect_bits, _upset_bits, resolve_threads

from .oracles import (
    component_by_frontier,
    count_upsets,
    labels_by_masks,
    max_product_exact,
    max_sum_exact,
    min_comparability_exact,
    orbit_firsts_brute,
    reflect_bits_by_positions,
    tuple_from_order_labels,
    upset_bits_recursive,
)

DEDEKIND = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}


# monotone enumeration


@pytest.fixture(scope="session")
def every_backend(request):
    """The kernels of every backend at hand: the pure ones, the in-place
    build when there is one, and a fresh gcc build when gcc is present."""
    from sperner.search import _kernels_py

    out = [_kernels_py]
    try:
        from sperner.search import _kernels
    except ImportError:
        pass
    else:
        out.append(_kernels)
    if shutil.which("gcc") is not None:
        out.append(request.getfixturevalue("gcc_kernels"))
    return out


def test_upset_counts_match_known_sequence(every_backend):
    for n, expected in DEDEKIND.items():
        for kern in every_backend:
            assert len(kern.upset_orbits(n)[0]) == expected


def test_upset_counts_match_brute_oracle(every_backend):
    for n in range(4):
        for kern in every_backend:
            assert len(kern.upset_orbits(n)[0]) == count_upsets(n)


def test_enumerated_families_are_upsets_and_distinct():
    from sperner.lattice import is_upward_closed

    fams = [Family(4, b) for b in _upset_bits(4)[0]]
    assert len({f.members for f in fams}) == len(fams)
    assert all(is_upward_closed(f) or f.members == 0 for f in fams)


# the witness tie-breaks depend on the enumeration order, so the fast
# helpers must give the old recursion's list in the old order


@pytest.mark.parametrize("n", range(6))
def test_upset_bits_order_matches_recursive_oracle(n, every_backend):
    for kern in every_backend:
        assert kern.upset_orbits(n)[0] == upset_bits_recursive(n)


@pytest.mark.parametrize("n", range(7))
def test_reflect_bits_matches_position_oracle(n):
    # n = 6 reflects random 64-bit words: the top bit and full words too
    total = 1 << n
    if n < 6:
        ups = upset_bits_recursive(n)
    else:
        rng = random.Random(6)
        ups = [0, 1, (1 << 63), (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(200)]
    assert _reflect_bits(ups, total) == [reflect_bits_by_positions(bits, total)
                                         for bits in ups]


# S_n orbits of upsets

A003182 = {0: 2, 1: 3, 2: 5, 3: 10, 4: 30, 5: 210}


@pytest.mark.parametrize("n", sorted(A003182))
def test_orbit_counts_match_known_sequence(n, every_backend):
    for kern in every_backend:
        assert len(kern.upset_orbits(n)[1]) == A003182[n]


@pytest.mark.parametrize("n", range(5))
def test_orbit_firsts_match_permutation_oracle(n, every_backend):
    for kern in every_backend:
        ups, firsts = kern.upset_orbits(n)
        assert firsts == orbit_firsts_brute(ups, n)


# comparability tables


def test_comp_table_matches_brute_oracle_small():
    for n in range(1, 4):
        table = min_comparability_table(n)
        for m in range(1, (1 << n) + 1):
            assert table.row(m).c_exact == min_comparability_exact(n, m)


def test_comp_table_matches_brute_oracle_n4_prefix():
    table = min_comparability_table(4)
    for m in range(1, 5):
        assert table.row(m).c_exact == min_comparability_exact(4, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_comp_table_rows_are_certified(n):
    table = min_comparability_table(n)
    assert [r.m for r in table.rows] == list(range(1, (1 << n) + 1))
    prev = 0
    for r in table.rows:
        assert r.witness.size == r.m
        count, _ = comparability_number(r.witness)
        assert count == r.c_exact
        assert r.c_exact >= r.lower_bound
        assert r.equality == (r.c_exact == r.lower_bound)
        assert r.c_exact >= prev  # dropping a set never raises the minimum
        prev = r.c_exact


def test_comp_table_gated():
    with pytest.raises(GroundTooLarge):
        min_comparability_table(6)


# exact search vs definition-level oracle


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_exact_agrees_with_labeling_oracle(n, k):
    cfg = SearchConfig(n=n, k=k)
    assert exact_max_product(cfg).value == max_product_exact(n, k)
    assert exact_max_sum(cfg).value == max_sum_exact(n, k)


# frozen exact optima; values proven by the completed branch-and-bound

PI_EXACT = {
    (2, 2): 1,
    (3, 2): 4,
    (3, 3): 1,
    (4, 2): 16,
    (4, 3): 9,
    (4, 4): 4,
    (5, 2): 64,
    (5, 3): 81,
    (5, 4): 108,
}
SIGMA_EXACT = {
    (2, 2): 2,
    (3, 2): 4,
    (3, 3): 3,
    (4, 2): 10,
    (4, 3): 8,
    (4, 4): 7,
    (5, 2): 22,
    (5, 3): 18,
    (5, 4): 16,
}


# the canonical key of each proof's witness, the least optimal tuple
PI_WITNESS = {
    (2, 2): ((1,), (2,)),
    (3, 2): ((1, 3), (4, 6)),
    (3, 3): ((1,), (2,), (4,)),
    (4, 2): ((1, 3, 5, 7), (8, 10, 12, 14)),
    (4, 3): ((1, 3, 5), (6,), (8, 10, 12)),
    (4, 4): ((1, 3, 5, 9), (6,), (10,), (12,)),
    (5, 2): ((1, 3, 5, 7, 9, 11, 13, 15), (16, 18, 20, 22, 24, 26, 28, 30)),
    (5, 3): ((1, 3, 5, 7, 9, 11, 17, 21, 25), (12, 14, 28), (18, 22, 26)),
    (5, 4): ((3, 5, 6, 7), (9, 17, 25), (10, 18, 26), (12, 20, 28)),
}
SIGMA_WITNESS = {
    (2, 2): ((1,), (2,)),
    (3, 2): ((1,), (2, 4, 6)),
    (3, 3): ((1,), (2,), (4,)),
    (4, 2): ((1, 2, 3, 5, 6, 7, 9, 10, 11), (12,)),
    (4, 3): ((1, 3, 5, 6, 7, 9), (10,), (12,)),
    (4, 4): ((1, 3, 5, 9), (6,), (10,), (12,)),
    (5, 2): ((1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22,
              23), (24,)),
    (5, 3): ((1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19), (20,), (24,)),
    (5, 4): ((1, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17), (18,), (20,), (24,)),
}


def _check_exact(res, expected, key):
    assert res.optimal
    assert res.value == expected
    assert res.witness is not None
    assert is_cross_sperner(res.witness).ok
    assert res.witness.canonical_key() == key
    return res


@pytest.mark.parametrize("nk,expected", sorted(PI_EXACT.items()))
def test_exact_product_values(nk, expected):
    res = _check_exact(exact_max_product(SearchConfig(*nk)), expected, PI_WITNESS[nk])
    assert res.witness.product_size() == expected


@pytest.mark.parametrize("nk,expected", sorted(SIGMA_EXACT.items()))
def test_exact_sum_values(nk, expected):
    res = _check_exact(exact_max_sum(SearchConfig(*nk)), expected, SIGMA_WITNESS[nk])
    assert res.witness.sum_size() == expected


def test_exact_infeasible_width_returns_zero():
    res = exact_max_product(SearchConfig(2, 3))
    assert res.value == 0 and res.optimal and res.witness is None
    assert res.nodes == 1


def test_exact_pair_product_closed_form():
    for n in range(2, 5):
        assert exact_max_product(SearchConfig(n, 2)).value == 1 << (2 * n - 4)


# n = 6, the largest ground whose proper masks fit the kernels' one-word
# pin row: value, node count and witness key of each proof, compiled
# only, since pure proofs there take up to a minute

PI_SIX = {
    2: (256, 7_734_155,
        ((1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31),
         (32, 34, 36, 38, 40, 42, 44, 46, 48, 50, 52, 54, 56, 58, 60, 62))),
    3: (810, 10_978_754,
        ((3, 5, 7, 11, 13, 15, 19, 21, 23), (24, 25, 26, 28, 30, 33, 41, 49, 56, 57),
         (34, 36, 38, 42, 44, 46, 50, 52, 54))),
    4: (1764, 20_393_731,
        ((3, 7, 11, 13, 14, 15, 19), (20, 21, 22, 28, 44, 52, 60),
         (25, 33, 37, 41, 49, 57), (26, 34, 38, 42, 50, 58))),
}
SIGMA_SIX = {
    2: (50, 2_067_176,
        ((1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23,
          25, 26, 27, 28, 29, 30, 31, 33, 34, 35, 36, 37, 38, 39, 41, 42, 43, 44, 45,
          46, 47, 49, 50, 51, 52, 53, 54, 55), (56,))),
    3: (44, 20_808_565,
        ((1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 21, 22, 23, 25, 26,
          27, 28, 29, 30, 31, 33, 34, 35, 37, 38, 39, 41, 42, 43, 44, 45, 46, 47, 49,
          50, 51), (52,), (56,))),
    4: (40, 68_683_083,
        ((1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 18, 19, 21, 22, 23, 25, 26, 27,
          28, 29, 30, 31, 33, 34, 35, 37, 38, 39, 41, 42, 43, 49, 50, 51), (44,), (52,),
         (56,))),
}


@pytest.fixture
def compiled_build():
    pytest.importorskip("sperner.search._kernels", reason="compiled backend not built",
                        exc_type=ImportError)


@pytest.mark.parametrize("k", sorted(PI_SIX))
def test_exact_product_at_six(compiled_build, k):
    value, nodes, key = PI_SIX[k]
    res = _check_exact(exact_max_product(SearchConfig(6, k)), value, key)
    assert (res.witness.product_size(), res.nodes, res.backend) == (
        value, nodes, "compiled")


@pytest.mark.parametrize("k", sorted(SIGMA_SIX))
def test_exact_sum_at_six(compiled_build, k):
    value, nodes, key = SIGMA_SIX[k]
    res = _check_exact(exact_max_sum(SearchConfig(6, k)), value, key)
    assert (res.witness.sum_size(), res.nodes, res.backend) == (value, nodes, "compiled")


@pytest.mark.parametrize("k", [3, 4])
def test_proofs_at_six_refute_the_product_conjecture(k):
    # the paper's counterexamples to the 2011 conjecture, as proved above
    conjectured = eval_bound(BoundId.PRODUCT_CONJECTURED_UPPER, 6, k)
    assert conjectured.applicable
    assert PI_SIX[k][0] > conjectured.value


# determinism: node counts are part of the contract

# (5, 3) was frozen last; listing it last keeps the other cases' test ids
NODE_COUNTS_PRODUCT = {(4, 2): 361, (4, 3): 391, (4, 4): 518, (5, 2): 23038,
                       (5, 4): 68006, (5, 3): 55048}
NODE_COUNTS_SUM = {(4, 2): 295, (4, 3): 435, (4, 4): 307, (5, 2): 17968, (5, 4): 66508,
                   (5, 3): 66784}


@pytest.mark.parametrize("nk,count", NODE_COUNTS_PRODUCT.items())
def test_exact_product_node_counts(nk, count):
    assert exact_max_product(SearchConfig(*nk)).nodes == count


@pytest.mark.parametrize("nk,count", NODE_COUNTS_SUM.items())
def test_exact_sum_node_counts(nk, count):
    assert exact_max_sum(SearchConfig(*nk)).nodes == count


def test_exact_ignores_thread_count():
    a = exact_max_product(SearchConfig(4, 3, threads=1))
    b = exact_max_product(SearchConfig(4, 3, threads=8))
    assert (a.value, a.nodes, a.witness.canonical_key()) == (
        b.value,
        b.nodes,
        b.witness.canonical_key(),
    )


def test_exact_witness_is_canonical_minimum():
    # all optima are visited, so the reported witness is the least one
    res = exact_max_product(SearchConfig(4, 2))
    again = exact_max_product(SearchConfig(4, 2))
    assert res.witness.canonical_key() == again.witness.canonical_key()


# budgets and targets


def test_exact_budget_keeps_best_so_far():
    res = exact_max_product(SearchConfig(5, 2, budget_nodes=500))
    assert not res.optimal
    assert res.nodes <= 501
    assert res.witness is not None
    assert is_cross_sperner(res.witness).ok
    assert res.value >= 64  # the construction floor is available immediately
    full = exact_max_product(SearchConfig(5, 2))
    assert res.value <= full.value


def test_exact_target_short_circuits():
    # the construction floor already meets the target, so the search
    # stops immediately without the full 1.78M-node proof
    res = exact_max_product(SearchConfig(5, 2, target=64))
    assert res.value >= 64
    assert not res.optimal
    assert res.nodes == 1
    assert is_cross_sperner(res.witness).ok
    # an unreachable target runs the proof to completion
    full = exact_max_product(SearchConfig(5, 2, target=100))
    assert full.optimal and full.value == 64


def test_exact_deadline_abort():
    res = exact_max_product(SearchConfig(5, 3, budget_secs=0.0))
    assert not res.optimal
    assert res.value >= 1
    assert res.witness is not None


def test_pure_anneal_holds_time_budget(monkeypatch):
    # one step of the pure annealer takes tens of milliseconds at n = 13,
    # so the deadline is checked on every step
    from sperner.search import engine

    monkeypatch.setattr(engine, "_kernels", None)
    start = time.monotonic()
    res = anneal_max_product(
        SearchConfig(13, 3, mode="heuristic", budget_secs=0.5, threads=1)
    )
    assert time.monotonic() - start < 1.0
    assert res.backend == "pure"
    assert is_cross_sperner(res.witness).ok


def test_compiled_anneal_holds_time_budget():
    # at n = 14 a bitset takes 256 words; the deadline holds there too
    from sperner.search import engine

    start = time.monotonic()
    res = anneal_max_product(
        SearchConfig(14, 3, mode="heuristic", budget_secs=0.5, threads=1)
    )
    assert time.monotonic() - start < 1.0
    assert res.backend == engine._select().BACKEND
    assert is_cross_sperner(res.witness).ok


@pytest.mark.parametrize("threads,n", [(1, 4), (1, 7), (2, 4), (2, 7), (1, 20)])
def test_zero_seconds_runs_no_annealing_step(n, threads):
    # the deadline is checked before each step, so no step runs or counts;
    # at n = 20 a bitset takes 16,384 words
    res = anneal_max_product(
        SearchConfig(n, 2, mode="heuristic", budget_secs=0.0, threads=threads)
    )
    assert res.nodes == 0
    assert is_cross_sperner(res.witness).ok


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_witness_recheck_survives_optimize_flag():
    # the engine re-checks every witness it returns, also under python -O
    code = textwrap.dedent("""
        import sys
        import types
        from sperner.search import SearchConfig, engine
        print("optimize", sys.flags.optimize)
        engine.is_cross_sperner = lambda t: types.SimpleNamespace(ok=False)
        for search in (engine.exact_max_product, engine.anneal_max_product):
            try:
                search(SearchConfig(3, 2, budget_nodes=50, threads=1))
            except AssertionError as e:
                print(search.__name__, e)
            else:
                print(search.__name__, "returned")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["optimize 1"] + [
        f"{name} search returned a tuple that is not cross-Sperner"
        for name in ("exact_max_product", "anneal_max_product")
    ]


# annealer


def test_anneal_reproducible_for_fixed_seed():
    cfg = SearchConfig(5, 3, mode="heuristic", budget_nodes=2000, seed=42, threads=2)
    a = anneal_max_product(cfg)
    b = anneal_max_product(cfg)
    assert a.value == b.value
    assert a.witness.canonical_key() == b.witness.canonical_key()
    assert not a.optimal
    assert is_cross_sperner(a.witness).ok


def test_anneal_thread_count_changes_exploration_not_validity():
    one = anneal_max_product(
        SearchConfig(5, 3, mode="heuristic", budget_nodes=1500, seed=7, threads=1)
    )
    four = anneal_max_product(
        SearchConfig(5, 3, mode="heuristic", budget_nodes=1500, seed=7, threads=4)
    )
    for res in (one, four):
        assert is_cross_sperner(res.witness).ok
        assert res.witness.product_size() == res.value
    assert four.value >= one.value  # chain 0 of both runs is the same


def test_pure_anneal_frozen_at_7_3(monkeypatch):
    # frozen on the pure kernels; the compiled ones serve every search when
    # built, and both run each chain on its own thread with the same result
    from sperner.search import engine

    cfg = SearchConfig(7, 3, mode="heuristic", seed=1, threads=2, budget_nodes=200)
    for backend in (engine._select().BACKEND, "pure"):
        if backend == "pure":
            monkeypatch.setattr(engine, "_kernels", None)
        prod = anneal_max_product(cfg)
        assert (prod.value, prod.nodes, prod.backend) == (6075, 400, backend)
        assert prod.witness.canonical_key() == (
            (10, 11, 13, 14, 15, 18, 19, 21, 22, 23, 26, 27, 29, 30, 31),
            (34, 35, 37, 38, 39, 66, 67, 69, 70, 71, 98, 99, 101, 102, 103),
            (40, 41, 44, 48, 49, 52, 56, 57, 60, 72, 73, 76, 80, 81, 84, 88, 89,
             92, 104, 105, 108, 112, 113, 116, 120, 121, 124),
        )
        total = anneal_max_sum(cfg)
        assert (total.value, total.nodes, total.backend) == (96, 400, backend)
        assert total.witness.canonical_key() == (
            (*range(3, 32), *range(35, 64), *range(67, 96), *range(100, 125, 4)),
            (97,),
            (98,),
        )


def _kernels_for(backend, monkeypatch):
    """The kernel module that serves a search on the backend, selected."""
    from sperner.search import engine

    if backend == "pure":
        monkeypatch.setattr(engine, "_kernels", None)
    else:
        pytest.importorskip("sperner.search._kernels",
                            reason="compiled backend not built", exc_type=ImportError)
    return engine._select()


@pytest.mark.parametrize("backend,n,threads,secs", [
    ("pure", 7, 2, 0.3),
    ("compiled", 14, 4, 0.5),
])
def test_every_chain_steps_under_a_time_budget(monkeypatch, backend, n, threads, secs):
    # pure chains take turns on the interpreter lock, and compiled ones past
    # the CPU count run too, so none starts after the shared deadline
    kern = _kernels_for(backend, monkeypatch)
    chain = kern.anneal_chain
    steps = {}

    def recorded(*args):
        out = chain(*args)
        steps[args[4]] = out[2]
        return out

    monkeypatch.setattr(kern, "anneal_chain", recorded)
    res = anneal_max_product(SearchConfig(n, 3, mode="heuristic", seed=1,
                                          threads=threads, budget_secs=secs))
    assert len(steps) == threads and min(steps.values()) >= 1, steps
    assert res.nodes == sum(steps.values())


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_chain_error_is_raised_after_every_thread_ends(monkeypatch, backend):
    kern = _kernels_for(backend, monkeypatch)
    chain = kern.anneal_chain
    _, first = sm64_next(1)  # the seed of chain 0 at seed 1

    def failing(*args):
        if args[4] == first:
            raise MemoryError("chain out of memory")
        return chain(*args)

    monkeypatch.setattr(kern, "anneal_chain", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="chain out of memory"):
        anneal_max_product(SearchConfig(5, 3, mode="heuristic", seed=1, threads=4,
                                        budget_nodes=500))
    assert threading.active_count() == before


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize("n,k,seed,threads,steps,pool_best", [
    (6, 6, 1, 1, 50, 4096),
    (7, 6, 1, 1, 50, 262144),
    # every family of this chain's start holds one set, so no step moves
    (8, 8, 5, 2, 5000, 16777216),
    (10, 3, 3, 2, 300, 3375000),
])
def test_pool_labeling_above_every_chain_is_reported(monkeypatch, backend, n, k, seed,
                                                     threads, steps, pool_best):
    # every chain starts from the pool's first labeling; a later one that
    # beats them all is the result, and the chains still take every step
    from sperner.search.engine import _variants

    kern = _kernels_for(backend, monkeypatch)
    chain = kern.anneal_chain
    bests = []

    def recorded(*args):
        out = chain(*args)
        bests.append(out[0])
        return out

    monkeypatch.setattr(kern, "anneal_chain", recorded)
    res = anneal_max_product(SearchConfig(n, k, mode="heuristic", seed=seed,
                                          threads=threads, budget_nodes=steps))
    assert max(bests) < res.value == pool_best == res.witness.product_size()
    assert res.nodes == threads * steps
    pool = _variants(n, k, True, seed)
    total = 1 << n
    assert _labels_of(res.witness) in [pool[i:i + total]
                                       for i in range(total, len(pool), total)]


_INTERRUPTED = textwrap.dedent("""
    import os
    import sys
    from sperner.search import SearchConfig, anneal_max_product, engine

    if sys.argv[1] == "pure":
        engine._kernels = None
    kern = engine._select()
    chain = kern.anneal_chain

    def announced(*args):
        os.write(1, f"chain {args[4]}\\n".encode())  # one write: lines stay whole
        return chain(*args)

    kern.anneal_chain = announced
    anneal_max_product(SearchConfig(int(sys.argv[2]), 3, mode="heuristic",
                                    seed=1, threads=2))
""")


@pytest.mark.parametrize("backend,n", [("pure", 12), ("compiled", 16)])
def test_ctrl_c_stops_a_running_search(monkeypatch, backend, n):
    _kernels_for(backend, monkeypatch)
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPTED, backend, str(n)],
                            env=_src_env(), stdout=subprocess.PIPE, text=True)
    try:
        # one running chain is enough: Ctrl-C must stop the search whatever
        # the others do
        started = proc.stdout.readline()
        assert started.startswith("chain "), started
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == -signal.SIGINT
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


KNOWN_TARGETS = [
    ((5, 3), 81),
    ((6, 3), 810),
    ((5, 4), 108),
]


@pytest.mark.parametrize("nk,target", KNOWN_TARGETS)
def test_anneal_reaches_published_products(nk, target):
    n, k = nk
    cfg = SearchConfig(
        n, k, mode="heuristic", budget_nodes=60_000, seed=0, target=target
    )
    res = anneal_max_product(cfg)
    assert res.value >= target
    assert is_cross_sperner(res.witness).ok
    assert res.witness.product_size() == res.value


def test_anneal_sum_reaches_known_values():
    res = anneal_max_sum(
        SearchConfig(5, 2, mode="heuristic", budget_nodes=20_000, seed=0, target=22)
    )
    assert res.value >= 22
    assert res.witness.sum_size() == res.value


def test_anneal_starts_wherever_the_exact_floor_exists():
    # the restart pool and the exact floor come from one construction list;
    # at (5, 6) the sum construction does not exist but the prefix one does
    exact = exact_max_sum(SearchConfig(5, 6))
    assert exact.value == 12
    res = anneal_max_sum(
        SearchConfig(5, 6, mode="heuristic", budget_nodes=500, threads=1)
    )
    assert res.value == exact.value
    assert res.witness.sum_size() == res.value


@pytest.mark.parametrize("product", [True, False])
@pytest.mark.parametrize("n,k", [(5, 3), (10, 3), (14, 7)])
def test_restart_pool_labelings_match_codec_oracles(n, k, product):
    from sperner.search.engine import _variants

    total = 1 << n
    pool = _variants(n, k, product, 1)
    assert len(pool) % total == 0
    starts = [pool[i:i + total] for i in range(0, len(pool), total)]
    assert len(set(starts)) == len(starts)
    for labels in starts:
        t = tuple_from_order_labels(n, k, labels, range(total))
        assert is_cross_sperner(t).ok
        assert _labels_of(t) == bytes(labels_by_masks(t, total)) == labels
        assert [_label_bits(labels, j) for j in range(1, k + 1)] == [
            f.members for f in t.families]


def test_anneal_refuses_labels_past_a_byte():
    # a labeling holds one byte a mask, so 255 families at most
    with pytest.raises(InfeasibleParams, match="need k <= 255"):
        anneal_max_sum(SearchConfig(12, 256, mode="heuristic", threads=1))
    res = anneal_max_sum(SearchConfig(12, 255, mode="heuristic", threads=1,
                                      budget_nodes=1))
    assert res.witness.k == 255 and is_cross_sperner(res.witness).ok


def test_anneal_never_reports_invalid_tuple():
    for seed in range(5):
        res = anneal_max_sum(
            SearchConfig(4, 3, mode="heuristic", budget_nodes=800, seed=seed)
        )
        assert is_cross_sperner(res.witness).ok
        assert res.witness.sum_size() == res.value


# thread resolution and kernel selection


def test_resolve_threads_default():
    assert resolve_threads(3) == 3
    assert resolve_threads(None) == 4


def test_kernel_selection_rule(monkeypatch):
    from sperner.search import _kernels_py, engine

    assert BACKEND == engine._select().BACKEND
    if engine._kernels is not None:
        assert engine._select() is engine._kernels
    monkeypatch.setattr(engine, "_kernels", None)
    assert engine._select() is _kernels_py


def test_products_past_int64_anneal_compiled():
    # at (14, 7) the seeded product tuple alone has 729**7 > 2**63
    res = anneal_max_product(
        SearchConfig(14, 7, mode="heuristic", seed=1, threads=2, budget_nodes=2)
    )
    assert res.backend == BACKEND
    assert res.value == res.witness.product_size() >= 729**7
    total = anneal_max_sum(
        SearchConfig(14, 7, mode="heuristic", seed=1, threads=2, budget_nodes=2)
    )
    assert total.backend == BACKEND


def test_results_report_pure_without_the_library():
    # hiding the compiled module is how a checkout without a build looks
    code = textwrap.dedent("""
        import sys
        sys.modules["sperner.search._kernels"] = None
        from sperner.search import (BACKEND, SearchConfig, anneal_max_sum,
                                    exact_max_product)
        print(BACKEND)
        print(exact_max_product(SearchConfig(4, 3)).backend)
        print(anneal_max_sum(SearchConfig(5, 3, mode="heuristic", threads=2,
                                          budget_nodes=50)).backend)
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pure", "pure", "pure"]


# backend parity


def _comp_args(n, orbit_firsts=False):
    # orbit_firsts passes the upsets the comparability table scans
    from sperner.search import _kernels_py

    total = 1 << n
    ups, firsts = _kernels_py.upset_orbits(n)
    usizes = [b.bit_count() for b in ups]
    downs = _reflect_bits(ups, total)
    if not orbit_firsts:
        return ups, usizes, downs, usizes, total
    return ([ups[i] for i in firsts], [usizes[i] for i in firsts],
            downs, usizes, total)


def _exact_args(n, k, product):
    from sperner.search.engine import (
        _best_construction,
        _cmp_forward,
        _usable_order,
    )

    masks = _usable_order(n)
    fwd = _cmp_forward(masks)
    floor, _ = _best_construction(n, k, product)
    return k, product, masks, fwd, floor, 0, 0, 0.0


def _exact_parity_cases():
    """Exact-search calls on which every backend must give the pure
    kernel's result."""
    cases = []
    for n, k, product in [(4, 2, True), (4, 3, True), (4, 2, False), (4, 4, False)]:
        args = _exact_args(n, k, product)
        floor = args[4]
        # the construction floor, floor 0, and a target just above the floor
        cases += [args, args[:4] + (0,) + args[5:], args[:5] + (floor + 1,) + args[6:]]
    # node budgets at the ends of the 4096-node deadline cadence and past
    # its first checks, from floor 0, where the search completes at 63,603
    args = _exact_args(5, 3, True)
    for budget in (1, 4096, 4097, 8193, 40_000, 100_000):
        cases.append(args[:4] + (0, 0, budget, 0.0))
    cases += [_exact_args(5, k, False) for k in (2, 3, 4)]
    # 64 masks fill every bit of a row's word
    rng = random.Random(64)
    masks = rng.sample(range(1, 1 << 20), 64)
    fwd = [sum(1 << j for j in range(i + 1, 64) if rng.random() < 0.15) for i in range(64)]
    for k, product in [(3, True), (4, False)]:
        cases.append((k, product, masks, fwd, 0, 0, 20_000, 0.0))
    # 64 incomparable masks in 64 families: the leaf's key walk marks
    # family 64 in the last bit of its word
    cases.append((64, False, masks, [0] * 64, 0, 0, 0, 0.0))
    # no masks at all, and no masks with the floor past the target
    cases += [(2, True, [], [], 0, 0, 0, 0.0), (2, True, [], [], 5, 1, 0, 0.0)]
    return cases


@pytest.fixture(scope="session")
def exact_parity():
    """(arguments, pure result) of each exact parity case."""
    from sperner.search import _kernels_py

    return [(args, _kernels_py.exact_search(*args)) for args in _exact_parity_cases()]


@pytest.fixture(scope="session")
def comp_parity():
    """(arguments, pure result) of each comp_scan parity case."""
    from sperner.search import _kernels_py

    return [(args, _kernels_py.comp_scan(*args))
            for args in (_comp_args(3), _comp_args(4), _comp_args(5, orbit_firsts=True))]


def _anneal_args(n, k, product, seed, steps, restart=None):
    from sperner.search.engine import _ALPHA, _RESTART, _T0, _variants

    variants = _variants(n, k, product, seed)
    return (n, k, product, variants, seed, steps,
            _T0, _ALPHA, restart or _RESTART, 0, 0.0)


@pytest.fixture(scope="session")
def anneal_parity():
    """(arguments, pure result) of each annealer parity case.

    The final generator state in each result shows any extra or missing
    draw; n = 7, 8, 10, 12, 13 and 14 take 2, 4, 16, 64, 128 and 256 words
    a bitset, and their short restart intervals bring in restarts.  At
    (13, 6) products pass 2**53, where the acceptance ratio needs exact
    integer division.  At (12, 7), (14, 7) and (8, 16), where 16 families
    of 16 allow 2**64, a product may pass 2**63; at (14, 7) the start
    does, with 729**7.  At n = 2 masks 1 and 2 are the only proper ones.
    At (9, 6) and (11, 4) ruin and dig-hole moves strip several families
    in one step, so one fill recloses each of them.
    """
    from sperner.search import _kernels_py

    cases = [_anneal_args(*case) for case in [
        (2, 2, True, 1, 200, 20),
        (2, 2, False, 4, 200, 20),
        (5, 3, True, 1, 3000, None),
        (5, 2, False, 9, 3000, None),
        (7, 5, True, 3, 1200, 40),
        (8, 4, False, 6, 500, 30),
        (10, 3, True, 2, 180, 20),
        (10, 5, False, 7, 180, 20),
        (12, 3, True, 4, 40, 8),
        (12, 2, False, 5, 30, 8),
        (13, 4, False, 3, 20, 5),
        (13, 6, True, 1, 12, 4),
        (14, 3, True, 2, 12, 5),
        (12, 7, True, 1, 20, 6),
        (14, 7, True, 1, 8, 3),
        (8, 16, True, 1, 400, 30),
        (9, 6, True, 1, 400, 15),
        (11, 4, False, 3, 120, 6),
    ]]
    return [(args, _kernels_py.anneal_chain(*args)) for args in cases]


class TestBackendParity:
    """The compiled kernels built in place, against the pure reference."""

    @pytest.fixture(autouse=True)
    def _backends(self):
        from sperner.search import _kernels_py

        self.pure = _kernels_py
        self.fast = pytest.importorskip(
            "sperner.search._kernels", reason="compiled backend not built",
            exc_type=ImportError,
        )

    def test_backend_tags(self):
        assert self.pure.BACKEND == "pure"
        assert self.fast.BACKEND == "compiled"
        assert BACKEND in ("pure", "compiled")

    def test_upset_orbits_identical(self):
        for n in range(TABLE_MAX_GROUND + 1):
            assert self.fast.upset_orbits(n) == self.pure.upset_orbits(n), n

    def test_comp_scan_identical(self, comp_parity):
        for args, pure in comp_parity:
            assert self.fast.comp_scan(*args) == pure

    def test_exact_search_identical(self, exact_parity):
        for i, (args, pure) in enumerate(exact_parity):
            assert self.fast.exact_search(*args) == pure, i

    def test_anneal_chain_identical(self, anneal_parity):
        for args, pure in anneal_parity:
            assert self.fast.anneal_chain(*args) == pure, args[:3]

    def test_anneal_start_meeting_target_takes_no_step(self):
        # a chain whose first fill already meets its target returns before
        # its first step; one just above the start still anneals
        for n, k, product in [(5, 2, True), (5, 2, False), (7, 3, True)]:
            args = list(_anneal_args(n, k, product, 1, 500))
            args[5] = 0
            start = self.pure.anneal_chain(*args)[0]
            args[5] = 500
            for stop, stepped in [(start, False), (start - 1, False), (start + 1, True)]:
                args[9] = stop
                out = self.pure.anneal_chain(*args)
                assert self.fast.anneal_chain(*args) == out
                assert (out[2] > 0) == stepped, (n, k, product, stop)

    def test_exact_search_past_deadline_stops_at_first_check(self):
        # a deadline already past stops both DFS kernels at their first
        # clock check, node 4096, with the same best so far
        for n, k, product in [(5, 3, True), (5, 2, False)]:
            args = list(_exact_args(n, k, product))
            args[7] = time.monotonic() - 1.0
            out = self.pure.exact_search(*args)
            assert out[2:] == (4096, False)
            assert self.fast.exact_search(*args) == out

    def test_ruin_step_at_twenty(self, monkeypatch):
        # the first step of this chain ruins its n = 20 support, removing
        # a tenth to two fifths of its members: it closes each stripped
        # family once, not once a removal, and walks only the open masks
        from sperner.search import engine

        monkeypatch.setattr(engine, "_kernels", self.fast)
        start = time.monotonic()
        res = anneal_max_product(SearchConfig(20, 3, mode="heuristic",
                                              budget_nodes=1, threads=1, seed=1))
        assert (res.value, res.nodes, res.backend) == (3746697164594496, 1, "compiled")
        assert time.monotonic() - start < 15.0

    def test_recolor_draws_at_twenty(self):
        # four of this chain's ten steps draw a recolor, each over a
        # component of 155,316 members, a whole family: a component grows
        # by whole closures, not by one closure a member
        args = _anneal_args(20, 3, True, 1, 10)
        start = time.monotonic()
        value, _, steps, state = self.fast.anneal_chain(*args)
        assert (value, steps, state) == (3746697164594496, 10, 15823692383921917202)
        assert time.monotonic() - start < 15.0

    def test_anneal_stops_at_target_past_int64(self):
        # at (12, 10) seed 1 the chain starts near 2**29 and its best passes
        # 2**70 at step 9; a target there stops both kernels at that step,
        # and one just above the best value does not
        args = list(_anneal_args(12, 10, True, 1, 30, 5))
        best = 1169721326592000000000
        for stop, done in [(2**64, 9), (best, 9), (best + 1, 30)]:
            args[9] = stop
            out = self.pure.anneal_chain(*args)
            assert out[::2] == (best, done)
            assert self.fast.anneal_chain(*args) == out


CKERNELS_C = (Path(__file__).resolve().parents[1]
              / "src" / "sperner" / "search" / "ckernels.c")


@pytest.fixture(scope="session")
def gcc_library(tmp_path_factory):
    """The path of ckernels.c compiled by gcc as strict C99 with -Wall,
    -Wextra, -Wvla, -Wshadow, -Wstrict-prototypes, -Wcast-qual,
    -Wlogical-op, -Wduplicated-cond, -Wduplicated-branches and
    -Wnull-dereference warnings as errors.  -Wvla keeps 2**n-sized arrays
    off the stack, and -Wcast-qual keeps const pointers const."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    lib = tmp_path_factory.mktemp("ckernels") / "_ckernels.so"
    proc = subprocess.run(
        [gcc, "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Wvla", "-Wshadow",
         "-Wstrict-prototypes", "-Wcast-qual", "-Wlogical-op", "-Wduplicated-cond",
         "-Wduplicated-branches", "-Wnull-dereference", "-Werror", "-O2", "-shared",
         "-fPIC", "-o", str(lib), str(CKERNELS_C), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return str(lib)


@pytest.fixture(scope="session")
def gcc_kernels(gcc_library):
    """The gcc build, bound the way the in-place build is bound."""
    from sperner.search._clib import Library

    return Library(gcc_library)


def _probe(tmp_path, code):
    """The function probe, defined by code after an #include of
    ckernels.c, so that it can call the kernels' static helpers."""
    import ctypes

    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    probe = tmp_path / "probe.c"
    probe.write_text(f'#include "{CKERNELS_C}"\n' + textwrap.dedent(code))
    lib = tmp_path / "probe.so"
    subprocess.run([gcc, "-std=c99", "-O2", "-shared", "-fPIC", "-o", str(lib),
                    str(probe), "-lm"], check=True, timeout=120)
    return ctypes.CDLL(str(lib)).probe


def test_waterfill_is_the_best_split(tmp_path):
    # the product bound's core on both backends: the most that units more
    # members, split over families of the sorted sizes v, can make of the
    # product, against trying every split
    import ctypes
    import itertools

    from sperner.search._kernels_py import _waterfill_product

    waterfill = _probe(tmp_path, """
        int64_t probe(const int64_t *v, int k, int64_t units)
        {
            return waterfill(v, k, units);
        }
    """)
    waterfill.argtypes = [ctypes.POINTER(ctypes.c_int64), ctypes.c_int, ctypes.c_int64]
    waterfill.restype = ctypes.c_int64

    def best_split(v, units):
        if len(v) == 1:
            return v[0] + units
        return max((v[0] + x) * best_split(v[1:], units - x) for x in range(units + 1))

    for k in range(1, 5):
        for v in itertools.combinations_with_replacement(range(6), k):
            for units in range(9):
                want = best_split(v, units)
                assert _waterfill_product(list(v), units) == want, (v, units)
                assert waterfill((ctypes.c_int64 * k)(*v), k, units) == want, (v, units)


def test_key_walk_matches_canonical_key(tmp_path):
    # the C leaf's key, read off the indices in ascending mask order,
    # against the pure kernel's sorted families, flattened with -1 between
    import ctypes

    from sperner.search._kernels_py import _canonical_key

    build_key = _probe(tmp_path, """
        int probe(int M, int k, const int64_t *masks, uint8_t *labels, int *asc,
                  int64_t *out)
        {
            Ctx c;
            memset(&c, 0, sizeof(c));
            c.M = M;
            c.k = k;
            c.masks = masks;
            c.labels = labels;
            c.asc = asc;
            return build_key(&c, out);
        }
    """)

    def c_key(masks, labels, k):
        m_count = len(masks)
        asc = sorted(range(m_count), key=masks.__getitem__)
        out = (ctypes.c_int64 * (2 * m_count))()
        klen = build_key(m_count, k, (ctypes.c_int64 * m_count)(*masks),
                         (ctypes.c_uint8 * m_count)(*labels),
                         (ctypes.c_int * m_count)(*asc), out)
        return out[:klen]

    def flat(key):
        return [m for f in key for m in (-1,) + f][1:]

    rng = random.Random(17)
    cases = []
    for _ in range(400):
        m_count = rng.randint(1, 64)
        k = rng.randint(1, min(8, m_count))
        # every family non-empty, as at a leaf; label 0 leaves a mask out
        labels = list(range(1, k + 1)) + [rng.randint(0, k) for _ in range(m_count - k)]
        rng.shuffle(labels)
        cases.append((rng.sample(range(1 << 20), m_count), labels, k))
    cases.append((rng.sample(range(1 << 20), 64), rng.sample(range(1, 65), 64), 64))
    for masks, labels, k in cases:
        want = flat(_canonical_key(labels, masks, k))
        assert c_key(masks, labels, k) == want, (masks, labels, k)


def test_upset_orbits_at_six(tmp_path):
    # past the engine's gate, the C enumeration with its memoryless orbit
    # test: every upset of P([6]), the Dedekind number, and one first per
    # S_6 orbit, A003182(6); a capacity of 0 stores neither
    import ctypes

    count = _probe(tmp_path, """
        int64_t probe(int64_t *n_firsts)
        {
            return sperner_upset_orbits(6, 0, NULL, NULL, n_firsts);
        }
    """)
    count.argtypes = [ctypes.POINTER(ctypes.c_int64)]
    count.restype = ctypes.c_int64
    n_firsts = ctypes.c_int64()
    assert count(ctypes.byref(n_firsts)) == 7_828_354
    assert n_firsts.value == 16_353


def test_exact_ratio_rounds_as_int_division(tmp_path):
    # above 2**53 products no longer convert to double exactly; the C
    # acceptance ratio must still round as Python's int division does, at
    # every width up to 5100 bits and down to quotients that round to 0
    import ctypes

    probe_fn = _probe(tmp_path, """
        double probe(const uint32_t *a, int na, const uint32_t *b, int nb)
        {
            Value x, y;
            x.len = na;
            y.len = nb;
            memcpy(x.limb, a, na * sizeof(uint32_t));
            memcpy(y.limb, b, nb * sizeof(uint32_t));
            return exact_ratio(&x, &y);
        }
    """)
    probe_fn.restype = ctypes.c_double

    def limbs(v):
        count = max(1, -(-v.bit_length() // 32))
        return (ctypes.c_uint32 * count)(
            *(v >> 32 * i & 0xFFFFFFFF for i in range(count))), count

    def ratio(a, b):
        return probe_fn(*limbs(a), *limbs(b))

    rng = random.Random(3)
    cases = [(0, 5), (1, 2**63 - 1), (2**63 - 2, 2**63 - 1), (1, (1 << 5099) + 1)]
    # 2**-1075 exactly rounds to 0 and just above it to 2**-1074;
    # 3 * 2**-1076 and 3 * 2**-1075 round to the nearest and the even subnormal
    cases += [(1, 1 << 1075), (1, (1 << 1075) - 1), (3, 1 << 1076), (3, 1 << 1075),
              ((1 << 4000) + 1, 1 << 5075)]
    for _ in range(3000):
        b = rng.randrange(2, 1 << rng.randint(2, 63))
        cases.append((rng.randrange(b), b))
        # a / 2**62 halfway between two doubles, and just off it
        half = ((1 << 54) + 4 * rng.randrange(1 << 52) + 2) << 7
        cases += [(half + d, 1 << 62) for d in (-1, 0, 1)]
    for _ in range(500):
        # operands of up to 5100 bits, quotients of any size
        b = rng.randrange(2, 1 << rng.randint(2, 5100))
        cases.append((rng.randrange(1, 1 << rng.randint(1, b.bit_length())) % b, b))
        # a quotient halfway between two doubles, and just off it, over an
        # odd factor of up to 5000 bits
        odd = rng.randrange(1 << rng.randint(0, 5000)) | 1
        half = 2 * ((1 << 52) + rng.randrange(1 << 52)) + 1
        cases += [(half * odd + d, odd << 54 + rng.randint(0, 40)) for d in (-1, 0, 1)]
        # quotients near and below 2**-1022: subnormal, or rounding to 0
        a = rng.randrange(1, 1 << rng.randint(1, 4000))
        cases.append((a, (a << rng.randint(1015, 1080)) + rng.randint(-3, 3)))
    # the kernel's precondition, and the width of its limbs
    assert all(0 <= a < b < 2**5100 for a, b in cases)
    results = [(ratio(a, b), a / b) for a, b in cases]
    assert all(got == want for got, want in results), next(
        (case, got, want) for case, (got, want) in zip(cases, results) if got != want)
    assert any(0 < want < 2.0**-1022 for _, want in results)
    assert any(want == 0 for (a, _), (_, want) in zip(cases, results) if a)


class TestGccKernelParity(TestBackendParity):
    """The same parity cases against a fresh gcc build of the C source, so
    the compiled kernels are checked even where nothing is built in place."""

    @pytest.fixture(autouse=True)
    def _backends(self, gcc_kernels):
        from sperner.search import _kernels_py

        self.pure = _kernels_py
        self.fast = gcc_kernels


# (n, k, product, seed, steps, restart interval) -> (value, steps, sha256 of
# the best labels, final generator state) of one chain.  Both kernels must
# give these, so a drift they share still shows.  At (6, 3) seed 5 a restart
# finds 810, which the same chain without restarts misses; at (10, 3) seed 3
# one finds 150**3, and at (12, 10) seed 1 the best value passes 2**70.
RESTART_FREEZE = [
    ((6, 3, True, 1, 3000, 300),
     (729, 3000, "a68a4494fba2d27f8087d48160101d8294e8a1cafdb8147b076118d584b8cbef",
      4576633084666566902)),
    ((5, 2, False, 9, 3000, 300),
     (22, 3000, "65fa33267e794a72ae841996be934b09ba54647088cd7a9040bfd217c3825b84",
      883759828494494831)),
    ((6, 3, True, 5, 3000, 300),
     (810, 3000, "4c31dfbf630d6ed4d46c50133d1ffa4a0bf669a40ad2df72f07959c3b8e5bb88",
      16206502214427813327)),
    ((10, 3, True, 3, 200, 30),
     (3375000, 200, "50d2e292d01fd56733c3172d16e507131118dbe31b577d6d6909e2b55753f218",
      6016740024150326668)),
    ((12, 10, True, 1, 30, 5),
     (1169721326592000000000, 30,
      "2a6fdf636db5c9f09d7f6a4ca7059670615cf419346483b1c9130f9c2ed4f089",
      7104935123700740693)),
]


@pytest.mark.parametrize("backend", ["pure", "gcc"])
@pytest.mark.parametrize("case,frozen", RESTART_FREEZE)
def test_anneal_restarts_frozen(request, backend, case, frozen):
    if backend == "pure":
        from sperner.search import _kernels_py as kernels
    else:
        kernels = request.getfixturevalue("gcc_kernels")
    value, labels, steps, state = kernels.anneal_chain(*_anneal_args(*case))
    assert (value, steps, hashlib.sha256(bytes(labels)).hexdigest(), state) == frozen


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_placement_rule_matches_comparability(n, k):
    from sperner.search._kernels_py import _AnnealState

    rng = random.Random(n * 10 + k)
    st = _AnnealState(n, k)
    seen = set()
    for _ in range(20):
        density = 0.4 * rng.random()
        labels = [rng.randint(1, k) if rng.random() < density else 0
                  for _ in range(1 << n)]
        st.load(labels)
        for m in range(1 << n):
            if labels[m]:
                continue
            seen.add(max(-1, min(1, st.owner(m))))
            for j in range(1, k + 1):
                blocked = any(lab not in (0, j) and comparable(x, m)
                              for x, lab in enumerate(labels))
                assert (st.owner(m) in (0, j)) == (not blocked)
    assert seen == {-1, 0, 1}  # unowned, owned and contested masks all occur


STEP_CHAINS = [
    (2, 2, True, 5), (5, 3, True, 20), (7, 5, True, 15),
    (5, 2, False, 20), (8, 4, False, 10),
]


def _at_every_step_start(monkeypatch, n, k, product, restart, check):
    """Runs a pure chain that calls check(st) on its state at the start of
    every step, when the step takes its snapshot."""
    from sperner.search import _kernels_py
    from sperner.search._kernels_py import _AnnealState

    snapshot = _AnnealState.snapshot
    checked = 0

    def checked_snapshot(st):
        nonlocal checked
        check(st)
        checked += 1
        return snapshot(st)

    monkeypatch.setattr(_AnnealState, "snapshot", checked_snapshot)
    steps = 1000 if n < 7 else 350
    _kernels_py.anneal_chain(*_anneal_args(n, k, product, 1, steps, restart))
    assert checked == steps


@pytest.mark.parametrize("n,k,product,restart", STEP_CHAINS)
def test_every_step_starts_maximal(monkeypatch, n, k, product, restart):
    # the add move only draws: at the start of every step no family is
    # stale, each near is its family's closure, and every unlabeled
    # usable mask is near two or more families, so none can be placed.
    # The support is not empty, so the support moves can draw a member,
    # and no family is near a member of another: the labeling is
    # cross-Sperner
    def check(st):
        assert not st.stale
        for j in range(1, k + 1):
            assert st.near[j] == _comparable_bits(st.fams[j], n)
            assert not st.near[j] & st.support & ~st.fams[j]
        for m in range(1, (1 << n) - 1):
            if not st.labels[m]:
                assert st.owner(m) == -1, m
        assert st.support_count == st.support.bit_count() > 0

    _at_every_step_start(monkeypatch, n, k, product, restart, check)


@pytest.mark.parametrize("n,k,product,restart", STEP_CHAINS)
def test_move_test_matches_the_placement_rule(monkeypatch, n, k, product, restart):
    # the move to another family lets member m of family j go when no
    # other member of j is comparable to it; at every step start that is
    # the placement rule's verdict after m leaves: owner(m) in (0, jj)
    # once m is removed and j reclosed, for every other family jj
    from sperner.search._kernels_py import _AnnealState

    snapshot = _AnnealState.snapshot  # before the chain's hook replaces it
    verdicts = set()

    def check(st):
        old = _AnnealState(n, k)
        old.load(st.labels)
        start = snapshot(old)
        for m in bit_positions(st.support):
            j = st.labels[m]
            free = st.one(m) & st.fams[j] == 1 << m
            old.remove(m)
            old.refresh()
            for jj in range(1, k + 1):
                if jj != j:
                    assert (old.owner(m) in (0, jj)) == free, (m, j, jj)
            old.restore(start)
            verdicts.add(free)

    _at_every_step_start(monkeypatch, n, k, product, restart, check)
    # at n = 2 the proper masks 1 and 2 are incomparable, so each may go
    assert verdicts == ({True} if n == 2 else {True, False})


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (7, 4)])
def test_refresh_recloses_stale_families(n, k):
    # a removal only marks its family stale; after refresh() each near is
    # the closure of its family again, as a fresh load computes it
    from sperner.search._kernels_py import _AnnealState

    rng = random.Random(n * 10 + k)
    st = _AnnealState(n, k)
    most = 0
    for _ in range(10):
        st.load([rng.randint(1, k) if rng.random() < 0.5 else 0
                 for _ in range(1 << n)])
        members = [m for m in range(1 << n) if st.labels[m]]
        for m in rng.sample(members, rng.randint(1, len(members))):
            st.remove(m)
        most = max(most, len(st.stale))
        st.refresh()
        assert not st.stale
        for j in range(1, k + 1):
            assert st.near[j] == _comparable_bits(st.fams[j], n)
    assert most >= 2  # several families went stale at once


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_component_closure_matches_frontier_walk(n, k):
    # the component grown by whole closures is the one a walk from member
    # to member finds; recoloring it marks the receiving family stale, so
    # its adds skip near, and refresh() recloses it
    from sperner.search._kernels_py import _AnnealState

    rng = random.Random(n * 1000 + k)
    st = _AnnealState(n, k)
    sizes = set()
    for density in (0.03, 0.1, 0.3, 0.5) * 2:
        st.load([rng.randint(1, k) if rng.random() < density else 0
                 for _ in range(1 << n)])
        for m in bit_positions(st.support):
            comp = st.component(m)
            assert comp == component_by_frontier(st, m), m
            sizes.add(min(comp.bit_count(), 2))
        if st.support:
            m = rng.choice(bit_positions(st.support))
            jj = rng.choice([j for j in range(1, k + 1) if j != st.labels[m]])
            st.stale.add(jj)
            for x in bit_positions(st.component(m)):
                st.remove(x)
                st.add(x, jj)
            st.refresh()
            for j in range(1, k + 1):
                assert st.near[j] == _comparable_bits(st.fams[j], n)
    assert sizes == {1, 2}  # lone members and larger components both occur


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_contested_masks_are_the_unplaceable_ones(n, k):
    # the masks a fill skips, unlabeled ones near two families, are exactly
    # those the placement rule gives to no family
    from sperner.search._kernels_py import _AnnealState

    rng = random.Random(n * 100 + k)
    st = _AnnealState(n, k)
    found = 0
    for _ in range(20):
        density = 0.4 * rng.random()
        st.load([rng.randint(1, k) if rng.random() < density else 0
                 for _ in range(1 << n)])
        unplaceable = [m for m in range(1 << n)
                       if not st.labels[m] and st.owner(m) == -1]
        assert bit_positions(st.contested() & ~st.support) == unplaceable
        found += len(unplaceable)
    assert found


class TestCompiledGuards:
    """The C kernels trust their buffers, so the bindings reject
    out-of-range inputs before the call."""

    def test_exact_search_rejects_more_than_64_masks(self, gcc_kernels):
        m = 65
        with pytest.raises(ValueError, match="m_count <= 64"):
            gcc_kernels.exact_search(2, True, list(range(1, m + 1)), [0] * m,
                                     0, 0, 0, 0.0)

    def test_anneal_rejects_ground_above_limit(self, gcc_kernels):
        # built at a small ground, since no start exists above MAX_GROUND
        args = list(_anneal_args(4, 3, True, 1, 10))
        args[0] = MAX_GROUND + 1
        with pytest.raises(ValueError, match="n <= 20"):
            gcc_kernels.anneal_chain(*args)

    def test_anneal_rejects_ground_below_two(self, gcc_kernels):
        # n = 1 has no proper mask; the binding refuses it before the call,
        # where C's -1 would read as MemoryError
        args = list(_anneal_args(2, 2, True, 1, 10))
        args[0] = 1
        args[3] = bytes([1, 2])
        with pytest.raises(ValueError, match="2 <= n <= 20"):
            gcc_kernels.anneal_chain(*args)

    def test_int64_arguments_are_clamped(self, gcc_kernels):
        # ctypes would wrap 2**64 + 5 to 5, a target the chain passes at
        # once; a stop value past the annealer's limbs is clamped to them
        from sperner.search import _kernels_py

        args = list(_anneal_args(5, 3, True, 1, 300))
        for stop in (2**64 + 5, 2**6000):
            args[9] = stop
            fast = gcc_kernels.anneal_chain(*args)
            assert fast == _kernels_py.anneal_chain(*args)
            assert fast[2] == 300
        args = list(_exact_args(4, 3, True))
        args[5] = 2**64 + 5
        assert gcc_kernels.exact_search(*args) == _kernels_py.exact_search(*args)

    def test_int64_arguments_are_clamped_from_below(self, gcc_kernels):
        # ctypes would wrap -2**64 to 0, which means no target, no node
        # budget; the pure DFS stops at node 1 on either
        from sperner.search import _kernels_py

        for i in (5, 6):  # target, node budget
            args = list(_exact_args(4, 3, True))
            args[i] = -2**64
            out = _kernels_py.exact_search(*args)
            assert out == (9, None, 1, False)
            assert gcc_kernels.exact_search(*args) == out
        # a restart interval of -2**64 restarts after every step, and a
        # step count of -2**64 takes none
        for i, value, done in [(8, -2**64, 50), (5, -2**64, 0)]:
            args = list(_anneal_args(4, 3, True, 1, 50))
            args[i] = value
            out = _kernels_py.anneal_chain(*args)
            assert out[2] == done
            assert gcc_kernels.anneal_chain(*args) == out

    def test_anneal_rejects_negative_stop_value(self, gcc_kernels):
        # the stop value crosses as unsigned limbs
        args = list(_anneal_args(4, 3, True, 1, 10))
        args[9] = -5
        with pytest.raises(ValueError, match="stop value must be >= 0"):
            gcc_kernels.anneal_chain(*args)

    def test_anneal_rejects_variant_of_wrong_length(self, gcc_kernels):
        # a pool whose length is not a whole number of labelings, or empty
        args = list(_anneal_args(4, 3, True, 1, 10))
        for pool in (args[3][:-1], args[3] + bytes(15), b""):
            args[3] = pool
            with pytest.raises(ValueError, match=r"whole labelings of 2\*\*n = 16 bytes"):
                gcc_kernels.anneal_chain(*args)

    @pytest.mark.parametrize("label", [4, 255])
    def test_anneal_rejects_label_out_of_range(self, gcc_kernels, label):
        # every byte above k, up to the top of a byte, raises the same error
        args = list(_anneal_args(4, 3, True, 1, 10))
        pool = bytearray(args[3])
        pool[-16 + 5] = label  # in the last labeling
        args[3] = bytes(pool)
        with pytest.raises(ValueError, match=r"labels must lie in 0\.\.3"):
            gcc_kernels.anneal_chain(*args)

    def test_anneal_refuses_a_list_of_labelings(self, gcc_kernels):
        # the pool is one bytes buffer; a list of labelings, even a valid
        # one, is refused before the call
        args = list(_anneal_args(4, 3, True, 1, 10))
        args[3] = [args[3][i:i + 16] for i in range(0, len(args[3]), 16)]
        with pytest.raises(ValueError, match="one bytes buffer, got list"):
            gcc_kernels.anneal_chain(*args)

    def test_comp_scan_rejects_more_than_64_positions(self, gcc_kernels):
        with pytest.raises(ValueError, match="total <= 64"):
            gcc_kernels.comp_scan([1], [1], [1], [1], 65)

    @pytest.fixture
    def unbound(self, gcc_library):
        """The gcc build with a stand-in for its library that fails the
        test when called, so an error must come from a check before C."""
        from sperner.search._clib import Library

        class NoCalls:
            def __getattr__(self, name):
                def call(*args):
                    pytest.fail(f"{name} was called")
                return call

        lib = Library(gcc_library)
        lib._lib = NoCalls()
        return lib

    @pytest.mark.parametrize("upsets, downsets", [
        ([1, 1 << 3], [1]),  # an upset at bit total
        ([1], [1 << 3, 1]),  # a downset at bit total
        ([-1], [1]),  # a negative bitset
        ([1 << 64], [1]),  # past the word
    ])
    def test_comp_scan_rejects_bitsets_out_of_range(self, unbound, upsets, downsets):
        with pytest.raises(ValueError, match="comp_scan bitsets must lie below bit 3"):
            unbound.comp_scan(upsets, [1] * len(upsets), downsets, [1] * len(downsets), 3)

    def test_comp_scan_rejects_sizes_past_int64(self, unbound, gcc_kernels):
        # ctypes would read 2**64 + 1 as 1, where the pure kernel keeps it
        for sizes in ([2**64 + 1], [2**63], [-2**63 - 1]):
            with pytest.raises(ValueError, match="comp_scan sizes must fit int64"):
                unbound.comp_scan([1], sizes, [1], [1], 1)
            with pytest.raises(ValueError, match="comp_scan sizes must fit int64"):
                unbound.comp_scan([1], [1], [1], sizes, 1)
        # the ends of int64 still cross as they are; |U & D| = 1 here, so
        # 1 + size - 1 stays in int64
        from sperner.search import _kernels_py

        for size in (2**63 - 1, -2**63):
            args = ([1], [1], [1], [size], 1)
            assert gcc_kernels.comp_scan(*args) == _kernels_py.comp_scan(*args)

    def test_exact_search_rejects_rows_at_bit_m_count(self, unbound):
        args = list(_exact_args(3, 2, True))
        rows = list(args[3])
        rows[-1] |= 1 << len(rows)
        args[3] = rows
        with pytest.raises(ValueError,
                           match="exact_search comparability rows must lie below bit 6"):
            unbound.exact_search(*args)

    def test_exact_search_rejects_masks_past_int64(self, unbound):
        args = list(_exact_args(3, 2, True))
        for mask in (2**63, -2**63 - 1):
            args[2] = list(args[2][:-1]) + [mask]
            with pytest.raises(ValueError, match="exact_search masks must fit int64"):
                unbound.exact_search(*args)

    def test_exact_search_rejects_floor_outside_int64(self, unbound, gcc_kernels):
        # ctypes wrapped a floor of 2**63 at (3, 2): the compiled kernel
        # returned a labeling of value 4, the pure one the floor itself
        from sperner.search import _kernels_py

        args = list(_exact_args(3, 2, True))
        for floor in (2**63, -2**63 - 1):
            args[4] = floor
            with pytest.raises(ValueError, match="exact_search floor_value must fit int64"):
                unbound.exact_search(*args)
        for floor in (2**63 - 1, -2**63):  # the ends of int64 cross as they are
            args[4] = floor
            assert gcc_kernels.exact_search(*args) == _kernels_py.exact_search(*args)

    def test_float_inputs_raise_type_error(self, unbound):
        for args in (([1.0], [1], [1], [1], 3), ([1], [1.0], [1], [1], 3),
                     ([1], [1], [1.0], [1], 3), ([1], [1], [1], [1.0], 3)):
            with pytest.raises(TypeError):
                unbound.comp_scan(*args)
        exact = list(_exact_args(3, 2, True))
        for i in (2, 3):
            args = list(exact)
            args[i] = [float(v) for v in exact[i]]
            with pytest.raises(TypeError):
                unbound.exact_search(*args)

    def test_sequences_of_ints_give_the_list_results(self, gcc_kernels):
        # tuples, typed arrays of either signedness and bytes read as ints
        from array import array

        def forms(values):
            return (tuple(values), array("Q", values), array("q", values),
                    array("l", values), bytes(values) if max(values) < 256 else values)

        comp = _comp_args(3)
        want = gcc_kernels.comp_scan(*comp)
        for i in range(4):
            for form in forms(comp[i]):
                args = list(comp)
                args[i] = form
                assert gcc_kernels.comp_scan(*args) == want, (i, type(form))
        exact = _exact_args(4, 3, True)
        want = gcc_kernels.exact_search(*exact)
        for i in (2, 3):
            for form in forms(exact[i]):
                args = list(exact)
                args[i] = form
                assert gcc_kernels.exact_search(*args) == want, (i, type(form))

    def test_upset_orbits_rejects_ground_outside_table(self, gcc_library):
        from sperner.search._clib import Library

        lib = Library(gcc_library)
        lib._lib = None  # a call into C would raise AttributeError
        for n in (-1, 7):  # one 64-bit word holds a family up to n = 6
            with pytest.raises(ValueError, match="0 <= n <= 6"):
                lib.upset_orbits(n)


# the kernel contract: the four kernels take the same parameters on every
# backend, and the library exports them and nothing else

KERNELS = ("upset_orbits", "comp_scan", "exact_search", "anneal_chain")


@pytest.mark.parametrize("backend", ["in-place", "gcc"])
def test_kernel_parameters_match_the_pure_kernels(request, backend):
    import inspect

    from sperner.search import _kernels_py

    if backend == "gcc":
        kernels = request.getfixturevalue("gcc_kernels")
    else:
        kernels = pytest.importorskip(
            "sperner.search._kernels", reason="compiled backend not built",
            exc_type=ImportError,
        )
    for name in KERNELS:
        got = inspect.signature(getattr(kernels, name)).parameters
        want = inspect.signature(getattr(_kernels_py, name)).parameters
        assert list(got) == list(want), name


def test_library_exports_only_the_kernels(gcc_library):
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("nm not found")
    proc = subprocess.run([nm, "-D", "--defined-only", gcc_library],
                          capture_output=True, text=True, check=True, timeout=60)
    names = {line.split()[-1] for line in proc.stdout.splitlines() if line.strip()}
    assert names == {f"sperner_{name}" for name in KERNELS}


def test_popcount_loops_have_popcnt_clones(gcc_library):
    # where the kernels build POPCNT clones, the DFS, the pair scan and the
    # annealer each have one, and only the default clones call libgcc's
    # software popcount
    gcc, objdump = shutil.which("gcc"), shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump not found")
    source = subprocess.run([gcc, "-std=c99", "-E", str(CKERNELS_C)],
                            capture_output=True, text=True, check=True, timeout=120)
    if "target_clones" not in source.stdout:
        pytest.skip("no POPCNT clones for this compiler and target")
    proc = subprocess.run([objdump, "-d", gcc_library],
                          capture_output=True, text=True, check=True, timeout=60)
    functions, callers, name = set(), set(), None
    for line in proc.stdout.splitlines():
        head = re.fullmatch(r"[0-9a-f]+ <(.+)>:", line)
        if head:
            name = head.group(1)
            functions.add(name)
        elif "<__popcountdi2" in line and name != "__popcountdi2":
            callers.add(name)
    clones = {f.partition(".")[0] for f in functions if ".popcnt" in f}
    assert {"rec", "comp_pairs", "ann_run", "ann_load"} <= clones
    assert all(".default" in f for f in callers), callers


def _ubsan_build(gcc, source, lib):
    """Builds source with every undefined-behaviour check, each one
    aborting the process that loaded the library."""
    proc = subprocess.run(
        [gcc, "-std=c99", "-O1", "-fsanitize=undefined", "-fno-sanitize-recover=all",
         "-shared", "-fPIC", "-o", str(lib), str(source), "-lm"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode and "ubsan" in proc.stderr:
        pytest.skip("libubsan not found")
    assert proc.returncode == 0, proc.stderr
    return str(lib)


def test_kernels_free_of_undefined_behaviour(tmp_path, exact_parity, comp_parity,
                                             anneal_parity):
    # the parity cases and the upsets of every gated ground on a sanitized
    # build, in a process of their own since a check that fires aborts it;
    # the 64-mask case shifts rows by up to 63 bits
    from sperner.search import _kernels_py

    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    # a shift past the word first, to show that the checks fire
    shift_c = tmp_path / "shift.c"
    shift_c.write_text("#include <stdint.h>\n"
                       "uint64_t shl(int s) { return (uint64_t)1 << s; }\n")
    shift = _ubsan_build(gcc, shift_c, tmp_path / "shift.so")
    proc = subprocess.run(
        [sys.executable, "-c", "import ctypes, sys; ctypes.CDLL(sys.argv[1]).shl(64)", shift],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and "shift exponent 64" in proc.stderr, proc.stderr
    lib = _ubsan_build(gcc, CKERNELS_C, tmp_path / "_ckernels.so")
    calls = tmp_path / "calls.json"
    calls.write_text(json.dumps({"exact": [args for args, _ in exact_parity],
                                 "comp": [args for args, _ in comp_parity],
                                 "anneal": [args[:3] + (args[3].hex(),) + args[4:]
                                            for args, _ in anneal_parity],
                                 "upsets": list(range(TABLE_MAX_GROUND + 1))}))
    code = textwrap.dedent("""
        import json, sys
        from sperner.search._clib import Library
        lib = Library(sys.argv[1])
        with open(sys.argv[2]) as fh:
            calls = json.load(fh)
        exact = [lib.exact_search(*args) for args in calls["exact"]]
        anneal = [lib.anneal_chain(*args[:3], bytes.fromhex(args[3]), *args[4:])
                  for args in calls["anneal"]]
        json.dump({"exact": [(b, labels and labels.hex(), nodes, done)
                             for b, labels, nodes, done in exact],
                   "comp": [lib.comp_scan(*args) for args in calls["comp"]],
                   "anneal": [(b, labels.hex(), steps, state)
                              for b, labels, steps, state in anneal],
                   "upsets": [lib.upset_orbits(n) for n in calls["upsets"]]},
                  sys.stdout)
    """)
    proc = subprocess.run([sys.executable, "-c", code, lib, str(calls)], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exact"] == [[b, labels and labels.hex(), nodes, done]
                            for _, (b, labels, nodes, done) in exact_parity]
    assert out["comp"] == [list(map(list, pure)) for _, pure in comp_parity]
    assert out["anneal"] == [[b, labels.hex(), steps, state]
                             for _, (b, labels, steps, state) in anneal_parity]
    assert out["upsets"] == [list(map(list, _kernels_py.upset_orbits(n)))
                             for n in range(TABLE_MAX_GROUND + 1)]


def test_unloadable_library_raises_import_error(tmp_path):
    from sperner.search._clib import Library

    junk = tmp_path / "_ckernels.so"
    junk.write_bytes(b"not a shared library")
    with pytest.raises(ImportError, match="cannot load the compiled kernels"):
        Library(str(junk))
    gcc = shutil.which("gcc")
    if gcc is None:
        return
    # a loadable library without the kernels, such as one left from an old build
    src = tmp_path / "other.c"
    src.write_text("int unrelated(void) { return 0; }\n")
    other = tmp_path / "other.so"
    subprocess.run([gcc, "-shared", "-fPIC", "-o", str(other), str(src)],
                   check=True, timeout=120)
    with pytest.raises(ImportError, match="sperner_comp_scan"):
        Library(str(other))


def test_missing_library_names_build_step(monkeypatch):
    import importlib
    import importlib.machinery

    import sperner.search

    # re-import the kernel module with no library file to find
    monkeypatch.delitem(sys.modules, "sperner.search._kernels", raising=False)
    monkeypatch.delattr(sperner.search, "_kernels", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match="python setup.py build_ext --inplace"):
        importlib.import_module("sperner.search._kernels")
