"""Acceptance gate: one test and one printed PASS/FAIL line per
criterion.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they go by; each test is independently meaningful and carries
its stated time budget as a hard assertion."""

import json
import random
import time
from contextlib import contextmanager
from math import isqrt

from sperner.bounds import BoundId, eval_bound
from sperner.cli import main as cli_main
from sperner.constructions import (
    ProductParams,
    SumParams,
    build_product_tuple,
    build_sum_tuple,
)
from sperner.errors import SpernerError
from sperner.lattice import (
    Family,
    colex_initial_segment,
    comparability_number,
    convex_hull,
    closure,
    hk_check,
    is_cross_sperner,
    merge_partition,
)
from sperner.search import (
    SearchConfig,
    anneal_max_product,
    exact_max_product,
    exact_max_sum,
    min_comparability_table,
)
from sperner.search.engine import _upset_bits
from sperner.witness import check_witness, load_witness

from .oracles import max_product_exact, max_sum_exact, min_comparability_exact


@contextmanager
def criterion(cid, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {cid} ({label}): FAIL", flush=True)
        raise
    else:
        print(f"\nACCEPTANCE {cid} ({label}): PASS", flush=True)


def test_criterion_01_exact_product_4_3(tmp_path):
    with criterion(1, "exact product optimum at (4,3) via the CLI"):
        out = tmp_path / "w.json"
        start = time.monotonic()
        rc = cli_main(
            ["search", "pi", "--n", "4", "--k", "3", "--mode", "exact",
             "--threads", "1", "--out", str(out)]
        )
        elapsed = time.monotonic() - start
        assert rc == 0
        assert elapsed <= 60
        payload = load_witness(str(out))
        assert payload["measures"]["product"] == 9
        assert check_witness(payload) == []
        assert exact_max_product(SearchConfig(4, 3)).value == 9


def test_criterion_02_pair_product_closed_form():
    with criterion(2, "pair product optimum equals 2^(2n-4) for n=2..4"):
        start = time.monotonic()
        for n in (2, 3, 4):
            res = exact_max_product(SearchConfig(n, 2))
            assert res.optimal
            assert res.value == 1 << (2 * n - 4)
        assert time.monotonic() - start <= 60


def test_criterion_03_sum_exact_values():
    with criterion(3, "exact sum optima at (4,2) and (4,3)"):
        start = time.monotonic()
        res42 = exact_max_sum(SearchConfig(4, 2))
        res43 = exact_max_sum(SearchConfig(4, 3))
        assert res42.optimal and res42.value == 10
        assert res43.optimal and res43.value == 8
        # the width-3 value is forced: upper bound below 9, built tuple at 8
        assert float(eval_bound(BoundId.SUM_UPPER, 4, 3).value) < 9
        assert build_sum_tuple(SumParams(4, 3)).sum_size() == 8
        assert time.monotonic() - start <= 120


def test_criterion_04_heuristic_reaches_published_products():
    with criterion(4, "annealer reaches the published product records"):
        for (n, k), target in [((5, 3), 81), ((6, 3), 810), ((5, 4), 108)]:
            start = time.monotonic()
            res = anneal_max_product(
                SearchConfig(n, k, mode="heuristic", seed=0,
                             budget_secs=300.0, target=target)
            )
            assert time.monotonic() - start <= 300
            assert res.value >= target
            assert is_cross_sperner(res.witness).ok
            assert res.witness.product_size() == res.value


def test_criterion_05_comparability_tables():
    with criterion(5, "comparability tables beat the root bound and match brute force"):
        start = time.monotonic()
        for n in range(1, 6):
            table = min_comparability_table(n)
            for row in table.rows:
                s = 4 * (1 << n) * row.m
                r = isqrt(s)
                if r * r < s:
                    r += 1
                assert row.lower_bound == r - row.m  # integer-exact form
                assert row.c_exact >= row.lower_bound
                count, _ = comparability_number(row.witness)
                assert count == row.c_exact
        assert time.monotonic() - start <= 600
        for n in range(1, 4):
            table = min_comparability_table(n)
            for m in range(1, (1 << n) + 1):
                assert table.row(m).c_exact == min_comparability_exact(n, m)
        table4 = min_comparability_table(4)
        for m in range(1, 5):
            assert table4.row(m).c_exact == min_comparability_exact(4, m)


def test_criterion_06_construction_formula_agreement():
    with criterion(6, "construction sizes equal their closed forms on the grid"):
        product_built = sum_built = 0
        for n in range(2, 13):
            for k in range(2, 7):
                try:
                    p = ProductParams(n, k)
                    t = build_product_tuple(p)
                except SpernerError:
                    pass
                else:
                    product_built += 1
                    assert t.sizes() == p.predicted_sizes()
                    assert is_cross_sperner(t).ok
                try:
                    q = SumParams(n, k)
                    u = build_sum_tuple(q)
                except SpernerError:
                    continue
                sum_built += 1
                anti = Family.from_masks(n, q.antichain_masks())
                count, _ = comparability_number(anti)
                tail = q.tail
                assert count == (
                    k * (1 << tail)
                    + (1 << (n - tail))
                    - (1 << (n - tail - (k - 1)))
                    - (k - 1)
                )
                assert u.sum_size() == q.predicted_sum()
                assert is_cross_sperner(u).ok
        assert product_built >= 30 and sum_built >= 25


def test_criterion_07_conjecture_counterexample():
    with criterion(7, "block product at (12,3) crosses the conjectured ceiling"):
        start = time.monotonic()
        t = build_product_tuple(ProductParams(12, 3))
        assert t.product_size() == 605**3 == 221_445_125
        assert t.product_size() > (1 << 27) == 134_217_728
        conj = eval_bound(BoundId.PRODUCT_CONJECTURED_UPPER, 12, 3)
        assert conj.value == 1 << 27
        assert is_cross_sperner(t).ok
        assert time.monotonic() - start <= 10


def test_criterion_08_sum_sandwich_pow2():
    with criterion(8, "sum construction meets the upper bound at (8,2)"):
        t = build_sum_tuple(SumParams(8, 2))
        upper = eval_bound(BoundId.SUM_UPPER, 8, 2)
        assert t.sum_size() == 226
        assert upper.applicable and upper.value == 226
        assert is_cross_sperner(t).ok


def test_criterion_09_property_suites():
    with criterion(9, "correlation, hull, merge, colex, and parity inequalities"):
        rng = random.Random(20260821)
        for n in range(1, 7):
            total = 1 << n
            for _ in range(10_000):
                u = closure(Family(n, rng.getrandbits(total) or 1), "up")
                d = closure(Family(n, rng.getrandbits(total) or 1), "down")
                assert hk_check(u, d).holds
            for _ in range(10_000):
                f = Family(n, rng.getrandbits(total) or 1)
                assert (
                    comparability_number(f)[0]
                    == comparability_number(convex_hull(f))[0]
                )
        merged = 0
        for n in range(2, 9):
            for k in range(2, 6):
                for build, params in (
                    (build_product_tuple, ProductParams),
                    (build_sum_tuple, SumParams),
                ):
                    try:
                        t = build(params(n, k))
                    except SpernerError:
                        continue
                    for j in range(1, t.k):
                        assert is_cross_sperner(merge_partition(t, j)).ok
                        merged += 1
        assert merged >= 100
        for n in range(1, 7):
            for r in range(1, n + 1):
                elems = tuple(range(1, r + 1))
                for t_size in range(1, (1 << r) + 1):
                    seg = set(colex_initial_segment(n, elems, t_size).masks())
                    for m in seg:
                        b = m
                        while b:
                            low = b & -b
                            assert (m ^ low) in seg
                            b ^= low
        for n in range(2, 21):
            # 2^((n+3)/2) - 4 >= 2^floor(n/2) + 2^ceil(n/2) - 2, squared out
            rhs = (1 << (n // 2)) + (1 << ((n + 1) // 2)) + 2
            if n == 2:
                # the stated range overreaches at its left endpoint:
                # 4 sqrt(2) - 4 < 2.  Nothing rests on it there, because
                # the family-size case the inequality supports requires
                # 2 <= m <= 2^(n-2), which is empty at n = 2.  Assert
                # both facts so the exception stays visible.
                assert (1 << (n + 3)) < rhs * rhs
                assert (1 << (n - 2)) < 2
            else:
                assert (1 << (n + 3)) >= rhs * rhs


def test_criterion_10_oracle_equivalence():
    with criterion(10, "search engines match brute-force oracles and known counts"):
        for n in (2, 3):
            for k in (2, 3):
                cfg = SearchConfig(n, k)
                assert exact_max_product(cfg).value == max_product_exact(n, k)
                assert exact_max_sum(cfg).value == max_sum_exact(n, k)
        for n, expected in enumerate([2, 3, 6, 20, 168, 7581]):
            assert len(_upset_bits(n)[0]) == expected
