import math
from fractions import Fraction

import pytest

from sperner.bounds import (
    BoundId,
    bounds_report,
    eval_bound,
    min_ground_for_antichain,
    render_value,
)
from sperner.constructions import SumParams, build_sum_tuple
from sperner.errors import BadGround, UnknownBound
from sperner.lattice import Family, comparability_number


def val(bound, n, k, **kw):
    return eval_bound(bound, n, k, **kw).value


# rendering


def _int_of(text):
    """The integer a decimal text names, read in chunks short enough for
    int() at any length."""
    digits = text.lstrip("-")
    out = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        out = out * 10 ** len(chunk) + int(chunk)
    return -out if text.startswith("-") else out


def _str_text(v):
    """The text str() gives, or None past the interpreter's digit limit."""
    try:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    except ValueError:
        return None


def test_render_value():
    assert render_value(Fraction(4)) == "4"
    assert render_value(Fraction(16384, 729)) == "16384/729"
    assert render_value(Fraction(-7, 3)) == "-7/3"
    assert render_value(2.5) == "2.5"
    assert render_value(math.inf) == "inf"
    # past the interpreter's 4,300-digit limit for str(int)
    assert render_value(-Fraction(10**5000)) == "-1" + "0" * 5000
    big = Fraction(3**20000, 2**30001)  # 9,543 and 9,032 digits
    num, den = render_value(big).split("/")
    assert Fraction(_int_of(num), _int_of(den)) == big


@pytest.mark.parametrize("n", [1, 8, 13, 20])
def test_report_renders_sampled_widths(n):
    # exact values pass str()'s digit limit at k = 51 and 70 for n = 8 and
    # at k = 49 for n = 20; the asymptotic float overflows at k = 85 for
    # n = 20
    for k in [*range(2, 9), 49, 51, 70, 85, 128]:
        for v in bounds_report(n, k).entries.values():
            text = render_value(v.value)
            if isinstance(v.value, float):
                assert text == repr(v.value)
                continue
            parts = text.split("/")
            assert Fraction(*map(_int_of, parts)) == v.value
            assert _str_text(v.value) in (None, text)


def test_min_ground_for_antichain():
    from math import comb

    for k in range(2, 40):
        ell = min_ground_for_antichain(k)
        assert comb(ell, ell // 2) >= k
        assert ell == 1 or comb(ell - 1, (ell - 1) // 2) < k
    with pytest.raises(BadGround, match="need k >= 1, got 0"):
        min_ground_for_antichain(0)


def test_eval_bound_rejects_junk():
    with pytest.raises(UnknownBound):
        eval_bound("pair-root-sum", 4, 2)
    with pytest.raises(BadGround):
        eval_bound(BoundId.PRODUCT_UPPER, 99, 2)
    assert eval_bound(BoundId.SUM_UPPER, 6, 1) == (0, False, "needs k >= 2 (got k = 1)")


# pair bounds


def test_pair_bounds_values_and_gating():
    assert val(BoundId.PAIR_ROOT_SUM, 4, 2) == Fraction(4)
    assert isinstance(val(BoundId.PAIR_ROOT_SUM, 5, 2), float)
    for n in range(2, 13):
        assert val(BoundId.PAIR_PRODUCT_UPPER, n, 2) == Fraction(1 << (2 * n - 4))
        expected = (1 << n) - (1 << ((n + 1) // 2)) - (1 << (n // 2)) + 2
        assert val(BoundId.PAIR_SUM_UPPER, n, 2) == Fraction(expected)
    for b in (
        BoundId.PAIR_ROOT_SUM,
        BoundId.PAIR_PRODUCT_UPPER,
        BoundId.PAIR_SUM_UPPER,
    ):
        assert eval_bound(b, 6, 2).applicable
        assert not eval_bound(b, 6, 3).applicable


def test_pair_bounds_tight_at_small_n():
    # frozen exact optima from the search engine
    assert val(BoundId.PAIR_PRODUCT_UPPER, 4, 2) == 16  # pi(4,2)
    assert val(BoundId.PAIR_SUM_UPPER, 4, 2) == 10  # sigma(4,2)
    assert val(BoundId.PAIR_SUM_UPPER, 5, 2) == 22  # sigma(5,2)


# product bounds


def test_product_upper_reduces_to_pair_bound_at_width_two():
    for n in range(2, 13):
        assert val(BoundId.PRODUCT_UPPER, n, 2) == val(
            BoundId.PAIR_PRODUCT_UPPER, n, 2
        )


def test_product_upper_value():
    assert val(BoundId.PRODUCT_UPPER, 4, 3) == Fraction(16384, 729) * Fraction(1)
    assert val(BoundId.PRODUCT_UPPER, 4, 3) == Fraction(16, 9) ** 3 * 4


def test_product_lower_constructive_value():
    # k = 3 is not a power of two, so lambda picks up the 2^-(n//k) term
    lam = Fraction(1, 3) - Fraction(1, 16)
    per = lam * Fraction(2, 3) ** 2
    assert val(BoundId.PRODUCT_LOWER_CONSTRUCTIVE, 12, 3) == per**3 * 2**36
    bv = eval_bound(BoundId.PRODUCT_LOWER_CONSTRUCTIVE, 12, 3)
    assert bv.applicable
    # hypothesis fails at small n
    assert not eval_bound(BoundId.PRODUCT_LOWER_CONSTRUCTIVE, 5, 3).applicable


def test_product_asymptotic_gating():
    assert not eval_bound(BoundId.PRODUCT_LOWER_ASYMPTOTIC, 9, 3).applicable
    big = eval_bound(BoundId.PRODUCT_LOWER_ASYMPTOTIC, 20, 2)
    assert big.applicable
    assert big.value == pytest.approx((2**20 / (math.e * 2)) ** 2)


def test_product_asymptotic_past_the_float_range():
    assert eval_bound(BoundId.PRODUCT_LOWER_ASYMPTOTIC, 20, 84).value < math.inf
    for n, k in ((20, 85), (13, 314)):
        over = eval_bound(BoundId.PRODUCT_LOWER_ASYMPTOTIC, n, k)
        assert over.value == math.inf
        assert not over.applicable


def test_conjectured_product_bound_beaten():
    # the block construction crosses the conjectured ceiling at n=12, k=3
    conj = eval_bound(BoundId.PRODUCT_CONJECTURED_UPPER, 12, 3)
    assert conj.value == Fraction(2) ** 27
    assert "false" in conj.note
    from sperner.constructions import ProductParams, build_product_tuple

    t = build_product_tuple(ProductParams(12, 3))
    assert t.product_size() > conj.value
    # the closed-form lower bound alone overtakes the conjecture at n=15
    for n in range(9, 15):
        assert val(BoundId.PRODUCT_LOWER_CONSTRUCTIVE, n, 3) <= val(
            BoundId.PRODUCT_CONJECTURED_UPPER, n, 3
        )
    assert val(BoundId.PRODUCT_LOWER_CONSTRUCTIVE, 15, 3) > val(
        BoundId.PRODUCT_CONJECTURED_UPPER, 15, 3
    )


# sum bounds


def test_sum_upper_forces_width_three_value():
    # at (4,3) the upper bound sits strictly below 9, the construction
    # reaches 8, so the optimum is pinned without any search
    up = val(BoundId.SUM_UPPER, 4, 3)
    assert 8 <= up < 9


def test_sum_upper_exact_at_pow2_squares():
    # sqrt(2^n (k-1)) is exact when 2^n (k-1) is a perfect square
    bv = eval_bound(BoundId.SUM_UPPER, 8, 2)
    assert bv.value == Fraction(226)
    assert bv.applicable


def test_sum_sandwich_pins_pair_at_n8():
    t = build_sum_tuple(SumParams(8, 2))
    assert t.sum_size() == 226
    assert t.sum_size() == val(BoundId.SUM_UPPER, 8, 2)


def test_sum_lower_below_upper_grid():
    for n in range(2, 13):
        for k in range(2, 7):
            lo = eval_bound(BoundId.SUM_LOWER, n, k)
            hi = eval_bound(BoundId.SUM_UPPER, n, k)
            if lo.applicable and hi.applicable:
                assert float(lo.value) <= float(hi.value) + 1e-9


def test_sum_lower_pow2_parity_gate():
    assert not eval_bound(BoundId.SUM_LOWER_POW2, 8, 2).applicable  # parity
    bv = eval_bound(BoundId.SUM_LOWER_POW2, 9, 2)
    assert bv.applicable
    assert not eval_bound(BoundId.SUM_LOWER_POW2, 9, 3).applicable  # not 2^a


def test_sum_lower_pow2_consistent_with_construction():
    # where applicable the bound must not exceed what the tagged
    # antichain actually builds
    for n in range(4, 13):
        bv = eval_bound(BoundId.SUM_LOWER_POW2, n, 2)
        if not bv.applicable:
            continue
        t = build_sum_tuple(SumParams(n, 2))
        assert float(bv.value) <= t.sum_size() + 1e-9


# comparability bounds


def test_comp_lower_closed_form():
    # -m + 2 sqrt(2^n m), exact when the radicand is a square
    assert val(BoundId.COMP_LOWER, 4, 4) == Fraction(-4 + 2 * 8)
    assert eval_bound(BoundId.COMP_LOWER, 4, 0).applicable is False
    assert eval_bound(BoundId.COMP_LOWER, 4, 17).applicable is False
    assert eval_bound(BoundId.COMP_LOWER, 4, -1) == (
        0, False, "needs a family size 1 <= m <= 2^4")


def test_antichain_comp_matches_measured_comparability():
    for n in range(2, 11):
        for k in range(2, 6):
            try:
                p = SumParams(n, k)
            except Exception:
                continue
            anti = Family.from_masks(n, p.antichain_masks())
            count, _ = comparability_number(anti)
            bv = eval_bound(BoundId.ANTICHAIN_COMP, n, k, ell=p.tail)
            assert bv.applicable
            assert bv.value == Fraction(count)


def test_antichain_comp_needs_ell():
    assert not eval_bound(BoundId.ANTICHAIN_COMP, 9, 3).applicable
    assert not eval_bound(BoundId.ANTICHAIN_COMP, 9, 3, ell=10).applicable
    assert eval_bound(BoundId.ANTICHAIN_COMP, 9, 3, ell=3).value == Fraction(70)


# report


def test_report_covers_every_bound_and_is_consistent():
    for n in range(2, 13):
        for k in range(2, 7):
            rep = bounds_report(n, k)
            assert set(rep.entries) == set(BoundId)
            assert not rep.entries[BoundId.COMP_LOWER].applicable
            assert not rep.entries[BoundId.ANTICHAIN_COMP].applicable
            app = rep.applicable()
            assert BoundId.PRODUCT_UPPER in app


def test_report_brackets_frozen_exact_values():
    # pi(4,3) = 9 and sigma(4,3) = 8 sit inside their applicable bounds
    rep = bounds_report(4, 3)
    assert float(rep.entries[BoundId.PRODUCT_UPPER].value) >= 9
    assert float(rep.entries[BoundId.SUM_UPPER].value) >= 8
    lo = rep.entries[BoundId.SUM_LOWER]
    if lo.applicable:
        assert float(lo.value) <= 8
