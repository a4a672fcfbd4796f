"""Closed-form bounds for cross-Sperner tuples.

Every bound evaluates to an exact Fraction whenever its formula is rational
in integer powers of two; only square roots of non-squares and the
constant e force a float, which reads inf past the float range, and float
comparisons elsewhere in the package treat those values with a 1e-12
relative tolerance.  Hypothesis checks
(parity, thresholds like 2^n >= (k-1)(1+sqrt(k-1))^2) are done in integer
arithmetic by comparing squares, never through floats.

Out-of-domain parameters are not an error: the evaluator returns the
formula value with applicable=False and a note naming the violated
hypothesis, so bound grids render completely.
"""

from __future__ import annotations

import math
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from math import comb, isqrt
from typing import NamedTuple, Optional, Union

from .errors import BadGround, UnknownBound
from .lattice import check_ground

Value = Union[Fraction, float]


class BoundId(Enum):
    """Closed-form bounds and conjecture evaluators, named by what they
    bound.  "pair" = two families, "product"/"sum" = the tuple measure,
    "comp" = comparability count."""

    PAIR_ROOT_SUM = "pair-root-sum"
    PAIR_PRODUCT_UPPER = "pair-product-upper"
    PAIR_SUM_UPPER = "pair-sum-upper"
    PRODUCT_LOWER_ASYMPTOTIC = "product-lower-asymptotic"
    PRODUCT_LOWER_CONSTRUCTIVE = "product-lower-constructive"
    PRODUCT_UPPER = "product-upper"
    SUM_LOWER = "sum-lower"
    SUM_LOWER_POW2 = "sum-lower-pow2"
    SUM_UPPER = "sum-upper"
    COMP_LOWER = "comp-lower"
    ANTICHAIN_COMP = "antichain-comp"
    PRODUCT_CONJECTURED_UPPER = "product-conjectured-upper"
    PRODUCT_CONJECTURED_LIMIT = "product-conjectured-limit"


class BoundValue(NamedTuple):
    value: Value
    applicable: bool
    note: str = ""


def render_value(v: Value) -> str:
    """Exact text for a bound value: integers plainly, rationals as p/q,
    floats via repr.  Never formats an exact value through a float.  The
    integers go through Decimal, whose text has no digit limit, unlike
    str(int)."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(Decimal(v.numerator))
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"
    return repr(v)


def min_ground_for_antichain(k: int) -> int:
    """Least ground size whose largest antichain holds k sets, i.e. the
    least L with C(L, floor(L/2)) >= k."""
    if k < 1:
        raise BadGround(f"need k >= 1, got {k}")
    ell = 0
    while comb(ell, ell // 2) < k:
        ell += 1
    return ell


def _sqrt_or_none(fr: Fraction) -> Optional[Fraction]:
    rn, rd = isqrt(fr.numerator), isqrt(fr.denominator)
    if rn * rn == fr.numerator and rd * rd == fr.denominator:
        return Fraction(rn, rd)
    return None


def _minus_sqrt(base: Fraction, coef: Fraction, arg: Fraction) -> Value:
    """base - coef*sqrt(arg), exact when the square root is rational."""
    root = _sqrt_or_none(arg)
    if root is not None:
        return base - coef * root
    return float(base) - float(coef) * math.sqrt(arg)


def _is_pow2(k: int) -> bool:
    return k >= 1 and k & (k - 1) == 0


def _pair_note(k: int) -> str:
    return "" if k == 2 else f"pair bound, needs k = 2 (got k = {k})"


def eval_bound(
    bound: BoundId,
    n: int,
    k_or_m: int,
    ell: Optional[int] = None,
) -> BoundValue:
    """Evaluate one bound at (n, k) or (n, m).

    The second slot is the tuple width k for every bound except
    COMP_LOWER, where it is the family size m.  ANTICHAIN_COMP needs the
    tail size via ell.  SUM_LOWER evaluates its sharp form, with the
    (1 - 2^-(k-1))^(1/2) factor.
    """
    check_ground(n)
    if not isinstance(bound, BoundId):
        raise UnknownBound(f"unknown bound {bound!r}")
    k = m = k_or_m
    two_n = 1 << n

    if bound is BoundId.PAIR_ROOT_SUM:
        # sqrt|F| + sqrt|G| <= 2^(n/2) for any cross-Sperner pair
        root = _sqrt_or_none(Fraction(two_n))
        value: Value = root if root is not None else math.sqrt(two_n)
        return BoundValue(value, k == 2, _pair_note(k))

    if bound is BoundId.PAIR_PRODUCT_UPPER:
        return BoundValue(Fraction(two_n * two_n, 16), k == 2, _pair_note(k))

    if bound is BoundId.PAIR_SUM_UPPER:
        value = Fraction(two_n - (1 << ((n + 1) // 2)) - (1 << (n // 2)) + 2)
        return BoundValue(value, k == 2, _pair_note(k))

    if k < 2 and bound is not BoundId.COMP_LOWER:
        return BoundValue(Fraction(0), False, f"needs k >= 2 (got k = {k})")

    if bound is BoundId.PRODUCT_LOWER_ASYMPTOTIC:
        try:
            value = (two_n / (math.e * k)) ** k
        except OverflowError:  # past the float range
            value = math.inf
        # threshold under which the derivation closes:
        # 2^-floor(n/k) <= (e - (1 + 1/(k-1))^(k-1)) / (e k)
        slack = (math.e - (1 + 1 / (k - 1)) ** (k - 1)) / (math.e * k)
        ok = 2.0 ** -(n // k) <= slack
        note = "" if ok else "n below the asymptotic threshold for this k"
        return BoundValue(value, ok, note)

    if bound is BoundId.PRODUCT_LOWER_CONSTRUCTIVE:
        lam = Fraction(1, k)
        if not _is_pow2(k):
            lam -= Fraction(1, 1 << (n // k))
        per = lam * Fraction(k - 1, k) ** (k - 1)
        value = per**k * Fraction(2) ** (k * n)
        # hypothesis n > k log2 k + k, checked as 2^(n-k) > k^k
        ok = n > k and (1 << (n - k)) > k**k
        note = "" if ok else "hypothesis n > k log2(k) + k fails"
        return BoundValue(value, ok, note)

    if bound is BoundId.PRODUCT_UPPER:
        value = (
            Fraction(two_n, k * k) ** k
            * Fraction(k // 2) ** (k // 2)
            * Fraction((k + 1) // 2) ** ((k + 1) // 2)
        )
        return BoundValue(value, True)

    if bound is BoundId.SUM_LOWER:
        base = Fraction(two_n + 2 * (k - 1))
        # 3 sqrt(2^(n-1) k (1 - 2^-(k-1)))
        arg = Fraction(two_n, 2) * k * (1 - Fraction(1, 1 << (k - 1)))
        value = _minus_sqrt(base, Fraction(3), arg)
        ok = k * two_n >= 1 << (2 * k - 1)  # n >= 2k - 1 - log2 k
        note = "" if ok else "hypothesis n >= 2k - 1 - log2(k) fails"
        return BoundValue(value, ok, note)

    if bound is BoundId.SUM_LOWER_POW2:
        if not _is_pow2(k):
            return BoundValue(
                Fraction(0), False, f"needs k a power of two (got k = {k})"
            )
        a = k.bit_length() - 1
        base = Fraction(two_n + 2 * (k - 1))
        coef = 2 * (1 - Fraction(1, 1 << k))
        value = _minus_sqrt(base, coef, Fraction(two_n * k))
        if (n - a) % 2:
            return BoundValue(value, False, "needs log2(k) and n of equal parity")
        if n < 2 * (k - 1) - a:
            return BoundValue(value, False, "hypothesis n >= 2(k-1) - log2(k) fails")
        return BoundValue(value, True)

    if bound is BoundId.SUM_UPPER:
        base = Fraction(two_n + 2 * (k - 1))
        value = _minus_sqrt(base, Fraction(2), Fraction(two_n * (k - 1)))
        # 2^n >= (k-1)(1 + sqrt(k-1))^2, compared via squares
        kk = k - 1
        rest = two_n - kk * (kk + 1)
        ok = rest >= 0 and rest * rest >= 4 * kk**3
        note = "" if ok else "hypothesis 2^n >= (k-1)(1 + sqrt(k-1))^2 fails"
        return BoundValue(value, ok, note)

    if bound is BoundId.COMP_LOWER:
        if not 1 <= m <= two_n:
            return BoundValue(Fraction(0), False, f"needs a family size 1 <= m <= 2^{n}")
        # 2 sqrt(2^n m) - m, exact when 2^n m is a square
        arg = two_n * m
        root = isqrt(arg)
        if root * root == arg:
            return BoundValue(Fraction(2 * root - m), True)
        return BoundValue(2 * math.sqrt(arg) - m, True)

    if bound is BoundId.ANTICHAIN_COMP:
        if ell is None:
            return BoundValue(Fraction(0), False, "needs the tail size ell")
        if not 0 <= ell <= n:
            return BoundValue(Fraction(0), False, f"needs 0 <= ell <= {n}")
        value = (
            k * Fraction(1 << ell)
            + Fraction(1 << (n - ell)) * (1 - Fraction(1, 1 << (k - 1)))
            - (k - 1)
        )
        if k - 1 > n - ell:
            return BoundValue(
                value, False, "tagged antichain needs k - 1 <= n - ell free elements"
            )
        return BoundValue(value, True)

    if bound is BoundId.PRODUCT_CONJECTURED_UPPER:
        ls = min_ground_for_antichain(k)
        value = Fraction(2) ** (k * (n - ls))
        if n < ls:
            return BoundValue(
                value, False, f"needs n >= {ls}, the least ground holding k incomparable sets"
            )
        return BoundValue(value, True, "conjectured upper bound, now known false")

    if bound is BoundId.PRODUCT_CONJECTURED_LIMIT:
        value = (Fraction((k - 1) ** (k - 1), k**k) * two_n) ** k
        return BoundValue(value, True, "conjectured asymptotic value, not a theorem")

    raise UnknownBound(f"unknown bound {bound!r}")


def _leq(a: Value, b: Value) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a <= b
    fa, fb = float(a), float(b)
    return fa <= fb + 1e-12 * max(abs(fa), abs(fb), 1.0)


_CONSISTENCY_PAIRS = (
    (BoundId.PRODUCT_LOWER_ASYMPTOTIC, BoundId.PRODUCT_UPPER),
    (BoundId.PRODUCT_LOWER_CONSTRUCTIVE, BoundId.PRODUCT_UPPER),
    (BoundId.SUM_LOWER, BoundId.SUM_UPPER),
    (BoundId.SUM_LOWER_POW2, BoundId.SUM_UPPER),
)


class BoundsReport(NamedTuple):
    n: int
    k: int
    entries: dict[BoundId, BoundValue]

    def __repr__(self):  # the entries are too long to print
        return f"BoundsReport(n={self.n!r}, k={self.k!r})"

    def applicable(self) -> dict[BoundId, BoundValue]:
        return {b: v for b, v in self.entries.items() if v.applicable}


def bounds_report(n: int, k: int) -> BoundsReport:
    """Evaluate every bound at (n, k).

    COMP_LOWER and ANTICHAIN_COMP take a family size m resp. a tail size
    ell rather than a tuple width, so in a (n, k) report they are flagged
    inapplicable with a pointer instead of being fed a misread parameter.
    Applicable lower bounds are checked against their upper partners
    before the report is returned.
    """
    check_ground(n)
    entries: dict[BoundId, BoundValue] = {}
    for b in BoundId:
        if b is BoundId.COMP_LOWER:
            entries[b] = BoundValue(
                Fraction(0),
                False,
                "takes a family size m, not a tuple width; see the comp table",
            )
        elif b is BoundId.ANTICHAIN_COMP:
            entries[b] = BoundValue(Fraction(0), False, "needs the tail size ell")
        else:
            entries[b] = eval_bound(b, n, k)
    for lo, hi in _CONSISTENCY_PAIRS:
        vlo, vhi = entries[lo], entries[hi]
        if vlo.applicable and vhi.applicable and not _leq(vlo.value, vhi.value):
            raise AssertionError(
                f"inconsistent report at n={n} k={k}: {lo.value} > {hi.value}"
            )
    return BoundsReport(n, k, entries)
