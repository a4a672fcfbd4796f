"""Builders for cross-Sperner tuples with known measures.

Four shapes:

* pair builders: the two-family product and sum extremal examples;
* block product tuples: partition the ground set into k blocks, pick a
  colex initial segment inside each block, family i takes segment sets on
  block i and complement sets on every other block;
* tagged-antichain sum tuples: k-1 singleton families {i} + tail block,
  plus everything incomparable to that antichain as the k-th family;
* fixed-prefix tuples: k incomparable prefixes on the first ell elements,
  free tails above (the shape behind the conjectured product upper bound).

Every builder re-verifies its output with is_cross_sperner before
returning, so a returned tuple is always a valid witness.
"""

from __future__ import annotations

from typing import Optional

from .bounds import min_ground_for_antichain
from .errors import (
    AntichainTooSmall,
    BadGround,
    BadSegmentSize,
    EmptyBlock,
    InfeasibleParams,
)
from .lattice import (
    Family,
    FamilyTuple,
    _Record,
    check_ground,
    incomparable_complement,
    is_cross_sperner,
    _positions_with_bit,
)


def _verified(t: FamilyTuple) -> FamilyTuple:
    ok, violation = is_cross_sperner(t)
    if not ok:  # pragma: no cover - builders are proven shapes
        raise AssertionError(f"builder produced an invalid tuple: {violation}")
    return t


def build_pair_product(n: int) -> FamilyTuple:
    """The extremal product pair: sets containing 1 but not n versus sets
    containing n but not 1.  Both have 2^(n-2) members."""
    check_ground(n, minimum=2)
    with_first = _positions_with_bit(n, 0)
    with_last = _positions_with_bit(n, n - 1)
    f = Family(n, with_first & ~with_last)
    g = Family(n, with_last & ~with_first)
    return _verified(FamilyTuple(n, (f, g)))


def build_pair_sum(n: int) -> FamilyTuple:
    """The extremal sum pair: the single set {1..floor(n/2)} versus
    everything incomparable to it, together scoring
    2^n - 2^ceil(n/2) - 2^floor(n/2) + 2."""
    check_ground(n, minimum=2)
    f = Family(n, 1 << ((1 << (n // 2)) - 1))
    return _verified(FamilyTuple(n, (f, incomparable_complement(f))))


# -- block product tuples ----------------------------------------------------


class ProductParams(_Record):
    """Parameters for the block product construction.

    The ground set splits into k contiguous blocks, larger blocks first:
    block 1 = {1..ceil(n/k)}.  segments[i] is the size of the colex
    initial segment kept on block i; complement parts must stay non-empty,
    so 1 <= segments[i] < 2^(block size).  The default floor(2^b / k)
    (clamped to 1) balances the segment against the k-1 complement roles
    the block plays.
    """

    n: int
    k: int
    segments: Optional[tuple[int, ...]]

    def __init__(self, n: int, k: int,
                 segments: Optional[tuple[int, ...]] = None):
        check_ground(n, minimum=1)
        if k < 2:
            raise BadGround(f"need k >= 2, got {k}")
        if segments is not None:
            segments = tuple(segments)
            if len(segments) != k:
                raise BadSegmentSize(
                    f"got {len(segments)} segment sizes for k={k}"
                )
            for i, t in enumerate(segments):
                # bool is an int subclass but never a size
                if isinstance(t, bool) or not isinstance(t, int):
                    raise BadSegmentSize(
                        f"segment size {t!r} on block {i + 1} must be an integer"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "segments", segments)

    def block_sizes(self) -> tuple[int, ...]:
        q, r = divmod(self.n, self.k)
        return tuple(q + 1 if i < r else q for i in range(self.k))

    def segment_sizes(self) -> tuple[int, ...]:
        if self.segments is not None:
            return self.segments
        return tuple(max(1, (1 << b) // self.k) for b in self.block_sizes())

    def predicted_sizes(self) -> tuple[int, ...]:
        t = self.segment_sizes()
        sizes = self.block_sizes()
        out = []
        for i in range(self.k):
            s = t[i]
            for j in range(self.k):
                if j != i:
                    s *= (1 << sizes[j]) - t[j]
            out.append(s)
        return tuple(out)


def _spread(positions: int, choices) -> int:
    """Extend a position bitset by one disjoint block: each existing
    position forks once per allowed block mask.  Works because a block
    mask shares no bits with what is already accumulated, so OR is
    addition and the fork is a left shift."""
    out = 0
    for m in choices:
        out |= positions << m
    return out


def build_product_tuple(p: ProductParams) -> FamilyTuple:
    """Materialize the block product tuple for p.

    Family i = {F : F cap block_i in segment_i, F cap block_j in
    complement_j for j != i}; its size is segments[i] times the product of
    the complement counts of the other blocks.
    """
    sizes = p.block_sizes()
    t = p.segment_sizes()
    seg_masks: list[range] = []
    comp_masks: list[range] = []
    s = 0  # the elements before block i
    for i in range(p.k):
        cap = 1 << sizes[i]
        if not 1 <= t[i] <= cap:
            raise BadSegmentSize(
                f"segment size {t[i]} on block {i + 1} outside 1..{cap}"
            )
        if t[i] == cap:
            raise EmptyBlock(
                f"segment swallows all of block {i + 1}, its complement part is empty"
            )
        # a contiguous block's colex order is the numeric order of its
        # masks, so the segment is the t[i] least and the rest follow
        seg_masks.append(range(0, t[i] << s, 1 << s))
        comp_masks.append(range(t[i] << s, cap << s, 1 << s))
        s += sizes[i]
    families = []
    for i in range(p.k):
        bits = 1  # the empty position, forked block by block
        for j in range(p.k):
            bits = _spread(bits, seg_masks[j] if j == i else comp_masks[j])
        families.append(Family(p.n, bits))
    return _verified(FamilyTuple(p.n, tuple(families)))


# -- tagged-antichain sum tuples ---------------------------------------------


def _auto_a(n: int, k: int) -> int:
    """SumParams' default a: the one with the parity of n in the window."""
    num = k << (k - 1)
    den = (1 << (k - 1)) - 1
    a = n & 1
    while True:
        # -1 < a - a* <= 1 with a* = log2(num/den), squared out to ints
        if (den << a) <= 2 * num and num < (den << (a + 1)):
            return a
        if (den << a) > 2 * num:  # walked past the window
            raise InfeasibleParams(
                f"no a with the parity of n={n} fits the window for k={k}"
            )
        a += 2


class SumParams(_Record):
    """Parameters for the tagged-antichain sum construction.

    The antichain has k-1 members {i} | G where G is the tail block of
    the last `tail` elements; families 1..k-1 are those singletons and
    family k is everything incomparable to the antichain.  The free knob
    is a = n - 2*tail, an integer with the parity of n.  Auto-selection
    picks the unique parity-matching a within one unit of the optimum of
    the comparability count, i.e. with
    a - (log2 k + log2(2^(k-1) / (2^(k-1) - 1))) in (-1, 1],
    decided by exact integer comparisons.  An explicit a skips the window
    and only needs parity and fit.
    """

    n: int
    k: int
    a: int

    def __init__(self, n: int, k: int, a: Optional[int] = None):
        check_ground(n, minimum=1)
        if k < 2:
            raise BadGround(f"need k >= 2, got {k}")
        if a is None:
            a = _auto_a(n, k)
        if (n - a) % 2:
            raise InfeasibleParams(f"a={a} must have the parity of n={n}")
        tail = (n - a) // 2
        if tail < 0:
            raise InfeasibleParams(f"a={a} exceeds n={n}")
        if k - 1 > n - tail:
            raise InfeasibleParams(
                f"antichain needs k-1={k - 1} elements outside the "
                f"tail of {tail}, only {n - tail} available"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)

    @property
    def tail(self) -> int:
        return (self.n - self.a) // 2

    def tail_mask(self) -> int:
        t = self.tail
        return ((1 << t) - 1) << (self.n - t)

    def antichain_masks(self) -> tuple[int, ...]:
        g = self.tail_mask()
        return tuple(g | (1 << i) for i in range(self.k - 1))

    def predicted_sum(self) -> int:
        # (k-1) + 2^n - comparability of the antichain, all integers here
        t = self.tail
        comp = (
            self.k * (1 << t)
            + (1 << (self.n - t))
            - (1 << (self.n - t - (self.k - 1)))
            - (self.k - 1)
        )
        return (self.k - 1) + (1 << self.n) - comp


def build_sum_tuple(p: SumParams) -> FamilyTuple:
    """Materialize the tagged-antichain sum tuple for p: k-1 singleton
    families plus the incomparable remainder as family k."""
    members = p.antichain_masks()
    antichain = Family.from_masks(p.n, members)
    rest = incomparable_complement(antichain)
    if not rest.members:
        raise InfeasibleParams(
            "every subset is comparable to the antichain, family k would be empty"
        )
    families = tuple(Family(p.n, 1 << m) for m in members) + (rest,)
    return _verified(FamilyTuple(p.n, families))


# -- fixed-prefix tuples -----------------------------------------------------


class PrefixParams(_Record):
    """Parameters for the fixed-prefix construction: k incomparable
    prefixes on the first ell elements (middle-layer sets of [ell] in
    colex order), each family being all sets with that exact prefix.
    Default ell is the least ground size whose middle layer holds k sets.
    """

    n: int
    k: int
    ell: int

    def __init__(self, n: int, k: int, ell: Optional[int] = None):
        check_ground(n, minimum=1)
        if k < 2:
            raise BadGround(f"need k >= 2, got {k}")
        if ell is None:
            ell = min_ground_for_antichain(k)
        if ell > n:
            raise BadGround(f"prefix ground ell={ell} exceeds n={n}")
        from math import comb

        if comb(ell, ell // 2) < k:
            raise AntichainTooSmall(
                f"the middle layer of a {ell}-element ground holds only "
                f"{comb(ell, ell // 2)} incomparable sets, need {k}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "ell", ell)

    def prefix_masks(self) -> tuple[int, ...]:
        half = self.ell // 2
        out = []
        for m in range(1 << self.ell):
            if m.bit_count() == half:
                out.append(m)
                if len(out) == self.k:
                    break
        return tuple(out)


def build_prefix_tuple(p: PrefixParams) -> FamilyTuple:
    """Materialize the fixed-prefix tuple: family i is every set whose
    intersection with {1..ell} equals the i-th middle-layer prefix, so
    each family has exactly 2^(n-ell) members."""
    tails = 1
    width = 1 << p.ell
    span = width
    total = 1 << p.n
    while span < total:
        tails |= tails << span
        span <<= 1
    families = tuple(Family(p.n, tails << m) for m in p.prefix_masks())
    return _verified(FamilyTuple(p.n, families))
