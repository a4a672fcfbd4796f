"""Builders for cross-Sperner tuples with known measures.

Two shapes, each with one builder and one closed form:

* block patterns, `_pattern`, sized by `_pattern_sizes`: disjoint blocks,
  each with a colex downset D_c and its complement upset U_c; for an
  antichain S_1..S_k of block sets, family i takes U_c on the blocks c in
  S_i and D_c elsewhere.  The extremal product pair (blocks {1} and {n}),
  the block product tuples (D_c on family c's own block only) and the
  fixed-prefix tuples (one-element blocks on [ell], free tails);
* antichain complements, `_complement`, sized by the ANTICHAIN_COMP
  bound: a singleton family per antichain member, then everything
  incomparable to the antichain.  The extremal sum pair
  ({1..floor(n/2)}) and the tagged-antichain sum tuples ({i} + tail).

Every builder re-verifies its output with is_cross_sperner before
returning, so a returned tuple is always a valid witness.
"""

from __future__ import annotations

from itertools import islice
from math import comb, prod
from typing import Optional

from .bounds import BoundId, eval_bound, min_ground_for_antichain
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
)


def _check_width(n: int, k: int) -> None:
    """The (n, k) check every parameter record starts with."""
    check_ground(n, minimum=1)
    if k < 2:
        raise BadGround(f"need k >= 2, got {k}")


def _verified(t: FamilyTuple) -> FamilyTuple:
    ok, violation = is_cross_sperner(t)
    if not ok:  # pragma: no cover - builders are proven shapes
        raise AssertionError(f"builder produced an invalid tuple: {violation}")
    return t


def _pattern(n: int, blocks, uppers) -> FamilyTuple:
    """The block pattern tuple.  blocks[c] = (start, size, d) is the run
    of elements start..start+size-1 (0-based); its downset is its first d
    local masks in colex order, which on a contiguous run is numeric
    order, and its upset is the rest, so d = 2**size leaves it free.
    Family i takes the upset on block c where bit c of uppers[i] is set
    and the downset elsewhere.  Antichain uppers make the tuple
    cross-Sperner: for i != j some block gives i its upset and j its
    downset, and no upset set lies inside a downset set."""
    families = []
    for upper in uppers:
        bits = 1  # the empty position, forked block by block
        for c, (start, size, d) in enumerate(blocks):
            # a block shares no bits with what is accumulated, so OR is
            # addition and forking by a local mask is a left shift
            lo, hi = (d, 1 << size) if upper >> c & 1 else (0, d)
            out = 0
            for m in range(lo << start, hi << start, 1 << start):
                out |= bits << m
            bits = out
        families.append(Family(n, bits))
    return _verified(FamilyTuple(n, tuple(families)))


def _pattern_sizes(blocks, uppers) -> tuple[int, ...]:
    """_pattern's family sizes, unbuilt: |F_i| = prod_c (bit c of
    uppers[i] ? 2^size_c - d_c : d_c)."""
    return tuple(prod((1 << size) - d if upper >> c & 1 else d
                      for c, (_, size, d) in enumerate(blocks))
                 for upper in uppers)


def _complement(n: int, antichain) -> FamilyTuple:
    """The antichain complement tuple: one singleton family per mask of
    the antichain, then every set comparable to none of them."""
    rest = incomparable_complement(Family.from_masks(n, antichain))
    if not rest.members:
        raise InfeasibleParams(
            "every subset is comparable to the antichain, family k would be empty"
        )
    families = tuple(Family(n, 1 << m) for m in antichain) + (rest,)
    return _verified(FamilyTuple(n, families))


def build_pair_product(n: int) -> FamilyTuple:
    """The extremal product pair: sets containing 1 but not n versus sets
    containing n but not 1.  Both have 2^(n-2) members."""
    check_ground(n, minimum=2)
    free = [(e, 1, 2) for e in range(1, n - 1)]
    return _pattern(n, [(0, 1, 1), (n - 1, 1, 1)] + free, (0b01, 0b10))


def build_pair_sum(n: int) -> FamilyTuple:
    """The extremal sum pair: the single set {1..floor(n/2)} versus
    everything incomparable to it, together scoring
    2^n - 2^ceil(n/2) - 2^floor(n/2) + 2."""
    check_ground(n, minimum=2)
    return _complement(n, [(1 << n // 2) - 1])


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
        _check_width(n, k)
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
        return _pattern_sizes(*_product_layout(self))


def _product_layout(p: ProductParams):
    """The checked (start, size, d) blocks and the uppers of p's pattern:
    family i takes the downset on block i only."""
    blocks = []
    start = 0  # the elements before block i
    for i, (size, t) in enumerate(zip(p.block_sizes(), p.segment_sizes())):
        cap = 1 << size
        if not 1 <= t <= cap:
            raise BadSegmentSize(
                f"segment size {t} on block {i + 1} outside 1..{cap}"
            )
        if t == cap:
            raise EmptyBlock(
                f"segment swallows all of block {i + 1}, its complement part is empty"
            )
        blocks.append((start, size, t))
        start += size
    full = (1 << p.k) - 1
    return blocks, [full ^ 1 << i for i in range(p.k)]


def build_product_tuple(p: ProductParams) -> FamilyTuple:
    """Materialize the block product tuple for p.

    Family i = {F : F cap block_i in segment_i, F cap block_j in
    complement_j for j != i}; its size is segments[i] times the product of
    the complement counts of the other blocks.
    """
    return _pattern(p.n, *_product_layout(p))


# -- tagged-antichain sum tuples ---------------------------------------------


def _auto_a(n: int, k: int) -> int:
    """SumParams' default a: the one with the parity of n in the window
    -1 < a - a* <= 1, a* = log2(num/den).  As a* > 1 for k >= 2, the walk
    from a = 0 or 1 in steps of 2 starts below the window's top, so the
    first a above its bottom is in it."""
    num = k << (k - 1)
    den = (1 << (k - 1)) - 1
    a = n & 1
    while num >= den << (a + 1):  # a <= a* - 1, squared out to ints
        a += 2
    return a


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
    and only needs to be non-negative, with the parity of n, and to fit.
    """

    n: int
    k: int
    a: int

    def __init__(self, n: int, k: int, a: Optional[int] = None):
        _check_width(n, k)
        if a is None:
            a = _auto_a(n, k)
        if a < 0:
            raise InfeasibleParams(f"a={a} must be non-negative")
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
        # (k-1) + 2^n - comparability of the antichain; k - 1 <= n - tail
        # makes the comparability an integer
        comp = eval_bound(BoundId.ANTICHAIN_COMP, self.n, self.k, ell=self.tail)
        return (self.k - 1) + (1 << self.n) - int(comp.value)


def build_sum_tuple(p: SumParams) -> FamilyTuple:
    """Materialize the tagged-antichain sum tuple for p: k-1 singleton
    families plus the incomparable remainder as family k."""
    return _complement(p.n, p.antichain_masks())


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
        _check_width(n, k)
        if ell is None:
            ell = min_ground_for_antichain(k)
        if ell < 0:
            raise BadGround(f"prefix ground ell={ell} is negative")
        if ell > n:
            raise BadGround(f"prefix ground ell={ell} exceeds n={n}")
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
        middle = (m for m in range(1 << self.ell) if m.bit_count() == half)
        return tuple(islice(middle, self.k))


def build_prefix_tuple(p: PrefixParams) -> FamilyTuple:
    """Materialize the fixed-prefix tuple: family i is every set whose
    intersection with {1..ell} equals the i-th middle-layer prefix, so
    each family has exactly 2^(n-ell) members."""
    blocks = [(e, 1, 1 if e < p.ell else 2) for e in range(p.n)]
    return _pattern(p.n, blocks, p.prefix_masks())
