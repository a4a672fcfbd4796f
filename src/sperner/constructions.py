"""Builders for cross-Sperner tuples with known measures.

Two shapes:

* block patterns (`_pattern`): split the ground set into disjoint blocks,
  each with a colex downset D_c and its complement upset U_c; for an
  antichain S_1..S_k of block sets, family i takes U_c on the blocks c in
  S_i and D_c elsewhere.  The extremal product pair (blocks {1} and {n}),
  the block product tuples (D_c on family c's own block only) and the
  fixed-prefix tuples (one-element blocks on [ell], free tails) are such;
* antichain complements: the extremal sum pair, {1..floor(n/2)} against
  everything incomparable to it, and the tagged-antichain sum tuples,
  k-1 singleton families {i} + tail block plus everything incomparable
  to that antichain as the k-th family.

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
)


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


def build_product_tuple(p: ProductParams) -> FamilyTuple:
    """Materialize the block product tuple for p.

    Family i = {F : F cap block_i in segment_i, F cap block_j in
    complement_j for j != i}; its size is segments[i] times the product of
    the complement counts of the other blocks.
    """
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
    return _pattern(p.n, blocks, [full ^ 1 << i for i in range(p.k)])


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
    and only needs to be non-negative, with the parity of n, and to fit.
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
        if ell < 0:
            raise BadGround(f"prefix ground ell={ell} is negative")
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
    blocks = [(e, 1, 1 if e < p.ell else 2) for e in range(p.n)]
    return _pattern(p.n, blocks, p.prefix_masks())
