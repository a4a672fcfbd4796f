"""Bitset primitives over the subset lattice of {1,...,n}.

Encoding conventions:

* a subset of the ground set is a SetMask, a plain int in which element i
  corresponds to bit i-1 (so {1,3} <-> 0b101 = 5);
* a family of subsets is one big integer of 2^n bits whose bit at position
  m records whether the subset with mask m is a member.

With that encoding an up- or down-closure is a zeta-transform style sweep:
one shift-and-or per ground element, touching the whole 2^n-bit integer at
word speed.  Nothing here walks supersets of an individual set explicitly,
which keeps every operation O(n * 2^n) bit work and makes n = 20 (a megabit
per family) the practical ceiling enforced below.

bit_positions and bits_of are the one codec between bitsets and lists of
bit positions (members or elements), linear in the bit length; peeling or
OR-ing one bit at a time into a 2^n-bit family would be quadratic.
_labels_of and _label_bits are the one codec between a tuple of disjoint
families and its labeling, the 2^n bytes the search kernels work on.

n = 0 is allowed and degenerates gracefully: the lattice is {empty set}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Literal, NamedTuple, Optional

from .errors import BadGround, BadIndex, EmptyFamily, BadSegmentSize, NotMonotone

SetMask = int
Direction = Literal["up", "down"]

MAX_GROUND = 20

UP: Direction = "up"
DOWN: Direction = "down"


def check_ground(n: int, minimum: int = 0) -> None:
    if not isinstance(n, int) or n < minimum or n > MAX_GROUND:
        raise BadGround(f"ground size n={n!r} outside {minimum}..{MAX_GROUND}")


@cache
def family_universe(n: int) -> int:
    """All-ones bitset: every subset of {1..n} is a member."""
    return (1 << (1 << n)) - 1


@cache
def _positions_with_bit(n: int, b: int) -> int:
    # Bitset of the positions m in 0..2^n-1 whose element-bit b is set.
    # Period 2^(b+1): low half zeros, high half ones, then doubled out.
    span = 1 << b
    pat = ((1 << span) - 1) << span
    width = span << 1
    total = 1 << n
    while width < total:
        pat |= pat << width
        width <<= 1
    return pat


def mask_from_elements(elements, n: int) -> SetMask:
    elements = list(elements)
    for e in elements:
        if not 1 <= e <= n:
            raise BadGround(f"element {e} outside 1..{n}")
    return bits_of([e - 1 for e in elements])


def elements_of_mask(mask: SetMask) -> tuple[int, ...]:
    return tuple(p + 1 for p in bit_positions(mask))


def comparable(x: SetMask, y: SetMask) -> bool:
    """True when x is a subset of y or y a subset of x."""
    m = x & y
    return m == x or m == y


@dataclass(frozen=True)
class Family:
    """A set of subsets of {1..n}, stored as a 2^n-bit membership integer."""

    n: int
    members: int

    def __post_init__(self):
        check_ground(self.n)
        if not 0 <= self.members <= family_universe(self.n):
            raise BadGround(f"membership bits do not fit the n={self.n} lattice")

    @classmethod
    def from_masks(cls, n: int, masks) -> "Family":
        masks = list(masks)
        top = 1 << n
        if masks and not (0 <= min(masks) and max(masks) < top):
            m = next(m for m in masks if not 0 <= m < top)
            raise BadGround(f"mask {m} outside the n={n} lattice")
        return cls(n, bits_of(masks))

    @cached_property
    def size(self) -> int:
        return self.members.bit_count()

    def __contains__(self, mask: SetMask) -> bool:
        return bool(self.members >> mask & 1)

    def masks(self) -> list[SetMask]:
        """Member masks in ascending numeric (= colex) order."""
        return bit_positions(self.members)

    def to_sets(self) -> list[tuple[int, ...]]:
        return [elements_of_mask(m) for m in self.masks()]


def closure(f: Family, direction: Direction) -> Family:
    """Upward (all supersets) or downward (all subsets) closure of f."""
    if not f.members:
        raise EmptyFamily("closure of an empty family")
    return Family(f.n, _closure_bits(f.members, f.n, direction))


_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))


def bit_positions(bits: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending.

    Walks the little-endian bytes once, so the cost is linear in the bit
    length plus the number of set bits."""
    out = []
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    for i, byte in enumerate(data):
        if byte:
            base = i << 3
            for b in _BYTE_BITS[byte]:
                out.append(base + b)
    return out


def bits_of(positions) -> int:
    """The int whose set bits are the given positions; the inverse of
    bit_positions.  Repeats collapse.  A negative position raises
    ValueError, as a negative shift does.

    Writes binary digits, least significant first, into a bytearray and
    parses them once; int() reads base 2 in linear time.  A list is read
    in place, any other iterable copied once."""
    if not isinstance(positions, list):
        positions = list(positions)
    if min(positions, default=0) < 0:
        raise ValueError(f"negative bit position {min(positions)}")
    digits = bytearray(b"0") * (max(positions, default=0) + 1)
    for p in positions:
        digits[p] = 49  # ord("1")
    return int(digits[::-1], 2)


def _labels_of(t: FamilyTuple) -> bytes:
    """The labeling of a tuple of at most 255 disjoint families: byte m is
    the 1-based family of mask m, 0 for none.  Each family's binary
    digits, translated to labels, are read big-endian and OR-ed, so the
    little-endian whole puts mask m at byte m."""
    total = 1 << t.n
    acc = 0
    for j, fam in enumerate(t.families, start=1):
        to_label = bytes.maketrans(b"01", bytes((0, j)))
        digits = format(fam.members, f"0{total}b").encode().translate(to_label)
        acc |= int.from_bytes(digits, "big")
    return acc.to_bytes(total, "little")


def _label_bits(labels, j: int) -> int:
    """The bitset of the masks labeled j in a labeling (bytes or
    bytearray); the inverse of _labels_of, one family at a time."""
    to_digit = b"0" * j + b"1" + b"0" * (255 - j)
    return int(labels.translate(to_digit)[::-1], 2)


def _closure_bits(bits: int, n: int, direction: Direction) -> int:
    for b in range(n):
        span = 1 << b
        hi = _positions_with_bit(n, b)
        if direction == UP:
            bits |= (bits & ~hi) << span
        else:
            bits |= (bits & hi) >> span
    return bits


def is_upward_closed(f: Family) -> bool:
    return not f.members or _closure_bits(f.members, f.n, UP) == f.members


def is_downward_closed(f: Family) -> bool:
    return not f.members or _closure_bits(f.members, f.n, DOWN) == f.members


def _comparable_bits(bits: int, n: int) -> int:
    # everything weakly above or weakly below some member
    return _closure_bits(bits, n, UP) | _closure_bits(bits, n, DOWN)


def comparability_number(f: Family) -> tuple[int, Family]:
    """|{X : X comparable to some member}| together with that set.

    Members count themselves, so a single set of size s in [n] scores
    2^s + 2^(n-s) - 1.
    """
    if not f.members:
        raise EmptyFamily("comparability number of an empty family")
    comp = _comparable_bits(f.members, f.n)
    return comp.bit_count(), Family(f.n, comp)


def incomparable_complement(f: Family) -> Family:
    """All subsets comparable to no member of f."""
    if not f.members:
        raise EmptyFamily("incomparable complement of an empty family")
    comp = _comparable_bits(f.members, f.n)
    return Family(f.n, family_universe(f.n) & ~comp)


def convex_hull(f: Family) -> Family:
    """Smallest convex family containing f: everything sandwiched between
    two members."""
    if not f.members:
        raise EmptyFamily("convex hull of an empty family")
    up = _closure_bits(f.members, f.n, UP)
    down = _closure_bits(f.members, f.n, DOWN)
    return Family(f.n, up & down)


def is_antichain(f: Family) -> bool:
    """No member strictly contains another.  Empty and singleton families
    qualify."""
    bits = f.members
    if bits.bit_count() <= 1:
        return True
    n = f.n
    # bitset of immediate strict supersets of members, then closed upward
    succ = 0
    for b in range(n):
        span = 1 << b
        hi = _positions_with_bit(n, b)
        succ |= (bits & ~hi) << span
    strict_up = _closure_bits(succ, n, UP) if succ else 0
    return not bits & strict_up


@dataclass(frozen=True)
class FamilyTuple:
    """An ordered tuple of families over a common ground set.

    Plain data: nothing here asserts the cross-Sperner property, so the
    verifier can load and inspect broken witnesses.  Use is_cross_sperner.
    """

    n: int
    families: tuple[Family, ...]

    def __post_init__(self):
        check_ground(self.n)
        if len(self.families) < 1:
            raise ValueError("need at least one family")
        for f in self.families:
            if f.n != self.n:
                raise ValueError("families live over different ground sets")
        object.__setattr__(self, "families", tuple(self.families))

    @property
    def k(self) -> int:
        return len(self.families)

    def sizes(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.families)

    def sum_size(self) -> int:
        return sum(self.sizes())

    def product_size(self) -> int:
        p = 1
        for s in self.sizes():
            p *= s
        return p

    def canonical_key(self) -> tuple[tuple[int, ...], ...]:
        """Families sorted by smallest member mask, members ascending.

        This nested-tuple form is the tie-break order used everywhere a
        "lexicographically least" tuple is needed, and matches the witness
        file ordering.
        """
        return tuple(sorted(tuple(f.masks()) for f in self.families))


class Violation(NamedTuple):
    """First comparable cross-family pair, smallest in (i, j, mask_i, mask_j)
    order.  Family indices are 0-based."""

    i: int
    j: int
    mask_i: SetMask
    mask_j: SetMask


class CrossSpernerCheck(NamedTuple):
    ok: bool
    violation: Optional[Violation]


def is_cross_sperner(t: FamilyTuple) -> CrossSpernerCheck:
    """Check that no member of one family is comparable to a member of
    another (which also forces the families to be pairwise disjoint).

    Raises EmptyFamily if some family is empty; the property is only
    defined for tuples of non-empty families.
    """
    for idx, f in enumerate(t.families):
        if not f.members:
            raise EmptyFamily(f"family {idx} is empty")
    n = t.n
    comp = [_comparable_bits(f.members, n) for f in t.families]
    for i in range(t.k):
        for j in range(i + 1, t.k):
            if comp[i] & t.families[j].members:
                # smallest offender in family i, then its smallest partner
                bad_i = t.families[i].members & comp[j]
                x = (bad_i & -bad_i).bit_length() - 1
                partners = t.families[j].members & _comparable_bits(1 << x, n)
                y = (partners & -partners).bit_length() - 1
                return CrossSpernerCheck(False, Violation(i, j, x, y))
    return CrossSpernerCheck(True, None)


def colex_initial_segment(n: int, elements, t: int) -> Family:
    """First t subsets of the given ground elements in colex order.

    Colex order on subsets of the ordered list a_1 < ... < a_r is numeric
    order of the local characteristic bitmask, so the segment is the
    subsets whose local rank is 0..t-1.  Always a downset inside the
    sublattice on those elements: clearing a bit only lowers the rank.
    """
    check_ground(n)
    elems = tuple(elements)
    if list(elems) != sorted(set(elems)):
        raise BadGround(f"segment ground {elems!r} must be strictly increasing")
    for e in elems:
        if not 1 <= e <= n:
            raise BadGround(f"element {e} outside 1..{n}")
    r = len(elems)
    if not 1 <= t <= 1 << r:
        raise BadSegmentSize(f"segment size {t} outside 1..2^{r}")
    pos = [e - 1 for e in elems]
    masks = [bits_of([pos[i] for i in bit_positions(rank)]) for rank in range(t)]
    return Family(n, bits_of(masks))


def merge_partition(t: FamilyTuple, j: int) -> FamilyTuple:
    """Collapse a k-tuple into a pair: union of the first j families versus
    union of the rest.  Needs 1 <= j < k; a cross-Sperner input yields a
    cross-Sperner pair since no new comparability can appear."""
    if not 1 <= j < t.k:
        raise BadIndex(f"split index {j} outside 1..{t.k - 1}")
    lo = 0
    for f in t.families[:j]:
        lo |= f.members
    hi = 0
    for f in t.families[j:]:
        hi |= f.members
    return FamilyTuple(t.n, (Family(t.n, lo), Family(t.n, hi)))


class HKResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def hk_check(u: Family, d: Family) -> HKResult:
    """Correlation inequality for an upset u and a downset d:
    density(u & d) <= density(u) * density(d), verified in exact integer
    arithmetic as |u&d| * 2^n <= |u| * |d|."""
    if u.n != d.n:
        raise BadGround("families live over different ground sets")
    if not is_upward_closed(u):
        raise NotMonotone("first argument is not upward closed")
    if not is_downward_closed(d):
        raise NotMonotone("second argument is not downward closed")
    total = 1 << u.n
    inter = (u.members & d.members).bit_count()
    lhs = Fraction(inter, total)
    rhs = Fraction(u.size, total) * Fraction(d.size, total)
    return HKResult(lhs, rhs, inter * total <= u.size * d.size)
