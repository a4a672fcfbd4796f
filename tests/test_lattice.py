import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner.errors import BadGround, EmptyFamily, NotMonotone
from sperner.lattice import (
    MAX_GROUND,
    _label_bits,
    _labels_of,
    Family,
    FamilyTuple,
    bit_positions,
    bits_of,
    closure,
    colex_initial_segment,
    comparability_number,
    comparable,
    convex_hull,
    elements_of_mask,
    hk_check,
    incomparable_complement,
    is_antichain,
    is_cross_sperner,
    is_downward_closed,
    is_upward_closed,
    mask_from_elements,
    merge_partition,
)

from .oracles import (
    comparability_of,
    comparable_sets,
    down_closure,
    is_antichain_sets,
    labels_by_masks,
    subsets,
    tuple_from_order_labels,
    up_closure,
)


def family_from_sets(n, sets):
    return Family.from_masks(n, [mask_from_elements(s, n) for s in sets])


def sets_of_family(f):
    return {frozenset(s) for s in f.to_sets()}


def random_family(rng, n, nonempty=True):
    total = 1 << n
    bits = rng.getrandbits(total)
    if nonempty and not bits:
        bits = 1 << rng.randrange(total)
    return Family(n, bits)


# masks and elements


def test_mask_round_trip():
    for n in range(1, 7):
        for m in range(1 << n):
            assert mask_from_elements(elements_of_mask(m), n) == m


def test_mask_rejects_out_of_range():
    with pytest.raises(BadGround):
        mask_from_elements([4], 3)
    with pytest.raises(BadGround):
        mask_from_elements([0], 3)


@pytest.mark.parametrize(
    "masks,bad",
    [([1, 8, -1], 8), ([1, -1, 8], -1), ([7, 9000], 9000), (iter([2, 3, 8]), 8)],
)
def test_from_masks_names_the_first_mask_outside(masks, bad):
    with pytest.raises(BadGround) as e:
        Family.from_masks(3, masks)
    assert str(e.value) == f"mask {bad} outside the n=3 lattice"


def test_from_masks_accepts_any_iterable():
    assert Family.from_masks(3, iter([0, 7, 7])).members == 0b10000001
    assert Family.from_masks(3, []).members == 0


def test_max_ground_enforced():
    with pytest.raises(BadGround):
        Family(MAX_GROUND + 1, 1)


@given(st.integers(0, 63), st.integers(0, 63))
def test_comparable_matches_set_containment(x, y):
    sx = frozenset(elements_of_mask(x))
    sy = frozenset(elements_of_mask(y))
    assert comparable(x, y) == comparable_sets(sx, sy)


# bitset codec


def _peel_positions(bits):
    # the one-bit-at-a-time loop the codec replaces, kept as its reference
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


@settings(max_examples=50, deadline=None)
@given(st.integers(0, (1 << 1024) - 1),
       st.lists(st.integers(0, (1 << 20) - 1), max_size=40))
def test_bit_positions_matches_peel_loop(dense, sparse):
    # a dense low word plus scattered bits anywhere up to 2^20 bits
    x = dense | sum(1 << p for p in set(sparse))
    assert bit_positions(x) == _peel_positions(x)
    assert bits_of(bit_positions(x)) == x


def test_codec_edges():
    assert bit_positions(0) == [] and bits_of([]) == 0
    assert bits_of([3, 0, 3]) == 0b1001
    top = 1 << MAX_GROUND
    assert bit_positions((1 << top) - 1) == list(range(top))
    assert bits_of(range(top)) == (1 << top) - 1
    with pytest.raises(ValueError):
        bits_of([-1])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(1, 255), st.data())
def test_labeling_codec_matches_oracles(n, k, data):
    # a random labeling with a random share of unlabeled masks; its
    # families are disjoint, as every labeling's are
    total = 1 << n
    raw = data.draw(st.binary(min_size=total, max_size=total))
    empty = data.draw(st.integers(0, 256))
    labels = bytes(0 if b < empty else 1 + b % k for b in raw)
    t = tuple_from_order_labels(n, k, labels, range(total))
    assert _labels_of(t) == bytes(labels_by_masks(t, total)) == labels
    assert [_label_bits(labels, j) for j in range(1, k + 1)] == [
        f.members for f in t.families]
    assert _label_bits(bytearray(labels), k) == t.families[-1].members
    round_trip = FamilyTuple(n, tuple(Family(n, _label_bits(labels, j))
                                      for j in range(1, k + 1)))
    assert round_trip == t and _labels_of(round_trip) == labels


# closures


@settings(max_examples=200)
@given(st.integers(1, 6), st.data())
def test_closures_match_oracle(n, data):
    bits = data.draw(st.integers(1, (1 << (1 << n)) - 1))
    f = Family(n, bits)
    sets = sets_of_family(f)
    assert sets_of_family(closure(f, "up")) == up_closure(sets, n)
    assert sets_of_family(closure(f, "down")) == down_closure(sets, n)


def test_closures_are_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 7)
        f = random_family(rng, n)
        up = closure(f, "up")
        down = closure(f, "down")
        assert is_upward_closed(up) and closure(up, "up") == up
        assert is_downward_closed(down) and closure(down, "down") == down
        assert f.members & up.members == f.members
        assert f.members & down.members == f.members


def test_empty_family_closure_raises():
    with pytest.raises(EmptyFamily):
        closure(Family(3, 0), "up")


# comparability


def test_comparability_number_matches_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 6)
        f = random_family(rng, n)
        count, witness = comparability_number(f)
        expected = comparability_of(sets_of_family(f), n)
        assert count == len(expected)
        assert sets_of_family(witness) == expected


def test_incomparable_complement_partitions_lattice():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(1, 7)
        f = random_family(rng, n)
        count, comp = comparability_number(f)
        inc = incomparable_complement(f)
        assert comp.members & inc.members == 0
        assert comp.size + inc.size == 1 << n
        assert count == comp.size


# convex hull


def test_convex_hull_examples():
    f = family_from_sets(3, [[1], [1, 2, 3]])
    hull = convex_hull(f)
    assert sets_of_family(hull) == {
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({1, 2, 3}),
    }


def test_convex_hull_is_idempotent_and_contains():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 7)
        f = random_family(rng, n)
        hull = convex_hull(f)
        assert f.members & hull.members == f.members
        assert convex_hull(hull) == hull


def test_hull_preserves_comparability_number():
    # the comparability count of a family never changes under convex hull
    rng = random.Random(19)
    for _ in range(500):
        n = rng.randrange(1, 7)
        f = random_family(rng, n)
        assert comparability_number(f)[0] == comparability_number(convex_hull(f))[0]


# antichains


def test_is_antichain_matches_oracle():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randrange(1, 6)
        f = random_family(rng, n)
        assert is_antichain(f) == is_antichain_sets(sets_of_family(f))


# cross-Sperner predicate


def test_cross_sperner_examples():
    good = FamilyTuple(
        3, (family_from_sets(3, [[1]]), family_from_sets(3, [[2], [3]]))
    )
    assert is_cross_sperner(good).ok
    bad = FamilyTuple(
        3, (family_from_sets(3, [[1]]), family_from_sets(3, [[1, 2]]))
    )
    check = is_cross_sperner(bad)
    assert not check.ok
    v = check.violation
    assert v.mask_i == mask_from_elements([1], 3)
    assert v.mask_j == mask_from_elements([1, 2], 3)


def test_cross_sperner_shared_set_is_a_violation():
    t = FamilyTuple(3, (family_from_sets(3, [[1]]), family_from_sets(3, [[1]])))
    assert not is_cross_sperner(t).ok


def test_cross_sperner_empty_family_raises():
    t = FamilyTuple(3, (Family(3, 0), family_from_sets(3, [[1]])))
    with pytest.raises(EmptyFamily):
        is_cross_sperner(t)


def test_cross_sperner_matches_oracle_on_random_tuples():
    from .oracles import cross_sperner_sets

    rng = random.Random(29)
    for _ in range(300):
        n = rng.randrange(2, 5)
        k = rng.randrange(2, 4)
        fams = [random_family(rng, n) for _ in range(k)]
        t = FamilyTuple(n, tuple(fams))
        expected = cross_sperner_sets([sets_of_family(f) for f in fams])
        assert is_cross_sperner(t).ok == expected


def test_canonical_key_ignores_family_order():
    f1 = family_from_sets(4, [[2], [2, 3]])
    f2 = family_from_sets(4, [[1, 4]])
    a = FamilyTuple(4, (f1, f2))
    b = FamilyTuple(4, (f2, f1))
    assert a.canonical_key() == b.canonical_key()
    assert a.canonical_key()[0][0] <= a.canonical_key()[1][0]


# colex segments


def test_colex_segment_sizes():
    for n in range(1, 7):
        for r in range(1, n + 1):
            elems = tuple(range(1, r + 1))
            for t in range(1, (1 << r) + 1):
                assert colex_initial_segment(n, elems, t).size == t


def test_colex_segment_is_downset_on_its_ground():
    # clearing any bit of a member lands back in the segment
    for n in range(1, 7):
        for r in range(1, n + 1):
            elems = tuple(range(1, r + 1))
            for t in range(1, (1 << r) + 1):
                members = set(colex_initial_segment(n, elems, t).masks())
                for m in members:
                    b = m
                    while b:
                        low = b & -b
                        assert (m ^ low) in members
                        b ^= low


def test_colex_segment_scattered_ground():
    seg = colex_initial_segment(5, (2, 5), 3)
    assert sets_of_family(seg) == {frozenset(), frozenset({2}), frozenset({5})}


# merge

def test_merge_partition_keeps_cross_sperner():
    from sperner.constructions import ProductParams, build_product_tuple

    t = build_product_tuple(ProductParams(6, 3))
    for j in range(1, t.k):
        merged = merge_partition(t, j)
        assert merged.k == t.k - 1
        assert is_cross_sperner(merged).ok
        assert merged.sum_size() == t.sum_size()


# correlation inequality


def test_hk_check_requires_monotone():
    up = closure(Family(4, 1 << 5), "up")
    down = closure(Family(4, 1 << 5), "down")
    with pytest.raises(NotMonotone):
        hk_check(down, down)
    with pytest.raises(NotMonotone):
        hk_check(up, up)


def test_hk_on_random_monotone_pairs():
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randrange(1, 7)
        u = closure(random_family(rng, n), "up")
        d = closure(random_family(rng, n), "down")
        res = hk_check(u, d)
        assert res.holds
        assert res.lhs <= res.rhs
        assert res.lhs == Fraction((u.members & d.members).bit_count(), 1 << n)
