import pytest

from sperner.constructions import (
    PrefixParams,
    ProductParams,
    SumParams,
    _pattern,
    build_pair_product,
    build_pair_sum,
    build_prefix_tuple,
    build_product_tuple,
    build_sum_tuple,
)
from sperner.errors import (
    AntichainTooSmall,
    BadGround,
    BadSegmentSize,
    EmptyBlock,
    InfeasibleParams,
    SpernerError,
)
from sperner.lattice import (
    Family,
    colex_initial_segment,
    comparability_number,
    elements_of_mask,
    is_antichain,
    is_cross_sperner,
)


# pairs


def test_pair_product_sizes_and_validity():
    for n in range(2, 13):
        t = build_pair_product(n)
        assert is_cross_sperner(t).ok
        assert t.sizes() == (1 << (n - 2), 1 << (n - 2))
        assert t.product_size() == 1 << (2 * n - 4)


def test_pair_product_membership():
    # exactly the sets holding 1 but not n, and the mirror
    for n in range(2, 11):
        t = build_pair_product(n)
        sets = [set(elements_of_mask(m)) for m in range(1 << n)]
        first = [m for m, s in enumerate(sets) if 1 in s and n not in s]
        second = [m for m, s in enumerate(sets) if n in s and 1 not in s]
        assert list(t.families[0].masks()) == first, n
        assert list(t.families[1].masks()) == second, n


def test_pair_sum_formula():
    for n in range(2, 13):
        t = build_pair_sum(n)
        assert is_cross_sperner(t).ok
        expected = (1 << n) - (1 << ((n + 1) // 2)) - (1 << (n // 2)) + 2
        assert t.sum_size() == expected
        assert t.families[0].size == 1


# block product tuples


def test_product_tuple_golden_small():
    t = build_product_tuple(ProductParams(6, 3, (2, 2, 2)))
    # blocks {1,2}, {3,4}, {5,6}; own block meets the colex segment
    # {emptyset, {first}}, every other block meets its complement pair
    key = lambda s: (len(s), s)
    fams = [sorted(f.to_sets(), key=key) for f in t.families]
    assert fams[0] == [
        (4, 6), (1, 4, 6), (3, 4, 6), (4, 5, 6),
        (1, 3, 4, 6), (1, 4, 5, 6), (3, 4, 5, 6), (1, 3, 4, 5, 6),
    ]
    assert fams[1] == [
        (2, 6), (1, 2, 6), (2, 3, 6), (2, 5, 6),
        (1, 2, 3, 6), (1, 2, 5, 6), (2, 3, 5, 6), (1, 2, 3, 5, 6),
    ]
    assert fams[2] == [
        (2, 4), (1, 2, 4), (2, 3, 4), (2, 4, 5),
        (1, 2, 3, 4), (1, 2, 4, 5), (2, 3, 4, 5), (1, 2, 3, 4, 5),
    ]
    assert t.sizes() == (8, 8, 8)
    assert t.product_size() == 512


def test_product_default_segments_balance():
    p = ProductParams(12, 3)
    assert p.block_sizes() == (4, 4, 4)
    assert p.segment_sizes() == (5, 5, 5)
    t = build_product_tuple(p)
    assert t.sizes() == (605, 605, 605)


def test_product_sizes_match_prediction_grid():
    built = 0
    for n in range(2, 13):
        for k in range(2, 7):
            try:
                p = ProductParams(n, k)
                t = build_product_tuple(p)
            except SpernerError:
                continue
            built += 1
            assert t.sizes() == p.predicted_sizes()
            assert is_cross_sperner(t).ok
    assert built >= 30


def test_product_membership_by_definition():
    # family i holds exactly the sets that meet block i inside its colex
    # segment and every other block j outside segment j, for every valid
    # segment vector; a wrong shift that keeps the sizes fails this
    import itertools

    built = 0
    for n in range(1, 9):
        for k in range(2, 5):
            sizes = ProductParams(n, k).block_sizes()
            blocks, start = [], 1
            for b in sizes:
                blocks.append(tuple(range(start, start + b)))
                start += b
            block_masks = [sum(1 << (e - 1) for e in elems) for elems in blocks]
            for segs in itertools.product(*(range(1, (1 << b)) for b in sizes)):
                inside = [set(colex_initial_segment(n, elems, t).masks())
                          for elems, t in zip(blocks, segs)]
                t = build_product_tuple(ProductParams(n, k, segs))
                for i, fam in enumerate(t.families):
                    want = [m for m in range(1 << n)
                            if all((m & bm in seg) == (j == i) for j, (bm, seg)
                                   in enumerate(zip(block_masks, inside)))]
                    assert list(fam.masks()) == want, (n, k, segs, i)
                built += 1
    assert built > 500


def test_product_custom_segments_checked():
    with pytest.raises(BadSegmentSize):
        ProductParams(6, 3, (2, 2))
    with pytest.raises(BadSegmentSize):
        build_product_tuple(ProductParams(6, 3, (5, 1, 1)))
    with pytest.raises(EmptyBlock):
        build_product_tuple(ProductParams(6, 3, (4, 1, 1)))


@pytest.mark.parametrize(
    "segments,message",
    [
        ((2.0, 2, 2), "segment size 2.0 on block 1 must be an integer"),
        ((True, 2, 2), "segment size True on block 1 must be an integer"),
        ((2, 2, 2.5), "segment size 2.5 on block 3 must be an integer"),
    ],
)
def test_product_segment_sizes_must_be_integers(segments, message):
    with pytest.raises(BadSegmentSize) as e:
        ProductParams(6, 3, segments)
    assert str(e.value) == message


def test_product_rejects_bad_width():
    with pytest.raises(BadGround):
        ProductParams(6, 1)


def test_pattern_builds_a_tuple_no_public_builder_makes():
    # the (8,7) pattern: blocks {1},{2},{3},{4} with d = 1, block
    # {5,6,7} with d = 7, element 8 free; the uppers are the antichain
    # {12, 13, 23, 14, 24, 34, 15} over those five blocks
    from sperner.search.engine import _best_construction

    blocks = [(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 3, 7), (7, 1, 2)]
    antichain = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5))
    uppers = [sum(1 << (c - 1) for c in s) for s in antichain]
    t = _pattern(8, blocks, uppers)
    assert t.sizes() == (14, 14, 14, 14, 14, 14, 2)
    assert t.product_size() == 15_059_072
    assert is_cross_sperner(t).ok
    floor, _ = _best_construction(8, 7, True)
    assert floor == 2_097_152 < t.product_size()


# tagged-antichain sum tuples


def test_sum_tuple_shape():
    p = SumParams(6, 3)
    t = build_sum_tuple(p)
    assert t.k == 3
    assert t.sizes()[:2] == (1, 1)
    assert is_cross_sperner(t).ok
    assert t.sum_size() == p.predicted_sum()


def test_sum_tuple_antichain_comparability_closed_form():
    built = 0
    for n in range(2, 13):
        for k in range(2, 7):
            try:
                p = SumParams(n, k)
            except SpernerError:
                continue
            anti = Family.from_masks(n, p.antichain_masks())
            assert is_antichain(anti)
            count, _ = comparability_number(anti)
            tail = p.tail
            closed = (
                k * (1 << tail)
                + (1 << (n - tail))
                - (1 << (n - tail - (k - 1)))
                - (k - 1)
            )
            assert count == closed
            try:
                t = build_sum_tuple(p)
            except InfeasibleParams:
                # the antichain shadows the whole lattice, no room left
                assert count == 1 << n
                continue
            built += 1
            assert is_cross_sperner(t).ok
            assert t.sum_size() == (k - 1) + (1 << n) - count
            assert t.sum_size() == p.predicted_sum()
    assert built >= 30


def test_sum_auto_a_has_ground_parity():
    for n in range(2, 13):
        for k in range(2, 7):
            try:
                p = SumParams(n, k)
            except SpernerError:
                continue
            assert (n - p.a) % 2 == 0
            assert p.a >= 0


def test_sum_explicit_a_validated():
    with pytest.raises(InfeasibleParams):
        SumParams(6, 2, a=3)  # parity mismatch
    with pytest.raises(InfeasibleParams):
        SumParams(4, 6, a=4)  # antichain cannot fit outside the tail
    # a counts untouched elements; -1 has the parity of 5 and fits
    with pytest.raises(InfeasibleParams, match="a=-1 must be non-negative"):
        SumParams(5, 2, a=-1)


def test_sum_pair_never_beats_extremal_pair():
    # the half-set pair is the sharp width-2 shape; the tagged antichain
    # stays below it at every feasible a
    for n in range(4, 13):
        best = build_pair_sum(n).sum_size()
        for a in range(n % 2, n + 1, 2):
            try:
                t = build_sum_tuple(SumParams(n, 2, a=a))
            except SpernerError:
                continue
            assert t.sum_size() <= best


# fixed-prefix tuples


def test_prefix_tuple_sizes():
    p = PrefixParams(6, 3)
    assert p.ell == 3  # middle layer of a 3-ground already holds 3 sets
    t = build_prefix_tuple(p)
    assert t.sizes() == (8, 8, 8)
    assert is_cross_sperner(t).ok
    q = PrefixParams(6, 4)
    assert q.ell == 4
    assert build_prefix_tuple(q).sizes() == (4, 4, 4, 4)


def test_prefix_default_ell_is_minimal():
    from math import comb

    for k in range(2, 21):
        p = PrefixParams(10, k)
        assert comb(p.ell, p.ell // 2) >= k
        if p.ell > 1:
            assert comb(p.ell - 1, (p.ell - 1) // 2) < k


def test_prefix_families_partition_by_prefix():
    # family i is exactly the sets whose [ell] part is the i-th prefix,
    # for every (n, k, ell) the parameters admit
    from math import comb

    built = 0
    for n in range(1, 10):
        for k in range(2, comb(n, n // 2) + 1):
            for ell in range(n + 1):
                try:
                    p = PrefixParams(n, k, ell)
                except SpernerError:
                    continue
                t = build_prefix_tuple(p)
                ground = (1 << ell) - 1
                for fam, pref in zip(t.families, p.prefix_masks()):
                    want = [m for m in range(1 << n) if m & ground == pref]
                    assert list(fam.masks()) == want, (n, k, ell, pref)
                built += 1
    assert built > 200


def test_prefix_rejects_oversized_request():
    with pytest.raises(AntichainTooSmall):
        PrefixParams(6, 3, ell=2)
    with pytest.raises(BadGround):
        PrefixParams(3, 2, ell=4)
    with pytest.raises(BadGround):
        PrefixParams(5, 2, ell=-1)
