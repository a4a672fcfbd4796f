"""Value semantics of the package's eleven record types, pinned from the
frozen dataclasses they once were: positional and keyword construction
with the same defaults, field-wise == and hash, the same repr, read-only
fields, and the validated types' error types and messages."""

import copy
import pickle
from fractions import Fraction

import pytest

from sperner.bounds import BoundId, BoundsReport, BoundValue
from sperner.constructions import PrefixParams, ProductParams, SumParams
from sperner.errors import (
    AntichainTooSmall,
    BadGround,
    BadSegmentSize,
    InfeasibleParams,
)
from sperner.lattice import Family, FamilyTuple
from sperner.search.engine import CompRow, CompTable, SearchConfig, SearchResult

F = Family(2, 0b0110)
G = Family(2, 0b1000)
T = FamilyTuple(2, (F, G))
ROW = CompRow(1, 3, 3, True, G)
HALF = BoundValue(Fraction(1, 2), True)

# type, positional args, the same record by keyword, a different record,
# its repr as the frozen dataclasses printed it
CASES = [
    (Family, (2, 6), dict(n=2, members=6), (2, 7), "Family(n=2, members=6)"),
    (FamilyTuple, (2, [F, G]), dict(n=2, families=(F, G)), (2, (G, F)),
     "FamilyTuple(n=2, families=(Family(n=2, members=6), "
     "Family(n=2, members=8)))"),
    (ProductParams, (6, 3), dict(n=6, k=3, segments=None), (6, 3, [2, 3, 1]),
     "ProductParams(n=6, k=3, segments=None)"),
    (ProductParams, (6, 3, [2, 3, 1]), dict(n=6, k=3, segments=(2, 3, 1)),
     (6, 3, (2, 3, 2)), "ProductParams(n=6, k=3, segments=(2, 3, 1))"),
    (SumParams, (8, 3), dict(n=8, k=3, a=2), (8, 3, 4),
     "SumParams(n=8, k=3, a=2)"),
    (SumParams, (9, 3, 1), dict(n=9, k=3, a=1), (9, 3, 3),
     "SumParams(n=9, k=3, a=1)"),
    (PrefixParams, (6, 4), dict(n=6, k=4, ell=4), (6, 4, 5),
     "PrefixParams(n=6, k=4, ell=4)"),
    (SearchConfig, (5, 3), dict(n=5, k=3, mode="exact", budget_nodes=None,
                                budget_secs=None, seed=0, threads=None,
                                target=None), (5, 4),
     "SearchConfig(n=5, k=3, mode='exact', budget_nodes=None, "
     "budget_secs=None, seed=0, threads=None, target=None)"),
    (SearchConfig, (5, 3, "heuristic", 10, None, 1, 2),
     dict(n=5, k=3, mode="heuristic", seed=1, budget_nodes=10, threads=2),
     (5, 3, "heuristic", 10, None, 2, 2),
     "SearchConfig(n=5, k=3, mode='heuristic', budget_nodes=10, "
     "budget_secs=None, seed=1, threads=2, target=None)"),
    (SearchResult, (4, T, True, 17, 0.5, "pure"),
     dict(value=4, witness=T, optimal=True, nodes=17, elapsed=0.5,
          backend="pure"), (4, None, True, 17, 0.5, "pure"),
     "SearchResult(value=4, witness=FamilyTuple(n=2, families=(Family(n=2, "
     "members=6), Family(n=2, members=8))), optimal=True, nodes=17, "
     "elapsed=0.5, backend='pure')"),
    (CompRow, (1, 3, 3, True, G),
     dict(m=1, c_exact=3, lower_bound=3, equality=True, witness=G),
     (1, 3, 2, False, G),
     "CompRow(m=1, c_exact=3, lower_bound=3, equality=True, "
     "witness=Family(n=2, members=8))"),
    (CompTable, (2, (ROW,)), dict(n=2, rows=(ROW,)), (3, (ROW,)),
     "CompTable(n=2, rows=(CompRow(m=1, c_exact=3, lower_bound=3, "
     "equality=True, witness=Family(n=2, members=8)),))"),
    (BoundValue, (Fraction(1, 2), True), dict(value=Fraction(1, 2),
                                              applicable=True, note=""),
     (Fraction(1, 2), True, "why"),
     "BoundValue(value=Fraction(1, 2), applicable=True, note='')"),
    (BoundsReport, (3, 2, {BoundId.SUM_UPPER: HALF}),
     dict(n=3, k=2, entries={BoundId.SUM_UPPER: HALF}),
     (3, 2, {BoundId.SUM_LOWER: HALF}), "BoundsReport(n=3, k=2)"),
]
IDS = [f"{case[0].__name__}-{i}" for i, case in enumerate(CASES)]


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_construction_equality_and_repr(cls, args, kwargs, other, text):
    a, b, c = cls(*args), cls(**kwargs), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert repr(a) == repr(b) == text
    for name, value in kwargs.items():
        assert getattr(a, name) == value
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a
    if cls is BoundsReport:  # it holds a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_fields_are_read_only(cls, args, kwargs, other, text):
    rec = cls(*args)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == cls(**kwargs)


def test_family_size_is_cached():
    f = Family(3, 0b1011)
    assert "size" not in vars(f)
    assert f.size == 3
    assert vars(f)["size"] == 3
    assert f == Family(3, 0b1011) and hash(f) == hash(Family(3, 0b1011))


def test_tracer_patch_points_live_in_their_class_bodies():
    assert isinstance(Family.__dict__["from_masks"], classmethod)
    assert callable(FamilyTuple.__dict__["canonical_key"])


def test_comp_table_row_and_bounds_report_applicable():
    assert CompTable(2, (ROW,)).row(1) is ROW
    report = BoundsReport(3, 2, {BoundId.SUM_UPPER: HALF,
                                 BoundId.SUM_LOWER: BoundValue(1, False)})
    assert report.applicable() == {BoundId.SUM_UPPER: HALF}


@pytest.mark.parametrize("build, error, message", [
    (lambda: Family(21, 0), BadGround, "ground size n=21 outside 0..20"),
    (lambda: Family(2.5, 0), BadGround, "ground size n=2.5 outside 0..20"),
    (lambda: Family(2, 16), BadGround,
     "membership bits do not fit the n=2 lattice"),
    (lambda: Family(2, -1), BadGround,
     "membership bits do not fit the n=2 lattice"),
    (lambda: FamilyTuple(-1, (F,)), BadGround,
     "ground size n=-1 outside 0..20"),
    (lambda: FamilyTuple(2, ()), ValueError, "need at least one family"),
    (lambda: FamilyTuple(2, (F, Family(3, 1))), ValueError,
     "families live over different ground sets"),
    (lambda: ProductParams(0, 2), BadGround, "ground size n=0 outside 1..20"),
    (lambda: ProductParams(4, 1), BadGround, "need k >= 2, got 1"),
    (lambda: ProductParams(6, 3, [1, 2]), BadSegmentSize,
     "got 2 segment sizes for k=3"),
    (lambda: ProductParams(6, 3, (1, 2.0, 1)), BadSegmentSize,
     "segment size 2.0 on block 2 must be an integer"),
    (lambda: ProductParams(6, 2, [True, 1]), BadSegmentSize,
     "segment size True on block 1 must be an integer"),
    (lambda: SumParams(0, 2), BadGround, "ground size n=0 outside 1..20"),
    (lambda: SumParams(5, 1), BadGround, "need k >= 2, got 1"),
    (lambda: SumParams(9, 3, a=2), InfeasibleParams,
     "a=2 must have the parity of n=9"),
    (lambda: SumParams(9, 3, a=11), InfeasibleParams, "a=11 exceeds n=9"),
    (lambda: SumParams(4, 5, a=2), InfeasibleParams,
     "antichain needs k-1=4 elements outside the tail of 1, only 3 available"),
    (lambda: PrefixParams(21, 2), BadGround, "ground size n=21 outside 1..20"),
    (lambda: PrefixParams(5, 1), BadGround, "need k >= 2, got 1"),
    (lambda: PrefixParams(6, 3, ell=7), BadGround,
     "prefix ground ell=7 exceeds n=6"),
    (lambda: PrefixParams(6, 3, ell=2), AntichainTooSmall,
     "the middle layer of a 2-element ground holds only 2 incomparable "
     "sets, need 3"),
])
def test_validated_types_keep_their_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
