import calendar
import hashlib
import json
import re
import time

import pytest

from sperner.cli import _emit_witness

from sperner.constructions import (
    PrefixParams,
    ProductParams,
    SumParams,
    build_pair_sum,
    build_prefix_tuple,
    build_product_tuple,
    build_sum_tuple,
)
from sperner.errors import WitnessFormatError
from sperner.witness import (
    _BLOCK,
    check_witness,
    dumps_witness,
    load_witness,
    parse_witness,
    tuple_of_witness,
    witness_payload,
    write_witness,
)


@pytest.fixture
def payload():
    t = build_product_tuple(ProductParams(5, 2))
    return witness_payload(
        t, provenance={"builder": "product", "parameters": {"n": 5, "k": 2}}
    )


def test_payload_shape(payload):
    assert payload["schema_version"] == 1
    assert payload["encoding"] == "mask"
    assert payload["n"] == 5 and payload["k"] == 2
    assert len(payload["families"]) == 2
    assert payload["families"] == sorted(payload["families"])
    for fam in payload["families"]:
        assert fam == sorted(fam)
    assert set(payload["measures"]) == {"sum", "product"}


def test_default_created_is_utc_now(payload):
    created = payload["created"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", created)
    stamp = calendar.timegm(time.strptime(created, "%Y-%m-%dT%H:%M:%SZ"))
    assert abs(stamp - time.time()) <= 5


def test_round_trip_is_byte_identical(payload):
    text = dumps_witness(payload)
    again = dumps_witness(parse_witness(text))
    assert again == text
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_product_tuple(ProductParams(14, 3)),
        lambda: build_sum_tuple(SumParams(14, 2)),
        lambda: build_prefix_tuple(PrefixParams(14, 4)),
    ],
    ids=["product", "sum", "prefix"],
)
def test_construction_round_trip_is_byte_identical(build):
    p = witness_payload(build(), provenance={"builder": "x"},
                        created="2026-01-01T00:00:00Z")
    text = dumps_witness(p)
    assert text == _reference(p)
    assert dumps_witness(parse_witness(text)) == text


def test_file_round_trip(tmp_path, payload):
    path = tmp_path / "w.json"
    write_witness(str(path), payload)
    loaded = load_witness(str(path))
    assert loaded == parse_witness(dumps_witness(payload))
    assert dumps_witness(loaded) == path.read_text()


def test_written_file_bytes_are_canonical(tmp_path):
    # the streamed file equals the string form byte for byte, and its
    # digest is pinned to the canonical bytes of this tuple
    t = build_sum_tuple(SumParams(14, 2))
    p = witness_payload(t, created="2026-01-01T00:00:00Z")
    path = tmp_path / "w.json"
    write_witness(str(path), p)
    data = path.read_bytes()
    assert data == dumps_witness(p).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == (
        "173f324698c893e02a0c6aea5bd7e9bfcc642e3ab0a1b0967d2631894f0ee850"
    )


def _reference(p):
    # the canonical bytes as the json module writes them
    return json.dumps(p, sort_keys=True, indent=2) + "\n"


def _synthetic(families, **extra):
    p = {
        "schema_version": 1,
        "n": 20,
        "k": len(families),
        "encoding": "mask",
        "families": families,
        "measures": {"sum": 3, "product": 2**70 + 1},
        "created": "2026-01-01T00:00:00Z",
    }
    p.update(extra)
    return p


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
def test_dumps_matches_json_across_block_edges(size):
    p = _synthetic([list(range(1, size + 1)), [7], list(range(3, 3 * size, 3))])
    assert dumps_witness(p) == _reference(p)


def test_dumps_matches_json_at_the_top_of_n20():
    # masks up to 2^20 - 2, the largest proper subset, in a family of
    # exactly one block and in one spanning several
    top = 2**20 - 1
    p = _synthetic([list(range(3, top, 97)),
                    list(range(top - _BLOCK, top))])
    text = dumps_witness(p)
    assert text == _reference(p)
    assert dumps_witness(parse_witness(text)) == text


@pytest.mark.parametrize(
    "families,extra",
    [
        ([], {}),
        ([[]], {}),
        ([[1, 2], [], [5]], {}),
        (
            [[3], [4]],
            {"provenance": {"families": [[1, 2], []], "builder": "x",
                            "parameters": {"families": None, "k": [2, 3]}}},
        ),
        ([[3], [4]], {"provenance": {}}),
    ],
)
def test_dumps_matches_json_on_edge_payloads(families, extra):
    p = _synthetic(families, **extra)
    assert dumps_witness(p) == _reference(p)


def test_file_dumps_and_stdout_agree(tmp_path, capsys):
    t = build_sum_tuple(SumParams(14, 2))
    p = witness_payload(t, provenance={"builder": "sum"},
                        created="2026-01-01T00:00:00Z")
    text = dumps_witness(p)
    assert text == _reference(p)
    path = tmp_path / "w.json"
    write_witness(str(path), p)
    assert path.read_bytes() == text.encode("utf-8")
    for out in (None, "-"):
        _emit_witness(p, out)
        assert capsys.readouterr().out == text


def test_tuple_round_trip(payload):
    t = tuple_of_witness(payload)
    assert witness_payload(t, created=payload["created"],
                           provenance=payload["provenance"]) == payload


def test_check_witness_accepts_good(payload):
    assert check_witness(payload) == []


def test_elements_encoding_accepted():
    doc = {
        "schema_version": 1,
        "n": 3,
        "k": 2,
        "encoding": "elements",
        "families": [[[2]], [[1], [3]]],
        "measures": {"sum": 3, "product": 2},
        "created": "2026-01-01T00:00:00Z",
    }
    p = parse_witness(json.dumps(doc))
    assert p["encoding"] == "mask"
    assert p["families"] == [[1, 4], [2]]
    assert check_witness(p) == []


def test_canonical_order_restored_on_parse(payload):
    doc = json.loads(dumps_witness(payload))
    doc["families"] = [list(reversed(f)) for f in reversed(doc["families"])]
    assert parse_witness(json.dumps(doc))["families"] == payload["families"]


def _base():
    return {
        "schema_version": 1,
        "n": 3,
        "k": 2,
        "encoding": "mask",
        "families": [[1], [2]],
        "measures": {"sum": 2, "product": 1},
        "created": "2026-01-01T00:00:00Z",
    }


@pytest.mark.parametrize(
    "mutate,hint",
    [
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d.pop("measures"), "missing"),
        (lambda d: d.update(n="3"), "integer"),
        (lambda d: d.update(n=0), "outside"),
        (lambda d: d.update(n=99), "outside"),
        (lambda d: d.update(k=0), "positive"),
        (lambda d: d.update(encoding="sets"), "encoding"),
        (lambda d: d.update(families={}), "families must be a list"),
        (lambda d: d.update(families=[[1]]), "expected k"),
        (lambda d: d.update(families=[[1], []]), "non-empty"),
        (lambda d: d.update(families=[[1], [0]]), "proper"),
        (lambda d: d.update(families=[[1], [7]]), "proper"),
        (lambda d: d.update(families=[[1], [8]]), "proper"),
        (lambda d: d.update(families=[[1, 1], [2]]), "repeats"),
        (lambda d: d.update(families=[[1], [True]]), "integer"),
        (lambda d: d.update(measures={"sum": 2}), "measures"),
        (lambda d: d.update(measures={"sum": 2, "product": 1, "max": 1}), "measures"),
        (lambda d: d.update(created=7), "string"),
        (lambda d: d.update(provenance=[1]), "provenance"),
        # true == 1 and 1.0 == 1 in Python, but neither is the version
        (lambda d: d.update(schema_version=True), "schema_version must be an integer"),
        (lambda d: d.update(schema_version=1.0), "schema_version must be an integer"),
    ],
)
def test_parse_rejects_malformed(mutate, hint):
    doc = _base()
    mutate(doc)
    with pytest.raises(WitnessFormatError, match=hint):
        parse_witness(json.dumps(doc))


def test_parse_rejects_nesting_past_the_recursion_limit():
    with pytest.raises(WitnessFormatError, match="^not valid JSON: maximum recursion"):
        parse_witness("[" * 3000)


def test_parse_rejects_an_integer_past_the_digit_limit():
    doc = json.dumps(_base()).replace('"n": 3', '"n": 1' + "0" * 4300)
    with pytest.raises(WitnessFormatError, match="^not valid JSON: Exceeds the limit"):
        parse_witness(doc)


def _large(bad):
    # n = 14, family 1 holds 12,000 masks with one bad entry in the middle
    fam = list(range(1, 12_001))
    fam[6_000] = bad
    doc = _base()
    doc.update(n=14, families=[[16_000], fam])
    return json.dumps(doc)


@pytest.mark.parametrize(
    "bad,message",
    [
        (0, "mask 0 in family 1 is not a proper non-empty subset of [14]"),
        (2**14 - 1,
         "mask 16383 in family 1 is not a proper non-empty subset of [14]"),
        (2**14, "mask 16384 in family 1 is not a proper non-empty subset of [14]"),
        (-3, "mask -3 in family 1 is not a proper non-empty subset of [14]"),
        (True, "mask in family 1 must be an integer, got True"),
        (1.0, "mask in family 1 must be an integer, got 1.0"),
        ("5", "mask in family 1 must be an integer, got '5'"),
        (None, "mask in family 1 must be an integer, got None"),
        (17, "family 1 repeats a set"),
    ],
)
def test_bulk_parse_names_the_offender(bad, message):
    with pytest.raises(WitnessFormatError) as e:
        parse_witness(_large(bad))
    assert str(e.value) == message


@pytest.mark.parametrize(
    "family,message",
    [
        # the first offender in file order, not the least
        ([5, 0, -3], "mask 0 in family 1 is not a proper non-empty subset of [3]"),
        ([5, 7, True], "mask 7 in family 1 is not a proper non-empty subset of [3]"),
        ([5, 3, 5], "family 1 repeats a set"),
        ([5, 9, 3, 5], "mask 9 in family 1 is not a proper non-empty subset of [3]"),
    ],
)
def test_parse_names_offenders_in_file_order(family, message):
    doc = _base()
    doc["families"] = [[2], family]
    with pytest.raises(WitnessFormatError) as e:
        parse_witness(json.dumps(doc))
    assert str(e.value) == message


def test_bulk_parse_sorts_a_reversed_family():
    doc = _base()
    doc.update(n=14, families=[list(range(12_000, 0, -1)), [16_000]])
    p = parse_witness(json.dumps(doc))
    assert p["families"] == [list(range(1, 12_001)), [16_000]]


def test_parse_rejects_non_json():
    with pytest.raises(WitnessFormatError, match="JSON"):
        parse_witness("{nope")
    with pytest.raises(WitnessFormatError, match="object"):
        parse_witness("[1, 2]")


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    # the head of an ELF binary: byte 24 opens a two-byte sequence that
    # byte 25 does not continue
    path = tmp_path / "binary"
    path.write_bytes(b"\x7fELF\x02\x01\x01" + bytes(9)
                     + b"\x03\x00>\x00\x01\x00\x00\x00\xd0a" + bytes(6))
    with pytest.raises(WitnessFormatError) as e:
        load_witness(str(path))
    assert str(e.value) == "not valid UTF-8: invalid continuation byte at byte 24"


def test_elements_encoding_rejects_bad_elements():
    doc = _base()
    doc["encoding"] = "elements"
    doc["families"] = [[[1]], [[2, 9]]]
    with pytest.raises(WitnessFormatError, match="outside"):
        parse_witness(json.dumps(doc))
    doc["families"] = [[[1]], [[2, 2]]]
    with pytest.raises(WitnessFormatError, match="repeated"):
        parse_witness(json.dumps(doc))
    doc["families"] = [[[1]], [2]]
    with pytest.raises(WitnessFormatError, match="list"):
        parse_witness(json.dumps(doc))
    doc["families"] = [[[1, 2], [2, 1]], [[3]]]
    with pytest.raises(WitnessFormatError, match="repeats"):
        parse_witness(json.dumps(doc))


def test_check_witness_flags_bad_measures():
    doc = _base()
    doc["measures"] = {"sum": 5, "product": 9}
    problems = check_witness(parse_witness(json.dumps(doc)))
    assert len(problems) == 2
    assert any("sum" in p for p in problems)
    assert any("product" in p for p in problems)


def test_check_witness_flags_comparability():
    doc = _base()
    doc["families"] = [[1], [3]]
    doc["measures"] = {"sum": 2, "product": 1}
    problems = check_witness(parse_witness(json.dumps(doc)))
    assert any("cross-Sperner" in p for p in problems)


def test_check_witness_flags_shared_set():
    doc = _base()
    doc["families"] = [[1, 2], [2, 4]]
    doc["measures"] = {"sum": 4, "product": 4}
    problems = check_witness(parse_witness(json.dumps(doc)))
    assert problems


def test_pair_sum_witness_checks():
    t = build_pair_sum(6)
    p = witness_payload(t)
    assert check_witness(p) == []
    assert "provenance" not in p
