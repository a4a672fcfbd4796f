"""Witness files: a small JSON format for cross-Sperner tuples.

A witness records one concrete tuple together with its measures and
enough provenance to rebuild it.  Serialization is canonical (sorted
keys, two-space indent, families in canonical order, trailing newline),
so a loaded witness re-serializes to the identical bytes and witnesses
can be compared as files.

Loading validates the *format* only and raises WitnessFormatError on
any malformed input.  Whether the tuple actually is cross-Sperner and
whether the recorded measures match is a semantic question answered by
:func:`check_witness`.
"""

from __future__ import annotations

import json
import time
from itertools import islice
from operator import eq
from typing import Any, Iterator

from .errors import WitnessFormatError
from .lattice import MAX_GROUND, Family, FamilyTuple, bits_of, is_cross_sperner

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "n",
    "k",
    "encoding",
    "families",
    "measures",
    "provenance",
    "created",
}
_REQUIRED_KEYS = _TOP_KEYS - {"provenance"}


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def witness_payload(
    t: FamilyTuple,
    provenance: dict[str, Any] | None = None,
    created: str | None = None,
) -> dict[str, Any]:
    """Build the witness dict for a tuple, families in canonical order."""
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "n": t.n,
        "k": t.k,
        "encoding": "mask",
        "families": [list(masks) for masks in t.canonical_key()],
        "measures": {"sum": t.sum_size(), "product": t.product_size()},
        "created": created if created is not None else _utc_now(),
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


# the canonical format: sorted keys, two-space indent, trailing newline
_JSON_FORMAT = {"sort_keys": True, "indent": 2}

# masks per chunk of a family; bounds the memory of a write
_BLOCK = 4096
# the top-level key at two-space indent: a JSON string holds no raw
# newline and nested keys sit deeper, so this text occurs once
_FAMILIES_KEY = '\n  "families": '
_MASK_SEP = ",\n      "


def _witness_chunks(payload: dict[str, Any]) -> Iterator[str]:
    """The canonical text in pieces, the one serializer: json.dumps for
    every key but families, then each family formatted in C, one printf
    over a block of masks at a time.  The pieces concatenate to
    json.dumps(payload, sort_keys=True, indent=2) + "\n"."""
    text = json.dumps({**payload, "families": None}, **_JSON_FORMAT)
    head, _, tail = text.partition(_FAMILIES_KEY + "null")
    families = payload["families"]
    yield head + _FAMILIES_KEY + ("[" if families else "[]")
    lead = "\n    "
    for fam in families:
        if not fam:
            yield lead + "[]"
        else:
            sep = lead + "[\n      "
            for start in range(0, len(fam), _BLOCK):
                block = tuple(fam[start:start + _BLOCK])
                yield sep + _MASK_SEP.join(["%d"] * len(block)) % block
                sep = _MASK_SEP
            yield "\n    ]"
        lead = ",\n    "
    yield ("\n  ]" if families else "") + tail + "\n"


def dumps_witness(payload: dict[str, Any]) -> str:
    """Canonical serialization: byte-stable across dump/load/dump."""
    return "".join(_witness_chunks(payload))


def write_witness(path: str, payload: dict[str, Any]) -> None:
    """Stream the bytes of dumps_witness to path, one block of masks at
    a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_witness_chunks(payload))


def _fail(msg: str) -> None:
    raise WitnessFormatError(msg)


def _check_int(value: Any, what: str) -> int:
    # bool is an int subclass but never a set encoding
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{what} must be an integer, got {value!r}")
    return value


def _mask_from_elements(raw: Any, n: int, where: str) -> int:
    if not isinstance(raw, list):
        _fail(f"{where} must be a list of elements")
    for e in raw:
        _check_int(e, f"element in {where}")
        if not 1 <= e <= n:
            _fail(f"element {e} in {where} outside 1..{n}")
    mask = bits_of(e - 1 for e in raw)
    if mask.bit_count() != len(raw):
        e = next(e for e in raw if raw.count(e) > 1)
        _fail(f"repeated element {e} in {where}")
    return mask


def parse_witness(text: str) -> dict[str, Any]:
    """Parse and validate witness JSON, normalizing to mask encoding.

    The returned payload always has encoding "mask" with families in
    canonical order; for a canonically dumped input this is a no-op and
    dumps_witness(parse_witness(text)) == text.
    """
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: nesting deeper than the interpreter's limit
        raise WitnessFormatError(f"not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        _fail("top level must be a JSON object")

    unknown = set(payload) - _TOP_KEYS
    if unknown:
        _fail(f"unknown keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(payload)
    if missing:
        _fail(f"missing keys: {sorted(missing)}")

    version = _check_int(payload["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        _fail(f"unsupported schema_version {version!r}")
    n = _check_int(payload["n"], "n")
    if not 1 <= n <= MAX_GROUND:
        _fail(f"n={n} outside 1..{MAX_GROUND}")
    k = _check_int(payload["k"], "k")
    if k < 1:
        _fail(f"k={k} must be positive")

    encoding = payload["encoding"]
    if encoding not in ("mask", "elements"):
        _fail(f"unknown encoding {encoding!r}")

    families = payload["families"]
    if not isinstance(families, list):
        _fail("families must be a list")
    if len(families) != k:
        _fail(f"families has {len(families)} entries, expected k={k}")

    top = (1 << n) - 1
    norm: list[list[int]] = []
    for i, fam in enumerate(families):
        if not isinstance(fam, list) or not fam:
            _fail(f"family {i} must be a non-empty list")
        # the whole family sorted once at C speed, its range read off
        # the ends; the walk in file order only runs to name the first
        # offender when the types or the range fail
        masks = None
        if encoding == "mask" and set(map(type, fam)) == {int}:
            masks = sorted(fam)
        if masks is None or not (0 < masks[0] and masks[-1] < top):
            masks = []
            for item in fam:
                if encoding == "mask":
                    m = _check_int(item, f"mask in family {i}")
                else:
                    m = _mask_from_elements(item, n, f"set in family {i}")
                if not 0 < m < top:
                    _fail(
                        f"mask {m} in family {i} is not a proper non-empty "
                        f"subset of [{n}]"
                    )
                masks.append(m)
            masks.sort()
        if any(map(eq, masks, islice(masks, 1, None))):
            _fail(f"family {i} repeats a set")
        norm.append(masks)
    norm.sort()

    measures = payload["measures"]
    if not isinstance(measures, dict) or set(measures) != {"sum", "product"}:
        _fail("measures must be an object with exactly the keys sum and product")
    _check_int(measures["sum"], "measures.sum")
    _check_int(measures["product"], "measures.product")

    created = payload["created"]
    if not isinstance(created, str):
        _fail("created must be a string timestamp")
    if "provenance" in payload and not isinstance(payload["provenance"], dict):
        _fail("provenance must be an object")

    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "k": k,
        "encoding": "mask",
        "families": norm,
        "measures": {"sum": measures["sum"], "product": measures["product"]},
        "created": created,
    }
    if "provenance" in payload:
        out["provenance"] = payload["provenance"]
    return out


def load_witness(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return parse_witness(fh.read())


def tuple_of_witness(payload: dict[str, Any]) -> FamilyTuple:
    """Materialize the recorded tuple.  Nothing here checks that the
    families are disjoint: check_witness reports a set shared by two
    families as a comparable cross pair."""
    fams = tuple(Family.from_masks(payload["n"], f) for f in payload["families"])
    return FamilyTuple(payload["n"], fams)


def check_witness(payload: dict[str, Any]) -> list[str]:
    """Semantic checks on a parsed witness: the tuple must be
    cross-Sperner and the recorded measures must match.  Returns the
    list of problems, empty when the witness is good."""
    problems: list[str] = []
    try:
        t = tuple_of_witness(payload)
    except Exception as e:
        return [f"families do not form a tuple: {e}"]
    check = is_cross_sperner(t)
    if not check.ok:
        v = check.violation
        problems.append(
            f"not cross-Sperner: mask {v.mask_i} in family {v.i} is "
            f"comparable to mask {v.mask_j} in family {v.j}"
        )
    if t.sum_size() != payload["measures"]["sum"]:
        problems.append(
            f"sum measure is {t.sum_size()}, file says {payload['measures']['sum']}"
        )
    if t.product_size() != payload["measures"]["product"]:
        problems.append(
            f"product measure is {t.product_size()}, "
            f"file says {payload['measures']['product']}"
        )
    return problems
