"""Each search limit has one Python statement, and the C kernels, which
cannot import it, restate it in a #define that must agree."""

import ast
import ctypes
import re
from array import array
from pathlib import Path

from sperner import lattice
from sperner.search import _clib

SEARCH = Path(__file__).resolve().parents[1] / "src" / "sperner" / "search"


def _defines():
    """The integer #define lines of ckernels.c, by name."""
    text = (SEARCH / "ckernels.c").read_text(encoding="utf-8")
    return {name: int(value)
            for name, value in re.findall(r"^#define (\w+) (\d+)\b", text, re.M)}


def test_kernel_defines_match_their_python_statements():
    defines = _defines()
    assert defines["MAX_GROUND"] == lattice.MAX_GROUND
    assert defines["ANNEAL_MAX_K"] == lattice.MAX_LABEL
    assert defines["VALUE_LIMBS"] == _clib._VALUE_LIMBS
    assert defines["UPSET_MAX_GROUND"] == len(_clib._UPSET_COUNTS) - 1


def test_typed_arrays_hold_the_kernels_words():
    """The bindings hand C the buffers of array("Q") and array("q") in
    place, as the kernels' uint64_t and int64_t words."""
    assert array("Q").itemsize == ctypes.sizeof(ctypes.c_uint64)
    assert array("q").itemsize == ctypes.sizeof(ctypes.c_int64)


def test_bindings_import_nothing_from_the_engine():
    """The bindings check the kernels' own limits; the engine's policy
    gates stay in the engine, which imports the bindings, not the reverse."""
    imported = set()
    for node in ast.walk(ast.parse((SEARCH / "_clib.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "engine" in name.split(".")]
