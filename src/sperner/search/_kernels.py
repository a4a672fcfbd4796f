"""Compiled search kernels.

A thin module over the C library built from ckernels.c, which setup.py
names `_ckernels` (`python setup.py build_ext --inplace`).  The library
is found next to this file and bound through `_clib`; when it is
missing, importing this module raises ImportError and the engine uses
the pure kernels (see `engine._select`).
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES

from ._clib import Library


def _library_path() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_ckernels" + suffix)
        if os.path.isfile(path):
            return path
    raise ImportError(
        "the compiled kernels are not built; build them with "
        "`python setup.py build_ext --inplace`"
    )


_library = Library(_library_path())

BACKEND = _library.BACKEND
upset_orbits = _library.upset_orbits
comp_scan = _library.comp_scan
exact_search = _library.exact_search
anneal_chain = _library.anneal_chain
