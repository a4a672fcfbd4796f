"""Kernel backend selection.

SPERNER_BACKEND picks the implementation: "compiled" insists on the
C library built from ckernels.c, "pure" forces the Python kernels,
"auto" (default) prefers compiled and falls back silently.
"""

from __future__ import annotations

import os

from . import _kernels_py


def _load():
    choice = os.environ.get("SPERNER_BACKEND", "auto").strip().lower()
    if choice == "pure":
        return _kernels_py
    try:
        from . import _kernels

        return _kernels
    except ImportError as exc:
        if choice == "compiled":
            raise ImportError(
                f"SPERNER_BACKEND=compiled, but {exc}; build them with "
                "`python setup.py build_ext --inplace` or unset the variable"
            ) from exc
        return _kernels_py


kernels = _load()

BACKEND: str = kernels.BACKEND
