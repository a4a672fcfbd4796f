"""Build script.  The compiled search kernels are optional: they are one
plain C99 file, loaded through ctypes, so a C compiler is all they need.
Without one the package installs anyway and falls back to the pure
Python kernels at import time."""

import os

from setuptools import Extension, setup

posix = os.name == "posix"
kernels = Extension(
    "sperner.search._ckernels",
    ["src/sperner/search/ckernels.c"],
    # standard C keeps float expressions uncontracted, as the pure kernels
    extra_compile_args=["-std=c99"] if posix else [],
    libraries=["m"] if posix else [],
    optional=True,
)

setup(ext_modules=[kernels])
