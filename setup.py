"""Build script.  The compiled search kernels are optional: they are one
plain C99 file, loaded through ctypes, so a C compiler is all they need.
Without one the package installs anyway and falls back to the pure
Python kernels at import time.

The in-place build (`python setup.py build_ext --inplace`) also writes
the package's bytecode under `src/sperner/**/__pycache__`, so a fresh
interpreter loads it instead of compiling every module, even when it
may not write bytecode itself (`PYTHONDONTWRITEBYTECODE`).  Editing a
source after a build is safe: Python ignores a `.pyc` whose source has
changed, and the next build refreshes it.  Other builds write no
bytecode into the sources; a regular pip install byte-compiles what it
installs."""

import compileall
import os
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext as _build_ext
from setuptools.errors import CompileError

PACKAGE = Path(__file__).resolve().parent / "src" / "sperner"


class build_ext(_build_ext):
    """`build_ext` that byte-compiles the package after an in-place build,
    whether or not the optional kernels built."""

    def run(self):
        super().run()
        if self.inplace and not compileall.compile_dir(PACKAGE, quiet=1):
            raise CompileError(f"byte-compiling {PACKAGE} failed")


posix = os.name == "posix"
kernels = Extension(
    "sperner.search._ckernels",
    ["src/sperner/search/ckernels.c"],
    # standard C keeps float expressions uncontracted, as the pure kernels
    extra_compile_args=["-std=c99"] if posix else [],
    libraries=["m"] if posix else [],
    optional=True,
)

setup(ext_modules=[kernels], cmdclass={"build_ext": build_ext})
