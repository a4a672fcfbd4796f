"""The declared dependencies match the imports the package makes, and
the in-place build leaves a package that starts without compiling."""

import ast
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages(path):
    """The top-level package of every absolute import in a source file,
    function-local ones included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "sperner").rglob("*.py"))
    assert sources
    outside = {(path.relative_to(ROOT).as_posix(), name)
               for path in sources for name in _imported_packages(path)
               if name != "sperner" and name not in sys.stdlib_module_names}
    assert not outside


def _module_level(body):
    """The statements of a module body outside function and class
    bodies, those nested in if and try blocks included."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            yield node
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level(getattr(node, field, []))


def test_modules_use_every_module_level_import():
    """A module outside __init__ uses every name it imports at module
    level.  cli keeps dumps_witness: perfbench/spans.py traces it by
    that name."""
    kept = {("cli.py", "dumps_witness")}
    package = ROOT / "src" / "sperner"
    unused = set()
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in _module_level(tree.body):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.relative_to(package).as_posix(), name)
                      for name in imported - used)
    assert unused == kept


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not project.get("dependencies")


def _fresh_env(src):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONOPTIMIZE", None)
    return env


@pytest.mark.parametrize("compiler", ["default", "none"])
def test_inplace_build_writes_the_package_bytecode(tmp_path, compiler):
    """`setup.py build_ext --inplace` byte-compiles the package, with or
    without the optional kernels, and a fresh interpreter that may not
    write bytecode loads every module from that cache."""
    if compiler == "none" and os.name != "posix":
        pytest.skip("CC selects the compiler on POSIX only")
    shutil.copy(ROOT / "setup.py", tmp_path)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    package = tmp_path / "src" / "sperner"
    shutil.copytree(ROOT / "src" / "sperner", package,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    env = _fresh_env(tmp_path / "src")
    if compiler == "none":
        env["CC"] = str(tmp_path / "no-such-cc")
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(tmp_path / "build-temp")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr

    sources = sorted(package.rglob("*.py"))
    caches = {path: Path(importlib.util.cache_from_source(str(path), optimization=""))
              for path in sources}
    assert sources and all(cache.is_file() for cache in caches.values())

    run = subprocess.run([sys.executable, "-v", "-c", "import sperner.cli"],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    read = {line for line in run.stderr.splitlines() if " matches " in line}
    assert {f"# {cache} matches {path}" for path, cache in caches.items()} <= read


def test_import_leaves_out_single_path_modules():
    """Annealing chains run on plain threads, so not even a threaded
    search loads a thread pool or the logging it pulls in; the witness
    timestamp needs no datetime, and the record types need neither
    dataclasses nor the inspect, ast, dis and tokenize modules it
    imports.  verify forks its workers with os.fork, without
    multiprocessing."""
    left_out = {"concurrent.futures", "datetime", "dataclasses", "inspect",
                "ast", "dis", "tokenize", "multiprocessing"}
    code = ("import sys, sperner.cli, sperner.search as s; "
            "s.anneal_max_product(s.SearchConfig(4, 3, mode='heuristic', seed=1, "
            "threads=2, budget_nodes=50)); "
            f"print(sorted({left_out!r} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=_fresh_env(ROOT / "src"), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
