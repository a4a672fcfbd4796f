"""The benchmark's hooks into the package.

perfbench/spans.py wraps kernels, engine helpers and CLI globals by name,
and perfbench/parity.py records and replays kernels by name.  A rename on
the package's side would break traced and parity runs and nothing else,
so these tests load both files, read only, and exercise the hooks.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

from sperner.cli import main
from sperner.search import SearchConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _kernel_modules():
    from sperner.search import _kernels_py

    try:
        from sperner.search import _kernels
    except ImportError:
        return [_kernels_py]
    return [_kernels_py, _kernels]


def test_tracer_installs_traces_and_uninstalls(monkeypatch, capsys):
    spans = _load("spans", monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        code = main(["search", "pi", "--n", "4", "--k", "3", "--mode", "heuristic",
                     "--seed", "1", "--threads", "2", "--budget-nodes", "50"])
    finally:
        tracer.uninstall()
    assert code == 0
    nodes = int(re.search(r"nodes=(\d+)", capsys.readouterr().out).group(1))
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
    chains = [sp for sp in tracer.spans if sp.name == "kernel.anneal_chain"]
    assert len(chains) == 2 and sum(sp.count for sp in chains) == nodes
    assert [sp.name for sp in tracer.spans].count("engine._variants") == 1
    # layer_metrics pools chains by their parent span
    (search,) = [sp for sp in tracer.spans if sp.name == "engine.anneal_max_product"]
    assert all(sp.parent == search.id for sp in chains)


def test_parity_kernels_exist_and_replay(monkeypatch, capsys):
    parity = _load("parity", monkeypatch)
    for module in _kernel_modules():
        for name in parity.KERNELS:
            assert callable(getattr(module, name)), (module.__name__, name)
    assert SearchConfig(5, 3, mode="heuristic", seed=1, threads=1,
                        budget_nodes=2000).mode == "heuristic"
    assert parity.main() == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mismatches"] == []
    assert report["status"] in ("checked", "skipped: extension not built")
