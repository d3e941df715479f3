import ast
import importlib
import inspect
import pathlib
from fractions import Fraction

import weylkit
from weylkit.affine import gram_from_weights
from weylkit.duality import iota_conjugation, level_from_config
from weylkit.rootdata import preset

SOURCES = sorted(pathlib.Path(weylkit.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements; checks must raise typed errors
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 1
    assert found == []


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_contract(monkeypatch):
    # perfbench wraps weylkit names from outside; a refactor that drops one
    # breaks the benchmark, so it fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    trace_layers = importlib.import_module("trace_layers")
    workloads = importlib.import_module("workloads")
    for layer, name in trace_layers._CACHES:
        assert hasattr(getattr(importlib.import_module(f"weylkit.{layer}"), name), "cache_info"), (layer, name)
    for layer, cls, method in trace_layers._METHODS:
        assert callable(getattr(getattr(importlib.import_module(f"weylkit.{layer}"), cls), method)), (cls, method)
    for layer, name in trace_layers._COUNTED:
        assert callable(getattr(importlib.import_module(f"weylkit.{layer}"), name)), (layer, name)
    # the tracer rebinds TruncModule.from_bimodule as a staticmethod and adds
    # up the .dims list of every module it returns
    soergel = importlib.import_module("weylkit.soergel")
    assert isinstance(inspect.getattr_static(soergel.TruncModule, "from_bimodule"), staticmethod)
    mod = soergel.TruncModule.from_bimodule(soergel.bott_samelson_bimodule(((-1,),)), 3)
    assert isinstance(mod.dims, list) and sum(mod.dims) == 7
    for workload in ("blocks", "levels", "soergel"):
        assert workloads.build(workload, 1)
    # checks.iota_problems reads these report fields, and the frozen baseline
    # copy returns them too
    checks = importlib.import_module("checks")
    rd = preset("SL", 2)
    lvl = level_from_config(rd, gram_from_weights(rd, rd.roots).matrix)  # K
    report = iota_conjugation(rd, lvl, (Fraction(0),))
    assert report["pairs_checked"] >= 1
    plain = dict(report, linear=report["iota"].linear, offset=report["iota"].offset)
    assert checks.iota_problems(lvl.gram, (Fraction(0),), plain) == []
