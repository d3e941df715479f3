import ast
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import weylkit
from weylkit.affine import gram_from_weights
from weylkit.duality import iota_conjugation, level_from_config
from weylkit.rootdata import preset

SOURCES = sorted(pathlib.Path(weylkit.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements; checks must raise typed errors
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 1
    assert found == []


def _unused_imports(tree):
    """Names a module imports and never reads; names in __all__ are exports."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a quoted annotation reads the names inside the string
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # deletions leave imports behind, in the package and in its tests;
    # __init__.py imports only to re-export
    found = {f"{path.parent.name}/{path.name}": _unused_imports(ast.parse(path.read_text()))
             for path in SOURCES + TESTS if path.name != "__init__.py"}
    assert len(TESTS) > 1 and {name: names for name, names in found.items() if names} == {}
    # the guard sees a plain, an aliased and a from-import left unread, and
    # not one read in code, in a quoted annotation or listed in __all__
    sample = "import os\nimport re as r\nfrom a import b, c, d, e\n__all__ = ['d']\ndef f(x: 'e'): return c(x)\n"
    assert _unused_imports(ast.parse(sample)) == ["b (line 3)", "os (line 1)", "r (line 2)"]


def _environment_reads(tree):
    """Lines that read os.environ or os.getenv, as an attribute or imported
    from os by name."""
    names = {"environ", "environb", "getenv", "getenvb"}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in names
                  or isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name in names for a in node.names))


def test_no_environment_reads():
    # the package takes its inputs as arguments; a setting read from the
    # environment is an option no caller passes and no test sweeps
    found = {path.name: _environment_reads(ast.parse(path.read_text())) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    sample = "import os\nx = os.environ.get('A')\nfrom os import getenv, path\ny = os.getenv('B')\nz = os.path.join('c')\n"
    assert _environment_reads(ast.parse(sample)) == [2, 3, 4]


def _cached_methods(tree):
    """Functions defined in a class body under lru_cache (bare, called, or as
    functools.lru_cache)."""
    found = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)) == "lru_cache":
                        found.append(f"{cls.name}.{node.name} (line {node.lineno})")
    return found


def test_no_lru_cache_on_methods():
    # an lru_cache on a method is one process-wide, unbounded cache keyed on
    # self: it keeps every instance alive and finds equal instances by
    # comparing them field by field; a memo belongs on the instance
    found = {path.name: _cached_methods(ast.parse(path.read_text())) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}
    sample = ("import functools\nclass A:\n    @lru_cache(maxsize=None)\n    def f(self): pass\n    @functools.lru_cache\n"
              "    def g(self): pass\n    @staticmethod\n    def h(): pass\n@lru_cache\ndef k(): pass\n")
    assert _cached_methods(ast.parse(sample)) == ["A.f (line 4)", "A.g (line 6)"]


def _weyl_group_readers(tree, module):
    """module.function for each function whose body names weyl_elements,
    bare or as an attribute."""
    return {
        f"{module}.{node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(getattr(n, "id", getattr(n, "attr", None)) == "weyl_elements" for n in ast.walk(node))
    }


def test_weyl_group_readers():
    # listing the finite Weyl group grows fastest with the rank; these are the
    # functions left that list it, and the set is only meant to shrink
    found = set().union(*(_weyl_group_readers(ast.parse(path.read_text()), path.stem) for path in SOURCES))
    assert found == {"affine.stabilizer_cosets", "duality._iota_partner"}
    sample = "def f():\n    return weyl_elements(rd)\ndef g():\n    return rootdata.weyl_elements\ndef weyl_elements(): pass\n"
    assert _weyl_group_readers(ast.parse(sample), "m") == {"m.f", "m.g"}


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# entry points no benchmark op calls, each with the reason it stays
ENTRY_POINTS = {
    "t_multiply": "block API: the product of the T-basis Hecke algebroid",
    "t_element": "block API: the basis element T_g of a group element",
    "zero_element": "block API: the zero element of a character bimodule",
    "check_relations": "block API: the quadratic, braid and omega relations of a block",
    "omega_compose": "block API: the product of minimal elements",
    "conjugate_to_simple": "block API: the minimal conjugator of an integral simple reflection to an ambient simple",
    "finite_longest_group": "block API: the finite-longest automorphisms of a level's integral group",
    "dual_level": "block API: the Langlands-dual datum with the inverse level",
    "is_isomorphic": "block API: root-datum isomorphism over Z",
    "character_from_config": "config reader of the planned engine CLI",
    "gram_from_matrix": "config reader of the planned engine CLI",
}


def _names_read(node, strings=False):
    """The names node reads: "x" for a bare name or an imported name, ".x"
    for an attribute, and with strings both for every string constant
    shaped like a name."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            read.add("." + n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name.split(".")[-1])
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            read |= {n.value, "." + n.value}
    return read


def _unreached(modules, read):
    """module.name of each top-level function and class, and module.Class.name
    of each method, of the parsed modules {stem: tree} that nothing reaches
    from the names in read.  A function or class is reached when its name is
    read bare or as an attribute, a method when its class is reached and its
    name is read as an attribute (a dunder method with its class), and a
    reached definition reads the names in its body.  Module-level code runs
    on import, so what it reads is read; a name read under an alias a
    module imports it as is read under its own name too."""
    aliases = {}
    defs = {}  # qualified name -> (node, class qualified name or None)
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{stem}.{node.name}"] = node, None
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{stem}.{node.name}.{sub.name}"] = sub, f"{stem}.{node.name}"
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                read |= _names_read(node)
        aliases.update({a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names if a.asname})
    reached, grown = set(), True
    while grown:
        grown = False
        read |= {aliases[name] for name in read if name in aliases}
        for qualname, (node, cls) in defs.items():
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if qualname in reached or not (cls in reached and ("." + name in read or dunder) if cls else {name, "." + name} & read):
                continue
            reached.add(qualname)
            grown = True
            if isinstance(node, ast.ClassDef):
                for part in [n for n in node.body if not isinstance(n, ast.FunctionDef)] + node.bases + node.decorator_list:
                    read |= _names_read(part)
            else:
                read |= _names_read(node)
    return sorted(set(defs) - reached)


def test_every_definition_is_reached():
    # every function, class and method of the package is reached from what
    # the benchmark reads (its imports, its calls and the names its tracer
    # wraps by string) or from an entry point; code only tests call belongs
    # in the tests
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    read = set(ENTRY_POINTS).union(*(_names_read(ast.parse(path.read_text()), strings=True) for path in PERFBENCH.glob("*.py")))
    assert _unreached(modules, read) == []
    defined = {node.name for tree in modules.values() for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(ENTRY_POINTS) <= defined and all(ENTRY_POINTS.values())
    # the scan follows calls, aliases, attributes, module-level code and class
    # bodies, and sees an unused function, method and class
    sample = {
        "m": ast.parse("from x import f as g\nT = [h]\ndef f(): return C().k()\ndef h(): pass\ndef unused(): pass\n"
                       "class C:\n    def k(self): pass\n    def __eq__(self, o): pass\n    def dead(self): pass\n"
                       "class D(C):\n    pass\n"),
    }
    assert _unreached(sample, {"g"}) == ["m.C.dead", "m.D", "m.unused"]
    assert _unreached({"m": ast.parse("from x import f as g\ndef f(): pass\n")}, {"g"}) == []


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


def test_perfbench_selftest_passes():
    # the benchmark's own output checks (checks.order and coxeter_problems
    # power Coxeter entries independently of the package), run as its
    # docstring says; no bytecode or cache is written under perfbench
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/selftest.py"]
    done = subprocess.run(cmd, cwd=PERFBENCH.parent, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("9 passed"), done.stdout


@pytest.mark.parametrize("workload", ["blocks", "levels"])
def test_perfbench_trace_mode_runs(workload, monkeypatch):
    # one traced pass of the benchmark's worker, as the benchmark starts it:
    # it exits 0 with no failed call and no problem, and reports every cache
    # the tracer reads, so a change that drops a name the tracer looks up
    # fails here
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    cmd = [sys.executable, "-B", str(PERFBENCH / "worker.py"), "--workload", workload, "--seed", "1", "--trace"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    assert record["scenarios"] and all(not sc["failures"] and not sc["problems"] for sc in record["scenarios"])
    monkeypatch.syspath_prepend(str(PERFBENCH))
    caches = record["trace"]["caches"]
    assert all(f"{layer}.{name}" in caches for layer, name in importlib.import_module("trace_layers")._CACHES), caches


def _missing_script_targets(scripts):
    """The "module:function" targets of the [project.scripts] table whose
    module cannot be found or does not define the function."""
    missing = []
    for name, target in scripts.items():
        module, _, function = target.partition(":")
        if importlib.util.find_spec(module) is None or not hasattr(importlib.import_module(module), function):
            missing.append(f"{name} = {target}")
    return missing


def test_every_script_entry_point_exists():
    # an installed script whose module is missing fails on its first run
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((PERFBENCH.parent / "pyproject.toml").read_text())
    assert _missing_script_targets(pyproject["project"].get("scripts", {})) == []
    scripts = {"engine": "weylkit.cli:main", "reader": "weylkit.affine:read_square", "typo": "weylkit.affine:no_such"}
    assert _missing_script_targets(scripts) == ["engine = weylkit.cli:main", "typo = weylkit.affine:no_such"]
