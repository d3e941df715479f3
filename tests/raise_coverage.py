"""List the raise statements of src/weylkit that no Tier-1 test runs.

Run from the root of the repository:

    python tests/raise_coverage.py

It runs the Tier-1 suite in this process under sys.settrace, tracing lines
only in the src/weylkit functions that hold a raise, and prints each raise
that never ran as ``module.function:line ExceptionType``.  It exits non-zero
if the suite fails, if an unreached raise is not on ALLOWED, or if an entry
of ALLOWED no longer names an unreached raise.  Tracing makes the suite
several times slower, so this is a tool, not a Tier-1 test.
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylkit"

# "module.function ExceptionType" -> why no test reaches it; at most 5
ALLOWED = {}


def raise_sites():
    """(path, first line, last line, "module.function", exception name) for
    every raise in the package, the function being the innermost enclosing
    def (with its class), or <module>."""
    sites = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, scope + [child.name])
            elif isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = "re-raise" if exc is None else ast.unparse(exc)
                where = ".".join([path.stem] + (scope or ["<module>"]))
                sites.append((str(path), child.lineno, child.end_lineno, where, name))
            else:
                visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, [])
    return sites


def run_traced(sites, pytest_args):
    """Run pytest with pytest_args under a tracer that records the lines of
    the sites it runs; returns (pytest's exit code, the lines hit)."""
    import pytest

    wanted = {}
    for path, first, last, _, _ in sites:
        wanted.setdefault(path, set()).update(range(first, last + 1))
    hit, traced_code = set(), {}

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame, event, arg):
        code = frame.f_code
        if code not in traced_code:
            lines = wanted.get(code.co_filename, ())
            traced_code[code] = any(line in lines for _, _, line in code.co_lines() if line is not None)
        return local if traced_code[code] else None

    sys.settrace(global_trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return status, hit


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sites = raise_sites()
    status, hit = run_traced(sites, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if status != 0:
        print(f"the Tier-1 suite failed (pytest exit code {status}); coverage is not reported")
        return 1
    unreached = [s for s in sites if not any((s[0], line) in hit for line in range(s[1], s[2] + 1))]
    outside, allowed_seen = [], set()
    for path, line, _, where, name in unreached:
        key = f"{where} {name}"
        print(f"{where}:{line} {name}" + (f"  (allowed: {ALLOWED[key]})" if key in ALLOWED else ""))
        (allowed_seen.add if key in ALLOWED else outside.append)(key)
    stale = sorted(set(ALLOWED) - allowed_seen)
    print(f"{len(sites) - len(unreached)} of {len(sites)} raise statements reached; "
          f"{len(outside)} unreached outside the allowlist; stale allowlist entries: {stale or 'none'}")
    return 1 if outside or stale or len(ALLOWED) > 5 else 0


if __name__ == "__main__":
    sys.exit(main())
