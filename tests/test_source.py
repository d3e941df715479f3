import ast
import pathlib

import weylkit

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
