import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "swkb"


def test_no_assert_statements_in_package():
    # python -O strips asserts, so no check in the package may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), "package sources not found"
    assert found == []
