"""Checks on the shape of the package sources rather than on their behaviour."""
import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "lineal").glob("*.py"))


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "lineal":
                offenders += [
                    f"{path.name}: from {module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert SOURCES
    assert offenders == []
