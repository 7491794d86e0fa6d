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


def test_no_function_in_lineal_calls_itself():
    # a walk as deep as its input is a loop over an explicit stack, so the
    # interpreter's recursion limit never decides how large an input may be
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name):
                    name = f.id
                elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in ("self", "cls"):
                    name = f.attr  # a method through its own instance or class
                else:
                    continue
                if name == node.name:
                    offenders.append(f"{path.name}:{call.lineno}: {node.name} calls itself")
    assert SOURCES
    assert offenders == []
