"""Rules on the package source itself, checked with `ast`."""

import ast
import sys
from pathlib import Path

import pytest

import sasbp

SRC = Path(sasbp.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a postcondition written as one is not a
    # check; the package raises explicit errors instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


def _private_imports(path: Path, in_package: bool) -> list[str]:
    """Underscore-prefixed names that a file imports from a sasbp module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level and in_package or module == "sasbp" or module.startswith("sasbp.")):
            continue
        found += [
            f"{path.name}:{node.lineno} {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_package_and_demos_import_only_public_names():
    # Private helpers are free to change; code that ships with the package
    # uses the public API, and so do the test-only references in
    # tests/helpers.py, which stay independent of the code they check.
    # Tests may reach into private helpers.
    demos = SRC.parent.parent / "demos"
    files = [(p, True) for p in sorted(SRC.glob("*.py"))]
    files += [(p, False) for p in sorted(demos.glob("*.py"))]
    files.append((Path(__file__).with_name("helpers.py"), False))
    assert len(files) > 10
    found = [name for path, in_package in files for name in _private_imports(path, in_package)]
    assert found == []


def test_every_public_definition_is_exported_or_used():
    # __all__ names only what the package has, each once; a public top-level
    # function or class that is neither exported nor named anywhere else in
    # the package is dead code.
    assert all(hasattr(sasbp, name) for name in sasbp.__all__)
    assert len(set(sasbp.__all__)) == len(sasbp.__all__)
    defined, named = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append(node.name)
        named += [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
        named += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert len(defined) > 40
    unread = [name for name in defined if name not in sasbp.__all__ and name not in named]
    assert unread == []


def test_every_public_constant_is_exported_or_read():
    # a public UPPERCASE module-level constant that is neither exported nor
    # read anywhere in the package is dead code; its own assignment is not a
    # read
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined += [
                (path.name, target.id)
                for target in targets
                if isinstance(target, ast.Name)
                and target.id.isupper()
                and not target.id.startswith("_")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 20
    unread = [
        f"{file} {name}" for file, name in defined if name not in sasbp.__all__ and name not in read
    ]
    assert unread == []


def test_package_imports_only_the_standard_library():
    # The package promises to run on a bare Python: every absolute import is
    # the package itself or a standard-library module.
    found, seen = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            seen += len(modules)
            found += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names | {"sasbp"}
            ]
    assert seen > 20
    assert found == []


def test_package_and_demos_parse_as_python_3_10():
    # pyproject.toml promises Python 3.10; parsing with that grammar catches
    # newer syntax, such as except*, without a 3.10 interpreter.
    demos = SRC.parent.parent / "demos"
    files = sorted(SRC.glob("*.py")) + sorted(demos.glob("*.py"))
    assert len(files) > 15
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
