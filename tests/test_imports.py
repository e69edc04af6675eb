"""Every imported name is used, and every private definition is read:
stand-ins for a linter's unused-import and unused-code rules.

A name bound by an import in src/spincat/*.py or tests/*.py must be read
somewhere in its file, or be listed in the file's __all__. An import
statement carrying `# noqa: F401` (or a bare `# noqa`) on any of its lines
is exempt; that marks imports kept on purpose, such as names another
module rebinds.

A private module-level function, class or constant of src/spincat/*.py
(a name with one leading underscore) must be read, as a name or as an
attribute, in some file of src/spincat; a helper that lost its last
caller fails.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spincat").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _exempt(lines: list[str], node: ast.stmt) -> bool:
    for line in lines[node.lineno - 1 : node.end_lineno]:
        m = _NOQA.search(line)
        if m and (m["codes"] is None or "F401" in m["codes"].upper()):
            return True
    return False


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """name -> line of every binding made by a checked import statement."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or _exempt(lines, node):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # `import a.b` binds a; `import a.b as c` and `from a import b` bind c / b
            bound = alias.asname or (
                alias.name.split(".")[0] if isinstance(node, ast.Import) else alias.name
            )
            names[bound] = node.lineno
    return names


def _string_annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield ast.parse(ann.value, mode="eval")


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, quoted annotations and __all__ included."""
    trees = [tree, *_string_annotations(tree)]
    names = (n for t in trees for n in ast.walk(t) if isinstance(n, ast.Name))
    used = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    used = _used(tree)
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "import re  # noqa: F401\n"
        "from typing import (  # noqa: F401\n"
        "    Any,\n"
        ")\n"
        "from math import pi, tau\n"
        "import numpy.linalg\n"
        "__all__ = ['tau']\n"
        "def f(x: 'Iterable') -> None:\n"
        "    return numpy.linalg.norm(x)\n"
        "from typing import Iterable\n"
    )
    assert unused_imports(sample, tmp_path) == ["sample.py:1: os", "sample.py:6: pi"]


def _private_definitions(tree: ast.Module):
    """(name, line) of every module-level def, class or assigned name with
    one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and re.fullmatch(r"_[^_].*", name.id):
                    yield name.id, node.lineno


def dead_definitions(paths: list[Path], root: Path = ROOT) -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in read
    ]


def test_no_dead_private_definitions():
    assert dead_definitions(SOURCES) == []


def test_checker_flags_a_dead_private_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_A, (_B, _C) = 1, (2, 3)\n"
        "_typed: int = 4\n"
        "__dunder__ = 5\n"
        "public = 6\n"
        "def _helper():\n"
        "    return _LIMIT + _B\n"
        "def _dead():\n"
        "    return _helper()\n"
        "class _Dead:\n"
        "    pass\n"
        "class _Read:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text("import a\nvalue = a._Read\n_C = 7\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert dead_definitions(paths, tmp_path) == [
        "a.py:2: _A",
        "a.py:2: _C",
        "a.py:3: _typed",
        "a.py:8: _dead",
        "a.py:10: _Dead",
        "b.py:3: _C",
    ]
