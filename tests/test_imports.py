"""Every imported name is used: a stand-in for a linter's unused-import rule.

A name bound by an import in src/spincat/*.py or tests/*.py must be read
somewhere in its file, or be listed in the file's __all__. An import
statement carrying `# noqa: F401` (or a bare `# noqa`) on any of its lines
is exempt; that marks imports kept on purpose, such as names another
module rebinds.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "spincat").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

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
