"""Every imported name is used, and every private definition is read:
stand-ins for a linter's unused-import and unused-code rules.

A name bound by an import in src/spincat/*.py or tests/*.py must be read
somewhere in its file, or be listed in the file's __all__. An import
statement carrying `# noqa: F401` (or a bare `# noqa`) on any of its lines
is exempt; that marks imports kept on purpose, such as names another
module rebinds. In src/spincat/*.py the only such names are the ones the
benchmark tracer rebinds: a name on an exempt import that its module never
reads must be an attribute that bench/spans.py's _PATCHES rebinds on that
module, so the imports kept for the tracer cannot drift from it.

A private module-level function, class or constant of src/spincat/*.py
(a name with one leading underscore) must be read, as a name or as an
attribute, in some file of src/spincat; a helper that lost its last
caller fails.

The number rules live in src/spincat/_checks.py alone: no other file of
src/spincat names bool_ or operator.index, so a checker that needs to
know what counts as a real number or an integer calls into that module.

The coherent-state factors live in src/spincat/coherent.py alone: no other
file of src/spincat names _magnitudes or _phases, so every expansion goes
through _coherent_rows, the one product of the two.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
SOURCES = sorted((ROOT / "src" / "spincat").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _exempt(lines: list[str], node: ast.stmt) -> bool:
    for line in lines[node.lineno - 1 : node.end_lineno]:
        m = _NOQA.search(line)
        if m and (m["codes"] is None or "F401" in m["codes"].upper()):
            return True
    return False


def _imported(tree: ast.Module, lines: list[str], exempt: bool = False) -> dict[str, int]:
    """name -> line of every binding made by a checked import statement, or
    with exempt, by an exempt one."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or _exempt(lines, node) != exempt:
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


def _unused(path: Path, exempt: bool = False) -> list[tuple[str, int]]:
    """(name, line) of every binding of a checked, or with exempt, an
    exempt import statement that the module never reads."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    used = _used(tree)
    imported = _imported(tree, source.splitlines(), exempt)
    return [(name, line) for name, line in imported.items() if name not in used]


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    return [f"{path.relative_to(root)}:{line}: {name}" for name, line in _unused(path)]


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


def tracer_patches(spans: Path) -> set[tuple[str, str]]:
    """(module, attribute) of every _PATCHES entry in spans whose owner is a
    module spincat.<module> itself, not a class in it."""
    tree = ast.parse(spans.read_text(), filename=str(spans))
    patches = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_PATCHES" for t in node.targets
        ):
            for owner, attr, *_ in (entry.elts for entry in node.value.elts):
                module = owner.value if isinstance(owner, ast.Attribute) else None
                if isinstance(module, ast.Name) and module.id == "spincat":
                    patches.add((owner.attr, attr.value))
    return patches


def untraced_exempt_imports(
    path: Path, patches: set[tuple[str, str]], root: Path = ROOT
) -> list[str]:
    """Names on exempt imports of path that it never reads and the tracer
    does not rebind on it."""
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in _unused(path, exempt=True)
        if (path.stem, name) not in patches
    ]


def test_exempt_imports_are_the_tracers():
    patches = tracer_patches(SPANS)
    assert patches, "no module attributes found in _PATCHES"
    assert [e for path in SOURCES for e in untraced_exempt_imports(path, patches)] == []


def test_checker_flags_an_exempt_import_the_tracer_does_not_rebind(tmp_path):
    (tmp_path / "spans.py").write_text(
        "import spincat.sample\n"
        "_PATCHES = (\n"
        "    (spincat.sample, 'path', 'sample.path', None),\n"
        "    (spincat.sample.Klass, 'escape', 'sample.escape', None),\n"
        "    (spincat.other, 'compile', 'other.compile', None),\n"
        ")\n"
    )
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from os import path, sep  # noqa: F401\n"
        "from re import (  # noqa: F401\n"
        "    compile,\n"
        "    escape,\n"
        ")\n"
        "import json  # noqa\n"
        "import math\n"
        "value = sep\n"
    )
    patches = tracer_patches(tmp_path / "spans.py")
    assert patches == {("sample", "path"), ("other", "compile")}
    assert untraced_exempt_imports(sample, patches, tmp_path) == [
        "sample.py:2: compile",
        "sample.py:2: escape",
        "sample.py:6: json",
    ]


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


CHECKS = ROOT / "src" / "spincat" / "_checks.py"


def rule_forks(paths: list[Path], root: Path = ROOT) -> list[str]:
    """path:line: name of every use of bool_ or operator.index in paths,
    as a name, an attribute or an import."""
    found = []
    for path in paths:
        hits = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "bool_":
                hit = "bool_"
            elif isinstance(node, ast.Name) and node.id == "bool_":
                hit = "bool_"
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "index"
                and isinstance(node.value, ast.Name)
                and node.value.id == "operator"
            ):
                hit = "operator.index"
            elif isinstance(node, ast.ImportFrom) and any(
                (node.module, a.name) in (("operator", "index"), ("numpy", "bool_"))
                for a in node.names
            ):
                hit = "import"
            else:
                continue
            hits.append((node.lineno, hit))
        found += [f"{path.relative_to(root)}:{line}: {hit}" for line, hit in sorted(hits)]
    return found


def test_number_rules_live_in_one_module():
    assert rule_forks([path for path in SOURCES if path != CHECKS]) == []
    assert rule_forks([CHECKS]), "_checks.py no longer states the bool and integer rules"


def test_checker_flags_a_number_rule_outside_the_checks_module(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import operator\n"
        "import numpy as np\n"
        "from numpy import bool_\n"
        "from operator import index\n"
        "def f(x):\n"
        "    if isinstance(x, (bool, np.bool_)):\n"
        "        return bool_(x)\n"
        "    return operator.index(x)\n"
        "def g(x):\n"
        "    return index(x) + len(x.index)  # bool_ in a comment is fine\n"
    )
    assert rule_forks([sample], tmp_path) == [
        "sample.py:3: import",
        "sample.py:4: import",
        "sample.py:6: bool_",
        "sample.py:7: bool_",
        "sample.py:8: operator.index",
    ]


COHERENT = ROOT / "src" / "spincat" / "coherent.py"
_FACTORS = ("_magnitudes", "_phases")


def factor_forks(paths: list[Path], root: Path = ROOT) -> list[str]:
    """path:line: name of every use of _magnitudes or _phases in paths, as
    a name, an attribute or an import."""
    found = []
    for path in paths:
        hits = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            else:
                continue
            hits.update((node.lineno, name) for name in names if name in _FACTORS)
        found += [f"{path.relative_to(root)}:{line}: {name}" for line, name in sorted(hits)]
    return found


def test_coherent_factors_live_in_one_module():
    assert factor_forks([path for path in SOURCES if path != COHERENT]) == []
    assert factor_forks([COHERENT]), "coherent.py no longer defines the factors"


def test_checker_flags_a_coherent_factor_outside_its_module(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .coherent import _coherent_rows, _magnitudes\n"
        "from . import coherent\n"
        "def f(t, theta, phi):\n"
        "    return _magnitudes(t, theta) * coherent._phases(t, phi)\n"
        "def g(t, theta, phi):\n"
        "    return _coherent_rows(t, theta, phi)  # _phases in a comment is fine\n"
    )
    assert factor_forks([sample], tmp_path) == [
        "sample.py:1: _magnitudes",
        "sample.py:4: _magnitudes",
        "sample.py:4: _phases",
    ]
