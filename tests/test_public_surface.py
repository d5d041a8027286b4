"""Every public name the package exports has a reader outside the test suite."""

import ast
from pathlib import Path

import mrbsde

ROOT = Path(__file__).resolve().parents[1]
INIT = Path(mrbsde.__file__).resolve()


def exported_names() -> set:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not alias.name.startswith("_")
    }


def names_read(path: Path) -> set:
    """Names a module loads, as a bare name or as an attribute; definitions and imports are not reads."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_export_is_read_outside_the_tests():
    read = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.resolve() != INIT and not path.name.startswith("test_"):
                read |= names_read(path)
    assert sorted(exported_names() - read) == []


def stale_imports(path: Path) -> set:
    """Names a module imports but never loads as a bare name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return imported - loaded


def test_no_module_imports_a_name_it_never_reads():
    stale = {
        path.name: sorted(names)
        for path in sorted(INIT.parent.rglob("*.py"))
        if path.resolve() != INIT
        for names in [stale_imports(path)]
        if names
    }
    assert stale == {}
