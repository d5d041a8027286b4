"""Every public name the package exports, and every field of its dataclasses, has a reader outside the test suite."""

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


# report.json writes these whole with dataclasses.asdict, so each of their
# fields is read by the artifact even with no attribute load anywhere.
WRITTEN_WHOLE = {"AprioriReport", "StabilityRow", "ValidationCheck"}


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class is decorated with ``@dataclass`` or ``@dataclass(...)``."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def dataclass_fields(path: Path) -> set:
    """(class, field) for each annotated field of each @dataclass a module defines."""
    fields = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            fields |= {
                (node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
    return fields


def fields_read(path: Path) -> set:
    """Attribute names a module loads, and its whole string constants (column and key names)."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_dataclass_field_is_read_outside_the_tests():
    read = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if not path.name.startswith("test_"):
                read |= fields_read(path)
    unread = {
        f"{cls}.{name}"
        for path in sorted(INIT.parent.rglob("*.py"))
        for cls, name in dataclass_fields(path)
        if cls not in WRITTEN_WHOLE and name not in read
    }
    assert sorted(unread) == []
