"""Source hygiene without a linter: every exported name resolves, and no module
under src/homevitals keeps a top-level import it never uses or a private
top-level function, class or constant that nothing in the module reads, and
no dataclass keeps a field that nothing in src/ or tests/ reads, one module
alone reads and writes CSV, and every record kind the store keeps is read."""

import ast
import importlib
from pathlib import Path

import pytest

import homevitals

PACKAGE_ROOT = Path(homevitals.__file__).resolve().parent
MODULES = sorted(PACKAGE_ROOT.rglob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.rglob("*.py"))


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def annotations(tree: ast.AST):
    """Every annotation expression; absent ones are None."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield node.returns
            yield from (arg.annotation for arg in params if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def private_definitions(tree: ast.Module):
    """(name, line) of each top-level def, class or assignment whose name starts
    with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def used_names(tree: ast.AST) -> set[str]:
    """Every Name read in the tree, including those inside string annotations."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_source_tree_found():
    assert len(MODULES) > 30


@pytest.mark.parametrize("path", MODULES, ids=lambda p: module_name(p))
def test_every_exported_name_resolves(path):
    module = importlib.import_module(module_name(path))
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: module_name(p))
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree) | exported_names(tree)
    unused = sorted(
        f"{name} (line {lineno})"
        for name, lineno in imported_names(tree).items()
        if name not in used
    )
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: module_name(p))
def test_every_private_top_level_name_is_read_in_its_module(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unread = sorted(
        f"{name} (line {lineno})" for name, lineno in private_definitions(tree) if name not in used
    )
    assert unread == []


def is_dataclass_def(node: ast.AST) -> bool:
    if not isinstance(node, ast.ClassDef):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def dataclass_fields(tree: ast.Module):
    """(class name, field name, line) of each field a @dataclass declares."""
    for node in ast.walk(tree):
        if is_dataclass_def(node):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                ):
                    yield node.name, stmt.target.id, stmt.lineno


def attributes_read(paths) -> set[str]:
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_somewhere():
    read = attributes_read(MODULES + TEST_MODULES)
    unread = sorted(
        f"{module_name(path)}.{cls}.{name} (line {lineno})"
        for path in MODULES
        for cls, name, lineno in dataclass_fields(ast.parse(path.read_text()))
        if name not in read
    )
    assert unread == []


def imports_module(tree: ast.Module, name: str) -> bool:
    return any(
        (isinstance(node, ast.Import) and any(alias.name == name for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == name)
        for node in ast.walk(tree)
    )


def test_one_module_holds_the_csv_format():
    importers = [
        module_name(path) for path in MODULES if imports_module(ast.parse(path.read_text()), "csv")
    ]
    assert importers == ["homevitals.signals.series"]


def kinds_read_by_name(paths) -> set[str]:
    """String kinds passed first, or as kind=, to a `records`, `index` or
    `latest` call."""
    kinds = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("records", "index", "latest")
            ):
                continue
            args = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "kind"]
            kinds |= {a.value for a in args if isinstance(a, ast.Constant) and type(a.value) is str}
    return kinds


def test_every_record_kind_is_read_by_name():
    from homevitals.service.store import RECORD_KINDS

    assert sorted(set(RECORD_KINDS) - kinds_read_by_name(MODULES)) == []
