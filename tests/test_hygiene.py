"""Dead-code checks on the library modules, with the standard library's ast.

An imported name that its module never reads is dead, unless the import
line says why it stays (``# noqa: F401 -- reason``), as for a name another
module patches.  A module-level ``_private`` name that nothing reads is
dead: not its module, another library module, a test, a demo or the
benchmark.  So is a parameter default of a module-level function that no
call of that name there overrides.  The CSV table format lives in ``reliagp.tables`` alone: no other
module calls ``csv.writer`` or formats a cell with ``repr(float(``.  No
library module swallows exceptions with a bare ``except:`` or a handler for
Exception or BaseException.  Worker processes live in ``reliagp.workers``
alone: no other module imports ``multiprocessing`` or ``concurrent.futures``
or calls ``os.fork``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "reliagp").glob("*.py") if p.name != "__init__.py")
READERS = [
    *(ROOT / "src" / "reliagp").glob("*.py"),
    *(ROOT / "tests").glob("*.py"),
    *(ROOT / "demos").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
]
KEPT_IMPORT = re.compile(r"#\s*noqa:\s*F401\b\W*\w")


def _reads(tree: ast.AST) -> set[str]:
    """Names a module reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imports(tree: ast.AST):
    """(bound name, import node) for every import but ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node


def _module_privates(tree: ast.Module):
    """Module-level names that start with one underscore, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _defaulted_params(fn: ast.FunctionDef):
    """(name, position) of each parameter with a default; keyword-only ones
    have position None."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` may pass the parameter ``name`` at ``position``:
    by keyword, by position, or through *args or **kwargs."""
    return (
        any(kw.arg in (name, None) for kw in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (position is not None and len(call.args) > position)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    reads = _reads(tree)
    unused = [
        f"{path.name}:{node.lineno}: {name}"
        for name, node in _imports(tree)
        if name not in reads
        and not any(KEPT_IMPORT.search(line) for line in lines[node.lineno - 1 : node.end_lineno])
    ]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_no_unread_private_names():
    reads = set().union(*(_reads(ast.parse(p.read_text())) for p in READERS))
    unread = [
        f"{path.name}:{line}: {name}"
        for path in MODULES
        for name, line in _module_privates(ast.parse(path.read_text()))
        if name not in reads
    ]
    assert not unread, "defined but never read: " + ", ".join(unread)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tables.py"], ids=lambda p: p.name)
def test_table_format_lives_in_tables(path):
    """Only reliagp.tables writes CSV or formats a float cell."""
    source = path.read_text()
    found = [token for token in ("csv.writer", "repr(float(") if token in source]
    assert not found, f"{path.name} uses {found}; write tables with reliagp.tables.write_table"


def test_every_parameter_default_is_overridden_somewhere():
    """Methods are out of scope: their names collide across classes."""
    calls: dict[str, list[ast.Call]] = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never_set = [
        f"{path.name}:{fn.lineno}: {fn.name}({param})"
        for path in MODULES
        for fn in ast.parse(path.read_text()).body
        if isinstance(fn, ast.FunctionDef)
        for param, position in _defaulted_params(fn)
        if not any(_sets(call, param, position) for call in calls.get(fn.name, []))
    ]
    assert not never_set, "parameters that no caller sets: " + ", ".join(never_set)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "reliagp").glob("*.py")), ids=lambda p: p.name)
def test_no_swallowing_handlers(path):
    """Every handler names the exceptions it can act on: no bare ``except:``
    and none that catches Exception or BaseException."""
    broad = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = [t.id if isinstance(t, ast.Name) else t for t in types]
            if any(t in (None, "Exception", "BaseException") for t in names):
                broad.append(f"{path.name}:{node.lineno}")
    assert not broad, "handlers that catch everything: " + ", ".join(broad)


PARALLEL_MODULES = ("multiprocessing", "concurrent")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "workers.py"], ids=lambda p: p.name)
def test_worker_processes_live_in_workers(path):
    """Only reliagp.workers starts processes: one parallel path, fork_map."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "os":
                modules += [f"os.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            modules = [f"os.{node.attr}"]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno}: {m}"
            for m in modules
            if m.split(".")[0] in PARALLEL_MODULES or m.startswith("os.fork")
        ]
    assert not found, "processes started outside reliagp.workers: " + ", ".join(found)
