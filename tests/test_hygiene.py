"""Dead-code checks on the library modules, with the standard library's ast.

An imported name that its module never reads is dead, unless the import
line says why it stays (``# noqa: F401 -- reason``), as for a name another
module patches.  A module-level ``_private`` name that nothing reads is
dead: not its module, another library module, a test, a demo or the
benchmark.  So is a parameter default of a module-level function that no
call of that name there overrides: a call that passes the default's own
literal does not count.  The CSV table format lives in ``reliagp.tables`` alone: no other
module calls ``csv.writer`` or formats a cell with ``repr(float(``.  No
library module swallows exceptions with a bare ``except:`` or a handler for
Exception or BaseException, and no ``except`` tuple names a class next to
one of its bases.  Worker processes live in ``reliagp.workers``
alone: no other module imports ``multiprocessing`` or ``concurrent.futures``
or calls ``os.fork``.  So does the setting of BLAS threads: no other module
imports ``ctypes`` or names an OpenBLAS ``set_num_threads`` symbol.  A
design given once to ``gp.GpStack`` is read in place by every stack member:
no library module names ``broadcast_to``.  The sampler draws at one site:
``mcmc`` calls a generator's ``standard_normal`` and ``random`` once each,
in its window draw.  The correlation is evaluated at one site, ``gp.correlation``:
no other code takes the exp of a negated array, and ``kriging`` calls no exp.
"""

import ast
import builtins
import importlib
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
    """(name, position, default expression) of each parameter with a
    default; keyword-only ones have position None."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    for i, default in enumerate(fn.args.defaults, first):
        yield positional[i].arg, i, default
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _same_literal(a: ast.expr, b: ast.expr) -> bool:
    """Whether both expressions are literals of equal value."""
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except (ValueError, TypeError):
        return False


def _sets(call: ast.Call, name: str, position, default: ast.expr) -> bool:
    """Whether ``call`` may pass the parameter ``name`` at ``position`` a
    value other than ``default``: by keyword or by position, unless it
    passes the default's own literal, or through *args or **kwargs."""
    if any(kw.arg is None for kw in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    passed = [kw.value for kw in call.keywords if kw.arg == name]
    if position is not None and len(call.args) > position:
        passed.append(call.args[position])
    return any(not _same_literal(value, default) for value in passed)


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
        for param, position, default in _defaulted_params(fn)
        if not any(_sets(call, param, position, default) for call in calls.get(fn.name, []))
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


def _resolve(node: ast.expr, namespace: dict):
    """The object that a name or a dotted name refers to in a module's
    namespace, or among the builtins."""
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr)
    return namespace[node.id] if node.id in namespace else getattr(builtins, node.id)


def test_no_handler_names_a_subclass_of_another():
    """A class next to one of its bases in an ``except`` tuple catches
    nothing the base does not."""
    redundant = []
    for path in MODULES:
        namespace = vars(importlib.import_module(f"reliagp.{path.stem}"))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
                classes = [(ast.unparse(t), _resolve(t, namespace)) for t in node.type.elts]
                redundant += [
                    f"{path.name}:{node.lineno}: {name} is a {base_name}"
                    for name, cls in classes
                    for base_name, base in classes
                    if cls is not base and issubclass(cls, base)
                ]
    assert not redundant, "handlers that name a class next to its base: " + ", ".join(redundant)


PARALLEL_MODULES = ("multiprocessing", "concurrent")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "workers.py"], ids=lambda p: p.name)
def test_worker_processes_live_in_workers(path):
    """Only reliagp.workers starts processes: one parallel path, fork_blocks."""
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


@pytest.mark.parametrize(
    "path", sorted(p for p in (ROOT / "src" / "reliagp").glob("*.py") if p.name != "workers.py"), ids=lambda p: p.name
)
def test_blas_threads_are_set_in_workers(path):
    """Only reliagp.workers sets BLAS threads: one place, one_blas_thread."""
    source = path.read_text()
    found = [
        f"{path.name}:{node.lineno}: import ctypes"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "ctypes" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes"
    ]
    found += [f"{path.name}: {symbol}" for symbol in re.findall(r"openblas\w*_set_num_threads\w*", source)]
    assert not found, "BLAS threads set outside reliagp.workers: " + ", ".join(found)


def test_no_module_broadcasts_a_design():
    """GpStack reads a design given once in place for every theta row, so
    no library module names ``broadcast_to``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "reliagp").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "broadcast_to"
        or isinstance(node, ast.Name) and node.id == "broadcast_to"
        or isinstance(node, ast.alias) and node.name == "broadcast_to"
    ]
    assert not found, "broadcast_to named in " + ", ".join(found)


def test_sampler_draws_at_one_site():
    """mcmc calls a generator's standard_normal and random at one site each,
    the window draw, and names them nowhere else: a second sampling path,
    or a draw through an alias, fails here.  ``np.random``, the module, is
    not a draw."""
    tree = ast.parse((ROOT / "src" / "reliagp" / "mcmc.py").read_text())
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    sites = {"standard_normal": [], "random": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in sites:
            if not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                sites[node.attr].append((node.lineno, id(node) in called))
    for name, found in sites.items():
        assert [is_call for _, is_call in found] == [True], f"mcmc.py names {name} at {found}; expected one call"


def _calls(node: ast.AST, name: str) -> bool:
    """Whether ``node`` calls a function named ``name``, bare or as an attribute."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _negated(node: ast.expr) -> bool:
    """Whether an expression is written as a negation: ``-x`` or ``np.negative(x)``."""
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) or _calls(node, "negative")


def test_correlation_is_evaluated_at_one_site():
    """gp.correlation alone turns squared distances into correlations: every
    exp of a negated array in the library lies inside it, and kriging, which
    gets its cross covariances from it, calls no exp at all.  A second copy
    of the kernel, which a change of correlation function would miss, fails
    here."""
    found = []
    for path in sorted((ROOT / "src" / "reliagp").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(inner)
            for node in tree.body
            if path.name == "gp.py" and isinstance(node, ast.FunctionDef) and node.name == "correlation"
            for inner in ast.walk(node)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _calls(node, "exp")
            and id(node) not in allowed
            and (path.name == "kriging.py" or any(_negated(arg) for arg in node.args))
        ]
    assert not found, "correlations evaluated outside gp.correlation: " + ", ".join(found)
