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
V has one distance form, squared coordinate differences: the pairwise
differences of an array's rows are formed in ``gp._sq_diffs`` alone, which
``GpDesign.sq_diffs`` and ``covariance_matrix`` call, and no library code
multiplies an array of input locations by its own transpose.  Cross
distances are sums of squared coordinate differences too (SciPy's cdist),
never the expanded |a|^2 + |b|^2 - 2 a.b: no library code sums two arrays
pairwise (``np.add.outer``, or ``a[:, None] + b[None, :]``), and none
multiplies an array of input locations by another or by a transposed array.
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


def _transposed(node: ast.expr):
    """The array ``node`` transposes, for ``x.T``, ``x.transpose(...)`` and
    ``np.transpose(x)``; else None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return node.value
    if _calls(node, "transpose"):
        func = node.func
        method = isinstance(func, ast.Attribute) and not (isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))
        return func.value if method else node.args[0]
    return None


COORDINATE_ATTRS = {"S", "coords"}


def _reads_coordinates(node: ast.AST, names: set[str]) -> bool:
    """Whether an expression reads input locations: a name in ``names`` or
    an attribute ``S`` or ``coords``, other than through its shape or len."""
    if isinstance(node, ast.Attribute) and node.attr == "shape" or _calls(node, "len"):
        return False
    if isinstance(node, ast.Name) and node.id in names or isinstance(node, ast.Attribute) and node.attr in COORDINATE_ATTRS:
        return True
    return any(_reads_coordinates(child, names) for child in ast.iter_child_nodes(node))


def _coordinate_names(fn: ast.FunctionDef) -> set[str]:
    """The names in ``fn`` that hold input locations or arrays computed from
    them: ``S`` and ``coords``, and every name assigned from an expression
    that reads one, to a fixed point."""
    names, grew = set(COORDINATE_ATTRS), True
    while grew:
        grew = False
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value is not None:
                if _reads_coordinates(node.value, names):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                        grew |= name not in names
                        names.add(name)
    return names


def _outer_difference(node: ast.AST) -> bool:
    """Whether ``node`` forms the pairwise differences of one array's rows:
    ``x[..., None, ...] - x[..., None, ...]`` or ``np.subtract.outer(x, x)``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        sides = [node.left, node.right]
        if all(isinstance(s, ast.Subscript) for s in sides) and ast.dump(node.left.value) == ast.dump(node.right.value):
            return all(any(isinstance(c, ast.Constant) and c.value is None for c in ast.walk(s.slice)) for s in sides)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "outer":
        inner = node.func.value
        return isinstance(inner, ast.Attribute) and inner.attr == "subtract"
    return False


def test_one_distance_form_for_the_covariance():
    """V is built from squared coordinate differences, formed at one site:
    ``gp._sq_diffs``, the helper behind ``GpDesign.sq_diffs``, which
    ``covariance_matrix`` also calls.  No other code forms the pairwise
    differences of an array's rows, and no library code multiplies an array
    of input locations by its own transpose, the Gram step of the expanded
    form |a|^2 + |b|^2 - 2 a.b, which loses digits for close rows."""
    found = []
    for path in sorted((ROOT / "src" / "reliagp").glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in (node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            coordinates = _coordinate_names(fn)
            for node in ast.walk(fn):
                if _outer_difference(node) and not (path.name == "gp.py" and fn.name == "_sq_diffs"):
                    found.append(f"{path.name}:{node.lineno}: pairwise differences in {fn.name}")
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                    left, right = ast.dump(node.left), ast.dump(node.right)
                    t_left, t_right = _transposed(node.left), _transposed(node.right)
                    self_product = (t_right is not None and ast.dump(t_right) == left) or (
                        t_left is not None and ast.dump(t_left) == right
                    )
                    if self_product and _reads_coordinates(node, coordinates):
                        found.append(f"{path.name}:{node.lineno}: Gram product of locations in {fn.name}")
    assert not found, "distances formed outside gp._sq_diffs: " + ", ".join(found)


def test_covariance_and_design_share_the_difference_helper(monkeypatch):
    """covariance_matrix and GpDesign.sq_diffs both take their differences
    from gp._sq_diffs."""
    gp = importlib.import_module("reliagp.gp")
    helper, seen = gp._sq_diffs, []
    monkeypatch.setattr(gp, "_sq_diffs", lambda c: seen.append(c.shape) or helper(c))
    coords = [[0.0, 1.0], [2.0, 0.5], [1.0, 1.5]]
    gp.covariance_matrix(coords, [0.0, 0.0])
    gp.GpDesign(S=coords, Z=[0.0, 1.0, 2.0]).sq_diffs
    assert seen == [(3, 2), (3, 2)]


def _outer_sum(node: ast.AST) -> bool:
    """Whether ``node`` sums two arrays pairwise: ``np.add.outer(a, b)`` or
    ``a[..., None] + b[None, ...]``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        sides = [node.left, node.right]
        return all(
            isinstance(s, ast.Subscript) and any(isinstance(c, ast.Constant) and c.value is None for c in ast.walk(s.slice))
            for s in sides
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "outer":
        inner = node.func.value
        return isinstance(inner, ast.Attribute) and inner.attr == "add"
    return False


def _location(node: ast.AST, names: set[str]) -> bool:
    """Whether an expression is an array of input locations: ``S``,
    ``coords``, a name in ``names`` or a design's ``transform`` of new points,
    or one of them indexed, transposed, shifted, scaled or passed through a
    NumPy function."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in COORDINATE_ATTRS or node.attr == "T" and _location(node.value, names)
    if isinstance(node, ast.Subscript):
        return _location(node.value, names)
    if isinstance(node, ast.UnaryOp):
        return _location(node.operand, names)
    if isinstance(node, ast.BinOp):
        return not isinstance(node.op, ast.MatMult) and (_location(node.left, names) or _location(node.right, names))
    if isinstance(node, ast.Call):
        func = node.func
        numpy = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        method = isinstance(func, ast.Attribute) and _location(func.value, names)
        return _calls(node, "transform") or method or numpy and any(_location(arg, names) for arg in node.args)
    return False


def _location_names(fn: ast.FunctionDef) -> set[str]:
    """``S``, ``coords`` and every name in ``fn`` bound to an array of input
    locations (see _location), alone or in a tuple, to a fixed point."""
    names, grew = set(COORDINATE_ATTRS), True
    while grew:
        grew = False
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                for name, value in pairs:
                    if isinstance(name, ast.Name) and name.id not in names and _location(value, names):
                        names.add(name.id)
                        grew = True
    return names


def _product_operands(node: ast.AST):
    """The two operands of a matrix product ``a @ b``, ``np.matmul(a, b)`` or
    ``np.dot(a, b)``; else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return node.left, node.right
    if any(_calls(node, name) for name in ("matmul", "dot")) and len(node.args) >= 2:
        return node.args[0], node.args[1]
    return None


def test_no_distance_from_norms_and_a_cross_product():
    """Every cross distance is a sum of squared coordinate differences
    (cdist, in ``gp.cross_covariance`` and ``KrigingModel.predict_batch``),
    never the expanded form |a|^2 + |b|^2 - 2 a.b, which cancels digits for
    close points: no library code sums two arrays pairwise, the step that
    adds their squared norms, and none multiplies an array of input
    locations by another or by a transposed array, the cross product."""
    found = []
    for path in sorted((ROOT / "src" / "reliagp").glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in (node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            locations = _location_names(fn)
            for node in ast.walk(fn):
                if _outer_sum(node):
                    found.append(f"{path.name}:{node.lineno}: pairwise sum in {fn.name}")
                operands = _product_operands(node)
                if operands and any(
                    _location(side, locations) and (_location(other, locations) or _transposed(other) is not None)
                    for side, other in (operands, operands[::-1])
                ):
                    found.append(f"{path.name}:{node.lineno}: product of locations in {fn.name}")
    assert not found, "distances by the expanded form: " + ", ".join(sorted(set(found)))
