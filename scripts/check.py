#!/usr/bin/env python
"""Repo gate: lint + the tier-1 test suite (a ``make lint`` equivalent).

Usage::

    python scripts/check.py           # lint + bench smoke + tier-1 tests
    python scripts/check.py --lint    # lint only

Lint runs ``ruff check`` when ruff is installed.  When it is not (the
hermetic CI container ships no linters), a conservative stdlib fallback
still gates on the defect classes that bite: syntax errors (via
``compile``) and unused module-level imports (via ``ast``).  The
fallback intentionally under-reports rather than false-positives: a
name is "used" if it appears anywhere in the file outside its own
import statement, including inside string annotations and ``__all__``.

Both paths additionally gate on **import cycles** inside ``src/repro``:
runtime module-level imports must form a DAG (``if TYPE_CHECKING:``
blocks are excluded — they vanish at runtime).  The stage extraction
relies on this: ``repro.stages`` must never import ``repro.pipeline``
at runtime, and the check keeps the whole package honest, not just that
pair.

Both paths also gate on **per-sample loops over batch columns** inside
``src/repro/analysis``: the streaming analysis plane is columnar, so a
``for ... in zip(batch.components, ...)`` loop (or direct iteration
over ``.components`` / ``.times`` / ``.values``) on the hot plane is a
regression.  The retained scalar reference implementations mark their
loops with ``# per-sample: allowed``.  The same gate keeps the seal a
block operation in ``src/repro/storage``: a ``.seal()`` or
``compress_chunk(`` call inside a loop there is one codec pass per row
where ``compress_chunks`` does one per group, and a ``series_partials(``
call inside a loop there (or in ``src/repro/serve``) reads a fleet's
sealed partials series by series where ``group_partials`` reads a seal
group at a time.  And it keeps the
collectors in ``src/repro/sources`` columnar: a loop over a fleet's
names (``machine.nodes.names``, ``node_clocks``, ``topo.nodes``) is one
interpreter iteration per node per sweep.

Both paths also gate on **module-level mutable state** inside
``src/repro/transport``, ``src/repro/storage`` and ``src/repro/serve``:
a module global there is shared by every transport, store, shard and
tenant in the process (the serving plane's result cache and tenant
governor serve every tenant), so a module-global ``dict`` / ``list`` /
``set`` is state nobody owns.  Keep mutable state on instances; a
deliberate module global carries ``# shared-state: allowed``.

Both paths also gate on **threading imports** inside ``src/repro``: a
tick runs in the calling thread, so no module there imports
``threading``, ``_thread`` or ``concurrent.futures`` (in any form, at
any depth).  State is owned by the one thread that ticks and queries,
not guarded by locks nobody contends.

Both paths also gate on **unmanaged file/mmap handles** inside
``src/repro/storage``: the out-of-core tier keeps long-lived segment
writers and memory maps, and a stray ``open()`` or ``mmap.mmap()``
whose handle nobody owns leaks a descriptor per segment until the
process hits its rlimit.  Every such call must either be the context
expression of a ``with`` block or sit on a line documenting its owner
with ``# handle-owner: <who closes it>`` (the disk tier routes these
through its handle registry, closed on ``close()``/crash).

Both paths also gate on **per-batch component columns** inside
``src/repro/sources`` and ``src/repro/obs``: a ``SeriesBatch.sweep``
over a list built at the call (a display, a comprehension or
``list(...)``) hands every identity memo downstream a new object each
batch, so each one misses.  Hold one read-only ``name_column`` while
the components stay the same, or mark the call
``# per-batch: allowed``.

Both paths also gate on **blind exception swallows** inside
``src/repro``: an ``except Exception:`` (or bare ``except:``) whose
body only discards (``pass``/``continue``/``break``/``...``) hides
faults the supervised lifecycle exists to surface — the paper's sites
report silent data loss as a top pain point.  Catch the specific
exception, count/log the failure, or mark the line with
``# swallow: allowed``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "examples", "scripts")


def python_files() -> list[Path]:
    out: list[Path] = []
    for d in CHECKED_DIRS:
        root = REPO / d
        if root.is_dir():
            out.extend(sorted(root.rglob("*.py")))
    return out


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound-name, lineno) for every module-level import."""
    names: list[tuple[str, int]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound = a.asname or a.name.split(".")[0]
                names.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue             # compiler directive, not a binding
            for a in node.names:
                if a.name == "*":
                    continue
                names.append((a.asname or a.name, node.lineno))
    return names


def check_file(path: Path) -> list[str]:
    src = path.read_text()
    problems: list[str] = []
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]
    if path.name == "__init__.py":
        return problems              # re-export surface: imports are the API
    lines = src.splitlines()
    for name, lineno in _imported_names(tree):
        # "used" = the word appears anywhere outside the import line itself
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        used = any(
            pattern.search(line)
            for i, line in enumerate(lines, start=1)
            if i != lineno and not line.lstrip().startswith(("import ",
                                                             "from "))
        )
        if not used:
            problems.append(f"{path}:{lineno}: unused import {name!r}")
    return problems


def _is_type_checking_if(node: ast.stmt) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _import_targets(node: ast.Import | ast.ImportFrom,
                    module: str) -> set[str]:
    """Dotted module names one import statement in ``module`` loads.

    ``import a.b`` loads ``a.b``; ``from m import name`` loads ``m`` (a
    relative ``m`` resolved against ``module``) and may bind the
    submodule ``m.name``, so both spellings are recorded — callers
    collapse names that aren't real modules.
    """
    if isinstance(node, ast.Import):
        return {a.name for a in node.names}
    mod = node.module
    if node.level:
        # `from .x import y` inside a.b.c: level 1 strips the leaf
        parts = module.split(".")
        if node.level > len(parts):
            return set()
        mod = ".".join(parts[: len(parts) - node.level]
                       + ([node.module] if node.module else []))
    return {mod} | {f"{mod}.{a.name}" for a in node.names if a.name != "*"}


def _runtime_imports(tree: ast.Module, module: str, package: str) -> set[str]:
    """Modules (dotted names inside ``package``) that ``module`` imports
    at runtime — module-level statements only, TYPE_CHECKING excluded."""
    out: set[str] = set()

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                relative = isinstance(node, ast.ImportFrom) and node.level
                out.update(t for t in _import_targets(node, module)
                           if relative or t.startswith(package))
            elif _is_type_checking_if(node):
                continue            # erased at runtime
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body)
                for h in getattr(node, "handlers", []):
                    visit(h.body)
                visit(node.orelse)
                visit(getattr(node, "finalbody", []))

    visit(tree.body)
    return out


def import_graph(root: Path, package: str = "repro") -> dict[str, set[str]]:
    """Runtime import graph over every module under ``root/<package>``."""
    pkg_root = root / package
    modules: dict[str, Path] = {}
    for path in sorted(pkg_root.rglob("*.py")):
        rel = path.relative_to(root).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    graph: dict[str, set[str]] = {}
    for mod, path in modules.items():
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue                 # surfaced by check_file already
        deps = set()
        for target in _runtime_imports(tree, mod, package):
            # collapse `from .pkg import name` bindings onto real modules
            while target and target not in modules:
                target = target.rpartition(".")[0]
            if target and target != mod:
                deps.add(target)
        graph[mod] = deps
    return graph


def find_import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """First runtime import cycle found, as a module path, else None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {m: WHITE for m in graph}
    stack: list[str] = []

    def dfs(mod: str) -> list[str] | None:
        color[mod] = GREY
        stack.append(mod)
        for dep in sorted(graph.get(mod, ())):
            if color.get(dep, BLACK) == GREY:
                return stack[stack.index(dep):] + [dep]
            if color.get(dep) == WHITE:
                found = dfs(dep)
                if found:
                    return found
        stack.pop()
        color[mod] = BLACK
        return None

    for mod in sorted(graph):
        if color[mod] == WHITE:
            found = dfs(mod)
            if found:
                return found
    return None


def check_import_cycles() -> list[str]:
    cycle = find_import_cycle(import_graph(REPO / "src"))
    if cycle:
        return ["import cycle in src/repro: " + " -> ".join(cycle)]
    return []


#: a tick runs in the calling thread, so nothing in src/repro starts or
#: synchronizes a thread; a future execution tier brings its own
_THREAD_MODULES = ("threading", "_thread", "concurrent.futures")


def check_thread_imports(path: Path) -> list[str]:
    """Flag every import of a threading module in one module, at any
    depth (a function-local import counts too)."""
    src = path.read_text()
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return []                    # surfaced by check_file already
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.level):
            continue                 # a relative import stays in-package
        hits = sorted({m for t in _import_targets(node, "")
                       for m in _THREAD_MODULES
                       if t == m or t.startswith(m + ".")})
        if hits:
            problems.append(
                f"{path}:{node.lineno}: imports {', '.join(hits)}; a tick "
                f"runs in one thread, so src/repro takes no locks and "
                f"starts no threads"
            )
    return problems


def check_no_threads() -> list[str]:
    """Run :func:`check_thread_imports` over all of ``src/repro``."""
    root = REPO / "src" / "repro"
    problems: list[str] = []
    if root.is_dir():
        for path in sorted(root.rglob("*.py")):
            problems.extend(check_thread_imports(path))
    return problems


#: SeriesBatch per-sample columns; iterating them in analysis code is a
#: columnar-plane regression
_BATCH_COLUMNS = frozenset({"components", "times", "values"})
_PER_SAMPLE_MARKER = "# per-sample: allowed"


def _is_batch_column(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in _BATCH_COLUMNS


def _flagged_loops(path: Path, is_hit, message: str) -> list[str]:
    """One problem per ``for`` loop, comprehension or generator of
    ``path`` whose iterable ``is_hit`` and whose source lines do not
    carry ``# per-sample: allowed``."""
    src = path.read_text()
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return []                    # surfaced by check_file already
    lines = src.splitlines()
    problems: list[str] = []
    loops: list[tuple[int, ast.expr]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            loops.append((node.lineno, node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                loops.append((gen.iter.lineno, gen.iter))
    for lineno, it in loops:
        if not is_hit(it):
            continue
        span = lines[lineno - 1: getattr(it, "end_lineno", lineno)]
        if any(_PER_SAMPLE_MARKER in line for line in span):
            continue
        problems.append(f"{path}:{lineno}: {message} or mark the line "
                        f"'{_PER_SAMPLE_MARKER}'")
    return problems


def check_columnar(path: Path) -> list[str]:
    """Flag per-sample loops over batch columns in one analysis module.

    Catches ``for ... in zip(batch.components, ...)`` (any batch column
    among the zip arguments) and direct ``for x in batch.values`` style
    iteration, in both statement loops and comprehensions.  A loop whose
    source line carries ``# per-sample: allowed`` is exempt — that is
    how the retained scalar reference implementations opt out.
    """
    def is_hit(it: ast.expr) -> bool:
        return _is_batch_column(it) or (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id in ("zip", "enumerate")
            and any(_is_batch_column(a) for a in it.args)
        )

    return _flagged_loops(
        path, is_hit,
        "per-sample loop over batch columns in the streaming analysis "
        "plane; vectorize it")


#: a fleet's per-component names, as a collector reaches them
_FLEET_NAMES = re.compile(r"\bnodes\.names\b|\bnode_clocks\b|\btopo\.nodes\b")


def check_fleet_loops(path: Path) -> list[str]:
    """Flag per-node loops in one collector module: a loop,
    comprehension or generator whose iterable mentions a fleet's names
    (``machine.nodes.names``, ``node_clocks``, ``topo.nodes``) is one
    interpreter iteration per node per sweep, where the fleet's columns
    (``nodes.cpu_util``, ``clock_fleet.errors_at``) answer in one call.
    A collector that is per node by nature marks its loop
    ``# per-sample: allowed``."""
    return _flagged_loops(
        path, lambda it: bool(_FLEET_NAMES.search(ast.unparse(it))),
        "per-node loop over a fleet's names in a collector; read the "
        "fleet's columns")


def _flagged_calls(path: Path, is_hit, advice: str) -> list[str]:
    """``path:line: <advice>`` for each call inside a ``for`` loop or
    comprehension of one module that ``is_hit(call, name)`` accepts
    (``name``: the called attribute or function name; ``{name}`` in
    ``advice`` is filled with it).  ``# per-sample: allowed`` on the
    call's line exempts it."""
    src = path.read_text()
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return []                    # surfaced by check_file already
    lines = src.splitlines()
    problems: list[str] = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.ListComp,
                                 ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if not is_hit(node, name):
                continue
            if _PER_SAMPLE_MARKER in lines[node.lineno - 1]:
                continue
            problems.append(f"{path}:{node.lineno}: "
                            + advice.format(name=name))
    return sorted(set(problems))


def check_row_seals(path: Path) -> list[str]:
    """Flag a per-row seal in one storage module: a ``.seal()`` or
    ``compress_chunk(...)`` call inside a ``for`` loop or comprehension
    (rows of a head block seal a group at a time, through
    ``compress_chunks``).  ``# per-sample: allowed`` on the call's line
    exempts it."""
    return _flagged_calls(
        path,
        lambda call, name: name == "compress_chunk" or (
            name == "seal" and isinstance(call.func, ast.Attribute)
            and not call.args),
        "per-row {name}() inside a loop in the storage plane; seal the "
        f"rows as one group (compress_chunks) or mark the line "
        f"'{_PER_SAMPLE_MARKER}'")


def check_row_partials(path: Path) -> list[str]:
    """Flag per-series partials in one storage or serving module: a
    ``series_partials(...)`` call inside a ``for`` loop or comprehension
    (a bucketed read answers sealed data a seal group at a time, through
    ``group_partials``; only what a series sealed alone is read series
    by series).  ``# per-sample: allowed`` on the call's line exempts
    it."""
    return _flagged_calls(
        path, lambda call, name: name == "series_partials",
        "per-series {name}() inside a loop in the read path; read seal "
        f"groups (group_partials) or mark the line '{_PER_SAMPLE_MARKER}'")


def check_series_resolution(path: Path) -> list[str]:
    """Flag per-component series resolution in one storage or serving
    module: a ``_series_view(...)`` call inside a ``for`` loop or
    comprehension (a read resolves its whole selection once, as rows of
    the metric's head blocks, through ``SeriesQueryMixin._resolve``).
    ``# per-sample: allowed`` on the call's line exempts it."""
    return _flagged_calls(
        path, lambda call, name: name == "_series_view",
        "per-component {name}() inside a loop in the read path; resolve "
        f"the selection once (_resolve) or mark the line "
        f"'{_PER_SAMPLE_MARKER}'")


def check_component_batches(path: Path) -> list[str]:
    """Flag a per-component batch in one storage or serving module: a
    ``for_component(...)`` call inside a ``for`` loop or comprehension
    (a many-series answer builds its batches over one column of the
    selection's names, as ``query_components`` does, or is one batch,
    as ``latest`` is; ``for_component`` is for one series' answer).
    ``# per-sample: allowed`` on the call's line exempts it."""
    return _flagged_calls(
        path, lambda call, name: name == "for_component",
        "per-component {name}() inside a loop in the read path; build "
        "the batches over one column of names (query_components) or "
        f"answer one batch (latest), or mark the line "
        f"'{_PER_SAMPLE_MARKER}'")


_PER_BATCH_MARKER = "# per-batch: allowed"


def _is_fresh_list(node: ast.expr | None) -> bool:
    """A list built where it is passed: a display, a comprehension or a
    ``list(...)`` call."""
    return isinstance(node, (ast.List, ast.ListComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "list")


def check_fixed_columns(path: Path) -> list[str]:
    """Flag a sweep over a freshly built component list in one source
    or self-monitoring module: a ``SeriesBatch.sweep(...)`` whose
    components argument (the third, or ``components=``) is a list
    display, comprehension or ``list(...)`` call.  Such a column is a
    new object every batch, so every identity memo downstream (the
    head blocks' rows, the sharded store's routes, the WAL's component
    blocks) misses; publish one read-only ``name_column`` held while
    the components stay the same.  ``# per-batch: allowed`` on a line
    of the call exempts it."""
    src = path.read_text()
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return []                    # surfaced by check_file already
    lines = src.splitlines()
    problems: list[str] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sweep"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "SeriesBatch"):
            continue
        comps = node.args[2] if len(node.args) > 2 else next(
            (k.value for k in node.keywords if k.arg == "components"), None)
        if not _is_fresh_list(comps):
            continue
        span = lines[node.lineno - 1: node.end_lineno]
        if any(_PER_BATCH_MARKER in line for line in span):
            continue
        problems.append(
            f"{path}:{node.lineno}: SeriesBatch.sweep() over a component "
            f"list built per batch; publish a held name_column or mark "
            f"the call '{_PER_BATCH_MARKER}'")
    return problems


def check_fixed_columns_published() -> list[str]:
    """Run :func:`check_fixed_columns` over the collectors and the
    self-monitor."""
    problems: list[str] = []
    for name in ("sources", "obs"):
        root = REPO / "src" / "repro" / name
        if root.is_dir():
            for path in sorted(root.rglob("*.py")):
                problems.extend(check_fixed_columns(path))
    return problems


#: handlers this broad that do nothing hide real faults (the paper's
#: silent-syslog-loss lesson); catch something specific or record it
_BLIND_TYPES = frozenset({"Exception", "BaseException"})
_SWALLOW_MARKER = "# swallow: allowed"


def _is_blind_handler(handler: ast.ExceptHandler) -> bool:
    """True for ``except:`` / ``except Exception:`` (incl. as-names and
    tuples containing one) whose body discards the exception outright."""
    t = handler.type
    if t is None:
        broad = True                 # bare except
    else:
        names = t.elts if isinstance(t, ast.Tuple) else [t]
        broad = any(
            isinstance(n, ast.Name) and n.id in _BLIND_TYPES
            for n in names
        )
    if not broad:
        return False
    return all(
        isinstance(stmt, (ast.Pass, ast.Continue, ast.Break))
        or (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in handler.body
    )


def check_swallows(path: Path) -> list[str]:
    """Flag blind exception swallows in one module.

    A handler is *blind* when it catches ``Exception`` (or everything)
    and its body only discards — ``pass`` / ``continue`` / ``break`` /
    ``...`` — so the fault neither surfaces nor gets accounted.  A
    handler whose ``except`` line carries ``# swallow: allowed`` is
    exempt (for the rare case where discarding is genuinely correct and
    has been argued in a comment).
    """
    src = path.read_text()
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return []                    # surfaced by check_file already
    lines = src.splitlines()
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if not _is_blind_handler(handler):
                continue
            if _SWALLOW_MARKER in lines[handler.lineno - 1]:
                continue
            what = "bare except" if handler.type is None else \
                "except Exception"
            problems.append(
                f"{path}:{handler.lineno}: blind swallow ({what} with a "
                f"discard-only body); catch the specific exception, "
                f"count/log the failure, or mark the line "
                f"'{_SWALLOW_MARKER}'"
            )
    return problems


def check_swallows_repro() -> list[str]:
    """Run :func:`check_swallows` over all of ``src/repro``."""
    root = REPO / "src" / "repro"
    problems: list[str] = []
    if root.is_dir():
        for path in sorted(root.rglob("*.py")):
            problems.extend(check_swallows(path))
    return problems


#: module-level mutable containers in these planes are shared by every
#: transport, store, shard, tenant and federated site in the process
_SHARED_STATE_DIRS = ("src/repro/transport", "src/repro/storage",
                      "src/repro/serve", "src/repro/obs", "src/repro/sites")
_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "deque",
    "Counter",
})
_SHARED_STATE_MARKER = "# shared-state: allowed"


def _is_mutable_container(value: ast.expr) -> bool:
    """True when ``value`` builds a mutable container literal/ctor."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        f = value.func
        name = f.id if isinstance(f, ast.Name) else (
            f.attr if isinstance(f, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


def check_module_state(path: Path) -> list[str]:
    """Flag module-level mutable-container state in one module.

    A module-global ``dict``/``list``/``set`` in the transport, storage,
    serving, self-monitoring and site packages is state shared by every
    pipeline, store, shard, tenant and federated site in the process
    (the serving plane's result cache and tenant governor serve every
    tenant; ten federated sites, each with its own transport chaos,
    share one process), owned by no one.  Keep mutable state on
    instances — a deliberate module global carries
    ``# shared-state: allowed`` on its assignment line.
    ``__all__`` and other dunder assignments are exempt (import-time
    constants by convention).
    """
    src = path.read_text()
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return []                    # surfaced by check_file already
    lines = src.splitlines()
    problems: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if value is None or not _is_mutable_container(value):
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            continue
        if all(n.startswith("__") and n.endswith("__") for n in names):
            continue                 # __all__ and friends
        if _SHARED_STATE_MARKER in lines[node.lineno - 1]:
            continue
        problems.append(
            f"{path}:{node.lineno}: module-level mutable state "
            f"({', '.join(names)}); every store in the process shares "
            f"module globals — move it onto an instance, freeze it "
            f"(tuple/frozenset/MappingProxyType), or mark the line "
            f"'{_SHARED_STATE_MARKER}'"
        )
    return problems


def check_shared_state() -> list[str]:
    """Run :func:`check_module_state` over the transport, storage and
    serving packages."""
    problems: list[str] = []
    for rel in _SHARED_STATE_DIRS:
        root = REPO / rel
        if root.is_dir():
            for path in sorted(root.rglob("*.py")):
                problems.extend(check_module_state(path))
    return problems


_HANDLE_OWNER_MARKER = "# handle-owner:"

#: directories whose file/mmap handles must be context-managed or
#: ownership-documented (the out-of-core tier lives here)
_FD_LIFETIME_DIRS = ("src/repro/storage",)


def _is_handle_call(node: ast.expr) -> bool:
    """True for ``open(...)`` and ``mmap.mmap(...)`` call expressions.

    ``mmap.mmap(-1, ...)`` is not one: an anonymous map holds no
    descriptor — it is memory, released with its last reference."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id == "open"
    if isinstance(f, ast.Attribute):
        return (f.attr == "mmap" and isinstance(f.value, ast.Name)
                and f.value.id == "mmap"
                and not (node.args and ast.unparse(node.args[0]) == "-1"))
    return False


def check_fd_lifetime(path: Path) -> list[str]:
    """Flag unmanaged ``open()``/``mmap.mmap()`` calls in one module.

    A handle created outside a ``with`` block and outside an
    ownership-documented registry line is a descriptor leak waiting for
    a long campaign: segment files and maps live for the process, and
    the only safe idioms are scope-bound (context manager) or
    owner-bound (a registry someone provably closes).
    """
    src = path.read_text()
    try:
        tree = ast.parse(src, filename=str(path))
    except SyntaxError:
        return []                    # surfaced by check_file already
    lines = src.splitlines()
    managed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                managed.add(id(item.context_expr))
    problems: list[str] = []
    for node in ast.walk(tree):
        if not _is_handle_call(node) or id(node) in managed:
            continue
        if _HANDLE_OWNER_MARKER in lines[node.lineno - 1]:
            continue
        what = ("open()" if isinstance(node.func, ast.Name)
                else "mmap.mmap()")
        problems.append(
            f"{path}:{node.lineno}: {what} outside a context manager; "
            f"wrap it in 'with' or document the closing owner on the "
            f"line with '{_HANDLE_OWNER_MARKER} <owner>'"
        )
    return problems


def check_fd_lifetime_storage() -> list[str]:
    """Run :func:`check_fd_lifetime` over the handle-holding packages."""
    problems: list[str] = []
    for rel in _FD_LIFETIME_DIRS:
        root = REPO / rel
        if root.is_dir():
            for path in sorted(root.rglob("*.py")):
                problems.extend(check_fd_lifetime(path))
    return problems


#: packages held to the no-per-sample-loop rule: the streaming analysis
#: plane, the response plane its detections reach, and the serving plane
_COLUMNAR_DIRS = ("analysis", "response", "serve")


def check_columnar_analysis() -> list[str]:
    """Run :func:`check_columnar` over every columnar-only package,
    :func:`check_fleet_loops` over the collectors,
    :func:`check_row_seals` over the storage plane and
    :func:`check_series_resolution`, :func:`check_row_partials` and
    :func:`check_component_batches` over the storage and serving
    planes."""
    problems: list[str] = []
    for name, check in [(d, check_columnar) for d in _COLUMNAR_DIRS] + [
            ("sources", check_fleet_loops), ("storage", check_row_seals),
            *((plane, check) for check in (check_series_resolution,
                                           check_row_partials,
                                           check_component_batches)
              for plane in ("storage", "serve"))]:
        root = REPO / "src" / "repro" / name
        if root.is_dir():
            for path in sorted(root.rglob("*.py")):
                problems.extend(check(path))
    return problems


def lint() -> int:
    gate_problems = (check_import_cycles() + check_no_threads()
                     + check_columnar_analysis() + check_swallows_repro()
                     + check_shared_state() + check_fd_lifetime_storage()
                     + check_fixed_columns_published())
    for p in gate_problems:
        print(p)
    if gate_problems:
        return 1
    ruff = subprocess.run(
        [sys.executable, "-m", "ruff", "--version"],
        capture_output=True,
    )
    if ruff.returncode == 0:
        print("lint: ruff")
        return subprocess.run(
            [sys.executable, "-m", "ruff", "check", *CHECKED_DIRS],
            cwd=REPO,
        ).returncode
    print("lint: ruff not installed, using stdlib fallback "
          "(syntax + unused imports)")
    problems: list[str] = []
    for path in python_files():
        problems.extend(check_file(path))
    for p in problems:
        print(p)
    print(f"lint: {len(problems)} finding(s) in {len(python_files())} files")
    return 1 if problems else 0


def tests() -> int:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"], cwd=REPO, env=env
    ).returncode


def bench_tooling_smoke() -> int:
    """Run the benchmark's own smoke tests, so a ``repro`` API change
    that breaks its imports or trace seams fails here rather than in
    the pipeline's benchmark run."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "bench/tests", "-q"], cwd=REPO
    ).returncode


def main(argv: list[str]) -> int:
    rc = lint()
    if rc != 0:
        return rc
    if "--lint" in argv:
        return 0
    rc = bench_tooling_smoke()
    if rc != 0:
        return rc
    return tests()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
