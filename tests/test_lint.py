"""Lint gate, pytest-invoked so the tier-1 suite enforces it.

Runs ``ruff check`` against the configuration in ``pyproject.toml``
when ruff is installed; otherwise falls back to the stdlib checker in
``scripts/check.py`` (syntax errors + unused module-level imports), so
the gate never silently disappears in a container without linters.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

import check as check_mod  # noqa: E402  (needs the path tweak above)


def _have_ruff() -> bool:
    return (
        subprocess.run(
            [sys.executable, "-m", "ruff", "--version"],
            capture_output=True,
        ).returncode
        == 0
    )


class TestLintGate:
    def test_lint_clean(self):
        if _have_ruff():
            proc = subprocess.run(
                [sys.executable, "-m", "ruff", "check",
                 *check_mod.CHECKED_DIRS],
                cwd=REPO, capture_output=True, text=True,
            )
            assert proc.returncode == 0, f"ruff findings:\n{proc.stdout}"
        else:
            problems = []
            for path in check_mod.python_files():
                problems.extend(check_mod.check_file(path))
            assert not problems, "lint findings:\n" + "\n".join(problems)

    def test_fallback_catches_syntax_errors(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        problems = check_mod.check_file(bad)
        assert len(problems) == 1
        assert "syntax error" in problems[0]

    def test_fallback_catches_unused_import(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("import os\nimport sys\nprint(sys.argv)\n")
        problems = check_mod.check_file(f)
        assert len(problems) == 1
        assert "unused import 'os'" in problems[0]

    def test_fallback_respects_string_annotations(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from x import Thing\n"
            "def f(t: 'Thing | None') -> None: ...\n"
        )
        # Thing is module-level-invisible but used in the annotation;
        # the word-level fallback must not flag it
        assert check_mod.check_file(f) == []


def _write_pkg(root, name, files):
    pkg = root / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for mod, body in files.items():
        (pkg / f"{mod}.py").write_text(body)
    return pkg


class TestImportCycles:
    def test_src_repro_is_acyclic(self):
        """The stage extraction's load-bearing invariant: no runtime
        import cycles anywhere in src/repro (in particular, no
        pipeline <-> stages cycle)."""
        assert check_mod.check_import_cycles() == []

    def test_stages_never_imports_pipeline_at_runtime(self):
        graph = check_mod.import_graph(REPO / "src")
        assert "repro.pipeline" not in graph["repro.stages"]
        # ...while the pipeline does consume the stages (the edge the
        # TYPE_CHECKING exclusion must not erase by accident)
        assert "repro.stages" in graph["repro.pipeline"]

    def test_detects_synthetic_cycle(self, tmp_path):
        _write_pkg(tmp_path, "repro", {
            "a": "from .b import thing\nthing\n",
            "b": "from .a import other\nother\n",
        })
        graph = check_mod.import_graph(tmp_path)
        cycle = check_mod.find_import_cycle(graph)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"repro.a", "repro.b"}

    def test_type_checking_imports_are_not_cycle_edges(self, tmp_path):
        _write_pkg(tmp_path, "repro", {
            "a": ("from typing import TYPE_CHECKING\n"
                  "if TYPE_CHECKING:\n"
                  "    from .b import B\n"
                  "def f(b: 'B'): ...\n"),
            "b": "from .a import f\nf\n",
        })
        graph = check_mod.import_graph(tmp_path)
        assert check_mod.find_import_cycle(graph) is None


class TestColumnarGate:
    """The per-sample-loop lint keeping src/repro/analysis columnar."""

    def test_analysis_plane_is_columnar(self):
        assert check_mod.check_columnar_analysis() == []

    def test_flags_zip_over_batch_columns(self, tmp_path):
        f = tmp_path / "hot.py"
        f.write_text(
            "def f(batch):\n"
            "    for c, v in zip(batch.components, batch.values):\n"
            "        print(c, v)\n"
        )
        problems = check_mod.check_columnar(f)
        assert len(problems) == 1
        assert "per-sample loop" in problems[0]
        assert ":2:" in problems[0]

    def test_flags_direct_column_iteration(self, tmp_path):
        f = tmp_path / "hot.py"
        f.write_text(
            "def f(batch):\n"
            "    return [str(c) for c in batch.components]\n"
        )
        assert len(check_mod.check_columnar(f)) == 1

    def test_flags_enumerate_over_columns(self, tmp_path):
        f = tmp_path / "hot.py"
        f.write_text(
            "def f(batch):\n"
            "    for i, v in enumerate(batch.values):\n"
            "        print(i, v)\n"
        )
        assert len(check_mod.check_columnar(f)) == 1

    def test_marker_suppresses(self, tmp_path):
        f = tmp_path / "ref.py"
        f.write_text(
            "def f_slow(batch):\n"
            "    for c, v in zip(batch.components, batch.values):"
            "  # per-sample: allowed\n"
            "        print(c, v)\n"
        )
        assert check_mod.check_columnar(f) == []

    def test_unrelated_loops_pass(self, tmp_path):
        f = tmp_path / "ok.py"
        f.write_text(
            "def f(xs, ys, batch):\n"
            "    for a, b in zip(xs, ys):\n"
            "        print(a, b)\n"
            "    for c in batch.components.tolist():\n"
            "        print(c)\n"
            "    return batch.values * 2\n"
        )
        assert check_mod.check_columnar(f) == []

    def test_syntax_errors_left_to_the_syntax_check(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("def broken(:\n")
        assert check_mod.check_columnar(f) == []

    def test_flags_a_per_row_seal_in_storage(self, tmp_path):
        f = tmp_path / "store.py"
        f.write_text(
            "def flush(store, rows, t, v):\n"
            "    for s in store.series:\n"
            "        store.note(s.seal())\n"
            "    blobs = [compress_chunk(t, v[r]) for r in rows]\n"
            "    for r in rows:  # the reference loop\n"
            "        compress_chunk(t, v[r])  # per-sample: allowed\n"
            "    one = compress_chunk(t, v[0])\n"
            "    return compress_chunks(t, v), blobs, one, store.seal(rows)\n"
        )
        problems = check_mod.check_row_seals(f)
        assert [p.split(":")[1] for p in problems] == ["3", "4"]
        assert "seal()" in problems[0] and "compress_chunk()" in problems[1]

    def test_flags_a_per_node_loop_in_a_collector(self, tmp_path):
        f = tmp_path / "collector.py"
        f.write_text(
            "def collect(machine, now):\n"
            "    a = [machine.node_clocks[n].error_at(now)\n"
            "         for n in machine.nodes.names]\n"
            "    for name, clock in machine.node_clocks.items():\n"
            "        a.append(clock.offset)\n"
            "    return a, sum(1 for _ in enumerate(machine.topo.nodes))\n"
        )
        problems = check_mod.check_fleet_loops(f)
        assert sorted(p.split(":")[1] for p in problems) == ["3", "4", "6"]
        assert all("per-node loop" in p for p in problems)

    def test_fleet_columns_and_marked_loops_pass_in_a_collector(
            self, tmp_path):
        f = tmp_path / "collector.py"
        f.write_text(
            "def collect(machine, suite, now):\n"
            "    offsets = machine.clock_fleet.errors_at(now)\n"
            "    names = machine.nodes.name_column\n"
            "    for i, node in enumerate(machine.nodes.names):"
            "  # per-sample: allowed\n"
            "        suite.run_node(machine, node)\n"
            "    return [b for b in (names, offsets) if len(b)]\n"
        )
        assert check_mod.check_fleet_loops(f) == []


class TestSwallowGate:
    """The blind-exception-swallow lint keeping failures accounted."""

    def test_src_repro_has_no_blind_swallows(self):
        assert check_mod.check_swallows_repro() == []

    def test_flags_except_exception_pass(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "def f(x):\n"
            "    try:\n"
            "        return 1 / x\n"
            "    except Exception:\n"
            "        pass\n"
        )
        problems = check_mod.check_swallows(f)
        assert len(problems) == 1
        assert "blind swallow" in problems[0]
        assert ":4:" in problems[0]

    def test_flags_bare_except_continue(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        try:\n"
            "            print(1 / x)\n"
            "        except:\n"
            "            continue\n"
        )
        problems = check_mod.check_swallows(f)
        assert len(problems) == 1
        assert "bare except" in problems[0]

    def test_flags_exception_in_tuple(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "def f(x):\n"
            "    try:\n"
            "        return 1 / x\n"
            "    except (ValueError, Exception):\n"
            "        ...\n"
        )
        assert len(check_mod.check_swallows(f)) == 1

    def test_specific_exception_passes(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "def f(x):\n"
            "    try:\n"
            "        return 1 / x\n"
            "    except ZeroDivisionError:\n"
            "        pass\n"
        )
        assert check_mod.check_swallows(f) == []

    def test_handler_that_accounts_passes(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "def f(x, errors):\n"
            "    try:\n"
            "        return 1 / x\n"
            "    except Exception as exc:\n"
            "        errors.append(exc)\n"
            "        return None\n"
        )
        assert check_mod.check_swallows(f) == []

    def test_marker_suppresses(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "def f(x):\n"
            "    try:\n"
            "        return 1 / x\n"
            "    except Exception:  # swallow: allowed\n"
            "        pass\n"
        )
        assert check_mod.check_swallows(f) == []

    def test_syntax_errors_left_to_the_syntax_check(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("def broken(:\n")
        assert check_mod.check_swallows(f) == []

    def test_gate_is_wired_into_lint(self):
        """The gate must actually run as part of ``scripts/check.py``."""
        import inspect

        src = inspect.getsource(check_mod.lint)
        assert "check_swallows_repro" in src


class TestSharedStateGate:
    """Module-level mutable state is forbidden in worker-shared planes."""

    def test_transport_and_storage_have_no_module_state(self):
        problems = check_mod.check_shared_state()
        assert not problems, "\n".join(problems)

    def test_flags_module_level_dict(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("CACHE = {}\n")
        problems = check_mod.check_module_state(f)
        assert len(problems) == 1
        assert "module-level mutable state" in problems[0]
        assert "CACHE" in problems[0]

    def test_flags_list_set_and_constructor_calls(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "from collections import defaultdict\n"
            "SEEN = []\n"
            "ACTIVE = set()\n"
            "BY_TOPIC = defaultdict(list)\n"
        )
        problems = check_mod.check_module_state(f)
        assert len(problems) == 3

    def test_flags_annotated_assignment(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("REGISTRY: dict[str, int] = {}\n")
        problems = check_mod.check_module_state(f)
        assert len(problems) == 1

    def test_dunder_and_immutable_assignments_pass(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "__all__ = ['x']\n"
            "NAMES = ('a', 'b')\n"
            "KINDS = frozenset({'a', 'b'})\n"
            "LIMIT = 42\n"
        )
        assert check_mod.check_module_state(f) == []

    def test_instance_state_passes(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "class Buffered:\n"
            "    def __init__(self):\n"
            "        self.pending = []\n"
            "        self.index = {}\n"
        )
        assert check_mod.check_module_state(f) == []

    def test_marker_suppresses(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("CACHE = {}  # shared-state: allowed\n")
        assert check_mod.check_module_state(f) == []

    def test_syntax_errors_left_to_the_syntax_check(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("def broken(:\n")
        assert check_mod.check_module_state(f) == []

    def test_gate_is_wired_into_lint(self):
        """The gate must actually run as part of ``scripts/check.py``."""
        import inspect

        src = inspect.getsource(check_mod.lint)
        assert "check_shared_state" in src


class TestFdLifetimeGate:
    """File/mmap handles in the storage plane must have a clear owner."""

    def test_storage_handles_are_owned(self):
        problems = check_mod.check_fd_lifetime_storage()
        assert not problems, "\n".join(problems)

    def test_flags_bare_open(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("f = open('x')\n")
        problems = check_mod.check_fd_lifetime(f)
        assert len(problems) == 1
        assert "open()" in problems[0]
        assert "handle-owner" in problems[0]

    def test_flags_bare_mmap(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "import mmap\n"
            "def remap(fd, n):\n"
            "    return mmap.mmap(fd, n)\n"
        )
        problems = check_mod.check_fd_lifetime(f)
        assert len(problems) == 1
        assert "mmap.mmap()" in problems[0]

    def test_anonymous_map_holds_no_descriptor(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "import mmap\n"
            "def zeroed(n, fd):\n"
            "    a = mmap.mmap(-1, n, flags=mmap.MAP_PRIVATE)\n"
            "    b = mmap.mmap(fd - 1, n)\n"       # still a descriptor
            "    return a, b\n"
        )
        problems = check_mod.check_fd_lifetime(f)
        assert len(problems) == 1
        assert ":4:" in problems[0]

    def test_with_block_passes(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "import mmap\n"
            "with open('x', 'rb') as fh:\n"
            "    with mmap.mmap(fh.fileno(), 0) as m:\n"
            "        data = m[:]\n"
        )
        assert check_mod.check_fd_lifetime(f) == []

    def test_owner_marker_passes(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "import mmap\n"
            "class Seg:\n"
            "    def __init__(self, path, fd):\n"
            "        self.w = open(path, 'ab')  # handle-owner: Seg.close\n"
            "        self.m = mmap.mmap(fd, 0)  # handle-owner: Seg.close\n"
        )
        assert check_mod.check_fd_lifetime(f) == []

    def test_unrelated_calls_pass(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text(
            "import os\n"
            "fd = os.open('/dev/null', 0)\n"   # not the gated surface
            "x = max(1, 2)\n"
            "y = {}.get('mmap')\n"
        )
        assert check_mod.check_fd_lifetime(f) == []

    def test_syntax_errors_left_to_the_syntax_check(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("def broken(:\n")
        assert check_mod.check_fd_lifetime(f) == []

    def test_gate_is_wired_into_lint(self):
        """The gate must actually run as part of ``scripts/check.py``."""
        import inspect

        src = inspect.getsource(check_mod.lint)
        assert "check_fd_lifetime_storage" in src
