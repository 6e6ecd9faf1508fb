"""Fixture tests for the whole-program rules REP007–REP012.

Each of REP007/REP008/REP011 pins at least one positive, one negative,
and one suppressed case (the acceptance bar for this rule family);
REP009/REP010/REP012 pin positive/negative pairs.  The REP000 pipeline
tests pin the parse-error contract: a broken file becomes a finding
(exit 1, not a traceback), the rest of the tree still lints, and the
graph simply drops the unparseable module.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.lint import (
    PARSE_ERROR_RULE,
    GraphConfig,
    LintConfig,
    LintResult,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.analysis.lint.cli import main as lint_main


def run(sources: dict[str, str], rule: str, graph: GraphConfig) -> LintResult:
    """Lint dedented fixture modules with one graph rule selected."""
    dedented = {relpath: textwrap.dedent(source) for relpath, source in sources.items()}
    return lint_sources(dedented, config=LintConfig(select=(rule,), graph=graph))


def renders(result: LintResult) -> list[str]:
    return [finding.render() for finding in result.findings]


# ---------------------------------------------------------------------------
# REP007 — blocking calls reachable from the async edge
# ---------------------------------------------------------------------------

EDGE_GRAPH = GraphConfig(async_packages=("app.edge",))


class TestREP007AsyncBlocking:
    def blocking_two_hops(self, *, suppress: bool = False) -> dict[str, str]:
        hop = "    return fetch()\n"
        if suppress:
            hop = (
                "    # executor-wrapped upstream of this fixture;"
                " kept for the suppressed-case pin\n"
                "    return fetch()  # repro: allow(REP007)\n"
            )
        return {
            "src/app/edge/http.py": (
                "from app.edge.helpers import fetch\n"
                "async def handler():\n" + hop
            ),
            "src/app/edge/helpers.py": """
                from app.util import pause
                def fetch():
                    return pause()
            """,
            "src/app/util.py": """
                import time
                def pause():
                    time.sleep(1)
            """,
        }

    def test_positive_two_hops_away(self):
        result = run(self.blocking_two_hops(), "REP007", EDGE_GRAPH)
        assert len(result.findings) == 1, renders(result)
        finding = result.findings[0]
        # Anchored at the first hop inside the async root, not the leaf.
        assert finding.path == "src/app/edge/http.py"
        assert "time.sleep" in finding.message
        assert "`app.util.pause`" in finding.message
        assert "`app.edge.http.handler` -> `app.edge.helpers.fetch`" in finding.message

    def test_positive_direct_blocking_call(self):
        result = run(
            {
                "src/app/edge/http.py": """
                    import time
                    async def handler():
                        time.sleep(0.1)
                """,
            },
            "REP007",
            EDGE_GRAPH,
        )
        assert len(result.findings) == 1, renders(result)
        assert "blocks the event loop" in result.findings[0].message

    def test_negative_executor_boundary(self):
        # The lambda handed to run_in_executor runs on a worker thread;
        # the graph deliberately draws no edge through it.
        result = run(
            {
                "src/app/edge/http.py": """
                    from app.util import pause
                    async def handler(loop, pool):
                        return await loop.run_in_executor(pool, lambda: pause())
                """,
                "src/app/util.py": """
                    import time
                    def pause():
                        time.sleep(1)
                """,
            },
            "REP007",
            EDGE_GRAPH,
        )
        assert result.findings == [], renders(result)

    def test_negative_nonblocking_acquire(self):
        result = run(
            {
                "src/app/edge/http.py": """
                    import threading
                    class Handler:
                        def __init__(self):
                            self._lock = threading.Lock()
                        async def poll(self):
                            return self._lock.acquire(blocking=False)
                """,
            },
            "REP007",
            EDGE_GRAPH,
        )
        assert result.findings == [], renders(result)

    def test_positive_blocking_acquire(self):
        result = run(
            {
                "src/app/edge/http.py": """
                    import threading
                    class Handler:
                        def __init__(self):
                            self._lock = threading.Lock()
                        async def poll(self):
                            return self._lock.acquire()
                """,
            },
            "REP007",
            EDGE_GRAPH,
        )
        assert len(result.findings) == 1, renders(result)
        assert "acquire" in result.findings[0].message

    def test_suppressed_case(self):
        result = run(self.blocking_two_hops(suppress=True), "REP007", EDGE_GRAPH)
        assert result.findings == [], renders(result)
        assert result.suppressed == 1


# ---------------------------------------------------------------------------
# REP008 — cross-class lock-order cycles
# ---------------------------------------------------------------------------

LOCK_GRAPH = GraphConfig(lock_packages=("app.serving",))


class TestREP008LockOrder:
    def deadlock_pair(self, *, consistent: bool = False, suppress: bool = False) -> dict[str, str]:
        """Two classes; A holds its lock and calls into B (which locks).

        ``consistent=False`` adds the reverse path (B holds its lock and
        calls back into A) — the classic ABBA inversion.
        """
        cross = ""
        if not consistent:
            cross = """
                def cross(self):
                    with self._lock:
                        self.peer.tick()
            """
        a_step = (
            "    def step(self):\n"
            "        with self._lock:\n"
            "            self.peer.poke()\n"
        )
        if suppress:
            a_step = (
                "    def step(self):\n"
                "        with self._lock:\n"
                "            # startup-only path, single-threaded by construction;"
                " pinned as the suppressed case\n"
                "            self.peer.poke()  # repro: allow(REP008)\n"
            )
        return {
            "src/app/serving/a.py": (
                "import threading\n"
                "from app.serving.b import B\n"
                "class A:\n"
                "    def __init__(self, peer: B):\n"
                "        self._lock = threading.Lock()\n"
                "        self.peer = peer\n"
                + a_step
                + "    def tick(self):\n"
                "        with self._lock:\n"
                "            pass\n"
            ),
            "src/app/serving/b.py": (
                "import threading\n"
                "class B:\n"
                '    def __init__(self, peer: "app.serving.a.A" = None):\n'
                "        self._lock = threading.Lock()\n"
                "        self.peer = peer\n"
                "    def poke(self):\n"
                "        with self._lock:\n"
                "            pass\n"
                + textwrap.dedent(cross).replace("\n", "\n    ").rstrip()
                + "\n"
            ),
        }

    def test_positive_abba_cycle_with_witness(self):
        result = run(self.deadlock_pair(), "REP008", LOCK_GRAPH)
        assert len(result.findings) == 1, renders(result)
        message = result.findings[0].message
        assert "lock-order cycle" in message
        assert "`app.serving.a.A._lock` -> `app.serving.b.B._lock`" in message
        assert "`app.serving.b.B._lock` -> `app.serving.a.A._lock`" in message

    def test_negative_consistent_order(self):
        result = run(self.deadlock_pair(consistent=True), "REP008", LOCK_GRAPH)
        assert result.findings == [], renders(result)

    def test_suppressed_case(self):
        result = run(self.deadlock_pair(suppress=True), "REP008", LOCK_GRAPH)
        assert result.findings == [], renders(result)
        assert result.suppressed == 1

    def test_out_of_scope_packages_ignored(self):
        result = run(
            self.deadlock_pair(), "REP008", GraphConfig(lock_packages=("other.pkg",))
        )
        assert result.findings == [], renders(result)


# ---------------------------------------------------------------------------
# REP009 — durability reachability
# ---------------------------------------------------------------------------

DURABLE_GRAPH = GraphConfig(
    durability_roots=("app.streaming.wal.*",),
    durable_gateways=("app.atomicio",),
)


class TestREP009Durability:
    def test_positive_raw_write_on_commit_path(self):
        result = run(
            {
                "src/app/streaming/wal.py": """
                    from app.sink import dump
                    def commit():
                        dump()
                """,
                "src/app/sink.py": """
                    def dump():
                        with open("state.bin", "wb") as handle:
                            handle.write(b"x")
                """,
            },
            "REP009",
            DURABLE_GRAPH,
        )
        assert len(result.findings) == 1, renders(result)
        finding = result.findings[0]
        assert finding.path == "src/app/sink.py"
        assert "`app.streaming.wal.commit` -> `app.sink.dump`" in finding.message

    def test_negative_write_in_gateway_module(self):
        result = run(
            {
                "src/app/streaming/wal.py": """
                    from app.atomicio import atomic_dump
                    def commit():
                        atomic_dump()
                """,
                "src/app/atomicio.py": """
                    def atomic_dump():
                        with open("state.tmp", "wb") as handle:
                            handle.write(b"x")
                """,
            },
            "REP009",
            DURABLE_GRAPH,
        )
        assert result.findings == [], renders(result)

    def test_negative_write_not_reachable_from_roots(self):
        result = run(
            {
                "src/app/streaming/wal.py": """
                    def commit():
                        return 1
                """,
                "src/app/sink.py": """
                    def dump():
                        with open("state.bin", "wb") as handle:
                            handle.write(b"x")
                """,
            },
            "REP009",
            DURABLE_GRAPH,
        )
        assert result.findings == [], renders(result)


# ---------------------------------------------------------------------------
# REP010 — dtype-policy flow
# ---------------------------------------------------------------------------

DTYPE_GRAPH = GraphConfig(float32_sources=("app.store.rows",))


class TestREP010DtypeFlow:
    def test_positive_mixing_store_f32_with_f64(self):
        result = run(
            {
                "src/app/serve.py": """
                    import numpy as np
                    from app.store import rows
                    def score(query):
                        factors = rows([1, 2])
                        weights = np.asarray(query, dtype=np.float64)
                        return factors @ weights
                """,
                "src/app/store.py": """
                    def rows(users):
                        return users
                """,
            },
            "REP010",
            DTYPE_GRAPH,
        )
        assert len(result.findings) == 1, renders(result)
        assert "float32" in result.findings[0].message

    def test_negative_upcast_before_mixing(self):
        result = run(
            {
                "src/app/serve.py": """
                    import numpy as np
                    from app.store import rows
                    def score(query):
                        factors = rows([1, 2]).astype(np.float64)
                        weights = np.asarray(query, dtype=np.float64)
                        return factors @ weights
                """,
                "src/app/store.py": """
                    def rows(users):
                        return users
                """,
            },
            "REP010",
            DTYPE_GRAPH,
        )
        assert result.findings == [], renders(result)

    def test_allow_glob_exempts_dtype_boundary(self):
        sources = {
            "src/app/store/dtype.py": """
                import numpy as np
                from app.store import rows
                def upcast(query):
                    factors = rows([1])
                    weights = np.asarray(query, dtype=np.float64)
                    return factors + weights
            """,
            "src/app/store/__init__.py": """
                def rows(users):
                    return users
            """,
        }
        config = LintConfig(
            select=("REP010",),
            allow={"REP010": ("*/store/dtype.py",)},
            graph=GraphConfig(float32_sources=("app.store.rows",)),
        )
        result = lint_sources(
            {relpath: textwrap.dedent(source) for relpath, source in sources.items()},
            config=config,
        )
        assert result.findings == [], renders(result)


# ---------------------------------------------------------------------------
# REP011 — import-layering contracts
# ---------------------------------------------------------------------------

LAYER_GRAPH = GraphConfig(forbid={"app.metrics": ("app.serving",)})


class TestREP011Layering:
    def violation(self, *, suppress: bool = False) -> dict[str, str]:
        importer = "from app.bridge import helper\n"
        if suppress:
            importer = (
                "# transitional: bridge split tracked separately;"
                " pinned as the suppressed case\n"
                "from app.bridge import helper  # repro: allow(REP011)\n"
            )
        return {
            "src/app/metrics/rank.py": importer,
            "src/app/bridge.py": "import app.serving.svc\n\n\ndef helper():\n    return 1\n",
            "src/app/serving/svc.py": "VALUE = 1\n",
        }

    def test_positive_reports_full_chain(self):
        result = run(self.violation(), "REP011", LAYER_GRAPH)
        assert len(result.findings) == 1, renders(result)
        finding = result.findings[0]
        assert finding.path == "src/app/metrics/rank.py"
        assert (
            "`app.metrics.rank` -> `app.bridge` -> `app.serving.svc`" in finding.message
        )

    def test_negative_clean_layers(self):
        result = run(
            {
                "src/app/metrics/rank.py": "from app.bridge import helper\n",
                "src/app/bridge.py": "def helper():\n    return 1\n",
                "src/app/serving/svc.py": "VALUE = 1\n",
            },
            "REP011",
            LAYER_GRAPH,
        )
        assert result.findings == [], renders(result)

    def test_suppressed_case(self):
        result = run(self.violation(suppress=True), "REP011", LAYER_GRAPH)
        assert result.findings == [], renders(result)
        assert result.suppressed == 1

    def test_lazy_import_still_violates_and_is_labelled(self):
        result = run(
            {
                "src/app/metrics/rank.py": """
                    def compute():
                        from app.serving.svc import VALUE
                        return VALUE
                """,
                "src/app/serving/svc.py": "VALUE = 1\n",
            },
            "REP011",
            LAYER_GRAPH,
        )
        assert len(result.findings) == 1, renders(result)
        assert "lazy" in result.findings[0].message

    def test_top_level_import_cycle_reported(self):
        result = run(
            {
                "src/app/metrics/a.py": "import app.metrics.b\n",
                "src/app/metrics/b.py": "import app.metrics.a\n",
            },
            "REP011",
            GraphConfig(forbid={}),
        )
        assert len(result.findings) == 1, renders(result)
        assert "import cycle" in result.findings[0].message


# ---------------------------------------------------------------------------
# REP012 — RNG seed provenance
# ---------------------------------------------------------------------------


class TestREP012SeedProvenance:
    def check(self, source: str) -> LintResult:
        return lint_source(
            textwrap.dedent(source),
            relpath="src/repro/fake.py",
            config=LintConfig(select=("REP012",)),
        )

    def test_missing_seed_fires(self):
        result = self.check(
            """
            import numpy as np
            def make():
                return np.random.default_rng()
            """
        )
        assert len(result.findings) == 1, renders(result)
        assert "no seed" in result.findings[0].message

    def test_literal_seed_fires(self):
        result = self.check(
            """
            import numpy as np
            def make():
                return np.random.default_rng(42)
            """
        )
        assert len(result.findings) == 1, renders(result)

    def test_literal_via_module_constant_fires(self):
        result = self.check(
            """
            import numpy as np
            SEED = 7
            def make():
                return np.random.default_rng(SEED)
            """
        )
        assert len(result.findings) == 1, renders(result)
        assert "SEED" in result.findings[0].message

    def test_parameter_seed_clean(self):
        result = self.check(
            """
            import numpy as np
            def make(seed):
                return np.random.default_rng(seed)
            """
        )
        assert result.findings == [], renders(result)


# ---------------------------------------------------------------------------
# REP000 — parse-error pipeline (satellite bugfix pin)
# ---------------------------------------------------------------------------


class TestREP000ParseErrorPipeline:
    def test_syntax_error_becomes_finding_and_rest_still_lints(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n", encoding="utf-8")
        (tmp_path / "dirty.py").write_text(
            "import numpy as np\nx = np.random.rand(3)\n", encoding="utf-8"
        )
        result = lint_paths([tmp_path], config=LintConfig(), root=tmp_path)
        rules = {finding.rule for finding in result.findings}
        assert PARSE_ERROR_RULE in rules, renders(result)
        assert "REP001" in rules, renders(result)
        parse = [f for f in result.findings if f.rule == PARSE_ERROR_RULE]
        assert parse[0].path == "broken.py"
        assert "syntax error" in parse[0].message

    def test_null_byte_becomes_finding(self, tmp_path):
        (tmp_path / "nul.py").write_bytes(b"x = 1\x00\n")
        result = lint_paths([tmp_path], config=LintConfig(), root=tmp_path)
        assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE], renders(result)

    def test_cli_exit_code_is_one_not_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def oops(:\n", encoding="utf-8")
        code = lint_main([str(tmp_path), "--root", str(tmp_path)])
        assert code == 1
        assert PARSE_ERROR_RULE in capsys.readouterr().out

    def test_graph_pass_skips_unparseable_module(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n", encoding="utf-8")
        (tmp_path / "fine.py").write_text("def ok():\n    return 1\n", encoding="utf-8")
        result = lint_paths(
            [tmp_path], config=LintConfig(), root=tmp_path, build_graph=True
        )
        assert result.project is not None
        assert "fine" in result.project.modules
        assert "broken" not in result.project.modules


# ---------------------------------------------------------------------------
# Engine behavior: --changed scoping, graph export plumbing
# ---------------------------------------------------------------------------


class TestEngineParallelAndScope:
    def seed_tree(self, tmp_path: Path) -> Path:
        for index in range(12):
            (tmp_path / f"mod_{index:02d}.py").write_text(
                "import numpy as np\n"
                f"def f_{index}():\n"
                f"    return np.random.rand({index})\n",
                encoding="utf-8",
            )
        return tmp_path

    def test_module_scope_restricts_per_module_rules_only(self, tmp_path):
        tree = self.seed_tree(tmp_path)
        config = LintConfig(select=("REP001",))
        scoped = lint_paths(
            [tree], config=config, root=tmp_path, module_scope={"mod_03.py"}
        )
        assert {f.path for f in scoped.findings} == {"mod_03.py"}
        # Every file is still parsed (the graph pass must see the tree).
        assert scoped.files_scanned == 12

    def test_module_scope_keeps_graph_rules_whole_tree(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src/app").mkdir()
        (tmp_path / "src/app/metrics").mkdir()
        (tmp_path / "src/app/serving").mkdir()
        for name, body in {
            "src/app/metrics/rank.py": "import app.serving.svc\n",
            "src/app/serving/svc.py": "VALUE = 1\n",
        }.items():
            (tmp_path / name).write_text(body, encoding="utf-8")
        config = LintConfig(
            select=("REP011",), graph=GraphConfig(forbid={"app.metrics": ("app.serving",)})
        )
        # Scope excludes the violating file from *module* rules; the
        # graph rule must still see and report it.
        result = lint_paths(
            [tmp_path / "src"],
            config=config,
            root=tmp_path,
            module_scope={"src/app/serving/svc.py"},
        )
        assert len(result.findings) == 1, renders(result)
        assert result.findings[0].rule == "REP011"

    def test_graph_out_cli_round_trips(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def ok():\n    return 1\n", encoding="utf-8")
        out = tmp_path / "artifacts" / "graph.json"
        code = lint_main(
            [
                str(tmp_path / "mod.py"),
                "--root",
                str(tmp_path),
                "--select",
                "REP001",
                "--graph-out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert out.with_suffix(".dot").exists()
        assert out.with_suffix(".calls.dot").exists()
        from repro.analysis.graph import graph_from_json

        loaded = graph_from_json(out.read_text(encoding="utf-8"))
        assert "mod" in loaded.module_names()


# ---------------------------------------------------------------------------
# Whole-repo self-check under the full 12-rule set
# ---------------------------------------------------------------------------


class TestRepoSelfCheckExpanded:
    def test_src_and_benchmarks_clean_under_all_rules(self):
        repo_root = Path(__file__).resolve().parent.parent
        from repro.analysis.lint import load_config

        config = load_config(repo_root / "pyproject.toml")
        result = lint_paths(
            [repo_root / "src", repo_root / "benchmarks"],
            config=config,
            root=repo_root,
        )
        assert result.findings == [], renders(result)
        assert result.project is not None
        assert len(result.project.modules) > 100
