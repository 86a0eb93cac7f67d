"""Tests for the reprolint dataflow layer and the four flow passes.

Covers the CFG builder (golden edge lists for the tricky control-flow
shapes), the worklist solver instantiations (reaching definitions,
taint), the module summary layer (call graph, return taint, external
mutations), and the pass-level behaviour of sweep-race,
seed-provenance, resource-paths and unreachable-code against their
fixture trees — counts, suppression, ``--select`` isolation and the
JSON/github CLI formats.
"""

import ast
import json
import pathlib
import shutil
import textwrap

import pytest

from repro.cli import main
from repro.lint import run_lint
from repro.lint.flow import (
    ModuleSummaries,
    TaintAnalysis,
    build_cfg,
    reaching_definitions,
)
from repro.lint.flow.cfg import iter_scopes

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def _function_cfg(source, name="f"):
    tree = ast.parse(textwrap.dedent(source))
    scopes = dict(iter_scopes(tree))
    return build_cfg(scopes[name], name=name)


class TestCfgEdges:
    """Golden edge-list assertions for the tricky control-flow shapes.

    Labels are ``kind:lineno`` with ``entry``/``exit`` synthetic; the
    line numbers below count from the start of the dedented snippet
    (``def`` is line 2 because of the leading newline).
    """

    def test_while_else_runs_only_on_normal_exhaustion(self):
        cfg = _function_cfg('''
            def f(items):
                while items:
                    items.pop()
                else:
                    log()
                return items
        ''')
        assert cfg.edges() == [
            ("entry", "while:3"),
            ("expr:4", "while:3"),
            ("expr:6", "return:7"),
            ("return:7", "exit"),
            ("while:3", "expr:4"),
            ("while:3", "expr:6"),
        ]

    def test_break_routes_through_both_nested_finallies(self):
        cfg = _function_cfg('''
            def f(jobs):
                for job in jobs:
                    try:
                        try:
                            job.run()
                        finally:
                            job.inner()
                        if job.done:
                            break
                    finally:
                        job.outer()
                return jobs
        ''')
        edges = cfg.edges()
        # break reaches the outer finally, never the loop head directly
        assert ("break:10", "expr:12") in edges
        assert ("break:10", "for:3") not in edges
        # the outer finally fans out to: loop continue, the statement
        # after the loop (the break continuation) and the exceptional
        # continuation (scope exit)
        assert ("expr:12", "for:3") in edges
        assert ("expr:12", "return:13") in edges
        assert ("expr:12", "exit") in edges
        # the inner finally's exception path lands in the outer finally
        assert ("expr:8", "expr:12") in edges

    def test_bare_except_reraise_propagates_to_exit(self):
        cfg = _function_cfg('''
            def f(task):
                try:
                    task.run()
                except:
                    task.abort()
                    raise
                return task
        ''')
        assert cfg.edges() == [
            ("entry", "try:3"),
            ("except:5", "expr:6"),
            ("expr:4", "except:5"),
            ("expr:4", "return:8"),
            ("expr:6", "raise:7"),
            ("raise:7", "exit"),
            ("return:8", "exit"),
            ("try:3", "expr:4"),
        ]

    def test_generator_expression_stays_one_statement(self):
        cfg = _function_cfg('''
            def f(rows):
                total = sum(len(r) for r in rows)
                return total
        ''')
        assert cfg.edges() == [
            ("assign:3", "return:4"),
            ("entry", "assign:3"),
            ("return:4", "exit"),
        ]

    def test_suppress_block_swallows_and_resumes_after_with(self):
        cfg = _function_cfg('''
            def f(path):
                with suppress(OSError):
                    path.unlink()
                    path.flush()
                return path
        ''')
        assert cfg.edges() == [
            ("entry", "with:3"),
            ("expr:4", "expr:5"),
            ("expr:4", "return:6"),
            ("expr:5", "return:6"),
            ("return:6", "exit"),
            ("with:3", "expr:4"),
        ]

    def test_pytest_raises_swallows_the_asserted_exception(self):
        """Code after a ``with pytest.raises(...)`` block is reachable
        even when the block always raises (regression: the assertions
        in test_robustness were flagged unreachable)."""
        cfg = _function_cfg('''
            def f(path):
                with pytest.raises(RuntimeError):
                    raise RuntimeError("expected")
                return path
        ''')
        reachable = {cfg.label(i) for i in cfg.reachable()}
        assert "return:5" in reachable

    def test_while_true_without_break_has_no_fall_out(self):
        cfg = _function_cfg('''
            def f(queue):
                while True:
                    queue.poll()
                return queue
        ''')
        reachable = {cfg.label(i) for i in cfg.reachable()}
        assert "return:5" not in reachable


class TestDataflow:
    def test_reaching_definitions_merge_at_join(self):
        cfg = _function_cfg('''
            def f(flag):
                x = 1
                if flag:
                    x = 2
                return x
        ''')
        defs = reaching_definitions(cfg)
        return_index = next(
            i for i in cfg.statement_nodes()
            if cfg.label(i).startswith("return")
        )
        assert defs[return_index]["x"] == frozenset({3, 5})

    def test_taint_propagates_through_assignment_chain(self):
        tree = ast.parse(textwrap.dedent('''
            def f():
                a = time.time()
                b = int(a) + 1
                return b
        '''))
        summaries = ModuleSummaries(tree)
        analysis = TaintAnalysis(
            lambda name: {"wall-clock"} if name == "time.time" else set(),
            summaries,
        )
        cfg = build_cfg(dict(iter_scopes(tree))["f"], name="f")
        states = analysis.solve(cfg)
        assert states[cfg.exit].get("b") == frozenset({"wall-clock"})

    def test_helper_return_taint_crosses_call_sites(self):
        tree = ast.parse(textwrap.dedent('''
            def fresh():
                return int(time.time())

            def use():
                seed = fresh()
                return seed
        '''))
        summaries = ModuleSummaries(tree)
        analysis = TaintAnalysis(
            lambda name: {"wall-clock"} if name == "time.time" else set(),
            summaries,
        )
        assert summaries.returns_taint("fresh", analysis) == frozenset(
            {"wall-clock"}
        )
        assert summaries.returns_taint("use", analysis) == frozenset(
            {"wall-clock"}
        )

    def test_untainted_parameter_stays_clean(self):
        tree = ast.parse(textwrap.dedent('''
            def f(seed):
                rng = default_rng(seed)
                return rng
        '''))
        summaries = ModuleSummaries(tree)
        analysis = TaintAnalysis(lambda name: set(), summaries)
        cfg = build_cfg(dict(iter_scopes(tree))["f"], name="f")
        states = analysis.solve(cfg)
        assert states[cfg.exit].get("rng", frozenset()) == frozenset()


class TestSummaries:
    TREE = textwrap.dedent('''
        SHARED = {}
        TOTALS = []

        class Stats:
            count = 0

        def leaf(value):
            TOTALS.append(value)

        def middle(value):
            leaf(value)

        def worker(value):
            SHARED[value] = value
            Stats.count += 1
            middle(value)

        def pure(value):
            local = [value]
            local.append(value)
            return local
    ''')

    def test_call_graph_transitive_closure(self):
        summaries = ModuleSummaries(ast.parse(self.TREE))
        assert summaries.transitive_closure("worker") == [
            "worker", "middle", "leaf",
        ]

    def test_external_mutations_kinds_and_chains(self):
        summaries = ModuleSummaries(ast.parse(self.TREE))
        found = {
            (m.kind, m.name, tuple(chain))
            for m, chain in summaries.external_mutations("worker")
        }
        assert found == {
            ("global", "SHARED", ("worker",)),
            ("class-attr", "Stats", ("worker",)),
            ("global", "TOTALS", ("worker", "middle", "leaf")),
        }

    def test_local_mutation_is_not_external(self):
        summaries = ModuleSummaries(ast.parse(self.TREE))
        assert summaries.external_mutations("pure") == []


class TestFlowPassBehaviors:
    """Suppression, --select and CLI formats against the new fixtures."""

    def test_suppression_silences_a_flow_finding(self, tmp_path):
        src = FIXTURES / "unreachable_code" / "violation"
        root = tmp_path / "tree"
        shutil.copytree(src, root)
        target = root / "src/repro/flow.py"
        lines = target.read_text().splitlines()
        lines[5] += "  # reprolint: disable=unreachable-code"
        target.write_text("\n".join(lines) + "\n")  # reprolint: disable=atomic-writes
        findings = run_lint(root, select=["unreachable-code"])
        assert len(findings) == 3
        assert all(f.line != 6 for f in findings)

    def test_select_isolates_flow_passes(self):
        root = FIXTURES / "sweep_race" / "violation"
        assert run_lint(root, select=["seed-provenance"]) == []
        assert len(run_lint(root, select=["sweep-race"])) == 4

    def test_json_schema_for_flow_findings(self, capsys):
        root = FIXTURES / "seed_provenance" / "violation"
        code = main([
            "lint", "--root", str(root), "--format", "json",
            "--select", "seed-provenance",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert {f["pass"] for f in payload} == {"seed-provenance"}
        assert all(
            set(f) == {"path", "line", "pass", "severity", "message"}
            for f in payload
        )

    def test_github_format_emits_error_annotations(self, capsys):
        root = FIXTURES / "resource_paths" / "violation"
        code = main([
            "lint", "--root", str(root), "--format", "github",
            "--select", "resource-paths",
        ])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert all(
            line.startswith("::error file=src/repro/robustness/writer.py,line=")
            for line in out
        )
        assert all("[resource-paths]" in line for line in out)

    def test_seed_provenance_tracks_module_level_taint(self, tmp_path):
        """A module-level wall-clock stamp taints a seed used inside a
        function, across the scope boundary."""
        target = tmp_path / "src" / "repro" / "stamped.py"
        target.parent.mkdir(parents=True)
        source = textwrap.dedent('''
            import time

            STAMP = int(time.time())

            def make_rng():
                import numpy as np
                return np.random.default_rng(STAMP)
        ''')
        target.write_text(source)  # reprolint: disable=atomic-writes
        findings = run_lint(tmp_path, select=["seed-provenance"])
        assert len(findings) == 1
        assert "wall-clock" in findings[0].message


class TestSweepRaceRegression:
    def test_global_mutating_worker_is_caught(self, tmp_path):
        """The acceptance-criterion regression: a worker that appends
        to a module-global accumulator is flagged at the mutation site
        with the submit line in the message."""
        target = tmp_path / "src" / "repro" / "racy.py"
        target.parent.mkdir(parents=True)
        source = textwrap.dedent('''
            from concurrent.futures import ProcessPoolExecutor

            ACCUMULATOR = []

            def worker(item):
                ACCUMULATOR.append(item * 2)
                return item

            def sweep(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, items))
        ''')
        target.write_text(source)  # reprolint: disable=atomic-writes
        findings = run_lint(tmp_path, select=["sweep-race"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.pass_id == "sweep-race"
        assert finding.line == 7
        assert "ACCUMULATOR" in finding.message
        assert "line 12" in finding.message

    def test_process_target_worker_is_caught(self, tmp_path):
        """The same race through ``Process(target=...)``, the sweep
        executor's way of starting workers."""
        target = tmp_path / "src" / "repro" / "racy.py"
        target.parent.mkdir(parents=True)
        source = textwrap.dedent('''
            import multiprocessing

            ACCUMULATOR = []

            def worker(item):
                ACCUMULATOR.append(item * 2)

            def sweep(item):
                ctx = multiprocessing.get_context("fork")
                process = ctx.Process(target=worker, args=(item,))
                process.start()
                process.join()
        ''')
        target.write_text(source)  # reprolint: disable=atomic-writes
        findings = run_lint(tmp_path, select=["sweep-race"])
        assert len(findings) == 1
        assert findings[0].line == 7
        assert "ACCUMULATOR" in findings[0].message
        assert "line 11" in findings[0].message

    def test_parent_side_aggregation_is_clean(self, tmp_path):
        target = tmp_path / "src" / "repro" / "clean.py"
        target.parent.mkdir(parents=True)
        source = textwrap.dedent('''
            from concurrent.futures import ProcessPoolExecutor

            def worker(item):
                return item * 2

            def sweep(items):
                results = []
                with ProcessPoolExecutor() as pool:
                    for value in pool.map(worker, items):
                        results.append(value)
                return results
        ''')
        target.write_text(source)  # reprolint: disable=atomic-writes
        assert run_lint(tmp_path, select=["sweep-race"]) == []

    def test_real_parallel_backend_is_clean(self):
        """The repo's own sweep backend follows the safe protocol."""
        repo_root = pathlib.Path(__file__).resolve().parents[1]
        findings = run_lint(repo_root, select=["sweep-race"])
        assert findings == []


class TestResourcePathsDetails:
    def test_finding_names_the_leaking_handle(self):
        findings = run_lint(
            FIXTURES / "resource_paths" / "violation",
            select=["resource-paths"],
        )
        assert [f.line for f in findings] == [10, 19, 29]
        assert "'handle'" in findings[0].message
        assert "not kept" in findings[2].message


class TestUnreachableDetails:
    def test_only_the_head_of_a_dead_run_is_reported(self):
        """``after_raise`` has two dead statements but one finding."""
        findings = run_lint(
            FIXTURES / "unreachable_code" / "violation",
            select=["unreachable-code"],
        )
        lines = [f.line for f in findings]
        assert lines == [6, 11, 18, 26]
        assert 12 not in lines  # `return cleanup` rides with line 11

    def test_scope_name_appears_in_message(self):
        findings = run_lint(
            FIXTURES / "unreachable_code" / "violation",
            select=["unreachable-code"],
        )
        messages = [f.message for f in findings]
        assert any("after_return" in m for m in messages)
        assert any("both_branches_return" in m for m in messages)
