"""Determinism-lint (AST) tests."""

import textwrap

from repro.staticcheck.detlint import lint_paths, lint_source


def lint(code):
    return lint_source(textwrap.dedent(code), path="mod.py")


def rules_of(report):
    return set(report.rules_hit())


class TestDetRandom:
    def test_global_rng_call_flagged(self):
        report = lint("""
            import random
            def pick(items):
                return random.choice(items)
        """)
        assert rules_of(report) == {"det-random"}
        assert "mod.py:4" in report.diagnostics[0].location

    def test_numpy_global_rng_flagged(self):
        report = lint("""
            import numpy as np
            x = np.random.randint(0, 10)
        """)
        assert rules_of(report) == {"det-random"}

    def test_from_import_of_global_fn_flagged(self):
        report = lint("from random import shuffle, randint\n")
        assert rules_of(report) == {"det-random"}
        assert "shuffle" in report.diagnostics[0].message

    def test_seeded_instance_allowed(self):
        report = lint("""
            import random
            rng = random.Random(3)
            x = rng.random()
            y = rng.sample(range(10), 2)
        """)
        assert len(report) == 0

    def test_from_import_of_class_allowed(self):
        report = lint("from random import Random\nrng = Random(1)\n")
        assert len(report) == 0

    def test_aliased_module_call_flagged(self):
        report = lint("""
            import random as _r
            def pick(items):
                return _r.random() < 0.5
        """)
        assert rules_of(report) == {"det-random"}
        assert "mod.py:4" in report.diagnostics[0].location

    def test_aliased_numpy_submodule_flagged(self):
        report = lint("""
            import numpy.random as npr
            x = npr.randint(0, 10)
        """)
        assert rules_of(report) == {"det-random"}

    def test_aliased_seeded_instance_allowed(self):
        report = lint("""
            import random as _r
            rng = _r.Random(3)
            x = rng.random()
        """)
        assert len(report) == 0


class TestDetWallclock:
    def test_time_calls_flagged(self):
        report = lint("""
            import time
            def stamp():
                return time.time()
        """)
        assert rules_of(report) == {"det-wallclock"}

    def test_datetime_now_flagged(self):
        report = lint("""
            import datetime
            t = datetime.datetime.now()
        """)
        assert rules_of(report) == {"det-wallclock"}

    def test_from_import_flagged(self):
        report = lint("from time import perf_counter\n")
        assert rules_of(report) == {"det-wallclock"}

    def test_sleep_not_flagged(self):
        report = lint("import time\ntime.sleep(1)\n")
        assert len(report) == 0

    def test_aliased_module_call_flagged(self):
        report = lint("""
            import time as _t
            def stamp():
                return _t.time()
        """)
        assert rules_of(report) == {"det-wallclock"}
        assert "mod.py:4" in report.diagnostics[0].location

    def test_plain_and_aliased_both_flagged(self):
        report = lint("""
            import time
            import time as _t
            a = time.time()
            b = _t.perf_counter()
        """)
        assert [d.location for d in report.diagnostics] == [
            "mod.py:4", "mod.py:5",
        ]

    def test_aliased_datetime_class_flagged(self):
        report = lint("""
            from datetime import datetime as dt
            t = dt.now()
        """)
        assert rules_of(report) == {"det-wallclock"}

    def test_aliased_sleep_not_flagged(self):
        report = lint("import time as _t\n_t.sleep(1)\n")
        assert len(report) == 0


class TestDetSetIter:
    def test_for_over_set_literal(self):
        report = lint("""
            for x in {1, 2, 3}:
                print(x)
        """)
        assert rules_of(report) == {"det-set-iter"}

    def test_for_over_set_typed_local(self):
        report = lint("""
            def arbitrate(reqs):
                ready = set(reqs)
                for r in ready:
                    yield r
        """)
        assert rules_of(report) == {"det-set-iter"}

    def test_comprehension_over_set_call(self):
        report = lint("xs = [x for x in set(range(3))]\n")
        assert rules_of(report) == {"det-set-iter"}

    def test_sorted_set_allowed(self):
        report = lint("""
            ready = set()
            for r in sorted(ready):
                print(r)
        """)
        assert len(report) == 0

    def test_membership_test_allowed(self):
        report = lint("""
            seen = set()
            def check(x):
                return x in seen
        """)
        assert len(report) == 0

    def test_rebound_name_not_flagged(self):
        report = lint("""
            items = set()
            items = sorted(items)
            for x in items:
                print(x)
        """)
        assert len(report) == 0


class TestDetFloatCycle:
    def test_float_augassign_flagged(self):
        report = lint("""
            cycle = 0
            cycle += 0.5
        """)
        assert rules_of(report) == {"det-float-cycle"}

    def test_float_binop_assign_flagged(self):
        report = lint("next_tick = now + 1.5\n")
        assert rules_of(report) == {"det-float-cycle"}

    def test_attribute_counter_flagged(self):
        report = lint("""
            class Clock:
                def advance(self):
                    self.cycle += 2.0
        """)
        assert rules_of(report) == {"det-float-cycle"}

    def test_integer_arithmetic_allowed(self):
        report = lint("""
            cycle = 0
            cycle += 1
            next_cycle = cycle + 4
        """)
        assert len(report) == 0

    def test_non_cycle_names_allowed(self):
        report = lint("ratio = 1.0\nratio += 0.5\n")
        assert len(report) == 0


class TestSuppression:
    def test_bare_allow(self):
        report = lint("""
            import time
            t = time.time()  # det: allow
        """)
        assert len(report) == 0

    def test_named_allow_matches(self):
        report = lint("""
            import time
            t = time.time()  # det: allow(det-wallclock)
        """)
        assert len(report) == 0

    def test_named_allow_for_other_rule_does_not_match(self):
        report = lint("""
            import time
            t = time.time()  # det: allow(det-random)
        """)
        assert rules_of(report) == {"det-wallclock"}


class TestFilesAndErrors:
    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", path="bad.py")
        assert not report.ok
        assert "cannot parse" in report.diagnostics[0].message

    def test_lint_paths_walks_tree(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("import time\nx = time.time()\n")
        (pkg / "b.py").write_text("y = 1\n")
        cache = pkg / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-312.py").write_text("import time\ntime.time()\n")
        report = lint_paths([str(tmp_path)])
        assert len(report) == 1
        assert report.diagnostics[0].location.endswith("a.py:2")

    def test_repo_simulator_sources_are_clean(self):
        """Acceptance: the determinism lint runs clean on src/repro."""
        import repro

        root = repro.__path__[0]
        report = lint_paths([root])
        assert len(report) == 0, report.render()


class TestMultiLineSuppression:
    """Suppressions on the statement's first line cover the whole
    statement, including nodes on continuation lines (regression: a
    ``# det: allow`` above the flagged line of a multi-line expression
    used to be ignored)."""

    def test_statement_first_line_covers_continuation(self):
        report = lint("""
            import time
            elapsed = (  # det: allow(det-wallclock)
                time.time()
                - start
            )
        """)
        assert len(report) == 0

    def test_bare_allow_on_first_line_covers_continuation(self):
        report = lint("""
            import time
            elapsed = (  # det: allow
                time.time()
            )
        """)
        assert len(report) == 0

    def test_unsuppressed_multiline_still_flagged(self):
        report = lint("""
            import time
            elapsed = (
                time.time()
            )
        """)
        assert rules_of(report) == {"det-wallclock"}

    def test_wrong_rule_name_on_first_line_does_not_suppress(self):
        report = lint("""
            import time
            elapsed = (  # det: allow(det-random)
                time.time()
            )
        """)
        assert rules_of(report) == {"det-wallclock"}

    def test_suppression_scoped_to_its_own_statement(self):
        report = lint("""
            import time
            a = (  # det: allow(det-wallclock)
                time.time()
            )
            b = time.time()
        """)
        assert rules_of(report) == {"det-wallclock"}
        assert report.diagnostics[0].location.endswith(":6")


class TestCallerChainHints:
    SRC = """
        import random

        def draw():
            return random.random()

        def helper():
            return draw()

        def sweep_entry():
            return helper()
    """

    def test_hint_names_the_full_call_chain(self):
        from repro.staticcheck.callgraph import build_call_graph

        src = textwrap.dedent(self.SRC)
        graph = build_call_graph([("mod.py", src)])
        report = lint_source(src, path="mod.py", graph=graph)
        [diag] = report.diagnostics
        assert (
            "reached via mod.sweep_entry -> mod.helper -> mod.draw"
            in diag.hint
        )
        # The original remediation advice survives in front of the chain.
        assert diag.hint.startswith("use a seeded random.Random")

    def test_no_graph_means_no_chain(self):
        report = lint(self.SRC)
        assert "reached via" not in report.diagnostics[0].hint

    def test_chain_only_for_nondeterminism_rules(self):
        from repro.staticcheck.callgraph import build_call_graph

        src = textwrap.dedent("""
            def spin(items):
                for x in set(items):
                    yield x

            def entry(items):
                return list(spin(items))
        """)
        graph = build_call_graph([("mod.py", src)])
        report = lint_source(src, path="mod.py", graph=graph)
        [diag] = report.diagnostics
        assert diag.rule == "det-set-iter"
        assert "reached via" not in diag.hint

    def test_lint_paths_builds_the_graph_itself(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(textwrap.dedent(self.SRC))
        report = lint_paths([str(mod)])
        [diag] = report.diagnostics
        assert "reached via" in diag.hint
