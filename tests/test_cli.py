"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "bfs", "ada-ari", "--cycles", "200", "--mesh", "4"]
        )
        assert args.benchmark == "bfs"
        assert args.scheme == "ada-ari"
        assert args.cycles == 200
        assert args.mesh == 4

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom3", "ada-ari"])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bfs", "warp-drive"])

    def test_figure_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig11", "--scale", "huge"])


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out
        assert "ada-ari" in out
        assert "fig11" in out

    def test_area_output(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "pair_overhead" in out

    def test_unknown_figure_fails_cleanly(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_run_small(self, capsys):
        rc = main(
            ["run", "binomialOptions", "xy-baseline",
             "--cycles", "150", "--mesh", "4", "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "IPC" in out


class TestViz:
    def test_viz_small(self, capsys):
        from repro.cli import main

        rc = main(["viz", "binomialOptions", "xy-baseline",
                   "--cycles", "100", "--mesh", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "request network" in out
        assert "reply network" in out
        assert "NI injection queues" in out

    def test_viz_da2mesh_overlay(self, capsys):
        from repro.cli import main

        rc = main(["viz", "binomialOptions", "da2mesh",
                   "--cycles", "80", "--mesh", "4"])
        assert rc == 0
        assert "no mesh to render" in capsys.readouterr().out


class TestCompare:
    # The default store is isolated per-test by conftest's autouse fixture.

    def test_compare_output(self, capsys):
        rc = main(["compare", "binomialOptions",
                   "--cycles", "150", "--mesh", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        for sch in ("xy-baseline", "xy-ari", "ada-ari"):
            assert sch in out
        assert "vs base" in out

    def test_compare_with_workers(self, capsys):
        rc = main(["compare", "binomialOptions",
                   "--cycles", "150", "--mesh", "4", "--workers", "2"])
        assert rc == 0
        assert "vs base" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_runs_and_reports_best(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "binomialOptions", "xy-baseline",
             "--axis", "seed=1,2", "--cycles", "150", "--mesh", "4",
             "--csv", str(csv_path), "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "best by ipc" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("seed,benchmark,scheme,ipc")
        assert len(lines) == 3  # header + 2 records

    def test_sweep_progress_lines(self, capsys):
        rc = main(
            ["sweep", "binomialOptions", "xy-baseline",
             "--axis", "seed=1,2", "--cycles", "150", "--mesh", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out
        assert "[2/2]" in out

    def test_bad_axis_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "binomialOptions", "xy-baseline",
                  "--axis", "seedonly"])

    def test_sweep_reports_cache_hits_and_misses(self, capsys):
        argv = ["sweep", "binomialOptions", "xy-baseline",
                "--axis", "seed=1,2", "--cycles", "150", "--mesh", "4",
                "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 hit(s), 2 miss(es)" in out
        assert main(argv) == 0  # identical sweep: served from the store
        out = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es)" in out
        assert "100% of unique runs" in out

    def test_axis_range_shorthand(self, capsys):
        rc = main(["sweep", "binomialOptions", "xy-baseline",
                   "--axis", "seed=1..3", "--cycles", "150", "--mesh", "4",
                   "--quiet"])
        assert rc == 0
        assert "3 runs" in capsys.readouterr().out


class TestSearchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["search", "bfs", "ada-ari"])
        assert args.command == "search"
        assert args.strategy == "random"
        assert args.budget == 32
        assert args.objective == "max:ipc"
        assert args.search_seed == 0
        assert not args.resume

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "bfs", "ada-ari", "--strategy", "quantum"]
            )

    def test_search_smoke(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        rc = main(
            ["search", "bfs", "ada-ari", "--budget", "3", "--batch", "3",
             "--cycles", "80", "--mesh", "4",
             "--ledger", str(ledger), "--no-baseline"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 evaluated" in out
        assert "best    :" in out
        assert ledger.exists()

    def test_search_resume_and_json(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        base_argv = [
            "search", "bfs", "ada-ari", "--budget", "3", "--batch", "3",
            "--cycles", "80", "--mesh", "4",
            "--ledger", str(ledger), "--no-baseline", "--quiet",
        ]
        assert main(base_argv) == 0
        capsys.readouterr()
        json_path = tmp_path / "report.json"
        assert main(base_argv + ["--resume", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        import json as json_mod

        payload = json_mod.loads(json_path.read_text())
        assert payload["evaluated"] == 3
        assert payload["replayed"] >= 3
        assert payload["trajectory"]

    def test_bad_space_exits(self):
        with pytest.raises(SystemExit):
            main(["search", "bfs", "ada-ari", "--space", "warp_speed=1,2"])

    def test_bad_objective_exits(self):
        with pytest.raises(SystemExit):
            main(["search", "bfs", "ada-ari", "--objective", "weighted:"])


class TestCacheCommand:
    def test_info_and_clear(self, capsys):
        main(["run", "binomialOptions", "xy-baseline",
              "--cycles", "150", "--mesh", "4"])
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert ": 1" in out
        assert main(["cache", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared result store" in out
        assert ": 0" in out


class TestFigureCommand:
    def test_figure_area_via_cli(self, capsys):
        rc = main(["figure", "sec61_area"])
        assert rc == 0
        assert "pair_overhead" in capsys.readouterr().out


class TestTelemetry:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["telemetry", "--benchmark", "bfs"])
        assert args.scheme == "ada-ari"
        assert args.interval == 100

    def test_benchmark_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry"])

    def test_scheme_alias_resolution(self):
        from repro.cli import _resolve_scheme

        assert _resolve_scheme("ari") == "ada-ari"
        assert _resolve_scheme("baseline") == "ada-baseline"
        assert _resolve_scheme("xy-ari") == "xy-ari"
        with pytest.raises(SystemExit):
            _resolve_scheme("warp-drive")

    def test_telemetry_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "t.jsonl"
        rc = main(
            ["telemetry", "--benchmark", "binomialOptions",
             "--scheme", "ari", "--cycles", "150", "--mesh", "4",
             "--interval", "50", "--out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme=ada-ari" in out
        assert "rep.ni_occ_flits" in out
        assert "host profiling" in out
        from repro.telemetry import load_jsonl

        samples = load_jsonl(str(out_path))
        assert samples
        assert all(s.cycle % 50 == 0 for s in samples)


class TestModuleEntry:
    def test_dunder_main_imports(self):
        import importlib

        mod = importlib.import_module("repro.__main__")
        assert hasattr(mod, "main")


class TestFaultsCommand:
    def test_describe_explains_plan_without_running(self, capsys):
        rc = main(["faults", "--describe", "link:r5.E@0;niq:r3.1@10+5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "link fault on r5.E" in out
        assert "for 5 cycles" in out

    def test_campaign_smoke(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        rc = main(
            ["faults", "--benchmark", "binomialOptions",
             "--schemes", "xy-baseline", "--dead-links", "0,1",
             "--cycles", "150", "--mesh", "4", "--no-cache", "--quiet",
             "--json", str(json_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "delivered_fraction" in out
        assert "dead_links=1: link:" in out

        import json

        rows = json.loads(json_path.read_text())["rows"]
        assert len(rows) == 2
        assert all(r["invariant_violations"] == 0 for r in rows)

    def test_scheme_aliases_resolve(self, capsys, tmp_path):
        rc = main(
            ["faults", "--benchmark", "binomialOptions",
             "--schemes", "ari", "--dead-links", "0",
             "--cycles", "120", "--mesh", "4", "--no-cache", "--quiet"]
        )
        assert rc == 0
        assert "ada-ari" in capsys.readouterr().out

    def test_bad_dead_links_fails_cleanly(self):
        with pytest.raises(SystemExit):
            main(["faults", "--dead-links", "two"])


class TestCheckCommand:
    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "cdg-cycle" in out
        assert "det-random" in out
        assert "[model]" in out and "[code " in out

    def test_all_schemes_pass(self, capsys):
        """Acceptance: every registered scheme checks clean (exit 0)."""
        assert main(["check", "--all-schemes"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_explicit_eq2_violation_fails(self, capsys):
        """Acceptance: S > min(N_out, N_VC) rejected with non-zero exit."""
        rc = main(
            ["check", "--scheme", "ada-ari", "--num-vcs", "2",
             "--injection-speedup", "4"]
        )
        assert rc == 1
        assert "eq2-bound" in capsys.readouterr().out

    def test_json_to_stdout(self, capsys):
        import json

        rc = main(
            ["check", "--scheme", "ada-ari", "--num-vcs", "2",
             "--injection-speedup", "4", "--json", "-"]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is True
        assert any(
            d["rule"] == "eq2-bound" for d in payload["diagnostics"]
        )

    def test_rule_filter_limits_output(self, capsys):
        rc = main(
            ["check", "--scheme", "ada-ari", "--num-vcs", "2",
             "--injection-speedup", "4", "--rule", "cdg-cycle"]
        )
        assert rc == 0  # eq2 finding filtered out
        assert "eq2-bound" not in capsys.readouterr().out

    def test_unknown_rule_fails_cleanly(self, capsys):
        assert main(["check", "--all-schemes", "--rule", "bogus"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_strict_escalates_clamp_warning(self, capsys):
        args = ["check", "--scheme", "ada-ari", "--num-vcs", "2"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--strict"]) == 1

    def test_scheme_alias_and_comma_list(self, capsys):
        rc = main(["check", "--scheme", "ari,xy-baseline"])
        assert rc == 0

    def test_code_lint_on_clean_tree(self, capsys, tmp_path):
        mod = tmp_path / "sim.py"
        mod.write_text("import time\nt = time.time()\n")
        rc = main(["check", "--code", str(tmp_path)])
        assert rc == 0  # det findings are warnings
        assert "det-wallclock" in capsys.readouterr().out
        capsys.readouterr()
        assert main(["check", "--code", str(tmp_path), "--strict"]) == 1

    def test_nothing_selected_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_fault_plan_checked(self, capsys):
        # r5 sits on the East edge of a 6x6 mesh: invalid link fault.
        rc = main(
            ["check", "--scheme", "ada-ari", "--faults", "link:r5.E@0"]
        )
        assert rc == 1
        assert "config-resolve" in capsys.readouterr().out


class TestCheckBaseline:
    def _dirty_tree(self, tmp_path):
        mod = tmp_path / "sim.py"
        mod.write_text(
            "def f(now, payload_flits):\n"
            "    return now + payload_flits\n"
        )
        return tmp_path

    def test_update_baseline_then_strict_is_clean(self, capsys, tmp_path):
        tree = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        rc = main(
            ["check", "--code", str(tree),
             "--baseline", str(baseline), "--update-baseline"]
        )
        assert rc == 0
        assert baseline.exists()
        capsys.readouterr()
        rc = main(
            ["check", "--code", str(tree),
             "--baseline", str(baseline), "--strict"]
        )
        assert rc == 0
        out = capsys.readouterr()
        assert "grandfathered" in out.err

    def test_new_finding_escapes_baseline(self, capsys, tmp_path):
        tree = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["check", "--code", str(tree),
              "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        (tree / "sim.py").write_text(
            "def f(now, payload_flits):\n"
            "    return now + payload_flits\n"
            "def g(horizon, width_bits):\n"
            "    return horizon - width_bits\n"
        )
        rc = main(
            ["check", "--code", str(tree),
             "--baseline", str(baseline), "--strict"]
        )
        assert rc == 1
        assert "bits" in capsys.readouterr().out

    def test_no_baseline_reports_everything(self, capsys, tmp_path):
        tree = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["check", "--code", str(tree),
              "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        rc = main(
            ["check", "--code", str(tree), "--no-baseline", "--strict"]
        )
        assert rc == 1
        assert "unit-mix" in capsys.readouterr().out

    def test_update_baseline_requires_code(self, capsys):
        assert main(["check", "--all-schemes", "--update-baseline"]) == 2
        assert "--update-baseline requires --code" in capsys.readouterr().err

    def test_repo_default_baseline_keeps_strict_green(self, capsys):
        """Acceptance: all passes run clean against the repo post-baseline."""
        rc = main(["check", "--code", "src/repro", "--strict"])
        assert rc == 0, capsys.readouterr().out

    def test_update_baseline_reports_pruned_entries(
        self, capsys, tmp_path
    ):
        baseline = tmp_path / "baseline.json"
        (tmp_path / "sim.py").write_text(
            "def f(now, payload_flits):\n"
            "    return now + payload_flits\n"
        )
        main(["check", "--code", str(tmp_path),
              "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        (tmp_path / "sim.py").write_text("def f():\n    return 0\n")
        rc = main(
            ["check", "--code", str(tmp_path),
             "--baseline", str(baseline), "--update-baseline"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale fingerprint(s)" in out
        assert "unit-mix" in out
