"""CheckRunner API, mode ladder, and the experiments.api gate."""

import warnings

import pytest

from repro.experiments.runner import RunSpec
from repro.staticcheck import (
    RULES,
    STATICCHECK_ENV,
    CheckRunner,
    ModelInputs,
    StaticCheckError,
    StaticCheckWarning,
    clear_validation_cache,
    resolve_mode,
    rule_ids,
    validate_spec,
)


@pytest.fixture(autouse=True)
def _fresh_gate(monkeypatch):
    monkeypatch.delenv(STATICCHECK_ENV, raising=False)
    clear_validation_cache()
    yield
    clear_validation_cache()


BAD_SPEC = RunSpec(
    benchmark="bfs", scheme="ada-ari", num_vcs=2, injection_speedup=4
)
WARN_SPEC = RunSpec(benchmark="bfs", scheme="ada-ari", num_vcs=2)
CLEAN_SPEC = RunSpec(benchmark="bfs", scheme="ada-ari")


class TestRuleCatalog:
    def test_families_partition_the_catalog(self):
        model, code = rule_ids("model"), rule_ids("code")
        assert set(model) | set(code) == set(RULES)
        assert not set(model) & set(code)
        assert all(
            r.startswith(("det-", "unit-"))
            for r in code
        )

    def test_dataflow_rules_registered(self):
        assert set(rule_ids("code")) == {
            "det-random",
            "det-wallclock",
            "det-set-iter",
            "det-float-cycle",
            "unit-mix",
        }

    def test_rule_ids_default_is_everything(self):
        assert rule_ids() == list(RULES)


class TestCheckRunner:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            CheckRunner(rules=["cdg-cycle", "no-such-rule"])

    def test_rule_filter_applies_to_reports(self):
        runner = CheckRunner(rules=["eq2-bound"])
        report = runner.check_scheme(
            "ada-ari", num_vcs=2, injection_speedup=4
        )
        assert report.rules_hit() == ["eq2-bound"]

    def test_filter_hides_other_findings(self):
        runner = CheckRunner(rules=["cdg-cycle"])
        report = runner.check_scheme(
            "ada-ari", num_vcs=2, injection_speedup=4
        )
        assert len(report) == 0
        assert not runner.failed(report)

    def test_strict_escalates_warnings(self):
        lax, strict = CheckRunner(), CheckRunner(strict=True)
        report = lax.check_scheme("ada-ari", num_vcs=2)  # clamp warning
        assert not lax.failed(report)
        assert strict.failed(report)

    def test_check_all_schemes_error_free_at_defaults(self):
        report = CheckRunner().check_all_schemes()
        assert report.ok, report.render()
        assert not report.warnings, report.render()

    def test_check_spec_matches_check_inputs(self):
        runner = CheckRunner()
        via_spec = runner.check_spec(BAD_SPEC)
        via_inputs = runner.check_inputs(ModelInputs.from_spec(BAD_SPEC))
        assert via_spec.rules_hit() == via_inputs.rules_hit()
        assert not via_spec.ok

    def test_check_source_routes_through_detlint(self):
        report = CheckRunner().check_source(
            "import time\nt = time.time()\n", path="x.py"
        )
        assert report.rules_hit() == ["det-wallclock"]

    def test_check_source_runs_every_code_pass(self):
        source = (
            "import time\n"
            "t = time.time()\n"                        # det-wallclock
            "def f(now, payload_flits):\n"
            "    return now + payload_flits\n"         # unit-mix
            "def g(items):\n"
            "    for x in set(items):\n"              # det-set-iter
            "        yield x\n"
        )
        report = CheckRunner().check_source(source, path="x.py")
        assert {"det-wallclock", "unit-mix", "det-set-iter"} <= set(
            report.rules_hit()
        )

    def test_rule_filter_applies_to_code_passes(self):
        source = (
            "import time\n"
            "t = time.time()\n"
            "def f(now, payload_flits):\n"
            "    return now + payload_flits\n"
        )
        report = CheckRunner(rules=["unit-mix"]).check_source(
            source, path="x.py"
        )
        assert report.rules_hit() == ["unit-mix"]


class TestResolveMode:
    @pytest.mark.parametrize("raw", ["", "warn", "1", "true", "on"])
    def test_warn_spellings(self, raw):
        assert resolve_mode(raw) == "warn"

    @pytest.mark.parametrize("raw", ["off", "0", "false", "none"])
    def test_off_spellings(self, raw):
        assert resolve_mode(raw) == "off"

    @pytest.mark.parametrize("raw", ["strict", "error", "2"])
    def test_strict_spellings(self, raw):
        assert resolve_mode(raw) == "strict"

    def test_env_consulted_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(STATICCHECK_ENV, "strict")
        assert resolve_mode() == "strict"
        assert resolve_mode("off") == "off"  # argument wins over env

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="bad static-check mode"):
            resolve_mode("loud")


class TestValidateSpec:
    def test_clean_spec_passes_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_spec(CLEAN_SPEC)
        assert report.ok

    def test_error_spec_raises(self):
        with pytest.raises(StaticCheckError) as exc:
            validate_spec(BAD_SPEC)
        assert any(d.rule == "eq2-bound" for d in exc.value.diagnostics)

    def test_warn_spec_warns_but_passes(self):
        with pytest.warns(StaticCheckWarning, match="eq2-bound"):
            report = validate_spec(WARN_SPEC)
        assert report.ok

    def test_strict_mode_raises_on_warnings(self):
        with pytest.raises(StaticCheckError):
            validate_spec(WARN_SPEC, mode="strict")

    def test_off_mode_skips_everything(self):
        report = validate_spec(BAD_SPEC, mode="off")
        assert len(report) == 0

    def test_env_off_skips_everything(self, monkeypatch):
        monkeypatch.setenv(STATICCHECK_ENV, "off")
        assert len(validate_spec(BAD_SPEC)) == 0

    def test_memoized_per_model_signature(self):
        validate_spec(CLEAN_SPEC)
        from repro.staticcheck.runner import _cached_model_report

        before = _cached_model_report.cache_info().hits
        # Same model signature, different benchmark/seed: cache hit.
        validate_spec(RunSpec(benchmark="pr", scheme="ada-ari", seed=7))
        assert _cached_model_report.cache_info().hits == before + 1


class TestApiGate:
    @pytest.fixture
    def store(self, tmp_path):
        from repro.experiments.store import ResultStore

        return ResultStore(str(tmp_path / "store"))

    def test_run_rejects_bad_spec_before_simulating(self, store):
        from repro.experiments import api

        with pytest.raises(StaticCheckError):
            api.run(BAD_SPEC, store=store)

    def test_run_many_rejects_any_bad_spec(self, store):
        from repro.experiments import api

        with pytest.raises(StaticCheckError):
            api.run_many([CLEAN_SPEC, BAD_SPEC], store=store)

    def test_strict_flag_escalates_warn_spec(self, store):
        from repro.experiments import api

        with pytest.raises(StaticCheckError):
            api.run(WARN_SPEC, store=store, strict=True)

    def test_env_off_lets_bad_spec_through_to_simulation(
        self, monkeypatch, store
    ):
        from repro.experiments import api

        monkeypatch.setenv(STATICCHECK_ENV, "off")
        spec = RunSpec(
            benchmark="bfs", scheme="ada-ari", num_vcs=2,
            injection_speedup=4, cycles=60, warmup=20,
        )
        result = api.run(spec, store=store)
        assert result.cycles == 60  # the builder clamps and runs anyway
