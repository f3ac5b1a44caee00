"""Grandfathered-findings baseline tests."""

import pytest

from repro.staticcheck import baseline
from repro.staticcheck.diagnostics import CheckReport, Severity


def report_with(*entries):
    report = CheckReport()
    for rule, location, message in entries:
        report.add(rule, Severity.WARNING, location, message, "hint")
    return report


class TestFingerprint:
    def test_line_number_independent(self):
        a = report_with(("unit-mix", "src/m.py:10", "mixes flits with cycles"))
        b = report_with(("unit-mix", "src/m.py:99", "mixes flits with cycles"))
        assert baseline.fingerprint(a.diagnostics[0]) == baseline.fingerprint(
            b.diagnostics[0]
        )

    def test_distinguishes_rule_path_message(self):
        diags = report_with(
            ("unit-mix", "src/m.py:1", "msg"),
            ("det-random", "src/m.py:1", "msg"),
            ("unit-mix", "src/other.py:1", "msg"),
            ("unit-mix", "src/m.py:1", "other msg"),
        ).diagnostics
        fps = {baseline.fingerprint(d) for d in diags}
        assert len(fps) == 4


class TestRoundTrip:
    def test_save_load_apply(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        findings = report_with(
            ("unit-mix", "src/m.py:10", "mixes flits with cycles"),
            ("det-set-iter", "src/n.py:5", "iteration over a set"),
        )
        assert baseline.save(path, findings) == 2

        # identical findings (different lines) are fully absorbed
        fresh_scan = report_with(
            ("unit-mix", "src/m.py:12", "mixes flits with cycles"),
            ("det-set-iter", "src/n.py:7", "iteration over a set"),
        )
        remaining, matched, stale = baseline.apply(
            fresh_scan, baseline.load(path)
        )
        assert matched == 2
        assert len(remaining) == 0
        assert stale == []

    def test_new_finding_not_absorbed(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        baseline.save(
            path, report_with(("unit-mix", "src/m.py:10", "old finding"))
        )
        scan = report_with(
            ("unit-mix", "src/m.py:10", "old finding"),
            ("unit-mix", "src/m.py:20", "brand new finding"),
        )
        remaining, matched, stale = baseline.apply(scan, baseline.load(path))
        assert matched == 1
        assert len(remaining) == 1
        assert "brand new" in remaining.diagnostics[0].message

    def test_counts_limit_duplicate_findings(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        baseline.save(
            path, report_with(("unit-mix", "src/m.py:10", "dup"))
        )
        scan = report_with(
            ("unit-mix", "src/m.py:10", "dup"),
            ("unit-mix", "src/m.py:30", "dup"),
        )
        remaining, matched, _stale = baseline.apply(scan, baseline.load(path))
        assert matched == 1
        assert len(remaining) == 1  # the second instance still fails

    def test_stale_entries_reported(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        baseline.save(
            path, report_with(("unit-mix", "src/m.py:10", "fixed since"))
        )
        remaining, matched, stale = baseline.apply(
            report_with(), baseline.load(path)
        )
        assert matched == 0
        assert len(remaining) == 0
        assert len(stale) == 1 and "fixed since" in stale[0]


class TestLoadValidation:
    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert baseline.load(str(tmp_path / "absent.json")) == {}

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            baseline.load(str(path))

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v0.json"
        path.write_text('{"version": 0, "findings": []}')
        with pytest.raises(ValueError, match="unsupported format"):
            baseline.load(str(path))

    def test_saved_file_is_sorted_and_versioned(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        baseline.save(
            path,
            report_with(
                ("z-rule", "src/z.py:1", "zz"),
                ("a-rule", "src/a.py:1", "aa"),
            ),
        )
        import json

        payload = json.load(open(path))
        assert payload["version"] == 1
        fps = [f["fingerprint"] for f in payload["findings"]]
        assert fps == sorted(fps)


class TestUpdate:
    def test_update_prunes_stale_fingerprints(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        baseline.save(path, report_with(
            ("unit-mix", "src/m.py:1", "old finding"),
            ("unit-mix", "src/m.py:2", "kept finding"),
        ))
        count, pruned = baseline.update(
            path, report_with(("unit-mix", "src/m.py:9", "kept finding"))
        )
        assert count == 1
        assert pruned == ["unit-mix::src/m.py::old finding"]
        assert set(baseline.load(path)) == {
            "unit-mix::src/m.py::kept finding"
        }

    def test_update_from_missing_file_prunes_nothing(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        count, pruned = baseline.update(
            path, report_with(("unit-mix", "src/m.py:1", "msg"))
        )
        assert count == 1
        assert pruned == []
        assert len(baseline.load(path)) == 1

    def test_update_tolerates_malformed_old_file(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json")
        count, pruned = baseline.update(
            str(path), report_with(("unit-mix", "src/m.py:1", "msg"))
        )
        assert count == 1
        assert pruned == []
        assert len(baseline.load(str(path))) == 1
