"""Tests for the sweep-record export helpers."""

from repro.experiments.sweeps import best_by, records_to_csv, write_csv


class TestExport:
    def _records(self):
        return [
            {"seed": 1, "ipc": 2.0},
            {"seed": 2, "ipc": 3.0, "extra": "x"},
        ]

    def test_csv_union_of_columns(self):
        csv = records_to_csv(self._records())
        lines = csv.splitlines()
        assert lines[0] == "seed,ipc,extra"
        assert lines[1].startswith("1,2.0")
        assert lines[2].endswith("x")

    def test_csv_empty(self):
        assert records_to_csv([]) == ""

    def test_write_csv(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(self._records(), path)
        assert open(path).read().startswith("seed,ipc")


class TestBestBy:
    def test_max(self):
        recs = [{"ipc": 1.0}, {"ipc": 3.0}, {"ipc": 2.0}]
        assert best_by(recs)["ipc"] == 3.0

    def test_min(self):
        recs = [{"lat": 9.0}, {"lat": 4.0}]
        assert best_by(recs, "lat", maximize=False)["lat"] == 4.0

    def test_empty(self):
        assert best_by([]) is None

    def test_skips_records_missing_metric(self):
        recs = [{"seed": 1}, {"seed": 2, "ipc": 2.0}, {"seed": 3, "ipc": 1.0}]
        assert best_by(recs)["seed"] == 2
        assert best_by(recs, maximize=False)["seed"] == 3

    def test_none_when_no_record_carries_metric(self):
        recs = [{"seed": 1}, {"seed": 2}]
        assert best_by(recs, "ipc") is None
