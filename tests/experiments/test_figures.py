"""Smoke tests for the figure drivers (micro scale, isolated cache)."""

import pytest

import repro.experiments.figures as figures


@pytest.fixture(autouse=True)
def micro_scale(monkeypatch):
    """Shrink the smoke budget for these tests.

    The result store is already isolated per-test by conftest's autouse
    ``_isolated_result_store`` fixture.
    """
    monkeypatch.setitem(figures.SCALES, "smoke", {"cycles": 150, "warmup": 50})
    yield


BMS = ["bfs"]


def _check_shape(result):
    assert set(result) >= {"rows", "summary", "paper", "table"}
    assert isinstance(result["table"], str) and result["table"]


class TestDrivers:
    def test_fig3(self):
        r = figures.fig3_request_vs_reply_latency("smoke", benchmarks=BMS)
        _check_shape(r)
        assert r["rows"]["bfs"]["request"] > 0

    def test_fig4(self):
        r = figures.fig4_link_width_sweep("smoke", benchmarks=BMS)
        _check_shape(r)
        assert "ipc_256bit_reply" in r["summary"]

    def test_fig5(self):
        r = figures.fig5_packet_type_mix("smoke", benchmarks=BMS)
        _check_shape(r)
        total = sum(r["rows"]["bfs"].values())
        assert total == pytest.approx(1.0, abs=0.01)

    def test_fig6(self):
        r = figures.fig6_queue_occupancy("smoke", benchmarks=BMS,
                                         capacities_pkts=(4, 8))
        _check_shape(r)
        assert set(r["rows"]["bfs"]) == {"4", "8"}

    def test_sec3(self):
        r = figures.sec3_link_utilization("smoke", benchmarks=BMS)
        _check_shape(r)
        assert r["summary"]["mean_injection_util"] > 0

    def test_fig9(self):
        r = figures.fig9_priority_levels("smoke", benchmarks=BMS, levels=(1, 2))
        _check_shape(r)
        assert set(r["rows"]["bfs"]) == {"1", "2"}

    def test_fig10(self):
        r = figures.fig10_supply_consume_ablation("smoke", benchmarks=BMS)
        _check_shape(r)
        assert set(r["summary"]) >= set(figures._FIG10_SCHEMES)

    def test_fig11(self):
        r = figures.fig11_scheme_comparison("smoke", benchmarks=BMS)
        _check_shape(r)
        assert r["summary"]["xy-baseline"] == pytest.approx(1.0)

    def test_fig12(self):
        r = figures.fig12_mc_stall_time("smoke", benchmarks=BMS)
        _check_shape(r)
        assert "ada_ari_stall_reduction" in r["summary"]

    def test_fig13(self):
        r = figures.fig13_latency_decomposition("smoke", benchmarks=BMS)
        _check_shape(r)
        assert "ada-ari.req" in r["rows"]["bfs"]

    def test_fig14(self):
        r = figures.fig14_energy("smoke", benchmarks=BMS)
        _check_shape(r)
        assert r["rows"]["bfs"]["baseline"] == 1.0

    # Every cell must pass the static checks without a warning; the
    # 2VC-ARI cells need as many VCs as split queues.
    @pytest.mark.filterwarnings(
        "error::repro.staticcheck.StaticCheckWarning"
    )
    def test_fig15(self):
        r = figures.fig15_vc_sensitivity("smoke", benchmarks=BMS)
        _check_shape(r)
        assert r["rows"]["bfs"]["2VC-base"] == pytest.approx(1.0)

    def test_fig16(self):
        r = figures.fig16_da2mesh("smoke", benchmarks=BMS)
        _check_shape(r)
        assert r["rows"]["bfs"]["da2mesh"] == pytest.approx(1.0)

    def test_sec61(self):
        r = figures.sec61_area()
        _check_shape(r)

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            figures.fig3_request_vs_reply_latency("galactic")

    def test_figures_share_sweeps_via_cache(self):
        """Figs. 11 and 12 consume the same scheme x benchmark grid; after
        running fig11 the fig12 driver must not simulate anything new."""
        from repro.experiments.store import default_store

        figures.fig11_scheme_comparison("smoke", benchmarks=BMS)
        entries = len(default_store())
        figures.fig12_mc_stall_time("smoke", benchmarks=BMS)
        assert len(default_store()) == entries

    def test_all_figures_registry(self):
        assert len(figures.ALL_FIGURES) == 20
        for name, fn in figures.ALL_FIGURES.items():
            assert callable(fn)

    def test_ext_placement(self):
        r = figures.ext_mc_placement("smoke", benchmarks=BMS)
        _check_shape(r)
        assert set(r["rows"]) == {"diamond", "edge", "column"}

    def test_ext_request_ari(self):
        r = figures.ext_request_side_ari("smoke", benchmarks=BMS)
        _check_shape(r)
        assert set(r["summary"]) == {"ada-ari", "ada-ari-both"}

    def test_ext_hop_latency(self):
        r = figures.ext_hop_latency("smoke", benchmarks=BMS, latencies=(1, 2))
        _check_shape(r)
        assert set(r["rows"]) == {"1cyc/hop", "2cyc/hop"}

    def test_ext_scheduler(self):
        r = figures.ext_warp_scheduler("smoke", benchmarks=BMS)
        _check_shape(r)
        assert set(r["rows"]) == {"gto", "lrr"}

    def test_ext_intensity(self):
        r = figures.ext_intensity_sweep("smoke", multipliers=(0.5, 1.0))
        _check_shape(r)
        assert set(r["rows"]) == {"x0.5", "x1.0"}
        for row in r["rows"].values():
            assert row["gain"] > 0
