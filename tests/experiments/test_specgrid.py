"""Shared --axis grammar (repro sweep / repro faults) and its consumers."""

import pytest

from repro.experiments.specgrid import (
    SPEC_FIELDS,
    SpecGridError,
    coerce_value,
    expand_token,
    parse_axes,
    parse_axis,
    parse_ints,
)
from repro.faults.campaign import CampaignConfig, CampaignRunner


class TestCoercion:
    def test_scalar_coercions(self):
        assert coerce_value("none") is None
        assert coerce_value("True") is True
        assert coerce_value("false") is False
        assert coerce_value("4") == 4
        assert coerce_value("0.25") == 0.25
        assert coerce_value("ada-ari") == "ada-ari"


class TestParseAxis:
    def test_parses_name_and_values(self):
        assert parse_axis("num_vcs=2,4") == ("num_vcs", [2, 4])
        assert parse_axis("scheme=xy-baseline,ada-ari") == (
            "scheme", ["xy-baseline", "ada-ari"]
        )

    def test_unknown_field_rejected_up_front(self):
        with pytest.raises(SpecGridError, match="unknown RunSpec field"):
            parse_axis("clock_speed=1,2")

    def test_malformed_text_rejected(self):
        for text in ("num_vcs", "=2,4", "num_vcs=", "num_vcs=,,"):
            with pytest.raises(SpecGridError):
                parse_axis(text)

    def test_kernel_is_a_valid_axis(self):
        # The kernel= field is part of the spec schema, so it can be swept
        # (both names run the same loop, so such a sweep repeats itself).
        assert "kernel" in SPEC_FIELDS
        assert parse_axis("kernel=reference,activity") == (
            "kernel", ["reference", "activity"]
        )


class TestParseAxes:
    def test_later_repeats_win(self):
        axes = parse_axes(["seed=1,2", "num_vcs=4", "seed=9"])
        assert axes == {"seed": [9], "num_vcs": [4]}

    def test_empty_sequence_is_empty_dict(self):
        assert parse_axes([]) == {}


class TestRangeShorthand:
    def test_expand_token_scalar_passthrough(self):
        assert expand_token("4") == [4]
        assert expand_token("ada-ari") == ["ada-ari"]

    def test_ascending_range_is_inclusive(self):
        assert expand_token("1..4") == [1, 2, 3, 4]

    def test_descending_range_defaults_to_step_minus_one(self):
        assert expand_token("4..1") == [4, 3, 2, 1]
        assert expand_token("4..1:-1") == [4, 3, 2, 1]

    def test_explicit_step(self):
        assert expand_token("16..64:16") == [16, 32, 48, 64]

    def test_step_overshoot_stops_inside_bound(self):
        assert expand_token("1..10:4") == [1, 5, 9]

    def test_parse_axis_mixes_ranges_and_scalars(self):
        assert parse_axis("injection_speedup=1..3,6") == (
            "injection_speedup", [1, 2, 3, 6]
        )
        assert parse_axis("starvation_threshold=16,64..66") == (
            "starvation_threshold", [16, 64, 65, 66]
        )

    def test_negative_bounds(self):
        assert expand_token("-2..1") == [-2, -1, 0, 1]

    def test_non_integer_bounds_rejected(self):
        for text in ("1.5..3", "a..b", "1..2:x"):
            with pytest.raises(SpecGridError, match="integers"):
                expand_token(text)

    def test_unreachable_ranges_rejected(self):
        for text in ("1..4:-1", "4..1:2", "1..4:0"):
            with pytest.raises(SpecGridError, match="never reaches"):
                expand_token(text)


class TestParseInts:
    def test_parses_comma_list(self):
        assert parse_ints("0,1,2") == (0, 1, 2)
        assert parse_ints("5") == (5,)

    def test_rejects_non_ints(self):
        with pytest.raises(SpecGridError, match="integers"):
            parse_ints("1,two")


class TestCampaignAxes:
    def test_axes_expand_cartesian_and_override(self):
        cfg = CampaignConfig(
            schemes=("xy-baseline",),
            dead_links=(0,),
            seeds=(3,),
            axes=(("num_vcs", (2, 4)), ("seed", (11,))),
        )
        cells = CampaignRunner(cfg).specs()
        assert len(cells) == 2
        specs = [spec for (_, _, _, spec) in cells]
        assert sorted(s.num_vcs for s in specs) == [2, 4]
        # Axis values win over the campaign's own seed list.
        assert all(s.seed == 11 for s in specs)


class TestCLIParser:
    def _parser(self):
        from repro.cli import build_parser

        return build_parser()

    def test_faults_axis_flag_repeats(self):
        p = self._parser()
        args = p.parse_args(
            ["faults", "--axis", "num_vcs=2,4", "--axis", "seed=1"]
        )
        assert args.axis == ["num_vcs=2,4", "seed=1"]
