"""CLI input boundaries: bad values are one-line usage errors with exit 2."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main

TIME_ARGV = ["time", "MobileNet-v2", "Raspberry Pi 3B", "TFLite"]
FLEET_ARGV = ["fleet", "--epochs", "8"]


def _exit_code(argv: list[str]) -> int:
    """``main``'s exit status, whether it returns or raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


def _assert_usage_error(argv, capsys, flag):
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: argument {flag}: must be")
    assert captured.err.count("\n") == 1


class TestTimeBoundaries:
    @pytest.mark.parametrize("flags", [
        ["--batch", "0"], ["--batch", "-2"], ["--batch", "2.5"],
        ["--runs", "0"], ["--runs", "-3"], ["--runs", "many"],
    ], ids=" ".join)
    def test_non_positive_counts_are_usage_errors(self, flags, capsys):
        _assert_usage_error([*TIME_ARGV, *flags], capsys, flags[0])

    def test_positive_counts_still_accepted(self, capsys):
        assert main([*TIME_ARGV, "--batch", "2", "--runs", "5"]) == 0
        assert "median over 5 runs" in capsys.readouterr().out


class TestFleetBoundaries:
    @pytest.mark.parametrize("flags", [
        ["--requests", "-5"], ["--requests", "0"], ["--requests", "1e3"],
        ["--horizon", "0"], ["--horizon", "-1.5"], ["--horizon", "nan"],
        ["--horizon", "inf"],
    ], ids=" ".join)
    def test_non_positive_amounts_are_usage_errors(self, flags, capsys):
        _assert_usage_error([*FLEET_ARGV, *flags], capsys, flags[0])

    def test_positive_horizon_still_accepted(self, capsys):
        assert main([*FLEET_ARGV, "--horizon", "0.05"]) == 0
        assert json.loads(capsys.readouterr().out)["requests"] >= 0


class TestDiffBoundaries:
    def test_missing_snapshot_is_a_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["diff", str(missing), str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(missing) in captured.err
        assert captured.err.count("\n") == 1

    def test_malformed_snapshot_is_a_one_line_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["diff", str(broken), str(broken)]) == 2
        assert capsys.readouterr().err.count("\n") == 1


# Upper bounds keep the accepted values cheap to run (a short timing loop,
# a small fleet); everything at or below zero, and every malformed or
# non-finite value, must still be rejected cleanly.
FLAG_ARGV = {
    "--batch": (TIME_ARGV, 4096),
    "--runs": (TIME_ARGV, 64),
    "--requests": (FLEET_ARGV, 300),
    "--horizon": (FLEET_ARGV, 0.05),
}


@st.composite
def flag_values(draw):
    flag = draw(st.sampled_from(sorted(FLAG_ARGV)))
    prefix, top = FLAG_ARGV[flag]
    if flag == "--horizon":
        floats = st.floats(max_value=top)
    else:
        floats = st.floats(allow_nan=True, allow_infinity=True)
    value = draw(st.one_of(st.integers(max_value=int(top)), floats,
                           st.sampled_from(["nan", "inf", "-inf", "", "x"])))
    return [*prefix, flag, str(value)]


class TestBoundaryProperty:
    @given(argv=flag_values())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_numbers_never_produce_a_traceback(self, argv, capsys):
        assert _exit_code(argv) in (0, 1, 2)
        capsys.readouterr()
