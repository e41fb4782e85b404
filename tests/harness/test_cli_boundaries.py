"""CLI input boundaries: bad values are one-line usage errors with exit 2."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main

TIME_ARGV = ["time", "MobileNet-v2", "Raspberry Pi 3B", "TFLite"]
FLEET_ARGV = ["fleet", "--epochs", "8"]
#: a fleet run small enough to finish in well under a second.
FLEET_RUN = [*FLEET_ARGV, "--requests", "50"]
RECOMMEND_ARGV = ["recommend", "ResNet-18"]


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

    @pytest.mark.parametrize("flags", [
        ["--arrivals", "bursty", "--burst-size", "0"],
        ["--burst-size", "-3"],
        ["--admit-limit", "0"], ["--admit-limit", "-1"],
        ["--arrivals", "diurnal", "--period", "0"], ["--period", "nan"],
        ["--replicas", "0"], ["--replicas", "-1"],
        ["--epochs", "0"], ["--epochs", "-4"], ["--epochs", "2.5"],
    ], ids=" ".join)
    def test_zero_never_means_default_or_off(self, flags, capsys):
        _assert_usage_error([*FLEET_RUN, *flags], capsys, flags[-2])

    @pytest.mark.parametrize("value", ["-1", "x", "1.5", "nan"])
    def test_seed_errors_name_the_flag(self, value, capsys):
        _assert_usage_error([*FLEET_RUN, "--seed", value], capsys, "--seed")

    def test_one_epoch_still_accepted(self, capsys):
        assert main([*FLEET_RUN, "--epochs", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["epochs"] == 1

    def test_seed_zero_still_accepted(self, capsys):
        assert main([*FLEET_RUN, "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0

    def test_positive_horizon_still_accepted(self, capsys):
        assert main([*FLEET_ARGV, "--horizon", "0.05"]) == 0
        assert json.loads(capsys.readouterr().out)["requests"] >= 0

    def test_admit_limit_one_admits_with_a_cap(self, capsys):
        assert main([*FLEET_RUN, "--admit-limit", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completed"] + report["rejected"] + report["dropped"] == 50

    def test_unresolvable_diurnal_period_is_a_one_line_error(self, capsys):
        assert main([*FLEET_RUN, "--arrivals", "diurnal",
                     "--period", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: period_s=5e-324 is too short")
        assert captured.err.count("\n") == 1


class TestJobsBoundaries:
    @pytest.mark.parametrize("argv", [
        ["suite", "table6", "--jobs", "0"], ["suite", "--jobs", "-2"],
        ["export", "out.json", "--jobs", "0"],
    ], ids=" ".join)
    def test_non_positive_jobs_are_usage_errors(self, argv, capsys):
        _assert_usage_error(argv, capsys, "--jobs")


class TestPlacementFileBoundaries:
    """``fleet --placement`` reads a user-supplied file: every malformed
    shape is one ``error:`` line and exit 2, never a traceback."""

    def _assert_placement_error(self, path, capsys, fragment):
        assert _exit_code([*FLEET_RUN, "--placement", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert fragment in captured.err
        assert captured.err.count("\n") == 1

    def test_missing_file(self, tmp_path, capsys):
        self._assert_placement_error(tmp_path / "missing.json", capsys,
                                     "No such file")

    def test_top_level_list(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self._assert_placement_error(path, capsys, "got a JSON list")

    def test_frontier_not_a_list(self, tmp_path, capsys):
        path = tmp_path / "abc.json"
        path.write_text(json.dumps({"frontier": "abc"}))
        self._assert_placement_error(path, capsys, "must be a list")

    def test_point_without_deployment(self, tmp_path, capsys):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"frontier": [{"latency_s": 1.0}]}))
        self._assert_placement_error(path, capsys, "no 'deployment'")

    def test_deployment_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "string.json"
        path.write_text(json.dumps({"frontier": [{"deployment": "abc"}]}))
        self._assert_placement_error(path, capsys, "malformed deployment")

    def test_deployment_without_link(self, tmp_path, capsys):
        path = tmp_path / "frontier.json"
        assert main(["place", "MobileNet-v2", "--device", "Raspberry Pi 3B",
                     "--link", "lan", "--format", "json",
                     "--output", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        del payload["frontier"][0]["deployment"]["link"]
        path.write_text(json.dumps(payload))
        self._assert_placement_error(path, capsys, "lacks 'link'")


class TestRecommendAndPlaceBoundaries:
    @pytest.mark.parametrize("flags", [
        ["--deadline-ms", "nan"], ["--deadline-ms", "0"],
        ["--power-w", "-1"], ["--energy-mj", "inf"],
        ["--top", "0"], ["--top", "-2"], ["--top", "1.5"],
    ], ids=" ".join)
    def test_bad_values_are_usage_errors(self, flags, capsys):
        _assert_usage_error([*RECOMMEND_ARGV, *flags], capsys, flags[0])

    def test_unknown_model_matches_recommend(self, capsys):
        assert main(["place", "NoModel"]) == 2
        place_err = capsys.readouterr().err
        assert main(["recommend", "NoModel"]) == 2
        assert place_err == capsys.readouterr().err
        assert place_err == "error: unknown model: 'NoModel'\n"


class TestOutputPaths:
    @pytest.mark.parametrize("argv", [
        ["export", "{out}", "table6"],
        ["suite", "table6", "--output", "{out}"],
        ["place", "MobileNet-v2", "--device", "Jetson Nano", "--output",
         "{out}"],
        [*FLEET_RUN, "--output", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_path_is_a_one_line_error(self, argv, tmp_path,
                                                 capsys):
        out = str(tmp_path / "missing" / "x.json")
        assert _exit_code([out if arg == "{out}" else arg
                           for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")


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

    @pytest.mark.parametrize("value", ["inf", "-inf", "-1", "nan", "x"])
    def test_tolerance_must_be_finite_and_non_negative(self, value, tmp_path,
                                                       capsys):
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text("{}")
        # "=" keeps argparse from reading "-inf" as an option.
        _assert_usage_error(["diff", str(snapshot), str(snapshot),
                             f"--tolerance={value}"], capsys, "--tolerance")

    def test_zero_tolerance_still_accepted(self, tmp_path, capsys):
        from repro.harness.suite import save_results

        snapshot = tmp_path / "snapshot.json"
        save_results(snapshot, ["table6"])
        assert main(["diff", str(snapshot), str(snapshot),
                     "--tolerance", "0"]) == 0
        assert "0 differing cells (tolerance 0.0%)" in capsys.readouterr().out


# Upper bounds keep the accepted values cheap to run (a short timing loop,
# a small fleet); everything at or below zero, and every malformed or
# non-finite value, must still be rejected cleanly.
FLAG_ARGV = {
    "--batch": (TIME_ARGV, 4096),
    "--runs": (TIME_ARGV, 64),
    "--requests": (FLEET_ARGV, 300),
    "--horizon": (FLEET_ARGV, 0.05),
    "--burst-size": ([*FLEET_RUN, "--arrivals", "bursty"], 64),
    "--admit-limit": (FLEET_RUN, 64),
    "--period": ([*FLEET_RUN, "--arrivals", "diurnal"], 10.0),
    "--replicas": (FLEET_RUN, 8),
    "--epochs": (FLEET_RUN, 64),
    "--jobs": (["suite", "table6"], 2),
    "--top": (RECOMMEND_ARGV, 50),
    "--deadline-ms": (RECOMMEND_ARGV, 1e4),
}
FLOAT_FLAGS = ("--horizon", "--period", "--deadline-ms")


@st.composite
def flag_values(draw):
    flag = draw(st.sampled_from(sorted(FLAG_ARGV)))
    prefix, top = FLAG_ARGV[flag]
    if flag in FLOAT_FLAGS:
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
