import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from matpop import cli, dynamics, spectral, validate_model
from matpop import model as model_layer
from matpop.cli import main
from helpers import PLANT_R, plant_stable_of_s

FIXTURES = Path(__file__).parent / "fixtures"
PLANT = str(FIXTURES / "plant.json")


def write_model(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def reference_csv(trajectory: np.ndarray) -> str:
    """The simulate CSV of a trajectory, formatted one value at a time."""
    n = trajectory.shape[1]
    lines = ["step,total," + ",".join(f"class_{i + 1}" for i in range(n)) + "\n"]
    for k, row in enumerate(trajectory):
        values = [row.sum(), *row.tolist()]
        lines.append(f"{k}," + ",".join(format(float(v), ".9g") for v in values) + "\n")
    return "".join(lines)


def chunk_rows(n: int) -> int:
    return max(1, cli.CSV_CHUNK_VALUES // (n + 2))


# Zero, the smallest subnormal, the smallest normal, and entries near the
# overflow limit, whose row totals may round to infinity.
EDGE_VALUES = [0.0, 5e-324, 2.2250738585072014e-308, 1e299, 9.99e299]


@st.composite
def trajectories(draw):
    n = draw(st.sampled_from([1, 2, 5, 30, 200]))
    chunk = chunk_rows(n)
    rows = draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
    values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1e300))
    return draw(hnp.arrays(np.float64, (rows, n), elements=values, fill=values))


def jordan_file(tmp_path) -> str:
    return write_model(
        tmp_path,
        "jordan.json",
        {
            "transition": [[0.0, 0.0], [1.0, 0.0]],
            "fertility": [[1.0, 0.0], [0.0, 1.0]],
        },
    )


class TestAnalyzeCommand:
    def test_plant_report_values(self, capsys):
        assert main(["analyze", PLANT]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r"] == pytest.approx(0.7071068, abs=1e-6)
        assert report["R0"] == 0.375
        assert report["trichotomy"] == "Declining"
        assert report["strict"] is True
        assert report["irreducible"] is True
        assert report["primitive"] is False
        assert report["imprimitivity_index"] == 2
        assert report["q_pattern"]["zero_rows"] == [2, 4, 5]
        assert report["q_pattern"]["q11_indices"] == [1, 3]
        assert report["q_pattern"]["q_irreducible"] is False
        assert report["warnings"] == []

    def test_golden_file_is_byte_exact(self, capsys):
        assert main(["analyze", PLANT]) == 0
        expected = (FIXTURES / "plant_report.json").read_text()
        assert capsys.readouterr().out == expected

    def test_leslie_form(self, tmp_path, capsys):
        path = write_model(
            tmp_path, "leslie.json", {"leslie": {"survival": [0.5], "fertility": [1, 1]}}
        )
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r"] == pytest.approx(1.3660254, abs=1e-6)
        assert report["R0"] == 1.5
        assert report["trichotomy"] == "Growing"

    def test_zero_fertility_exits_2(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            "zero.json",
            {"transition": [[0.0, 0.0], [0.5, 0.0]], "fertility": [[0.0, 0.0], [0.0, 0.0]]},
        )
        assert main(["analyze", path]) == 2
        assert "fertility matrix is zero" in capsys.readouterr().err

    def test_immortal_transition_exits_2(self, tmp_path, capsys):
        path = write_model(
            tmp_path, "immortal.json", {"transition": [[1.0]], "fertility": [[1.0]]}
        )
        assert main(["analyze", path]) == 2
        assert "rho(T) >= 1" in capsys.readouterr().err

    def test_invalid_json_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"transition": [[0.5]],\n  "fertility": oops}')
        assert main(["analyze", str(path)]) == 2
        message = capsys.readouterr().err
        assert "line 2" in message

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "no-such-file.json"]) == 2

    def test_both_forms_rejected(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            "both.json",
            {
                "transition": [[0.0]],
                "fertility": [[1.0]],
                "leslie": {"survival": [], "fertility": [1.0]},
            },
        )
        assert main(["analyze", str(path)]) == 2

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            "extra.json",
            {"transition": [[0.0]], "fertility": [[1.0]], "fecundity": [[1.0]]},
        )
        assert main(["analyze", str(path)]) == 2
        assert "fecundity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "leslie",
        [
            {"survival": 5, "fertility": [1, 1]},
            {"survival": ["x"], "fertility": [1, 1]},
            {"survival": [0.5], "fertility": [1, None]},
            {"survival": [0.5], "fertility": "11"},
        ],
        ids=["scalar-survival", "string-entry", "null-entry", "string-fertility"],
    )
    def test_malformed_leslie_block_exits_2(self, leslie, tmp_path, capsys):
        path = write_model(tmp_path, "leslie.json", {"leslie": leslie})
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_ragged_matrix_rejected(self, tmp_path, capsys):
        path = write_model(
            tmp_path, "ragged.json", {"transition": [[0.0, 0.0], [0.0]], "fertility": [[1.0]]}
        )
        assert main(["analyze", str(path)]) == 2

    def test_column_sum_warning_surfaces(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            "warned.json",
            {"transition": [[0.0, 0.0], [1.5, 0.0]], "fertility": [[1.0, 1.0], [0.0, 0.0]]},
        )
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["warnings"]) == 1
        assert "column 1" in report["warnings"][0]

    def test_tiny_net_reproductive_rate_exits_0(self, tmp_path, capsys):
        path = write_model(tmp_path, "tiny.json", {"transition": [[0.5]], "fertility": [[1e-10]]})
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["R0"] == pytest.approx(2e-10, rel=1e-9)
        assert report["trichotomy"] == "Declining"

    def test_report_round_trips(self, capsys):
        assert main(["analyze", PLANT]) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert json.loads(json.dumps(report)) == report

    def test_random_reports_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(149)
        from helpers import random_general_model, random_irreducible_model

        for index in range(20):
            maker = random_irreducible_model if index % 2 else random_general_model
            model = maker(rng, n_max=6)
            path = write_model(
                tmp_path,
                f"random{index}.json",
                {
                    "transition": model.transition.tolist(),
                    "fertility": model.fertility.tolist(),
                },
            )
            assert main(["analyze", path]) == 0
            report = json.loads(capsys.readouterr().out)
            assert json.loads(json.dumps(report)) == report


class TestScaleCommand:
    def test_stationary_plant(self, capsys):
        assert main(["scale", PLANT, "--stationary"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == 0.375
        assert payload["achieved_growth"] == pytest.approx(1.0, abs=1e-8)
        assert payload["R0_s"] == 1.0
        scaled = np.array(payload["scaled_fertility"])
        assert scaled[0, 4] == pytest.approx(0.5 * 8 / 3, abs=1e-8)
        assert scaled[2, 3] == pytest.approx(0.5 * 8 / 3, abs=1e-8)

    def test_target_growth_two(self, capsys):
        assert main(["scale", PLANT, "--target-growth", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == pytest.approx(9 / 128, abs=1e-9)
        assert payload["R0_s"] == pytest.approx(16 / 3, abs=1e-6)
        assert payload["achieved_growth"] == pytest.approx(2.0, abs=1e-8)
        stable = np.array(payload["stable_population"])
        expected = plant_stable_of_s(2.0)
        expected = expected / expected.sum()
        np.testing.assert_allclose(stable, expected, atol=1e-8)

    def test_large_target_growth_exits_0(self, tmp_path, capsys):
        path = write_model(
            tmp_path, "leslie.json", {"leslie": {"survival": [0.5], "fertility": [0.5, 1.0]}}
        )
        assert main(["scale", path, "--target-growth", "1e8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["achieved_growth"] == pytest.approx(1e8, rel=1e-12)

    def test_target_zero_exits_2(self, capsys):
        assert main(["scale", PLANT, "--target-growth", "0"]) == 2
        assert "must exceed rho(T)" in capsys.readouterr().err

    def test_r0_zero_stationary_exits_2(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            "deadend.json",
            {"transition": [[0.0, 1.0], [0.0, 0.0]], "fertility": [[0.0, 1.0], [0.0, 0.0]]},
        )
        assert main(["scale", path, "--stationary"]) == 2

    def test_tiny_r0_stationary_exits_0(self, tmp_path, capsys):
        path = write_model(tmp_path, "tiny.json", {"transition": [[0.5]], "fertility": [[1e-10]]})
        assert main(["scale", path, "--stationary"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == pytest.approx(2e-10, rel=1e-9)
        assert payload["achieved_growth"] == pytest.approx(1.0, rel=1e-12)

    def test_reducible_stationary_has_no_stable_population(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            "reducible.json",
            {"transition": [[0.5, 0.0], [0.3, 0.4]], "fertility": [[1.0, 0.0], [0.0, 0.0]]},
        )
        assert main(["scale", path, "--stationary"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == 2.0
        assert payload["stable_population"] is None

    def test_reducible_target_exits_2(self, tmp_path, capsys):
        assert main(["scale", jordan_file(tmp_path), "--target-growth", "2"]) == 2

    def test_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scale", PLANT])
        assert info.value.code == 2


class TestSimulateCommand:
    def test_jordan_block_rows(self, tmp_path, capsys):
        assert main(["simulate", jordan_file(tmp_path), "--x0", "1,0", "--steps", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "step,total,class_1,class_2"
        rows = [line.split(",") for line in lines[1:]]
        for k, row in enumerate(rows):
            assert row == [str(k), f"{1 + k:.9g}", "1", f"{k:.9g}"]

    def test_plant_normalized_oscillation_summary(self, capsys):
        assert main(
            ["simulate", PLANT, "--x0", "1,0,2,0,0", "--steps", "200", "--normalize"]
        ) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.err)
        assert summary["d"] == 2
        assert len(summary["limits"]) == 2
        w0, w1 = (np.array(w) for w in summary["limits"])
        assert np.max(np.abs(w0 - w1)) > 1e-3
        assert "limit" not in summary

    def test_plant_eigenvector_rows_constant(self, capsys):
        x0 = ",".join(str(v) for v in [math.sqrt(2), 1, 3, 2 * math.sqrt(2), 2])
        assert main(["simulate", PLANT, "--x0", x0, "--steps", "50", "--normalize"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        first_row = lines[1].split(",")[2:]
        last_row = lines[-1].split(",")[2:]
        np.testing.assert_allclose(
            [float(v) for v in last_row], [float(v) for v in first_row], atol=1e-6
        )

    def test_x0_from_file_and_outputs_to_files(self, tmp_path, capsys):
        x0_path = tmp_path / "x0.txt"
        x0_path.write_text("1\n0\n2\n0\n0\n")
        out_path = tmp_path / "run.csv"
        summary_path = tmp_path / "summary.json"
        assert (
            main(
                [
                    "simulate",
                    PLANT,
                    "--x0",
                    str(x0_path),
                    "--steps",
                    "10",
                    "--out",
                    str(out_path),
                    "--summary",
                    str(summary_path),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 12
        summary = json.loads(summary_path.read_text())
        assert summary["r"] == pytest.approx(PLANT_R, abs=1e-6)

    def test_long_inline_x0_is_not_a_path(self, tmp_path, capsys):
        # 200 comma-separated entries are too long to be a file name.
        n = 200
        leslie = {"survival": [0.5] * (n - 1), "fertility": [1.0] * n}
        path = write_model(tmp_path, "leslie200.json", {"leslie": leslie})
        out_path = tmp_path / "run.csv"
        x0 = ",".join(["1"] * n)
        argv = ["simulate", path, "--x0", x0, "--steps", "200", "--out", str(out_path)]
        assert main(argv) == 0
        assert len(out_path.read_text().strip().splitlines()) == 1 + 201

    @pytest.mark.parametrize(
        "model, x0, stem",
        [("plant.json", "1,0,2,0,0", "plant_simulate"), ("leslie3.json", "1,0,2", "leslie3_simulate")],
    )
    @pytest.mark.parametrize("normalize", [False, True])
    def test_csv_and_summary_are_byte_exact(self, model, x0, stem, normalize, tmp_path, capsys):
        # The periodic-limits branch (plant, d = 2) and the eventual-limit
        # branch (primitive Leslie model), with and without --normalize.
        csv = (FIXTURES / f"{stem}{'_normalized' if normalize else ''}.csv").read_text()
        summary = (FIXTURES / f"{stem}_summary.json").read_text()
        argv = ["simulate", str(FIXTURES / model), "--x0", x0, "--steps", "40"]
        argv += ["--normalize"] if normalize else []
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == csv
        assert captured.err == summary
        out_path, summary_path = tmp_path / "run.csv", tmp_path / "summary.json"
        assert main([*argv, "--out", str(out_path), "--summary", str(summary_path)]) == 0
        assert out_path.read_text() == csv
        assert summary_path.read_text() == summary

    @given(trajectory=trajectories())
    @settings(max_examples=60, deadline=None)
    def test_csv_chunks_match_per_value_formatting(self, trajectory):
        pieces = list(cli._csv_lines(trajectory))
        assert "".join(pieces) == reference_csv(trajectory)
        assert all(piece.count("\n") <= chunk_rows(trajectory.shape[1]) for piece in pieces)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("n", [1, 5, 30, 200])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_csv_across_chunk_boundaries(self, n, normalize, offset, tmp_path, capsys):
        # A cycle through the n classes carries x0 round unchanged, so rows
        # keep their zero, subnormal and near-overflow entries at any step.
        t = np.eye(n, k=-1)
        f = np.zeros((n, n))
        f[0, -1] = 1.0
        path = write_model(tmp_path, "cycle.json", {"transition": t.tolist(), "fertility": f.tolist()})
        pattern = [1e299, 1.5, *EDGE_VALUES]
        x0 = [pattern[i % len(pattern)] for i in range(n)]
        steps = chunk_rows(n) + offset
        argv = ["simulate", path, "--x0", ",".join(map(repr, x0)), "--steps", str(steps)]
        argv += ["--normalize"] if normalize else []
        expected = reference_csv(dynamics.iterate(validate_model(t, f), x0, steps, normalize=normalize))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        out_path = tmp_path / "run.csv"
        assert main([*argv, "--out", str(out_path), "--summary", str(tmp_path / "s.json")]) == 0
        assert out_path.read_text() == expected

    def test_overflowing_run_prints_no_row(self, tmp_path, capsys):
        path = write_model(tmp_path, "explode.json", {"transition": [[0.0]], "fertility": [[1e200]]})
        assert main(["simulate", path, "--x0", "1", "--steps", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "population overflow" in captured.err
        out_path = tmp_path / "run.csv"
        assert main(["simulate", path, "--x0", "1", "--steps", "5", "--out", str(out_path)]) == 3
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_unwritable_output_exits_2(self, flag, tmp_path, capsys):
        target = str(tmp_path / "missing" / "file")
        argv = ["simulate", PLANT, "--x0", "1,0,2,0,0", "--steps", "3", flag, target]
        assert main(argv) == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err

    def test_reader_closing_stdout_early_is_not_an_error(self):
        # Far more CSV than a pipe buffers, read by a consumer that stops
        # after the header, as `matpop simulate ... | head -1` does.
        # The child imports the same matpop as this process.
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = ["simulate", PLANT, "--x0", "1,0,2,0,0", "--steps", "20000"]
        child = subprocess.Popen(
            [sys.executable, "-m", "matpop.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        assert child.stdout.readline() == "step,total,class_1,class_2,class_3,class_4,class_5\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
        assert "Traceback" not in err
        assert json.loads(err)["d"] == 2

    def test_dimension_mismatch_exits_2(self, capsys):
        assert main(["simulate", PLANT, "--x0", "1,2", "--steps", "3"]) == 2

    def test_normalize_with_zero_growth_exits_2(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            "nilpotent.json",
            {"transition": [[0.0, 1.0], [0.0, 0.0]], "fertility": [[0.0, 1.0], [0.0, 0.0]]},
        )
        assert (
            main(["simulate", path, "--x0", "1,1", "--steps", "3", "--normalize"]) == 2
        )

    def test_normalize_with_subnormal_growth_exits_2(self, tmp_path, capsys):
        # r = 1e-310: P / r overflows.
        path = write_model(
            tmp_path,
            "subnormal.json",
            {"transition": [[0.0, 0.0], [0.5, 0.0]], "fertility": [[1e-310, 0.0], [0.0, 0.0]]},
        )
        argv = ["simulate", path, "--x0", "1,1", "--steps", "3", "--normalize"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_slowly_mixing_model_summary_has_a_limit(self, tmp_path, capsys):
        # Fertile ages 199 and 200: primitive, but too slowly mixing to iterate to a limit.
        fertility = [0.0] * 198 + [5.0, 5.0]
        path = write_model(
            tmp_path, "leslie200.json", {"leslie": {"survival": [0.9] * 199, "fertility": fertility}}
        )
        summary_path = tmp_path / "summary.json"
        x0 = ",".join(["1"] * 200)
        out = ["--out", str(tmp_path / "run.csv"), "--summary", str(summary_path)]
        assert main(["simulate", path, "--x0", x0, "--steps", "5", *out]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["fate"] == "Extinct"
        assert len(summary["limit"]) == 200
        assert "error" not in summary

    def test_reducible_summary_notes_missing_limits(self, tmp_path, capsys):
        assert (
            main(["simulate", jordan_file(tmp_path), "--x0", "1,1", "--steps", "5"]) == 0
        )
        summary = json.loads(capsys.readouterr().err)
        assert "note" in summary
        assert "limits" not in summary


class TestToleranceFlags:
    def test_tolerances_echoed_in_report(self, capsys):
        assert main(["--tol-class", "1e-6", "analyze", PLANT]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tool"]["tol_class"] == 1e-6

    def test_unreachable_tolerance_exits_3(self, capsys):
        # Double precision cannot certify a 1e-30 bracket, so the power
        # iteration exhausts its budget: the internal-failure exit path.
        assert main(["--tol-spec", "1e-30", "analyze", PLANT]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol-spec", "-1"), ("--tol-spec", "nan"), ("--tol-spec", "0"), ("--tol-spec", "inf"),
         ("--tol-class", "5"), ("--tol-class", "1"), ("--tol-class", "x")],
    )
    def test_invalid_tolerance_exits_2_at_parse_time(self, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            main([flag, value, "analyze", PLANT])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_loose_classification_tolerance_changes_class(self, tmp_path, capsys):
        # r almost exactly 1: classified Growing normally, Stationary when
        # the band is widened past the gap.
        path = write_model(
            tmp_path,
            "near.json",
            {"leslie": {"survival": [0.5], "fertility": [0.5, 1.0000001]}},
        )
        assert main(["analyze", path]) == 0
        strict_report = json.loads(capsys.readouterr().out)
        assert strict_report["trichotomy"] == "Growing"
        assert main(["--tol-class", "1e-3", "analyze", path]) == 0
        loose_report = json.loads(capsys.readouterr().out)
        assert loose_report["trichotomy"] == "Stationary"

    def test_spectral_tolerance_reaches_leslie_files(self, tmp_path, capsys):
        # A bracket this tight is unreachable for this model's growth rate,
        # so the run must fail: the flag reached the Leslie-form model.
        path = write_model(
            tmp_path,
            "leslie.json",
            {"leslie": {"survival": [0.5, 0.5], "fertility": [0.3, 1.0, 1.0]}},
        )
        assert main(["analyze", path]) == 0
        assert main(["--tol-spec", "1e-30", "analyze", path]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_spectral_tolerance_reaches_every_perron_pair(self, tmp_path, monkeypatch, capsys):
        seen = []

        def spy(m, report, tol, *kept):
            seen.append(tol)
            return spectral._pair(m, report, tol, *kept)

        monkeypatch.setattr(model_layer, "_pair", spy)
        path = write_model(
            tmp_path, "leslie.json", {"leslie": {"survival": [0.5], "fertility": [1, 1]}}
        )
        flags = ["--tol-spec", "1e-11"]
        assert main([*flags, "scale", path, "--stationary"]) == 0
        summary = str(tmp_path / "summary.json")
        simulate = ["simulate", path, "--x0", "1,1", "--steps", "2", "--normalize"]
        assert main([*flags, *simulate, "--summary", summary]) == 0
        assert seen == [1e-11, 1e-11]


class TestCallBudget:
    """Each model quantity is computed once per command, so kernel calls stay bounded."""

    @pytest.mark.parametrize(
        "argv, tarjan, perron",
        [
            (["analyze", PLANT], 4, 3),
            (["scale", PLANT, "--stationary"], 3, 4),
            (["scale", PLANT, "--target-growth", "2"], 4, 5),
            (["simulate", PLANT, "--x0", "1,0,2,0,0", "--steps", "40"], 2, 1),
            (["simulate", str(FIXTURES / "leslie3.json"), "--x0", "1,0,2", "--steps", "40"], 2, 3),
        ],
    )
    def test_plant_commands(self, argv, tarjan, perron, kernel_calls, capsys):
        assert main(argv) == 0
        assert len(kernel_calls["_analyze_pattern"]) <= tarjan
        assert len(kernel_calls["_power_root"]) <= perron

    @pytest.mark.parametrize(
        "argv, computed",
        [
            (["scale", PLANT, "--stationary"], 232),
            (["simulate", str(FIXTURES / "leslie3.json"), "--x0", "1,0,2", "--steps", "40"], 76),
        ],
    )
    def test_computed_iterations(self, argv, computed, computed_iterations, capsys):
        # A fresh tol / 4 right side and doubling chunks computed 347 and 93.
        assert main(argv) == 0
        assert computed_iterations[0] <= computed

    def test_long_period_analyze_makes_no_cold_pass(self, tmp_path, power_passes, capsys):
        # Fertile at ages 6, 12, ..., 36, the model's P has index 6.
        fertility = [5.0 if age % 6 == 0 else 0.0 for age in range(1, 37)]
        path = write_model(tmp_path, "d6.json", {"leslie": {"survival": [0.9] * 35, "fertility": fertility}})
        assert main(["analyze", path]) == 0
        assert json.loads(capsys.readouterr().out)["imprimitivity_index"] == 6
        assert power_passes and all(start is not None for start, _ in power_passes)
