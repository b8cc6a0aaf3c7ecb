import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from matpop import (
    ConvergenceError, MortalityError, analyze, cli, dynamics, resolvent_inverse, spectral, target_growth_scale,
    validate_model,
)
from matpop import model as model_layer
from matpop.cli import load_model_file, main
from helpers import PLANT_R, plant_stable_of_s

FIXTURES = Path(__file__).parent / "fixtures"
PLANT = str(FIXTURES / "plant.json")
# Fertile at ages 6, 12, ..., 36, the model's P has index 6.
INDEX_6_LESLIE = {
    "leslie": {"survival": [0.9] * 35, "fertility": [5.0 if age % 6 == 0 else 0.0 for age in range(1, 37)]}
}
# At s = 1000 the scaled model's Perron vector falls by about 1e-11 a class, below the smallest float.
UNDERFLOWING_LESLIE = {"leslie": {"survival": [1e-8] * 39, "fertility": [1.0] + [0.0] * 38 + [1.0]}}


def write_model(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def reference_csv(trajectory: np.ndarray) -> str:
    """The simulate CSV of a trajectory, formatted one value at a time."""
    n = trajectory.shape[1]
    lines = ["step,total," + ",".join(f"class_{i + 1}" for i in range(n)) + "\n"]
    for k, row in enumerate(trajectory):
        with np.errstate(over="ignore"):  # a total beyond the float range prints as inf
            values = [row.sum(), *row.tolist()]
        lines.append(f"{k}," + ",".join(format(float(v), ".9g") for v in values) + "\n")
    return "".join(lines)


def chunk_rows(n: int) -> int:
    return max(1, cli.CSV_CHUNK_VALUES // (n + 2))


# Zero, the smallest subnormal, the smallest normal, and entries near the
# overflow limit, whose row totals may round to infinity.
EDGE_VALUES = [0.0, 5e-324, 2.2250738585072014e-308, 1e299, 9.99e299]


# 9-digit ties (m + 1/2) 10^k from 1e-17 to 1e34 and powers of ten from 1e-20 to
# 1e35, each with its two neighbours: both routes of cli._nine_digit_codes and the
# edges of its proven range; then -0.0 and +0.0, subnormals, and an entry whose row
# totals overflow to inf.
CODE_VALUES = [
    float(w)
    for v in [(m + 0.5) * 10.0**k for m in (100000000, 123456789, 999999999) for k in range(-25, 26)]
    + [10.0**k for k in range(-20, 36)]
    for w in (np.nextafter(v, 0.0), v, np.nextafter(v, np.inf))
] + [-0.0, 0.0, 5e-324, 1e-310, 1.7e308]


@st.composite
def trajectories(draw):
    n = draw(st.sampled_from([1, 2, 5, 30, 200]))
    chunk = chunk_rows(n)
    rows = draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
    values = st.one_of(st.sampled_from(EDGE_VALUES + CODE_VALUES), st.floats(0.0, 1e300))
    if draw(st.booleans()):
        return draw(hnp.arrays(np.float64, (rows, n), elements=values, fill=values))
    # Rows drawn from a small pool, some moved by a rounding error, repeat within
    # and across chunks.
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), n), elements=values))
    picks = st.integers(0, len(pool) - 1)
    nudges = st.sampled_from([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53])
    return (pool[draw(hnp.arrays(np.intp, rows, elements=picks, fill=picks))]
            * draw(hnp.arrays(np.float64, (rows, 1), elements=nudges, fill=nudges)))


def load_cli_sweep():
    tool = Path(__file__).parents[1] / "tools" / "cli_sweep.py"
    spec = importlib.util.spec_from_file_location("cli_sweep", tool)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


# Weights across the float range: zero, subnormals, and entries next to the largest float.
WIDE_VALUES = load_cli_sweep().WIDE_VALUES
# Its root passes the largest float: _eig_seed's exp of the root's logarithm raised OverflowError, a traceback.
BEYOND_FLOAT_ROOT = {
    "transition": [[1.7e308, 1.7e308, 5e-324], [1.7e308, 1e-10, 1.0], [0.9, 1e-10, 1.0]],
    "fertility": [[0.0, 0.0, 0.0], [0.9, 1e10, 0.3], [0.3, 0.9, 1e300]],
}
# Its R0 pass on the unlifted Q11 does not converge: "did not converge in 1036 of 200000 iterations".
# Its lift is 2, and the pass on the lifted Q11 certifies.
STALLED_R0 = {
    "transition": [
        [0.0, 0.03333333333333333, 0.09999999999999999],
        [0.03333333333333333, 0.03333333333333333, 0.03333333333333333],
        [0.0, 0.09999999999999999, 0.16666666666666666],
    ],
    "fertility": [[5e-324, 0.3, 3e-315], [3e-315, 0.0, 0.3], [3e-315, 3e-315, 5e-324]],
}
# F is normal, but Q11 = [[1e-320]] is not: an R0 of a few bits gave F / R0 a growth rate of 1.0000056 (exit 3).
SUBNORMAL_Q11 = {"transition": [[0.0, 0.0], [1e-20, 0.0]], "fertility": [[0.0, 1e-300], [0.0, 0.0]]}
# P is irreducible only through T's subnormal entry; rho(T) = 0.3 does not certify in 200,000 iterations.
SUBNORMAL_JORDAN = {"transition": [[0.3, 0.3], [5e-324, 0.3]], "fertility": [[0.0, 0.9], [0.0, 0.0]]}
# Lift 2: the R0 pass on the lifted Q11 stops after 902 iterations.
LIFTED_R0_STALLS = {"transition": [[1e-10, 1e-10], [0.9, 0.9]], "fertility": [[1e-10, 0.3], [5e-324, 5e-324]]}
# r is about 0.58: P / r, F / R0 and F / q(2) pass the largest float.
P_OVER_R_OVERFLOWS = {"transition": [[0.0, 0.0], [0.0, 0.0]], "fertility": [[0.0, 1.7e308], [2e-309, 0.0]]}
# rho(T) = 0, and T / 0.5 passes the largest float.
T_OVER_S_OVERFLOWS = {"transition": [[0.0, 0.0], [1.5e308, 0.0]], "fertility": [[0.0, 1e-308], [0.0, 0.0]]}


@st.composite
def wide_models(draw):
    n = draw(st.integers(1, 3))
    matrices = st.lists(st.lists(st.sampled_from(WIDE_VALUES), min_size=n, max_size=n), min_size=n, max_size=n)
    return {"transition": draw(matrices), "fertility": draw(matrices)}


def contract_commands(path: str, n: int):
    """The argv of each command the fail-fast contract covers, for a model file of order n."""
    x0 = ",".join(["1"] * n)
    return [
        ["analyze", path],
        ["scale", path, "--stationary"],
        ["scale", path, "--target-growth", "2"],
        ["scale", path, "--target-growth", "0.5"],
        ["simulate", path, "--x0", x0, "--steps", "3"],
    ]


def run_strict(argv) -> tuple[int, str]:
    """(exit code, stderr) of main(argv), with stdout discarded; any warning is an error, and nothing is caught."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


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
        "payload, message",
        [
            ([], "top level must be an object"),
            ({"transition": [[0.5]]}, "model file needs transition and fertility matrices, or a leslie block"),
        ],
        ids=["not-an-object", "missing-fields"],
    )
    def test_malformed_model_file_exits_2(self, payload, message, tmp_path, capsys):
        path = write_model(tmp_path, "model.json", payload)
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "leslie, message",
        [
            ({"survival": 5, "fertility": [1, 1]}, "leslie must be an object with survival and fertility lists"),
            ({"survival": ["x"], "fertility": [1, 1]}, "leslie.survival entries must be JSON numbers"),
            ({"survival": [0.5], "fertility": [1, None]}, "leslie.fertility entries must be JSON numbers"),
            ({"survival": [0.5], "fertility": "11"}, "leslie must be an object with survival and fertility lists"),
            ({"survival": [], "fertility": []}, "fertility vector is empty"),
        ],
        ids=["scalar-survival", "string-entry", "null-entry", "string-fertility", "empty"],
    )
    def test_malformed_leslie_block_exits_2(self, leslie, message, tmp_path, capsys):
        path = write_model(tmp_path, "leslie.json", {"leslie": leslie})
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"transition": [["0.1"]], "fertility": [["2"]]}, "transition"),
            ({"leslie": {"survival": [True], "fertility": [0, 2]}}, "leslie.survival"),
        ],
        ids=["string-matrix", "boolean-leslie"],
    )
    def test_entries_that_are_not_numbers_exit_2(self, payload, field, tmp_path, capsys):
        # numpy would read "0.1" as 0.1 and true as 1.0.
        path = write_model(tmp_path, "typed.json", payload)
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {field} entries must be JSON numbers")

    @pytest.mark.parametrize(
        "payload",
        [
            {"transition": [[0]], "fertility": [[10**400]]},
            {"leslie": {"survival": [0.5], "fertility": [1, 10**400]}},
        ],
        ids=["general", "leslie"],
    )
    def test_integer_beyond_float_range_exits_2(self, payload, tmp_path, capsys):
        path = write_model(tmp_path, "huge.json", payload)
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # json.loads gives up with RecursionError near the interpreter's limit.
        path = tmp_path / "deep.json"
        path.write_text('{"transition": ' + "[" * 1200 + "0" + "]" * 1200 + ', "fertility": [[1]]}')
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON is nested too deeply\n"

    def test_ragged_matrix_rejected(self, tmp_path, capsys):
        path = write_model(
            tmp_path, "ragged.json", {"transition": [[0.0, 0.0], [0.0]], "fertility": [[1.0]]}
        )
        assert main(["analyze", str(path)]) == 2

    def test_overflowing_rescale_is_one_numerical_failure(self, tmp_path, capsys):
        # P / r overflows for r near 2.2e-8: two RuntimeWarnings leaked, then "spectral radius is in [0, inf]".
        path = write_model(
            tmp_path, "overflow.json", {"transition": [[0, 0], [0, 0]], "fertility": [[0, 1e308], [5e-324, 0]]}
        )
        assert main(["analyze", path]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure: rescaling a block by ")
        assert "overflows the float range" in err

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

    @pytest.mark.parametrize("target", ["1e9", "1e12", "1e15", "1e100"])
    def test_target_far_above_r0_passes_the_trichotomy_check(self, tmp_path, target, capsys):
        # R0 / q(s) is certified relative to s: at 1e9 it came out one ulp
        # low, beyond an absolute slack, and the command exited 3.
        path = write_model(tmp_path, "one.json", {"leslie": {"survival": [], "fertility": [2.0]}})
        assert main(["scale", path, "--target-growth", target]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["achieved_growth"] == pytest.approx(float(target), rel=1e-12)
        assert payload["R0_s"] == pytest.approx(float(target), rel=1e-12)

    def test_target_zero_exits_2(self, capsys):
        assert main(["scale", PLANT, "--target-growth", "0"]) == 2
        assert "must exceed rho(T)" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["inf", "nan", "1e400"])
    def test_nonfinite_target_exits_2_at_once(self, tmp_path, capsys, target):
        # rho(T) was computed for the message alone: 200,000 iterations here, then exit 3.
        path = write_model(tmp_path, "jordan.json", SUBNORMAL_JORDAN)
        start = time.perf_counter()
        assert main(["scale", path, "--target-growth", target]) == 2
        assert time.perf_counter() - start < 0.05
        assert capsys.readouterr().err == f"error: target growth rate must be finite, got {float(target):.6g}\n"

    @pytest.mark.parametrize("argv", [["analyze"], ["scale", "--stationary"]])
    def test_failed_lifted_r0_names_the_bracket_of_r0(self, tmp_path, capsys, argv):
        # The bracket was the lifted Q11's, [5, 5.4000000055999999]: twice R0's.
        path = write_model(tmp_path, "lifted.json", LIFTED_R0_STALLS)
        assert main([argv[0], path, *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert "power iteration did not converge in 902 of 200000 iterations" in err
        assert err.endswith("; spectral radius is in [2.5, 2.7000000028]\n")
        with pytest.raises(ConvergenceError) as info:
            validate_model(LIFTED_R0_STALLS["transition"], LIFTED_R0_STALLS["fertility"]).r0
        assert (info.value.bracket, info.value.iterations) == ((2.5, 2.7000000028), 902)

    def test_failed_lifted_q_names_the_bracket_of_q11(self, tmp_path, capsys):
        # The bracket was the lifted Q11(2)'s, [0, 0.49090909115371906]: twice Q11(2)'s.
        path = write_model(tmp_path, "lifted.json", LIFTED_R0_STALLS)
        assert main(["scale", path, "--target-growth", "2"]) == 3
        err = capsys.readouterr().err
        assert "power iteration did not converge in 592 of 200000 iterations" in err
        assert err.endswith("; spectral radius is in [0, 0.24545454557685953]\n")
        model = validate_model(LIFTED_R0_STALLS["transition"], LIFTED_R0_STALLS["fertility"])
        with pytest.raises(ConvergenceError) as info:
            target_growth_scale(model, 2.0)
        assert (info.value.bracket, info.value.iterations) == ((0.0, 0.24545454557685953), 592)

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

    def test_underflowing_iterate_exits_3_with_a_finite_bracket(self, tmp_path, capsys):
        # An iterate entry that underflows to 0 gave nan ratios: a leaked
        # RuntimeWarning and "spectral radius is in [nan, nan]".
        path = write_model(tmp_path, "underflow.json", UNDERFLOWING_LESLIE)
        assert main(["scale", path, "--target-growth", "1000"]) == 3
        err = capsys.readouterr().err
        assert "Warning" not in err
        lo, hi = map(float, re.search(r"spectral radius is in \[(.*), (.*)\]", err).groups())
        assert math.isfinite(lo) and math.isfinite(hi) and lo <= 1000.0 <= hi

    def test_underflowing_probe_runs_once(self, tmp_path, capsys):
        # Without a seed the right side's probe goes on where it stopped; it ran twice, 216 iterations.
        path = write_model(tmp_path, "underflow.json", UNDERFLOWING_LESLIE)
        assert main(["scale", path, "--target-growth", "1000"]) == 3
        err = capsys.readouterr().err
        assert "did not converge in 108 of 200000 iterations" in err
        assert "spectral radius is in [0, 1000.0000000000001]" in err

    @pytest.mark.parametrize(
        "t, fertility, r0_s",
        [
            # q(s) and F / q(s) came from an F with few bits left: the scaled model grew at 1.99926 (exit 3).
            (0.5, 1.5, 3.0),
            # 1e-320 / (1 - 1e-5) rounds back to 1e-320, so an R0 solved on the subnormal F gave R0(s) = 1.99999.
            (1e-5, 1.99999, 2.00001),
        ],
    )
    def test_subnormal_fertility_meets_its_target(self, tmp_path, capsys, t, fertility, r0_s):
        path = write_model(tmp_path, "subnormal.json", {"transition": [[t]], "fertility": [[1e-320]]})
        assert main(["scale", path, "--target-growth", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["achieved_growth"] == 2.0
        assert payload["scaled_fertility"] == [[fertility]]
        assert payload["R0_s"] == r0_s
        assert payload["q"] == pytest.approx(1e-320 / fertility, rel=1e-3)

    @pytest.mark.parametrize("argv", [["analyze"], ["scale", "--stationary"]])
    def test_subnormal_fertility_scales_to_one(self, tmp_path, capsys, argv):
        # R0 = 1e-320 / (1 - 1e-5) rounds back to 1e-320: F / R0 grew at 1.00001 (exit 3).
        # The lifted F over the lifted R0 is 0.99999, with growth rate 1.
        path = write_model(tmp_path, "subnormal.json", {"transition": [[1e-5]], "fertility": [[1e-320]]})
        assert main([argv[0], path, *argv[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        if argv[0] == "analyze":
            assert payload["stability_residual"] == 0.0
        else:
            assert payload["scaled_fertility"] == [[0.99999]]
            assert payload["achieved_growth"] == 1.0

    def test_lifted_fertility_scales_where_its_r0_stalls(self, tmp_path, capsys):
        # Lift 2: the pass on the unlifted Q11 stalls, so R0 is solved again on the lifted F.
        path = write_model(tmp_path, "stall.json", STALLED_R0)
        assert main(["scale", path, "--target-growth", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["achieved_growth"] == 2.0
        assert payload["R0_s"] == pytest.approx(4.40022746, rel=1e-8)

    @pytest.mark.parametrize("argv", [["analyze"], ["scale", "--stationary"]])
    def test_stalled_r0_certifies_on_the_lifted_q11(self, tmp_path, capsys, argv):
        path = write_model(tmp_path, "stall.json", STALLED_R0)
        assert main([argv[0], path, *argv[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["R0" if argv[0] == "analyze" else "q"] == 0.0478590585

    @pytest.mark.parametrize(
        "argv, growth",
        [(["analyze"], None), (["scale", "--stationary"], 1.0), (["scale", "--target-growth", "2"], 2.0)],
    )
    def test_subnormal_q11_scales(self, tmp_path, capsys, argv, growth):
        path = write_model(tmp_path, "subnormal_q11.json", SUBNORMAL_Q11)
        assert main([argv[0], path, *argv[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        if growth is None:
            assert payload["R0"] == 1e-320
            assert payload["stability_residual"] == 0.0
        else:
            assert payload["achieved_growth"] == growth

    def test_nonpositive_fertility_divisor_exits_3(self, tmp_path, capsys):
        # q(s) = 1e-300 / 1e300 underflows to 0.
        path = write_model(tmp_path, "tiny.json", {"transition": [[0.5]], "fertility": [[1e-300]]})
        assert main(["scale", path, "--target-growth", "1e300"]) == 3
        assert "fertility divisor came out nonpositive" in capsys.readouterr().err

    def test_negative_zero_entries_print_as_zero(self, tmp_path, capsys):
        path = write_model(tmp_path, "negzero.json", {
            "transition": [[0.5, -0.0], [0.5, 0.5]], "fertility": [[-0.0, 1.0], [0.0, 0.0]],
        })
        assert main(["scale", path, "--stationary"]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        assert json.loads(out)["scaled_fertility"][0] == [0.0, 0.5]

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

    def test_negative_zero_x0_prints_as_zero(self, capsys):
        assert main(["simulate", PLANT, "--x0=-0,1,-0.0,0,0", "--steps", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "0,1,0,1,0,0,0"
        assert "-0" not in lines[2].split(",")

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
    # Every code value twice, in one chunk and across a chunk boundary: two values
    # of one code but different text would print one's text for the other.
    @example(trajectory=np.array(CODE_VALUES * 2)[:, None])
    @example(trajectory=np.array(CODE_VALUES * 8).reshape(-1, 2))
    def test_csv_chunks_match_per_value_formatting(self, trajectory):
        pieces = list(cli._csv_lines(trajectory))
        assert "".join(pieces) == reference_csv(trajectory)
        assert all(piece.count("\n") <= chunk_rows(trajectory.shape[1]) for piece in pieces)

    @pytest.mark.parametrize(
        "model, steps, normalize",
        [
            (PLANT, 30000, True),  # a cycle of d = 2 limits
            ({"leslie": {"survival": [0.9] * 23, "fertility": [0.0] * 23 + [5.0]}}, 10000, True),
            (PLANT, 5000, False),  # decays through subnormals to rows of exact zeros
        ],
        ids=["plant-normalized", "semelparous24-normalized", "plant-to-zero"],
    )
    def test_long_runs_match_per_value_formatting(self, model, steps, normalize, tmp_path, capsys):
        path = model if isinstance(model, str) else write_model(tmp_path, "model.json", model)
        m = load_model_file(path)
        argv = ["simulate", path, "--x0", ",".join(["1"] * m.n), "--steps", str(steps)]
        assert main([*argv, "--normalize"] if normalize else argv) == 0
        trajectory = dynamics.iterate(m, np.ones(m.n), steps, normalize=normalize)
        assert capsys.readouterr().out == reference_csv(trajectory)

    def test_csv_memory_is_bounded_by_a_chunk(self):
        # 200,000 rows that do not repeat: their CSV text is about 6 MB.
        trajectory = np.random.default_rng(0).random((200_000, 1))
        tracemalloc.start()
        try:
            for _ in cli._csv_lines(trajectory):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

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

    @pytest.mark.parametrize(
        "model",
        [str(FIXTURES / "leslie3.json"), PLANT, {"leslie": {"survival": [0.5, 0.5], "fertility": [0, 0, 8]}}],
        ids=["leslie3-d1", "plant-d2", "cycle-d3"],
    )
    def test_overflowing_limit_is_the_summary_error(self, model, tmp_path, capsys):
        # The normalized rows are finite, but v @ x0 and the limits pass the float range.
        path = model if isinstance(model, str) else write_model(tmp_path, "cycle3.json", model)
        x0 = ",".join(["1e308"] * load_model_file(path).n)
        assert main(["simulate", path, "--x0", x0, "--steps", "2", "--normalize"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert "overflow" in summary["error"]
        assert "limit" not in summary and "limits" not in summary

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_unwritable_output_exits_2(self, flag, tmp_path, capsys):
        target = str(tmp_path / "missing" / "file")
        argv = ["simulate", PLANT, "--x0", "1,0,2,0,0", "--steps", "3", flag, target]
        assert main(argv) == 2
        assert f"error: cannot write {target}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", PLANT],
            ["scale", PLANT, "--stationary"],
            ["simulate", PLANT, "--x0", "1,0,2,0,0", "--steps", "3"],
        ],
        ids=["analyze", "scale", "simulate"],
    )
    def test_reader_closing_stdout_early_is_not_an_error(self, argv):
        # stdout is a pipe whose reader has already gone, as when
        # `matpop ... | head -1` exits before the write.  The child imports
        # the same matpop as this process.
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "matpop.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 0
        assert "Traceback" not in child.stderr
        assert "Exception ignored" not in child.stderr
        if argv[0] == "simulate":
            assert json.loads(child.stderr)["d"] == 2

    def test_reader_closing_stdout_midway_is_not_an_error(self, tmp_path):
        # The reader takes a few bytes of a long CSV and goes, as `| head -c 64` does: the rest of the
        # CSV goes to the null device, and the summary is still written.
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        summary = tmp_path / "summary.json"
        argv = ["simulate", PLANT, "--x0", "1,0,2,0,0", "--steps", "100000", "--summary", str(summary)]
        child = subprocess.Popen(
            [sys.executable, "-m", "matpop.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        head = child.stdout.read(64)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
        assert head.startswith(b"step,total,")
        assert err == b""
        assert json.loads(summary.read_text())["d"] == 2

    def test_dimension_mismatch_exits_2(self, capsys):
        assert main(["simulate", PLANT, "--x0", "1,2", "--steps", "3"]) == 2

    @pytest.mark.parametrize(
        "x0, message",
        [
            ("1,a,2,0,0", "cannot parse initial population '1,a,2,0,0': could not convert string to float: 'a'"),
            (None, "cannot parse initial population file {x0}: could not convert string to float: 'abc'"),
            ("1,nan,2,0,0", "population vector has non-finite entries"),
            ("1,-1,2,0,0", "population vector has negative entries"),
        ],
        ids=["inline-parse", "file-parse", "non-finite", "negative"],
    )
    def test_invalid_x0_exits_2(self, x0, message, tmp_path, capsys):
        if x0 is None:  # a file whose one line is not a number
            x0 = str(tmp_path / "x0.txt")
            Path(x0).write_text("abc\n")
        assert main(["simulate", PLANT, "--x0", x0, "--steps", "3"]) == 2
        assert capsys.readouterr().err == f"error: {message.format(x0=x0)}\n"

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

    def test_unreachable_tolerance_exits_3(self, tmp_path, capsys):
        # Double precision cannot certify a 1e-30 bracket from a cold start: P's own growth-rate pass,
        # probed from the uniform vector, stalls two units of 2^-52 wide, the internal-failure exit path.
        path = write_model(tmp_path, "leslie.json", {"leslie": {"survival": [0.5, 0.5], "fertility": [0.3, 1.0, 1.0]}})
        assert main(["--tol-spec", "1e-30", "analyze", path]) == 3
        assert "numerical failure" in capsys.readouterr().err
        # The plant's growth rate certifies, and R0's pass and the stationary check, started at LAPACK's
        # proposal and at z, reach a bracket of width 0.
        assert main(["--tol-spec", "1e-30", "analyze", PLANT]) == 0
        assert json.loads(capsys.readouterr().out)["R0"] == 0.375

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
        reason = "not a number:" if value == "x" else "must be finite with 0 < tol < 1, got"
        assert captured.err.splitlines()[-1] == f"matpop: error: argument {flag}: {reason} {value!r}"

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

        def spy(m, report, tol, kept=None):
            seen.append(tol)
            return spectral._pair(m, report, tol, kept)

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
            (["analyze", PLANT], 3, 3),
            (["scale", PLANT, "--stationary"], 3, 4),
            # Q11(s) shares Q11's walk: 4 Tarjan passes when it had its own.
            (["scale", PLANT, "--target-growth", "2"], 3, 5),
            # The plant has index 2: periodic_limits certifies each side of M's pair.
            (["simulate", PLANT, "--x0", "1,0,2,0,0", "--steps", "40"], 2, 3),
            (["simulate", str(FIXTURES / "leslie3.json"), "--x0", "1,0,2", "--steps", "40"], 2, 3),
        ],
        ids=["analyze", "scale-stationary", "scale-target-growth-2", "simulate-plant", "simulate-leslie3"],
    )
    def test_plant_commands(self, argv, tarjan, perron, kernel_calls, capsys):
        assert main(argv) == 0
        assert len(kernel_calls["_analyze_pattern"]) <= tarjan
        assert len(kernel_calls["_power_root"]) <= perron

    @pytest.mark.parametrize(
        "argv, walked",
        [
            (["analyze", PLANT], 12),
            (["scale", PLANT, "--stationary"], 12),
            (["scale", PLANT, "--target-growth", "2"], 14),
        ],
        ids=["analyze", "scale-stationary", "scale-target-growth-2"],
    )
    def test_plant_pattern_orders(self, argv, walked, kernel_calls, capsys):
        # The total order of the patterns that Tarjan passes walk.  Q and
        # q(s) are walked on their fertile rows only, and Q11 once per
        # model; on the whole of Q and q(s) the three commands walked 17,
        # 15 and 20, and analyze walked Q11 twice for 14.
        assert main(argv) == 0
        assert sum(pattern.shape[0] for pattern in kernel_calls["_analyze_pattern"]) <= walked

    @pytest.mark.parametrize(
        "argv, computed",
        [
            (["scale", PLANT, "--stationary"], 3),
            (["simulate", str(FIXTURES / "leslie3.json"), "--x0", "1,0,2", "--steps", "40"], 40),
            (["analyze", PLANT], 69),
            (["scale", PLANT, "--target-growth", "2"], 4),
        ],
        ids=["scale-stationary", "simulate-leslie3", "analyze", "scale-target-growth-2"],
    )
    def test_computed_iterations(self, argv, computed, computed_iterations, power_passes, capsys):
        # A fresh tol / 4 right side and doubling chunks computed 347 and 93
        # on the first two, and on the last a cold target check 440, then a
        # cold pass on Q11(s) 407.  A cold R0 pass on Q11, with a cold
        # stationary check on the first and third, computed 232, 243 and 164
        # on the first, third and last.  A cold fresh side of the Perron pair,
        # the right one of the scaled model and the left one of leslie3.json,
        # computed 57, 76 and 42 on the first, second and last; from LAPACK's
        # proposal it takes one more small eig call each.  Every certifying
        # iteration is computed, so a counter that misses steps reads below
        # their sum.
        assert main(argv) == 0
        certified = sum(iterations for _, iterations in power_passes)
        assert certified <= computed_iterations[0] <= computed

    def test_slow_leslie_summary_repeats_no_eig_seed(self, tmp_path, monkeypatch):
        # Fertile ages {199, 200}: P's first probe stops uncertified and the
        # eig-seeded pass certifies.  The pair's right side resumes that pass;
        # it repeated the probe and the seed's two eig calls, 6 in all.
        survival, fertility = [0.9] * 199, [0.0] * 198 + [5.0, 5.0]
        model = load_model_file(
            write_model(tmp_path, "slow.json", {"leslie": {"survival": survival, "fertility": fertility}})
        )
        eig, calls = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        summary = cli._simulation_summary(model, np.ones(200))
        assert summary["fate"] and len(calls) == 4
        fresh = spectral._pair(model.projection, model.structure, model.tol_spec)
        assert fresh.right.tobytes() == model.perron.right.tobytes()
        assert fresh.left.tobytes() == model.perron.left.tobytes()

    def test_long_period_analyze_makes_no_cold_pass(self, tmp_path, power_passes, capsys):
        path = write_model(tmp_path, "d6.json", INDEX_6_LESLIE)
        assert main(["analyze", path]) == 0
        assert json.loads(capsys.readouterr().out)["imprimitivity_index"] == 6
        assert power_passes and all(start is not None for start, _ in power_passes)

    def test_long_period_stationary_check_is_one_seeded_step(self, tmp_path, power_passes, monkeypatch):
        # Q11 is 1 x 1, so the check starts at Q's fertile row, the stationary model's left Perron
        # vector.  From _eig_seed it made two more eig calls, on the cycle product: 4 in all.
        model = load_model_file(write_model(tmp_path, "d6.json", INDEX_6_LESLIE))
        eig, calls = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
        model.growth_rate, model.r0
        power_passes.clear()
        model.stationary
        assert [(start is not None, iterations) for start, iterations in power_passes] == [(True, 1)]
        assert analyze(model).stability_residual <= 2 * np.finfo(float).eps
        assert len(calls) <= 2

    def test_long_period_fertile_pair_analyze_certifies(self, tmp_path, capsys):
        # Survival 0.9 and f = 5 at ages 399 and 400: R0 is about 5.8e-18, and a cold stationary
        # check spent all 200,000 iterations, then raised ConvergenceError.  From z it certifies.
        payload = {"leslie": {"survival": [0.9] * 399, "fertility": [0.0] * 398 + [5.0, 5.0]}}
        assert main(["analyze", write_model(tmp_path, "leslie400.json", payload)]) == 0
        assert json.loads(capsys.readouterr().out)["stability_residual"] <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("name, s", [("plant", 2.0), ("leslie3", 1.5), ("index6", 1.2)])
    def test_target_check_is_one_seeded_step(self, name, s, tmp_path, power_passes, monkeypatch):
        # The check starts from the scaled model's left Perron vector: on
        # the plant (2 fertile rows), a Leslie model (1) and one of index 6,
        # whose check went to _eig_seed.  On the plant, q(s) and v come first
        # from one seeded step on Q11(s)^T, where a cold pass on Q11(s) ran.
        paths = {"plant": PLANT, "leslie3": str(FIXTURES / "leslie3.json")}
        model = load_model_file(paths.get(name) or write_model(tmp_path, "d6.json", INDEX_6_LESLIE))
        model.r0  # R0's own cold pass on Q11
        eig_seed, seeds = spectral._eig_seed, []
        monkeypatch.setattr(spectral, "_eig_seed", lambda *args: seeds.append(args) or eig_seed(*args))
        power_passes.clear()
        result = target_growth_scale(model, s)
        assert result.scaled.growth_rate == pytest.approx(s, rel=1e-12)
        assert power_passes and all(start is not None for start, _ in power_passes)
        assert [iterations for _, iterations in power_passes] == [1] * (2 if name == "plant" else 1)
        assert not seeds


class TestFailFastContract:
    """Weights across 1e+-300: each command exits 0, 2 or 3, with no traceback and no warning.

    analyze and scale write at most one stderr line, the error or numerical failure.
    """

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(wide_models())
    @example(BEYOND_FLOAT_ROOT)
    @example(P_OVER_R_OVERFLOWS)
    @example(T_OVER_S_OVERFLOWS)
    def test_wide_weights(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(json.dumps(data))
            for argv in contract_commands(str(path), len(data["transition"])):
                code, err = run_strict(argv)
                assert code in (0, 2, 3), (argv, err)
                assert argv[0] == "simulate" or len(err.splitlines()) <= 1, (argv, err)

    def test_root_beyond_the_float_range_fails_in_one_line(self, tmp_path):
        # rho(T) does not converge, but rho(T) >= T[0, 0] = 1.7e308 proves the population immortal.
        path = write_model(tmp_path, "root.json", BEYOND_FLOAT_ROOT)
        for argv in contract_commands(path, 3):
            code, err = run_strict(argv)
            assert code == 2 and len(err.splitlines()) == 1, (argv, err)
            assert err.startswith("error: rho(T) >= 1: transition matrix has diagonal entry 1.7e+308"), (argv, err)

    def test_root_beyond_the_float_range_is_immortal_in_the_library(self):
        t = BEYOND_FLOAT_ROOT["transition"]
        for call in (lambda: validate_model(t, BEYOND_FLOAT_ROOT["fertility"]), lambda: resolvent_inverse(t)):
            with pytest.raises(MortalityError, match="diagonal entry 1.7e"):
                call()

    def test_limits_name_an_overflowing_p_over_r(self, tmp_path):
        path = write_model(tmp_path, "p_over_r.json", P_OVER_R_OVERFLOWS)
        code, err = run_strict(["simulate", path, "--x0", "1,1", "--steps", "0"])
        assert code == 0
        assert "P / r overflows" in json.loads(err)["error"]

    def test_overflowing_t_over_s_is_refused(self, tmp_path):
        path = write_model(tmp_path, "t_over_s.json", T_OVER_S_OVERFLOWS)
        assert run_strict(["scale", path, "--target-growth", "0.5"]) == (2, "error: matrix has non-finite entries\n")


def test_cli_sweep_smoke(tmp_path):
    # Every 12th model of the sweep's first seed: each run ends in exit 0, 2 or 3, none in a traceback.
    sweep = load_cli_sweep()
    argvs = list(sweep.runs([1], 12, tmp_path))
    results = [sweep.run(main, argv) for argv in argvs]
    assert len(results) > 100
    assert {code for code, _, _ in results} <= {0, 2, 3}
    assert not any("Traceback" in err for _, _, err in results)
    # stderr: a simulate that exits 0 writes its one JSON summary line; any other run, nothing or one error line.
    for argv, (code, _, err) in zip(argvs, results):
        lines = err.splitlines()
        if argv[0] == "simulate" and code == 0:
            assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), (argv, err)
        else:
            assert err == "" or (len(lines) == 1 and err.startswith(("error: ", "numerical failure: "))), (argv, err)


def test_cli_sweep_runs_a_long_normalized_simulate_per_model(tmp_path):
    # Just over two chunks of the CSV writer: a chunk boundary, and rows of the previous chunk.
    sweep = load_cli_sweep()
    assert sweep.CSV_CHUNK_VALUES == cli.CSV_CHUNK_VALUES
    argvs = list(sweep.runs([1], 12, tmp_path))
    long_runs = [argv for argv in argvs if argv[0] == "simulate" and int(argv[5]) > 60]
    assert [argv[1] for argv in long_runs] == list(dict.fromkeys(argv[1] for argv in argvs))
    for argv in long_runs:
        assert argv[6:] == ["--normalize"]
        assert int(argv[5]) + 1 > 2 * chunk_rows(len(argv[3].split(",")))


def test_cli_sweep_flags_a_leak_that_both_checkouts_share():
    # compare fails on any leak of the new checkout, so one that the old checkout shares is no longer "0 differing".
    sweep = load_cli_sweep()
    warning = warnings.formatwarning("overflow encountered in divide", RuntimeWarning, "spectral.py", 285)
    assert sweep.leaks({"code": 3, "stderr": warning + "numerical failure: no convergence\n"})
    assert sweep.leaks({"code": "traceback", "stderr": "OverflowError: math range error\n"})
    assert not sweep.leaks({"code": 3, "stderr": "numerical failure: the limits overflow: 1e308: inf\n"})


def test_cli_sweep_wide_models_draw_from_the_wide_values(tmp_path):
    # Each wide model runs analyze, scale --stationary and scale --target-growth 2, with entries from WIDE_VALUES.
    sweep = load_cli_sweep()
    argvs = list(sweep.wide_runs([1, 2], 4, tmp_path))
    assert [argv[0] for argv in argvs] == ["analyze", "scale", "scale"] * 8
    assert [argv[2:] for argv in argvs[:3]] == [[], ["--stationary"], ["--target-growth", "2"]]
    for argv in argvs[::3]:
        data = json.loads(Path(argv[1]).read_text())
        assert {x for m in data.values() for row in m for x in row} <= set(WIDE_VALUES)
        assert 1 <= len(data["transition"]) <= 3


def test_cli_sweep_wide_tally_counts_runs_whose_bytes_move():
    # A run that keeps its exit code but changes stdout or stderr is counted per command and printed.
    sweep = load_cli_sweep()

    def line(argv, code, stdout="", stderr=""):
        return {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr, "seconds": 0.1}

    analyze, stationary = ["analyze", "m.json"], ["scale", "m.json", "--stationary"]
    old = [line(analyze, 0, "{}"), line(analyze, 3, stderr="[0, 1]\n"), line(stationary, 3), line(stationary, 2)]
    new = [line(analyze, 0, "{}"), line(analyze, 3, stderr="[0, 2]\n"), line(stationary, 0, "{}"), line(stationary, 2)]
    outcomes, moved, lines = sweep.wide_tally(old, new)
    assert outcomes == {("analyze", 0, 0): 1, ("analyze", 3, 3): 1, ("scale --stationary", 3, 0): 1,
                        ("scale --stationary", 2, 2): 1}
    assert moved == {"analyze": 1}
    assert lines == [{"argv": analyze, "old": {"code": 3, "stdout": "", "stderr": "[0, 1]\n"},
                      "new": {"code": 3, "stdout": "", "stderr": "[0, 2]\n"}}]


def test_cli_sweep_compare_tally_names_the_fields_that_move():
    # Each differing run counts once per changed field: a top-level key of JSON stdout, else stdout, code, stderr.
    # A key whose moved values are all numbers counts those that fell and rose, with the largest before and after.
    sweep = load_cli_sweep()

    def line(argv, code, stdout="", stderr=""):
        return {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr, "seconds": 0.1}

    analyze, stationary = ["analyze", "m.json"], ["scale", "m.json", "--stationary"]
    simulate = ["simulate", "m.json", "--x0", "1", "--steps", "2"]
    old = [line(analyze, 0, '{"R0": 1, "r": 2, "stability_residual": 0}'), line(analyze, 0, '{"r": 2}'),
           line(stationary, 3, stderr="[0, 1]\n"), line(simulate, 0, "step\n0,1\n", "{}\n"), line(analyze, 0, "{}"),
           line(analyze, 0, '{"stability_residual": 1.02e-12}'), line(analyze, 0, '{"stability_residual": 4e-16}')]
    new = [line(analyze, 0, '{"R0": 1, "r": 2, "stability_residual": 1e-16}'),
           line(analyze, 0, '{"r": 3, "q": 1}'), line(stationary, 0, '{"q": 1}'),
           line(simulate, 0, "step\n0,2\n", "{}\n"), line(analyze, 0, "{}"),
           line(analyze, 0, '{"stability_residual": 1.78e-15}'), line(analyze, 0, '{"stability_residual": 0.0}')]
    assert sweep.compare_tally(old, new) == [
        "analyze q: 1", "analyze r: 1 (0 fell, 1 rose; largest 2 -> 3)",
        "analyze stability_residual: 3 (2 fell, 1 rose; largest 1.02e-12 -> 1.78e-15)",
        "scale code: 1", "scale stderr: 1", "scale stdout: 1", "simulate stdout: 1",
    ]


def test_cli_sweep_compare_counts_each_sides_slow_runs(monkeypatch, capsys):
    # compare writes each side's count of runs over SLOW_SECONDS to stderr, and a slow run alone keeps exit 0:
    # a pass that spends its budget before its fallback certifies keeps its bytes, and shows only here.
    sweep = load_cli_sweep()

    def line(seconds):
        return {"argv": ["analyze", "m.json"], "code": 0, "stdout": "{}", "stderr": "", "seconds": seconds}

    old, new = [line(0.1), line(0.1)], [line(0.1), line(sweep.SLOW_SECONDS + 0.1)]
    assert sweep.slow_tally(old, new) == [f"old: 0 runs over {sweep.SLOW_SECONDS} s",
                                          f"new: 1 runs over {sweep.SLOW_SECONDS} s"]
    monkeypatch.setattr(sweep, "_record_both", lambda *args: [old, new])
    assert sweep.compare(Path("old"), Path("new"), [1], 1) == 0
    assert capsys.readouterr().err.splitlines() == [*sweep.slow_tally(old, new), "2 runs, 0 differing, 0 leaking"]
