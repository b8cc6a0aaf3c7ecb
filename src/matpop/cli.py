"""Command-line front end: JSON analysis reports and CSV trajectories.

Model files are JSON with exactly one of two shapes:

    {"transition": [[...], ...], "fertility": [[...], ...]}
    {"leslie": {"survival": [...], "fertility": [...]}}

Reports go to stdout as JSON with numbers rounded to 9 significant digits
(round-half-even), so repeated runs are byte-identical.  Indices in
reports are 1-based, matching the class_1..class_n trajectory columns.
Exit codes: 0 success, 2 invalid input or an unsatisfiable request,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import eventual_limit, iterate, periodic_limits
from .errors import ModelError, NumericalError
from .leslie import LeslieModel, assemble
from .model import (
    CLASSIFY_TOL,
    AnalysisReport,
    PopulationModel,
    analyze,
    stabilizing_scale,
    target_growth_scale,
    validate_model,
)
from .spectral import SPECTRAL_TOL, perron_pair, spectral_radius
from .structure import analyze_structure


def _round_floats(value):
    """Round every float in a JSON-ready structure to 9 significant digits."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def _format_number(value: float) -> str:
    return f"{float(value):.9g}"


def _emit_json(payload: dict, stream) -> None:
    stream.write(json.dumps(_round_floats(payload), indent=2, sort_keys=True))
    stream.write("\n")


def load_model_file(path: str, *, tol_spec: float = SPECTRAL_TOL) -> PopulationModel:
    """Parse a model file into a validated PopulationModel."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ModelError(f"{path}: top level must be an object")

    known = {"transition", "fertility", "leslie"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ModelError(f"{path}: unknown field(s) {', '.join(unknown)}")

    if "leslie" in data:
        if "transition" in data or "fertility" in data:
            raise ModelError(
                f"{path}: give either transition+fertility or leslie, not both"
            )
        block = data["leslie"]
        if not isinstance(block, dict) or set(block) != {"survival", "fertility"}:
            raise ModelError(f"{path}: leslie must be an object with survival and fertility")
        return assemble(LeslieModel(tuple(block["survival"]), tuple(block["fertility"])))

    if "transition" not in data or "fertility" not in data:
        raise ModelError(
            f"{path}: model file needs transition and fertility matrices, or a leslie block"
        )
    return validate_model(data["transition"], data["fertility"], tol_spec=tol_spec)


def _tool_block(args) -> dict:
    return {
        "name": "matpop",
        "version": __version__,
        "tol_spec": args.tol_spec,
        "tol_class": args.tol_class,
    }


def _analysis_payload(model: PopulationModel, report: AnalysisReport, args) -> dict:
    payload = {
        "tool": _tool_block(args),
        "n": model.n,
        "r": report.growth_rate,
        "R0": report.net_reproductive_rate,
        "trichotomy": report.trichotomy.value,
        "strict": report.strict,
        "irreducible": report.structure.irreducible,
        "primitive": report.structure.primitive,
        "imprimitivity_index": report.structure.imprimitivity_index,
        "stability_residual": report.stability_residual,
        "warnings": list(model.warnings),
    }
    if report.q_pattern is not None:
        pattern = report.q_pattern
        payload["q_pattern"] = {
            "zero_rows": [i + 1 for i in pattern.zero_rows],
            "q11_indices": [i + 1 for i in pattern.q11_indices],
            "permutation": [i + 1 for i in pattern.permutation],
            "q_irreducible": pattern.q_irreducible,
        }
    else:
        payload["q_pattern"] = None
    return payload


def cmd_analyze(args) -> int:
    model = load_model_file(args.model, tol_spec=args.tol_spec)
    report = analyze(model, tol_spec=args.tol_spec, tol_class=args.tol_class)
    _emit_json(_analysis_payload(model, report, args), sys.stdout)
    return 0


def cmd_scale(args) -> int:
    model = load_model_file(args.model, tol_spec=args.tol_spec)
    if args.stationary:
        r0 = spectral_radius(model.next_generation, tol=args.tol_spec)
        scaled = stabilizing_scale(model, tol_spec=args.tol_spec, tol_class=args.tol_class)
        divisor = r0
        target = 1.0
        r0_scaled = r0 / divisor
    else:
        result = target_growth_scale(
            model, args.target_growth, tol_spec=args.tol_spec, tol_class=args.tol_class
        )
        scaled = result.scaled
        divisor = result.q
        target = float(args.target_growth)
        r0_scaled = result.r0_scaled

    achieved = spectral_radius(scaled.projection, tol=args.tol_spec)
    if analyze_structure(scaled.projection).irreducible:
        stable = perron_pair(scaled.projection).right.tolist()
    else:
        stable = None
    payload = {
        "tool": _tool_block(args),
        "mode": "stationary" if args.stationary else "target_growth",
        "q": divisor,
        "target_growth": target,
        "achieved_growth": achieved,
        "R0_s": r0_scaled,
        "scaled_fertility": scaled.fertility.tolist(),
        "stable_population": stable,
        "warnings": list(scaled.warnings),
    }
    _emit_json(payload, sys.stdout)
    return 0


def _parse_x0(raw: str, n: int) -> np.ndarray:
    path = Path(raw)
    try:
        is_file = path.exists()
    except OSError:  # e.g. a long inline list is too long to be a file name
        is_file = False
    if is_file:
        try:
            entries = [line.strip() for line in path.read_text().splitlines() if line.strip()]
            values = [float(entry) for entry in entries]
        except (OSError, ValueError) as exc:
            raise ModelError(f"cannot parse initial population file {raw}: {exc}") from None
    else:
        try:
            values = [float(part) for part in raw.split(",")]
        except ValueError as exc:
            raise ModelError(f"cannot parse initial population {raw!r}: {exc}") from None
    if len(values) != n:
        raise ModelError(f"initial population has {len(values)} entries, model has {n} classes")
    return np.array(values)


def _simulation_summary(model: PopulationModel, x0: np.ndarray, args) -> dict:
    rate = spectral_radius(model.projection, tol=args.tol_spec)
    summary: dict = {"r": rate}
    try:
        structure = analyze_structure(model.projection)
        if structure.primitive:
            settled = eventual_limit(model, x0)
            summary["fate"] = settled.fate.value
            summary["limit"] = settled.limit.tolist()
        elif structure.irreducible:
            periodic = periodic_limits(model, x0)
            summary["d"] = periodic.period
            summary["limits"] = [w.tolist() for w in periodic.limits]
        else:
            summary["note"] = "reducible projection matrix: long-run limits not computed"
    except NumericalError as exc:
        summary["error"] = str(exc)
    return summary


def cmd_simulate(args) -> int:
    model = load_model_file(args.model, tol_spec=args.tol_spec)
    if args.steps < 0:
        raise ModelError(f"--steps must be >= 0, got {args.steps}")
    x0 = _parse_x0(args.x0, model.n)
    trajectory = iterate(model, x0, args.steps, normalize=args.normalize, tol_class=args.tol_class)

    header = "step,total," + ",".join(f"class_{i + 1}" for i in range(model.n))
    lines = [header]
    for step in trajectory.steps:
        cells = [str(step.index), _format_number(step.total)]
        cells.extend(_format_number(v) for v in step.population)
        lines.append(",".join(cells))
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)

    summary = _round_floats(_simulation_summary(model, x0, args))
    summary_text = json.dumps(summary, sort_keys=True) + "\n"
    if args.summary:
        Path(args.summary).write_text(summary_text)
    else:
        sys.stderr.write(summary_text)
    return 0


def _tolerance(raw: str) -> float:
    """Parse a tolerance flag: a finite number strictly between 0 and 1."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    if not (math.isfinite(value) and 0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"must be finite with 0 < tol < 1, got {raw!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matpop",
        description="Analyze matrix population models: growth rate, net reproductive rate, "
        "structure, fertility scaling, and trajectory simulation.",
    )
    parser.add_argument("--tol-spec", dest="tol_spec", type=_tolerance, default=SPECTRAL_TOL,
                        help="spectral iteration tolerance (default %(default)g)")
    parser.add_argument("--tol-class", dest="tol_class", type=_tolerance, default=CLASSIFY_TOL,
                        help="growth classification tolerance (default %(default)g)")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze_parser = commands.add_parser("analyze", help="growth and structure report as JSON")
    analyze_parser.add_argument("model", help="model file (JSON)")
    analyze_parser.set_defaults(handler=cmd_analyze)

    scale_parser = commands.add_parser("scale", help="rescale fertility to a prescribed growth rate")
    scale_parser.add_argument("model", help="model file (JSON)")
    mode = scale_parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stationary", action="store_true", help="scale to growth rate 1")
    mode.add_argument("--target-growth", dest="target_growth", type=float,
                      help="scale to this growth rate (must exceed rho(T))")
    scale_parser.set_defaults(handler=cmd_scale)

    simulate_parser = commands.add_parser("simulate", help="iterate the model and emit CSV")
    simulate_parser.add_argument("model", help="model file (JSON)")
    simulate_parser.add_argument("--x0", required=True,
                                 help="initial population: comma-separated list or one-column file")
    simulate_parser.add_argument("--steps", required=True, type=int, help="number of steps")
    simulate_parser.add_argument("--normalize", action="store_true",
                                 help="record x_k / r^k instead of x_k")
    simulate_parser.add_argument("--out", help="write CSV here instead of stdout")
    simulate_parser.add_argument("--summary", help="write the JSON summary here instead of stderr")
    simulate_parser.set_defaults(handler=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
