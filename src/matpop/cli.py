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
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import eventual_limit, iterate, periodic_limits
from .errors import ModelError, NumericalError
from .leslie import LeslieModel, _matrices
from .matrices import check_tolerance
from .model import (
    CLASSIFY_TOL,
    AnalysisReport,
    PopulationModel,
    TargetScaleResult,
    analyze,
    stabilizing_scale,
    target_growth_scale,
    validate_model,
)
from .spectral import SPECTRAL_TOL

# Values per chunk of CSV rows: the writer's memory is bounded by a chunk, and a
# row reuses the text of an equal row of its chunk or of the previous one.
CSV_CHUNK_VALUES = 4096


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


def _emit_json(payload: dict) -> None:
    _write(None, sys.stdout, (json.dumps(_round_floats(payload), indent=2, sort_keys=True), "\n"))


def _require_numbers(path: str, fields: dict) -> None:
    """Raise ModelError naming the first field whose nested lists hold anything but JSON numbers."""
    pending = [(field, [value]) for field, value in reversed(fields.items())]
    while pending:
        field, entries = pending.pop()
        kinds = set(map(type, entries))  # exact types: a JSON true is a bool, not an int
        if not kinds <= {int, float, list}:
            raise ModelError(f"{path}: {field} entries must be JSON numbers")
        if list in kinds:
            pending += [(field, entry) for entry in entries if type(entry) is list]


def load_model_file(
    path: str, *, tol_spec: float = SPECTRAL_TOL, tol_class: float = CLASSIFY_TOL
) -> PopulationModel:
    """Parse a model file into a PopulationModel validated with the given tolerances."""
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
    except RecursionError:
        raise ModelError(f"{path}: JSON is nested too deeply") from None
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
        if not (isinstance(block, dict) and set(block) == {"survival", "fertility"}
                and all(isinstance(value, list) for value in block.values())):
            raise ModelError(f"{path}: leslie must be an object with survival and fertility lists")
        _require_numbers(path, {f"leslie.{key}": value for key, value in block.items()})
        t, f = _matrices(LeslieModel(tuple(block["survival"]), tuple(block["fertility"])))
    elif "transition" in data and "fertility" in data:
        t, f = data["transition"], data["fertility"]
        _require_numbers(path, {"transition": t, "fertility": f})
    else:
        raise ModelError(
            f"{path}: model file needs transition and fertility matrices, or a leslie block"
        )
    return validate_model(t, f, tol_spec=tol_spec, tol_class=tol_class)


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


def _load(args) -> PopulationModel:
    return load_model_file(args.model, tol_spec=args.tol_spec, tol_class=args.tol_class)


def cmd_analyze(args) -> int:
    model = _load(args)
    _emit_json(_analysis_payload(model, analyze(model), args))
    return 0


def cmd_scale(args) -> int:
    model = _load(args)
    if args.stationary:
        result = TargetScaleResult(model.r0, stabilizing_scale(model), 1.0)
    else:
        result = target_growth_scale(model, args.target_growth)
    scaled = result.scaled

    if scaled.structure.irreducible:
        stable = scaled.perron.right.tolist()
    else:
        stable = None
    payload = {
        "tool": _tool_block(args),
        "mode": "stationary" if args.stationary else "target_growth",
        "q": result.q,
        "target_growth": 1.0 if args.stationary else float(args.target_growth),
        "achieved_growth": scaled.growth_rate,
        "R0_s": result.r0_scaled,
        "scaled_fertility": scaled.fertility.tolist(),
        "stable_population": stable,
        "warnings": list(scaled.warnings),
    }
    _emit_json(payload)
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


def _simulation_summary(model: PopulationModel, x0: np.ndarray) -> dict:
    summary: dict = {"r": model.growth_rate}
    try:
        structure = model.structure
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


def _nine_digit_codes(values: np.ndarray, first: int) -> np.ndarray:
    """An int64 code per value such that equal codes mean equal `%.9g` text.

    For a positive value a and an integer e in [-14, 30], let
    y = a * 10^(8-e), or a / 10^(e-8): the power of ten is exact, so y is
    the real a 10^(8-e) rounded once.  Rounding is monotone and leaves
    every double unchanged, among them 1e8, 1e9 and every half-integer in
    between, so the real value lies on the same side of each of them as y.
    Where 1e8 < y < 1e9 and y is not a half-integer, m = rint(y) is thus
    the correctly rounded 9-digit mantissa of a, and a's text is that of
    m 10^(e-8), a function of (m, e) alone.  It is also where y = 1e9,
    which is the text of 10^(e+1) from either side, and where y = 1e8, the
    text of 10^e, to which a real value just below rounds up at 9 digits.
    Such a value has the code m * 1024 + e - 8, with e = floor(log10(a))
    clipped to [-14, 30].  +0.0 has the code 0.  Every other value
    (-0.0, inf, nan, a negative, a value outside [1e-14, 1e31], a y on a
    half-integer) is left unproven: its code is -1 - first - its flat
    index, unique across a run when first counts the values before it.
    """
    powers = np.array([float(10**k) for k in range(23)])
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.fmin(np.fmax(8.0 - np.floor(np.log10(values)), -22.0), 22.0)  # 8 - e
        power = powers[np.abs(shift).astype(np.intp)]
        y = values / power
        np.multiply(values, power, out=y, where=shift >= 0.0)
        mantissa = np.rint(y)
        proven = (y >= 1e8) & (y <= 1e9) & (np.abs(y - mantissa) < 0.5)
        codes = (mantissa * 1024.0 - shift).astype(np.int64)
    unproven = np.flatnonzero(~proven)
    codes.flat[unproven] = -1 - first - unproven
    codes[values.view(np.int64) == 0] = 0
    return codes


def _csv_lines(trajectory: np.ndarray):
    """The CSV text of a trajectory: the header, then one string per chunk of rows.

    The bytes are those of `%.9g` applied value by value.  A chunk holds
    about CSV_CHUNK_VALUES values, so memory stays bounded whatever the
    step count.  A row whose 9-digit codes (_nine_digit_codes) equal those
    of a row of this chunk or the previous one reuses that row's text, so
    each distinct row is formatted once, by one % over a repeated format.
    """
    n = trajectory.shape[1]
    yield "step,total," + ",".join(f"class_{i + 1}" for i in range(n)) + "\n"
    text_format = ",%.9g" * (n + 1) + "\n"
    row_key = np.dtype((np.void, 8 * (n + 1)))
    chunk_rows = max(1, CSV_CHUNK_VALUES // (n + 2))
    texts: dict = {}  # the text of each distinct row of the previous chunk, by its codes
    for start in range(0, len(trajectory), chunk_rows):
        rows = trajectory[start:start + chunk_rows]
        with np.errstate(over="ignore"):  # a total beyond the float range prints as inf
            table = np.column_stack((rows.sum(axis=1), rows))
        keys = _nine_digit_codes(table, start * (n + 1)).view(row_key).ravel().tolist()
        last = dict(zip(keys, range(len(keys))))  # each distinct row's last index
        new = [key for key in last if key not in texts]
        values = tuple(table[[last[key] for key in new]].ravel().tolist())
        texts = {key: texts[key] for key in last if key in texts}
        texts.update(zip(new, (text_format * len(new) % values).splitlines(True)))
        lines = [None] * (2 * len(rows))
        lines[::2] = range(start, start + len(rows))
        lines[1::2] = map(texts.__getitem__, keys)
        yield "%d%s" * len(rows) % tuple(lines)


def _write(path: str | None, default, lines) -> None:
    """Write text lines to the file at path, or to the default stream when no path is given."""
    if not path:
        try:
            default.writelines(lines)
            default.flush()  # so a closed reader fails here, not in the flush at exit
        except BrokenPipeError:
            # The reader stopped early, as `| head` does; the rest is unwanted.
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), default.fileno())
        return
    try:
        with open(path, "w") as stream:
            stream.writelines(lines)
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc}") from None


def cmd_simulate(args) -> int:
    model = _load(args)
    x0 = _parse_x0(args.x0, model.n)
    trajectory = iterate(model, x0, args.steps, normalize=args.normalize)

    _write(args.out, sys.stdout, _csv_lines(trajectory))

    summary = _round_floats(_simulation_summary(model, x0))
    _write(args.summary, sys.stderr, (json.dumps(summary, sort_keys=True) + "\n",))
    return 0


def _tolerance(raw: str) -> float:
    """Parse a tolerance flag: a finite number strictly between 0 and 1."""
    try:
        value = float(raw)
        check_tolerance(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    except ModelError:
        raise argparse.ArgumentTypeError(f"must be finite with 0 < tol < 1, got {raw!r}") from None
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
