"""In-process byte sweep of the matpop CLI over seeded model families.

    python tools/cli_sweep.py record OUT.jsonl [--src SRC] [--seeds 1 2] [--every K]
    python tools/cli_sweep.py compare OLD_CHECKOUT NEW_CHECKOUT [--seeds 1 2] [--every K]
    python tools/cli_sweep.py wide OLD_CHECKOUT NEW_CHECKOUT [--seeds 1 2]

`record` imports matpop from SRC (default: this checkout's src) and calls
`matpop.cli.main(argv)` once per run, with stdout and stderr captured and
every warning shown.  It writes one JSON line per run: the argv, the exit
code, both streams and the run's wall time in seconds, with the model
directory written as <dir>.  A run that escapes main with an exception
other than SystemExit records the code "traceback" and the formatted
traceback as its stderr.  With --wide it records the wide runs instead.

`compare` records each checkout in a child process, from its own src, and
prints every run whose exit code, stdout or stderr differ, and every run of
the new checkout that leaks: a "traceback" code or a Python warning in its
stderr, which the old checkout may share.  Then it writes to stderr what
moved, as a count of differing runs per command and per changed field:
each top-level key of a JSON stdout whose value differs, as in
"analyze stability_residual: 109", else "stdout", and "code" and "stderr".
It exits 1 if any run differs or leaks.

`wide` records the wide runs of each checkout the same way: analyze,
scale --stationary and scale --target-growth 2 of WIDE_MODELS models
per seed, each of order 1-3 with every entry of T and F drawn from
WIDE_VALUES, zero, subnormals and entries next to the largest float.  It
prints the count of each (command, old exit code, new exit code), every
run that leaves exit 0, every run that keeps its exit code but changes
stdout or stderr, as compare prints it, with their count per command, and
each side's count of runs over SLOW_SECONDS.  It exits 1 if a run of
the new checkout leaks or leaves exit 0.  It takes about a minute per seed
per checkout; keep it out of CI.

The runs are analyze, scale --stationary, scale --target-growth (two
targets between rho(T) and 4 rho(T + F), 2.0, and a power of ten up to
1e6) and simulate (1 to 59 steps of the all-ones x0, with and without
--normalize, and with --normalize just over two chunks of the CSV
writer, so that each crosses a chunk boundary and reaches rows of the
previous chunk) of every model of these families, drawn by numpy alone from
each seed: random stage-structured models with n <= 10 (irreducible and
primitive, and general, often reducible, ones), random cyclic models of
index 2-6 with 1-3 classes per cycle step, random Leslie models with
n <= 39, iteroparous Leslie models of index 2-10, semelparous Leslie
models with n = 10-32, 1-class Leslie models, and two slow Leslie models
of 8 and 40 classes.  --every K keeps every K-th model of each seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# The line warnings.showwarning writes: "<file>:<line>: <category>: <message>".
WARNING_LINE = re.compile(r"^.+:\d+: \w*Warning: ", re.MULTILINE)
SLOW_LESLIE = (
    ([0.325, 0.408, 0.389, 0.601, 0.335, 0.622, 0.432], [0.0, 2.292, 2.39, 0.0, 0.0, 0.0, 0.0, 1.5]),
    ([1e-8] * 39, [1.0] + [0.0] * 38 + [1.0]),
)
# The entries of the wide models, which tests/test_cli.py draws from too: zero, subnormals,
# and entries next to the largest float.
WIDE_VALUES = [0.0, 5e-324, 1e-300, 1e-10, 0.3, 0.9, 1.0, 1e10, 1e300, 1.7e308]
# The wide models drawn per seed.
WIDE_MODELS = 1500
# A run of the wide sweep slower than this many seconds is counted as slow.
SLOW_SECONDS = 0.3
# Values per chunk of matpop.cli's CSV writer, CSV_CHUNK_VALUES; a constant here, so
# that both checkouts of a compare run the same argv.
CSV_CHUNK_VALUES = 4096
# The fields of a recorded run that compare holds equal.
OUTCOME = ("code", "stdout", "stderr")


def _rho(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(m)).max()) if m.size else 0.0


def _stage(rng, primitive: bool) -> dict:
    """An irreducible model (a full cycle through T and F), or a general one, often reducible."""
    n = int(rng.integers(1 if primitive is None else 2, 11))
    t = (rng.random((n, n)) < 0.3) * rng.uniform(0.0, 1.0, (n, n))
    f = (rng.random((n, n)) < 0.25) * rng.uniform(0.0, 2.0, (n, n))
    if primitive is not None:
        for j in range(n):
            (f if rng.random() < 0.25 else t)[(j + 1) % n, j] += rng.uniform(0.2, 1.0)
        if primitive:
            t[0, 0] += rng.uniform(0.05, 0.2)
    if _rho(t) > 0.0:
        t *= rng.uniform(0.1, 0.9) / _rho(t)
    if f.max() == 0.0:
        f[int(rng.integers(n)), int(rng.integers(n))] = 1.0
    return {"transition": t.tolist(), "fertility": (f * math.exp(rng.uniform(-4.0, 1.1))).tolist()}


def _cyclic(rng, period: int) -> dict:
    """Index period: classes of 1-3 members, every map positive, F holding the map back to class 0."""
    sizes = rng.integers(1, 4, period)
    starts = np.cumsum([0, *sizes])
    t = np.zeros((starts[-1], starts[-1]))
    f = np.zeros_like(t)
    for c in range(period):
        rows = slice(starts[(c + 1) % period], starts[(c + 1) % period + 1])
        target = f if c == period - 1 else t
        target[rows, starts[c] : starts[c + 1]] = rng.uniform(0.1, 1.0, (sizes[(c + 1) % period], sizes[c]))
    t /= max(1.0, float(t.sum(axis=0).max()))
    return {"transition": t.tolist(), "fertility": (f * math.exp(rng.uniform(-2.3, 1.6))).tolist()}


def _leslie(survival, fertility) -> dict:
    return {"leslie": {"survival": [float(x) for x in survival], "fertility": [float(x) for x in fertility]}}


def _random_leslie(rng) -> dict:
    n = int(rng.integers(1, 40))
    survival = rng.uniform(0.05, 1.0, n - 1)
    fertility = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
    if fertility.max() == 0.0:
        fertility[-1] = 1.0
    return _leslie(survival, fertility * math.exp(rng.uniform(-2.3, 1.1)))


def _iteroparous(rng, d: int) -> dict:
    n = d * int(rng.integers(1, 4))
    fertility = np.zeros(n)
    fertility[d - 1 :: d] = rng.uniform(0.2, 3.0, n // d)
    return _leslie(rng.uniform(0.3, 0.95, n - 1), fertility)


def models(seed: int) -> list[dict]:
    """The sweep's models for a seed."""
    rng = np.random.default_rng([seed, 7])
    found = [_leslie(*pair) for pair in SLOW_LESLIE]
    return (
        [_stage(rng, k % 2 == 0) for k in range(60)]
        + [_stage(rng, None) for _ in range(30)]
        + [_cyclic(rng, 2 + k % 5) for k in range(25)]
        + [_random_leslie(rng) for _ in range(30)]
        + [_iteroparous(rng, 2 + k % 9) for k in range(18)]
        + [_leslie(rng.uniform(0.3, 0.9, n - 1), [0.0] * (n - 1) + [rng.uniform(1.0, 50.0)])
           for n in range(10, 33, 2)]
        + [_leslie([], [rng.uniform(0.1, 3.0)]) for _ in range(3)]
        + (found if seed == 1 else [])
    )


def _matrices(data: dict) -> tuple[np.ndarray, np.ndarray]:
    if "leslie" not in data:
        return np.array(data["transition"]), np.array(data["fertility"])
    survival, fertility = data["leslie"]["survival"], data["leslie"]["fertility"]
    n = len(fertility)
    t = np.zeros((n, n))
    t[np.arange(1, n), np.arange(n - 1)] = survival
    f = np.zeros((n, n))
    f[0] = fertility
    return t, f


def runs(seeds, every: int, directory: Path):
    """Yield the argv of every run, writing each model file into directory."""
    index = 0
    for seed in seeds:
        for k, data in enumerate(models(seed)[::every]):
            path = directory / f"m{seed}_{k}.json"
            path.write_text(json.dumps(data))
            t, f = _matrices(data)
            rho_t, r = _rho(t), _rho(t + f)
            targets = [rho_t + (4.0 * r - rho_t) * u for u in (0.3, 0.7) if 4.0 * r > rho_t]
            targets += [2.0, 10.0 ** (1 + index % 6)]
            yield ["analyze", str(path)]
            yield ["scale", str(path), "--stationary"]
            for s in targets:
                yield ["scale", str(path), "--target-growth", repr(s)]
            steps = str(1 + index % 59)
            x0 = ",".join(["1"] * len(t))
            yield ["simulate", str(path), "--x0", x0, "--steps", steps]
            yield ["simulate", str(path), "--x0", x0, "--steps", steps, "--normalize"]
            long_steps = str(2 * (CSV_CHUNK_VALUES // (len(t) + 2)) + 1)
            yield ["simulate", str(path), "--x0", x0, "--steps", long_steps, "--normalize"]
            index += 1


def wide_runs(seeds, count: int, directory: Path):
    """Yield the argv of analyze, scale --stationary and scale --target-growth 2 of count wide models per seed."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for k in range(count):
            n = int(rng.integers(1, 4))
            t = rng.choice(WIDE_VALUES, (n, n))
            f = rng.choice(WIDE_VALUES, (n, n))
            path = directory / f"w{seed}_{k}.json"
            path.write_text(json.dumps({"transition": t.tolist(), "fertility": f.tolist()}))
            yield ["analyze", str(path)]
            yield ["scale", str(path), "--stationary"]
            yield ["scale", str(path), "--target-growth", "2"]


def run(main, argv) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of main(argv), or ("traceback", stdout, the traceback)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            return "traceback", out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def record(out_path: Path, seeds, every: int, wide: bool = False) -> None:
    from matpop.cli import main

    with tempfile.TemporaryDirectory() as tmp, open(out_path, "w") as out:
        argvs = wide_runs(seeds, WIDE_MODELS, Path(tmp)) if wide else runs(seeds, every, Path(tmp))
        for argv in argvs:
            start = time.perf_counter()
            code, stdout, stderr = run(main, argv)
            line = {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr,
                    "seconds": time.perf_counter() - start}
            out.write(json.dumps(line).replace(tmp, "<dir>") + "\n")


def leaks(line: dict) -> bool:
    """Whether a recorded run escaped main with a traceback or wrote a Python warning to stderr."""
    return line["code"] == "traceback" or WARNING_LINE.search(line["stderr"]) is not None


def _record_both(old: Path, new: Path, seeds, options: list[str]) -> list[list[dict]]:
    """The recorded runs of each checkout, each recorded in a child process from its own src."""
    with tempfile.TemporaryDirectory() as tmp:
        records = []
        for label, checkout in (("old", old), ("new", new)):
            path = Path(tmp) / f"{label}.jsonl"
            subprocess.run(
                [sys.executable, __file__, "record", str(path), "--src", str(checkout / "src"),
                 *options, "--seeds", *map(str, seeds)],
                check=True,
            )
            with path.open() as lines:
                records.append([json.loads(line) for line in lines])
    return records


def _differing(a: dict, b: dict) -> dict:
    """The line that prints a run whose outcome differs between two checkouts."""
    return {"argv": a["argv"], "old": {k: a[k] for k in OUTCOME}, "new": {k: b[k] for k in OUTCOME}}


def _changed_fields(a: dict, b: dict) -> list[str]:
    """The fields in which two runs' outcomes differ: "code", "stderr", and each top-level key of a JSON
    object on stdout whose value differs, or "stdout" where either side's stdout is not such an object."""
    fields = [k for k in ("code", "stderr") if a[k] != b[k]]
    if a["stdout"] != b["stdout"]:
        try:
            old, new = json.loads(a["stdout"]), json.loads(b["stdout"])
        except json.JSONDecodeError:
            old = new = None
        if isinstance(old, dict) and isinstance(new, dict):
            fields += sorted(k for k in old.keys() | new.keys() if k not in old or k not in new or old[k] != new[k])
        else:
            fields.append("stdout")
    return fields


def compare_tally(old: list[dict], new: list[dict]) -> Counter:
    """The count of differing runs per (command, changed field), over two checkouts' runs."""
    return Counter(
        (a["argv"][0], field) for a, b in zip(old, new, strict=True) for field in _changed_fields(a, b)
    )


def compare(old: Path, new: Path, seeds, every: int) -> int:
    records = _record_both(old, new, seeds, ["--every", str(every)])
    differing = leaking = 0
    for a, b in zip(*records, strict=True):
        if any(a[k] != b[k] for k in OUTCOME):
            differing += 1
            print(json.dumps(_differing(a, b)))
        if leaks(b):
            leaking += 1
            print(json.dumps({"argv": b["argv"], "leak": {k: b[k] for k in ("code", "stderr")}}))
    for (command, field), count in sorted(compare_tally(*records).items()):
        print(f"{command} {field}: {count}", file=sys.stderr)
    print(f"{len(records[0])} runs, {differing} differing, {leaking} leaking", file=sys.stderr)
    return 1 if differing or leaking else 0


def wide_tally(old: list[dict], new: list[dict]) -> tuple[Counter, Counter, list[dict]]:
    """Two checkouts' wide runs tallied: the count of each (command, old exit code, new exit code),
    the count per command of runs that keep their exit code but change stdout or stderr, and those runs' lines."""
    outcomes, moved, lines = Counter(), Counter(), []
    for a, b in zip(old, new, strict=True):
        command = " ".join([a["argv"][0], *a["argv"][2:]])
        outcomes[command, a["code"], b["code"]] += 1
        if a["code"] == b["code"] and any(a[k] != b[k] for k in OUTCOME):
            moved[command] += 1
            lines.append(_differing(a, b))
    return outcomes, moved, lines


def wide(old: Path, new: Path, seeds) -> int:
    records = _record_both(old, new, seeds, ["--wide"])
    outcomes, moved, lines = wide_tally(*records)
    for line in lines:
        print(json.dumps(line))
    left = leaking = 0
    for a, b in zip(*records, strict=True):
        if a["code"] == 0 and b["code"] != 0:
            left += 1
            print(json.dumps({"argv": a["argv"], "old": a["code"], "new": {k: b[k] for k in ("code", "stderr")}}))
        if leaks(b):
            leaking += 1
            print(json.dumps({"argv": b["argv"], "leak": {k: b[k] for k in ("code", "stderr")}}))
    for (command, was, now), count in sorted(outcomes.items(), key=str):
        print(f"{command:<26} {was!s:>9} -> {now!s:<9} {count:>6}")
    for command, count in sorted(moved.items()):
        print(f"{command:<26} same exit code, other bytes {count:>6}")
    for label, side in zip(("old", "new"), records):
        codes = Counter(line["code"] for line in side)
        slow = sum(line["seconds"] > SLOW_SECONDS for line in side)
        print(f"{label}: exit codes {dict(sorted(codes.items(), key=str))}, {slow} runs over {SLOW_SECONDS} s")
    print(f"{len(records[0])} runs, {left} leaving exit 0, {leaking} leaking", file=sys.stderr)
    return 1 if left or leaking else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="In-process byte sweep of the matpop CLI.")
    commands = parser.add_subparsers(dest="command", required=True)
    one = commands.add_parser("record", help="record every run of one checkout as JSON lines")
    one.add_argument("out", type=Path)
    one.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the matpop package")
    one.add_argument("--wide", action="store_true", help="record the wide runs instead")
    two = commands.add_parser("compare", help="record two checkouts and list the runs that differ")
    three = commands.add_parser("wide", help="record two checkouts' wide runs and count their exit codes")
    for sub in (two, three):
        sub.add_argument("old", type=Path)
        sub.add_argument("new", type=Path)
    for sub in (one, two, three):
        sub.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    for sub in (one, two):
        sub.add_argument("--every", type=int, default=1, help="keep every K-th model of each seed")
    return parser


if __name__ == "__main__":
    args = _parser().parse_args()
    if args.command == "record":
        sys.path.insert(0, str(args.src.resolve()))
        record(args.out, args.seeds, args.every, args.wide)
    elif args.command == "compare":
        sys.exit(compare(args.old.resolve(), args.new.resolve(), args.seeds, args.every))
    else:
        sys.exit(wide(args.old.resolve(), args.new.resolve(), args.seeds))
