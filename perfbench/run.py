"""matpop benchmark: end-to-end and per-layer metrics on four seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload small --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Every answer is checked against an
independent oracle (see oracle.py).  Diagnostics go to stdout as JSON
lines; the last line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The code under test is ``src/`` of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("small", "large", "semelparous", "cli")
SETUP_REPEATS = 7
SIMULATE_REPEATS = 7
IMPORT_REPEATS = 7
MIN_CLI = 24          # four rounds of the six CLI commands
CLI_PROCESS_S = 0.25  # wall time of one CLI process at the seed commit
KERNEL_PROBE_S = 0.0017        # _kernel_probe on the 2-core VM when it runs fast
REFERENCE_PROCESS_S = 0.2      # REFERENCE_PROCESS on the same VM, likewise
MAX_MEASURE_S = 120   # no new pass starts after this, to end within 180 s
PROCESS_TIMEOUT_S = 120


def _p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _git_tree_hash(path: Path) -> str | None:
    """The git tree id of a directory (``git rev-parse HEAD:src`` for a clean tree)."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc" or child.name.endswith(".egg-info"):
            continue
        if child.is_dir():
            sha = _git_tree_hash(child)
            if sha is None:
                continue
            entries.append((child.name + "/", b"40000 " + child.name.encode(), sha))
        else:
            data = child.read_bytes()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            sha = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
            entries.append((child.name, mode + b" " + child.name.encode(), sha))
    if not entries:
        return None
    body = b"".join(head + b"\0" + bytes.fromhex(sha) for _, head, sha in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def _metadata(args, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": nproc, "thread_cap": nproc, "src_tree": _git_tree_hash(SRC), "commit": commit,
        "loop": "closed, one caller, one process",
    }


class Bench:
    """One run of one workload: timed calls and processes, oracle checks, metrics."""

    def __init__(self, args, workload, env, work: Path):
        import matpop

        self.matpop = matpop
        self.args = args
        self.wl = workload
        self.env = env
        self.work = work
        self.golden = (FIXTURES / "plant_report.json").read_text()
        self.samples = {k: [] for k in ("analyze", "scale", "limit", "cli", "simulate")}
        self.setup = []          # (midpoint, seconds) to build and validate one pool
        self.results = []        # (spec, label, answer) from every pass
        self.specs = None        # the first pass's specs
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()
        self.mismatches = []
        self.models = 0
        self.inproc_s = 0.0      # time inside library calls of the model suites
        self.cli_s = 0.0
        self.speed = HostSpeed(_kernel_probe, KERNEL_PROBE_S, every_s=0.2, snapshot=True)
        # One reference process before every CLI and simulate process.
        self.process_speed = HostSpeed(self.reference_process, REFERENCE_PROCESS_S, every_s=0.0,
                                       snapshot=False)
        self.jobs = [(cli_file, argv) for cli_file in workload.cli_files
                     for argv in (["analyze", str(cli_file.path)],
                                  ["scale", str(cli_file.path), "--stationary"],
                                  ["scale", str(cli_file.path), "--target-growth", cli_file.target])]

    # -- in-process ---------------------------------------------------------

    def _build(self):
        """Build and validate the next pass's pool; time it as one set-up."""
        import workloads

        start = perf_counter()
        specs = self.wl.make_specs(len(self.setup))
        models = [workloads.validate(spec) for spec in specs]
        seconds = perf_counter() - start
        self.setup.append((start + seconds / 2, seconds))
        if self.specs is None:
            self.specs = specs
        return (specs if self.wl.fresh else self.specs), models

    def run_pass(self, before_model=None, before_call=None) -> float:
        """Run every model of a new pool through its suite; return the pass's wall time."""
        import workloads

        specs, models = self._build()
        pass_start = perf_counter()
        for position, (spec, model) in enumerate(zip(specs, models)):
            if before_model is not None:
                before_model(position / len(specs))
            spent = 0.0
            for metric, label, call, extract in workloads.suite(spec, model):
                if before_call is not None:
                    before_call()
                self.attempted += 1
                start = perf_counter()
                try:
                    result = call()
                except self.matpop.Error as exc:
                    elapsed = perf_counter() - start
                    self._fail(exc, f"{spec.family} n={spec.n} {label}")
                else:
                    elapsed = perf_counter() - start
                    self.results.append((spec, label, extract(result)))
                self.samples[metric].append((start + elapsed / 2, elapsed))
                spent += elapsed
            self.models += 1
            self.inproc_s += spent
        return perf_counter() - pass_start

    def _fail(self, exc, where: str) -> None:
        """A NumericalError is a failed call; any other library error is a wrong answer."""
        self.failed += 1
        self.errors[type(exc).__name__] += 1
        if not isinstance(exc, self.matpop.NumericalError):
            self.mismatches.append(f"{where}: unexpected {type(exc).__name__}: {exc}")

    def check_results(self) -> None:
        import workloads

        for spec, label, answer in self.results:
            problem = workloads.check(spec, label, answer)
            if problem is not None:
                self.failed += 1
                self.mismatches.append(f"{spec.family} n={spec.n} {label}: {problem}")

    # -- processes ----------------------------------------------------------

    def _process(self, argv) -> tuple[float, int, str]:
        start = perf_counter()
        try:
            done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return perf_counter() - start, -1, ""
        return perf_counter() - start, done.returncode, done.stdout

    def cli_process(self, job) -> None:
        cli_file, argv = job
        seconds, code, text = self._process(["-m", "matpop.cli", *argv])
        self.samples["cli"].append((perf_counter() - seconds / 2, seconds))
        self.cli_s += seconds
        self._record_cli(cli_file, argv, code, text)

    def _record_cli(self, cli_file, argv, code: int, text: str) -> None:
        self.attempted += 1
        if code == 3:
            self.failed += 1
            self.errors["exit 3"] += 1
            return
        problem = f"exit code {code}" if code != 0 else self._check_cli(cli_file, argv, text)
        if problem is not None:
            self.failed += 1
            self.mismatches.append(f"cli {' '.join(argv[:1] + argv[2:])} {cli_file.path.name}: {problem}")

    def _check_cli(self, cli_file, argv, text: str) -> str | None:
        import oracle
        import workloads

        if argv[0] == "analyze":
            if cli_file.spec.family == "plant":
                return None if text == self.golden else "output differs from plant_report.json"
            report = json.loads(text)
            r_ref, r0_ref = workloads.reference_rates(cli_file.spec)
            if not oracle.close(report["r"], r_ref, 1e-8) or not oracle.close(report["R0"], r0_ref, 1e-8):
                return f"r, R0 = {report['r']}, {report['R0']}; oracle {r_ref!r}, {r0_ref!r}"
            return None
        report = json.loads(text)
        target = 1.0 if "--stationary" in argv else float(argv[-1])
        if report["achieved_growth"] != oracle.nine_digits(target):
            return f"achieved_growth {report['achieved_growth']} for target {target}"
        return None

    def _simulate_argv(self, steps: int, tag: str) -> tuple[list, Path, Path]:
        cli_file, _ = self.wl.simulate
        out = self.work / f"simulate-{tag}.csv"
        summary = self.work / f"simulate-{tag}.json"
        # The one-column file form of --x0: a comma list of a few hundred
        # entries is taken for a path first and ends in an OSError.
        x0 = self.work / "x0.txt"
        x0.write_text("1\n" * cli_file.spec.n)
        argv = ["simulate", str(cli_file.path), "--x0", str(x0), "--steps", str(steps),
                "--normalize", "--out", str(out), "--summary", str(summary)]
        return argv, out, summary

    def _finish_simulate(self, code: int, steps: int, out: Path, summary: Path) -> None:
        import oracle
        import workloads

        self.attempted += 1
        problem = None
        if code == 3:
            self.failed += 1
            self.errors["exit 3"] += 1
        elif code != 0:
            problem = f"exit code {code}"
        else:
            with out.open() as handle:
                lines = sum(1 for _ in handle)
            r_ref, _ = workloads.reference_rates(self.wl.simulate[0].spec)
            reported = json.loads(summary.read_text())["r"]
            if lines != steps + 2:
                problem = f"CSV has {lines} lines for {steps} steps"
            elif not oracle.close(reported, r_ref, 1e-8):
                problem = f"summary r = {reported}, oracle {r_ref!r}"
        if problem is not None:
            self.failed += 1
            self.mismatches.append(f"simulate: {problem}")
        out.unlink(missing_ok=True)
        summary.unlink(missing_ok=True)

    def simulate_process(self) -> None:
        steps = self.wl.simulate[1]
        argv, out, summary = self._simulate_argv(steps, str(len(self.samples["simulate"])))
        seconds, code, _ = self._process(["-m", "matpop.cli", *argv])
        self.samples["simulate"].append((perf_counter() - seconds / 2, seconds))
        self._finish_simulate(code, steps, out, summary)

    def reference_process(self) -> float:
        """Wall seconds of one REFERENCE_PROCESS, the process clock's probe."""
        seconds, status, _ = self._process(["-c", REFERENCE_PROCESS])
        if status != 0:
            raise RuntimeError("the reference process failed")
        return seconds

    def import_probe(self, module: str) -> float:
        """Seconds to import a module in a fresh interpreter, timed inside it."""
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        _, status, text = self._process(["-c", code])
        if status != 0:
            raise RuntimeError(f"cannot import {module} from {SRC}")
        return float(text)

    # -- traced run ---------------------------------------------------------

    def _main_to_file(self, argv) -> tuple[int, str]:
        sink = self.work / "stdout.txt"
        with sink.open("w") as handle, redirect_stdout(handle):
            code = self.matpop.cli.main(argv)
        return code, sink.read_text()

    def cli_in_process(self) -> None:
        """The CLI commands and one shorter simulate through ``matpop.cli.main``."""
        for cli_file, argv in self.jobs:
            code, text = self._main_to_file(argv)
            self._record_cli(cli_file, argv, code, text)
        steps = max(1, self.wl.simulate[1] // 10)
        argv, out, summary = self._simulate_argv(steps, "traced")
        self._finish_simulate(self.matpop.cli.main(argv), steps, out, summary)

    def plant_counts(self, tracer) -> dict:
        """Kernel and structure calls made by ``cli analyze`` and ``cli scale`` on the plant."""
        plant = str(FIXTURES / "plant.json")
        counts = {}
        for command, argv in (("cmd_analyze", ["analyze", plant]),
                              ("cmd_scale", ["scale", plant, "--target-growth", "2"])):
            before = Counter(tracer.nested)
            code, text = self._main_to_file(argv)
            if code != 0 or (command == "cmd_analyze" and text != self.golden):
                self.mismatches.append(f"traced plant {command} output is wrong")
            for layer, fn in (("spectral", "spectral_radius"), ("structure", "analyze_structure")):
                key = (f"cli.{command}", f"{layer}.{fn}")
                counts[f"plant.{command}.{fn}_calls"] = tracer.nested[key] - before[key]
        return counts


def _latency_metrics(prefix: str, samples: list[float]) -> dict:
    return {f"{prefix}_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            f"{prefix}_tail_ms": (_p90(samples) * 1e3, "ms")}


def _kernel_probe() -> float:
    """Seconds for a fixed loop shaped like the Perron kernel's inner loop."""
    import numpy as np

    a = np.linspace(0.5, 1.5, 64).reshape(8, 8)
    x = np.full(8, 0.125)
    start = perf_counter()
    for _ in range(300):
        y = a @ x
        ratios = y / x
        float(ratios.min()), float(ratios.max())
        x = y / y.sum()
    return perf_counter() - start


# A fresh interpreter that starts up, imports what the CLI imports and runs
# a short numpy loop: the shape of a CLI or simulate process, without matpop.
REFERENCE_PROCESS = """\
import argparse, csv, json
import numpy as np
a = np.linspace(0.5, 1.5, 64).reshape(8, 8)
x = np.full(8, 0.125)
for _ in range(10000):
    y = a @ x
    x = y / y.sum()
"""


class HostSpeed:
    """A clock of host speed, for scaling times to a reference speed.

    On a shared VM the same work can take 1.8 times longer from one second
    to the next: the host flips between a fast and a slow state every second
    or so, and the share of slow time drifts over minutes.  A fixed probe
    that runs no matpop code is timed between the measured calls, at most
    every ``every_s``.  A sample is scaled by ``reference_s`` over the
    median of the probes within PROBE_WINDOW_S plus its own length of its
    midpoint (at least the three nearest).  A probe much shorter than a
    state (a ``snapshot``) sees one state; a sample longer than the window
    sees the average of many, so it is scaled by the mean of those probes
    instead.
    """

    PROBE_WINDOW_S = 0.5
    FEWEST = 3

    def __init__(self, probe, reference_s: float, every_s: float, snapshot: bool):
        self.probe = probe
        self.reference_s = reference_s
        self.every_s = every_s
        self.snapshot = snapshot
        self.times: list[float] = []
        self.values: list[float] = []

    def tick(self) -> None:
        if not self.times or perf_counter() - self.times[-1] > self.every_s:
            value = self.probe()
            self.times.append(perf_counter())
            self.values.append(value)

    def scaled(self, samples: list[tuple[float, float]]) -> list[float]:
        """Seconds at the reference speed for (midpoint, seconds) samples."""
        out = []
        for t, seconds in samples:
            i = bisect.bisect_left(self.times, t)
            reach = seconds + self.PROBE_WINDOW_S
            lo = bisect.bisect_left(self.times, t - reach)
            hi = bisect.bisect_right(self.times, t + reach)
            if hi - lo >= self.FEWEST:
                chosen = range(lo, hi)
            else:
                nearby = range(max(0, i - self.FEWEST), min(len(self.times), i + self.FEWEST))
                chosen = sorted(nearby, key=lambda k: abs(self.times[k] - t))[:self.FEWEST]
            averaged = self.snapshot and seconds >= self.PROBE_WINDOW_S
            center = statistics.fmean if averaged else statistics.median
            out.append(seconds * self.reference_s / center([self.values[k] for k in chosen]))
        return out


def plan(bench: Bench) -> tuple[int, int]:
    """Passes over the pool and CLI processes for a run of --seconds at the seed's speed.

    The work of a run is fixed by the seed and --seconds alone, so every run
    of a workload draws the same number of samples and a tail percentile
    means the same thing in each of them.
    """
    wl, seconds = bench.wl, bench.args.seconds
    passes = max(1, round(seconds * (1.0 - wl.cli_share) / wl.pool_seconds))
    processes = max(MIN_CLI, round(seconds * wl.cli_share / CLI_PROCESS_S))
    return passes, processes


def run_untraced(bench: Bench, details: dict) -> dict:
    """Model suites, CLI processes and simulate runs, interleaved across the run.

    CLI and simulate processes are issued in step with the models done, so
    every metric's samples spread over the whole run and a change in host
    speed during the run reaches them all alike.
    """
    wl = bench.wl
    passes, processes = plan(bench)
    jobs = itertools.cycle(bench.jobs)
    start = perf_counter()

    speed, process_speed = bench.speed, bench.process_speed
    imports = []

    def catch_up(progress: float) -> None:
        speed.tick()
        while len(bench.samples["cli"]) < processes * progress:
            process_speed.tick()
            bench.cli_process(next(jobs))
            speed.tick()
        while len(bench.samples["simulate"]) < SIMULATE_REPEATS * progress - 0.5:
            process_speed.tick()
            bench.simulate_process()
            speed.tick()
        while len(imports) < IMPORT_REPEATS * progress:
            seconds = bench.import_probe("matpop")
            imports.append((perf_counter() - seconds / 2, seconds))

    for done in range(passes):
        bench.run_pass(lambda within, done=done: catch_up((done + within) / passes), speed.tick)
        if perf_counter() - start > MAX_MEASURE_S and done + 1 < passes:
            details["stopped_after_passes"] = done + 1
            break
    catch_up(1.0)
    process_speed.tick()
    measured_s = perf_counter() - start
    while len(bench.setup) < SETUP_REPEATS:
        speed.tick()
        bench._build()
    speed.tick()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    bench.check_results()

    raw = {k: [x for _, x in v] for k, v in bench.samples.items()}
    by_process = ("cli", "simulate")
    at_ref = {k: (process_speed if k in by_process else speed).scaled(v) for k, v in bench.samples.items()}
    suites_s = sum(sum(at_ref[k]) for k in ("analyze", "scale", "limit"))
    setup_s = (statistics.median(process_speed.scaled(imports))
               + statistics.median(speed.scaled(bench.setup)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "models_per_s": (bench.models / suites_s, "1/s"),
    }
    for prefix in ("analyze", "scale", "limit"):
        metrics.update(_latency_metrics(prefix, at_ref[prefix]))
    metrics.update(_latency_metrics("cli", at_ref["cli"]))
    metrics["simulate_s"] = (statistics.median(at_ref["simulate"]), "s")
    metrics["peak_rss_mb"] = (child_rss if wl.name == "cli" else self_rss, "MB")
    metrics["ok_frac"] = (1.0 - bench.failed / bench.attempted, "ratio")

    unscaled = {"models_per_s": bench.models / bench.inproc_s,
                "simulate_s": statistics.median(raw["simulate"]),
                "setup_s": (statistics.median(x for _, x in imports)
                            + statistics.median(x for _, x in bench.setup))}
    for prefix in ("analyze", "scale", "limit", "cli"):
        unscaled.update((k, v) for k, (v, _) in _latency_metrics(prefix, raw[prefix]).items())
    details.update(samples={k: len(v) for k, v in raw.items()}, unscaled=unscaled,
                   probe_median_s=statistics.median(speed.values), probes=len(speed.values),
                   reference_process_median_s=statistics.median(process_speed.values),
                   reference_processes=len(process_speed.values),
                   import_matpop_s=[x for _, x in imports], setup_builds=len(bench.setup), models=bench.models,
                   inprocess_s=bench.inproc_s, cli_s=bench.cli_s, measured_s=measured_s,
                   self_peak_rss_mb=self_rss, children_peak_rss_mb=child_rss)
    return metrics


def run_traced(bench: Bench, details: dict) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer()
    swapped = tracer.install()
    leftover = tracer.unwrapped_references()
    if leftover:
        bench.mismatches.append(f"tracer left original references: {leftover}")
    plant = bench.plant_counts(tracer)
    tracer.uninstall()

    # Untraced and traced passes alternate so host drift hits both alike.
    passes, _ = plan(bench)
    plain = traced = 0.0
    for _ in range(max(1, passes // 2)):
        plain += bench.run_pass()
        tracer.install()
        traced += bench.run_pass()
        tracer.uninstall()
    tracer.install()
    bench.cli_in_process()
    bench.check_results()
    tracer.uninstall()
    import_s = statistics.median(bench.import_probe("matpop.cli") for _ in range(IMPORT_REPEATS))

    metrics = {}
    for name in tracing.traced_names():
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    metrics[f"{tracing.KERNEL}.failed"] = (tracer.kernel_failures, "count")
    scale = ("model.stabilizing_scale", "model.target_growth_scale")
    for child, parents, label in (
        ("spectral.spectral_radius", ("model.analyze",), "analyze"),
        ("structure.analyze_structure", ("model.analyze",), "analyze"),
        ("spectral.spectral_radius", scale, "scale"),
        ("structure.analyze_structure", scale, "scale"),
        ("matrices.as_matrix", ("model.analyze",), "analyze"),
    ):
        nested = sum(tracer.nested[(parent, child)] for parent in parents)
        calls = sum(tracer.calls[parent] for parent in parents)
        metrics[f"{child}.calls_per_{label}"] = (nested / calls, "ratio")
    for name, value in plant.items():
        metrics[name] = (value, "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    details.update(wrapped_references=swapped, untraced_pass_s=plain, traced_pass_s=traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    required = (SRC / "matpop" / "__init__.py", FIXTURES / "plant.json", FIXTURES / "plant_report.json")
    missing = [str(path.relative_to(ROOT)) for path in required if not path.is_file()]
    if missing:
        print(f"perfbench: not a matpop checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import matpop
    import matpop.cli  # noqa: F401  (loaded before the tracer patches namespaces)
    if Path(matpop.__file__).resolve().parent != (SRC / "matpop").resolve():
        print(f"perfbench: imported matpop from {matpop.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        workload = workloads.build_workload(args.workload, args.seed, ROOT, work)
        bench = Bench(args, workload, env, work)
        details = {"metadata": _metadata(args, nproc)}
        metrics = run_traced(bench, details) if args.trace else run_untraced(bench, details)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    details.update(attempted=bench.attempted, failed=bench.failed, errors=dict(bench.errors),
                   mismatches=bench.mismatches[:20])
    print(json.dumps({"details": details}, default=float))
    print(json.dumps({
        "correct": not bench.mismatches,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
