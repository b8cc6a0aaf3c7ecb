"""Seeded inputs and per-model call suites of the four benchmark workloads.

Each workload has an in-process part (a pool of validated models, each run
through a fixed suite of library calls) and a process part (``python -m
matpop.cli`` runs on model files, plus long ``simulate`` runs).  Inputs are
a pure function of the workload seed.  Model sizes and families are laid
out on fixed schedules and only the entries are random, so two seeds give
the same mix of work and their timings can be compared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import matpop
import oracle

WORKLOAD_IDS = {"small": 1, "large": 2, "semelparous": 3, "cli": 4}


@dataclass
class Spec:
    """One input model with the calls its suite makes and the facts known by construction."""

    family: str
    t: np.ndarray
    f: np.ndarray
    leslie: tuple | None = None          # (survival, fertility) for Leslie inputs
    stabilize: bool = False
    targets: tuple = ()
    limit: str | None = None             # "eventual", "periodic" or None
    x0: np.ndarray | None = None
    irreducible: bool | None = None
    period: int | None = None
    _oracle: oracle.Oracle | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def oracle(self) -> oracle.Oracle:
        if self._oracle is None:
            self._oracle = oracle.Oracle(self.t, self.f)
        return self._oracle


@dataclass
class CliFile:
    """A model file for the process part: its path, a target growth and its spec."""

    path: Path
    spec: Spec
    target: str


@dataclass
class Workload:
    name: str
    make_specs: object     # pass index -> list of Specs: the in-process pool
    fresh: bool            # whether each pass draws new entries (else it repeats pass 0)
    pool_seconds: float    # seconds of suite calls per pass at the seed commit, slow host
    cli_files: list        # CliFiles for analyze / scale processes
    simulate: tuple        # (CliFile, steps)
    cli_share: float       # share of the measured time spent in CLI processes


# ---------------------------------------------------------------------------
# Generators (numpy only; the same families as the test suite's helpers)
# ---------------------------------------------------------------------------

def _scale_to(t: np.ndarray, target_rho: float) -> np.ndarray:
    r = oracle.rho(t)
    return t * (target_rho / r) if r > 0.0 else t


def _targets(spec: Spec, rho_t: float, factors) -> tuple:
    r = oracle.rho(spec.t + spec.f)
    return tuple(rho_t + (r - rho_t) * c for c in factors)


def _irreducible(rng, n: int, primitive: bool) -> Spec:
    t = np.zeros((n, n))
    f = np.zeros((n, n))
    for j in range(n):
        i = (j + 1) % n
        if rng.random() < 0.25:
            f[i, j] += rng.uniform(0.2, 1.0)
        else:
            t[i, j] += rng.uniform(0.2, 1.0)
    t += (rng.random((n, n)) < 0.3) * rng.uniform(0.0, 1.0, (n, n))
    f += (rng.random((n, n)) < 0.25) * rng.uniform(0.0, 2.0, (n, n))
    if primitive:
        t[0, 0] = max(t[0, 0], rng.uniform(0.05, 0.2))
    rho_t = rng.uniform(0.2, 0.9)
    t = _scale_to(t, rho_t)
    if f.max() == 0.0:
        f[int(rng.integers(n)), int(rng.integers(n))] = rng.uniform(0.5, 1.5)
    f *= math.exp(rng.uniform(math.log(0.02), math.log(3.0)))
    spec = Spec("primitive" if primitive else "irreducible", t, f, stabilize=True,
                x0=rng.uniform(0.5, 1.5, n))
    spec.irreducible, spec.period = oracle.pattern_facts(t + f)
    spec.targets = _targets(spec, oracle.rho(t), (0.5, 2.0, 4.0))
    spec.limit = "eventual" if spec.period == 1 else "periodic"
    return spec


def _general(rng, n: int) -> Spec:
    """Sparse, frequently reducible model; redrawn until r > 0 and R0 > 0."""
    while True:
        t = (rng.random((n, n)) < 0.35) * rng.uniform(0.0, 1.0, (n, n))
        f = (rng.random((n, n)) < 0.35) * rng.uniform(0.0, 2.0, (n, n))
        if oracle.rho(t) > 0.0:
            t = _scale_to(t, rng.uniform(0.1, 0.9))
        if f.max() == 0.0:
            f[int(rng.integers(n)), int(rng.integers(n))] = rng.uniform(0.5, 1.5)
        f *= math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        if oracle.rho(t + f) > 1e-6 and oracle.rho(oracle.next_generation(t, f)) > 1e-6:
            spec = Spec("general", t, f, stabilize=True)
            spec.irreducible, spec.period = oracle.pattern_facts(t + f)
            return spec


def _leslie_spec(family: str, survival, fertility, x0) -> Spec:
    n = len(fertility)
    t = np.zeros((n, n))
    for i, s in enumerate(survival):
        t[i + 1, i] = s
    f = np.zeros((n, n))
    f[0, :] = fertility
    irreducible = fertility[-1] > 0
    return Spec(family, t, f, leslie=(tuple(survival), tuple(fertility)), x0=x0,
                irreducible=irreducible,
                period=oracle.leslie_period(fertility) if irreducible else None)


def _random_leslie(rng, n: int) -> Spec:
    survival = rng.uniform(0.05, 1.0, n - 1)
    survival[rng.random(n - 1) < 0.15] = 1.0
    fertility = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.6)
    if fertility.sum() == 0.0:
        fertility[int(rng.integers(n))] = rng.uniform(0.5, 2.0)
    fertility *= math.exp(rng.uniform(math.log(0.1), math.log(3.0)))
    spec = _leslie_spec("leslie", survival.tolist(), fertility.tolist(), rng.uniform(0.5, 1.5, n))
    spec.stabilize = True
    if spec.irreducible:
        spec.targets = _targets(spec, 0.0, (0.5, 2.0, 4.0))
        spec.limit = "eventual" if spec.period == 1 else "periodic"
    return spec


def _plant(root: Path) -> Spec:
    data = json.loads((root / "tests" / "fixtures" / "plant.json").read_text())
    spec = Spec("plant", np.array(data["transition"]), np.array(data["fertility"]),
                stabilize=True, targets=(2.0, 0.5, 1.0), x0=np.ones(5))
    spec.irreducible, spec.period = oracle.pattern_facts(spec.t + spec.f)
    spec.limit = "eventual" if spec.period == 1 else "periodic"
    return spec


def _large(rng, n: int, dense: bool) -> Spec:
    """Irreducible, primitive model; column sums of T are at most 0.9, so rho(T) <= 0.9."""
    t = np.zeros((n, n))
    if dense:
        mask = rng.random((n, n)) < 0.1
    else:
        mask = np.zeros((n, n), dtype=bool)
        mask[rng.integers(0, n, (3, n)), np.arange(n)] = True
    t[mask] = rng.uniform(0.0, 1.0, int(mask.sum()))
    cycle = np.arange(n)
    t[(cycle + 1) % n, cycle] += rng.uniform(0.2, 1.0, n)
    t[0, 0] += rng.uniform(0.05, 0.2)
    t *= rng.uniform(0.3, 0.9, n) / t.sum(axis=0)
    f = np.zeros((n, n))
    newborn = max(1, n // 10)
    f[rng.integers(0, newborn, n), np.arange(n)] = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
    f[0, n - 1] += rng.uniform(0.5, 1.5)
    f *= math.exp(rng.uniform(math.log(0.1), math.log(2.0)))
    return Spec("dense" if dense else "sparse", t, f, targets=(1.2,), limit="eventual",
                x0=rng.uniform(0.5, 1.5, n), irreducible=True, period=1)


def _semelparous(n: int) -> Spec:
    return _leslie_spec("semelparous", [0.9] * (n - 1), [0.0] * (n - 1) + [5.0], np.ones(n))


def _iteroparous(rng, d: int, n: int) -> Spec:
    """Leslie model of n classes whose fertile ages are the multiples of d."""
    fertility = [0.0] * n
    for age in range(d, n + 1, d):
        fertility[age - 1] = float(rng.uniform(0.5, 3.0))
    survival = rng.uniform(0.6, 0.95, n - 1).tolist()
    return _leslie_spec("iteroparous", survival, fertility, rng.uniform(0.5, 1.5, n))


def _write_model(path: Path, spec: Spec) -> None:
    if spec.leslie is not None:
        survival, fertility = spec.leslie
        body = {"leslie": {"survival": list(survival), "fertility": list(fertility)}}
    else:
        body = {"transition": spec.t.tolist(), "fertility": spec.f.tolist()}
    path.write_text(json.dumps(body))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _small_specs(rng, root: Path) -> list:
    specs = [_plant(root)]
    for k in range(25):
        specs.append(_irreducible(rng, 2 + k % 9, primitive=False))
        specs.append(_irreducible(rng, 2 + (k + 4) % 9, primitive=True))
        specs.append(_general(rng, 1 + k % 8))
        specs.append(_random_leslie(rng, 1 + k % 12))
    return specs


def _large_specs(rng) -> list:
    # Eight models share the middle size and four the size below the top,
    # so the median and the 90th percentile each fall inside a block of
    # equal-sized models instead of on the step between two sizes.
    sizes = (100, 150, 200, 300, 300, 300, 300, 500, 700)
    specs = [_large(rng, n, dense) for n in sizes for dense in (False, True)]
    return specs + [_large(rng, 1000, dense=True)]


def _semelparous_specs(rng) -> list:
    """The three slowest models once, then six rounds of the rest.

    Repeating the models that certify within a second puts several samples
    of each at the tail percentile, so one slow sample on a noisy host does
    not set it.  With six rounds the 90th percentile of every call falls
    inside the block of six n = 32 models, not on the step between two sizes.
    """
    specs = [_semelparous(200), _semelparous(100), _semelparous(64)]
    for _ in range(6):
        specs += [_semelparous(n) for n in (12, 16, 20, 24, 32, 40, 48)]
        specs += [_iteroparous(rng, 2 + k % 5, (2 + k % 5) * (3 + k // 5 % 4)) for k in range(20)]
    for spec in specs:
        spec.targets = (1.05 * oracle.leslie_r(*spec.leslie),)
        # The limit call stops at n = 64: at n = 200 its spectral_radius
        # fails as analyze does, and n = 100 would double the pass.
        spec.limit = "periodic" if spec.n <= 64 else None
    return specs


def _cli_leslie(rng) -> Spec:
    """Iteroparous, primitive 12-class Leslie model for the cli workload."""
    survival = rng.uniform(0.5, 0.95, 11).tolist()
    fertility = [0.0] * 3 + rng.uniform(0.2, 1.5, 9).tolist()
    spec = _leslie_spec("leslie", survival, fertility, np.ones(12))
    spec.stabilize = True
    spec.targets = (1.5,)
    spec.limit = "eventual"
    return spec


def build_workload(name: str, seed: int, root: Path, work: Path) -> Workload:
    """The workload for a seed; its model files are written under work.

    ``make_specs`` builds the in-process pool of a pass from the seed.  Every
    pass validates new model objects; ``fresh`` workloads also draw new
    entries per pass, the others repeat pass 0's entries so their oracle
    runs once per model.
    """
    stream = WORKLOAD_IDS[name]
    rng = np.random.default_rng([seed, stream, 0])
    plant_file = CliFile(root / "tests" / "fixtures" / "plant.json", _plant(root), "2")

    def pool(make, fresh: bool):
        return lambda i: make(np.random.default_rng([seed, stream, 1, i if fresh else 0]))

    def file_for(spec: Spec, stem: str, target: str) -> CliFile:
        path = work / f"{stem}.json"
        _write_model(path, spec)
        return CliFile(path, spec, target)

    if name == "small":
        family = _irreducible(rng, 8, primitive=True)
        extra = file_for(family, "small8", f"{oracle.rho(family.t) + 0.5:.3f}")
        return Workload(name, pool(lambda g: _small_specs(g, root), True),
                        True, 1.8, [plant_file, extra], (extra, 20000), 0.3)
    if name == "large":
        extra = file_for(_large(rng, 200, dense=False), "large200", "1.2")
        return Workload(name, pool(_large_specs, False), False, 7.0,
                        [plant_file, extra], (extra, 3000), 0.2)
    if name == "semelparous":
        extra = file_for(_semelparous(24), "semelparous24", "1.5")
        return Workload(name, pool(_semelparous_specs, False), False, 22.0,
                        [plant_file, extra], (extra, 10000), 0.3)
    if name == "cli":
        extra = file_for(_cli_leslie(rng), "leslie12", "1.5")
        # Two plants to one Leslie model, so that each median falls inside
        # the plant's samples, not on the step between the two models.
        return Workload(name, pool(lambda g: [_plant(root), _plant(root), _cli_leslie(g)], True),
                        True, 0.045, [plant_file, extra], (plant_file, 100000), 0.7)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Set-up and the per-model suite
# ---------------------------------------------------------------------------

def validate(spec: Spec):
    """The library's model object for a spec, through its public constructors."""
    if spec.leslie is not None:
        survival, fertility = spec.leslie
        return matpop.assemble(matpop.LeslieModel(survival, fertility))
    return matpop.validate_model(spec.t, spec.f)


def suite(spec: Spec, model):
    """Yield (metric, label, thunk, extract) for each call of the spec's fixed suite.

    Functions are looked up on the package at call time so that a traced
    pass goes through the tracer's wrappers.
    """
    yield "analyze", "analyze", lambda: matpop.analyze(model), _extract_analysis
    if spec.stabilize:
        yield "scale", "stabilizing", lambda: matpop.stabilizing_scale(model), _extract_divisor
    for s in spec.targets:
        yield ("scale", ("target", s), lambda s=s: matpop.target_growth_scale(model, s),
               lambda result: {"q": result.q})
    if spec.limit == "eventual":
        yield ("limit", "eventual", lambda: matpop.eventual_limit(model, spec.x0),
               lambda result: {"limit": np.array(result.limit)})
    elif spec.limit == "periodic":
        yield ("limit", "periodic", lambda: matpop.periodic_limits(model, spec.x0),
               lambda result: {"limits": [np.array(w) for w in result.limits],
                               "period": result.period})


def _extract_analysis(report) -> dict:
    return {"r": report.growth_rate, "R0": report.net_reproductive_rate,
            "trichotomy": report.trichotomy.value, "irreducible": report.structure.irreducible,
            "period": report.structure.imprimitivity_index}


def _extract_divisor(scaled) -> dict:
    return {"fertility": np.array(scaled.fertility)}


def reference_rates(spec: Spec) -> tuple[float, float]:
    """Oracle (r, R0): Leslie closed forms for Leslie inputs, LAPACK otherwise."""
    if spec.leslie is not None:
        survival, fertility = spec.leslie
        return oracle.leslie_r(survival, fertility), oracle.leslie_q(survival, fertility, 1.0)
    return spec.oracle.r, spec.oracle.r0


def check(spec: Spec, label, answer: dict) -> str | None:
    """Compare one call's answer with the oracle; return a message on mismatch."""
    o = spec.oracle
    if label == "analyze":
        r_ref, r0_ref = reference_rates(spec)
        if spec.leslie is not None:
            closed = matpop.leslie_growth_rate(matpop.LeslieModel(*spec.leslie))
            if not oracle.close(answer["r"], closed):
                return f"r = {answer['r']!r}, leslie_growth_rate {closed!r}"
        if not oracle.close(answer["r"], r_ref):
            return f"r = {answer['r']!r}, oracle {r_ref!r}"
        if not oracle.close(answer["R0"], r0_ref):
            return f"R0 = {answer['R0']!r}, oracle {r0_ref!r}"
        if answer["trichotomy"] != o.trichotomy():
            return f"trichotomy {answer['trichotomy']}, oracle {o.trichotomy()}"
        if spec.irreducible is not None and answer["irreducible"] != spec.irreducible:
            return f"irreducible = {answer['irreducible']}, expected {spec.irreducible}"
        if spec.period is not None and answer["period"] != spec.period:
            return f"imprimitivity index {answer['period']}, expected {spec.period}"
        return None
    if label == "stabilizing":
        scaled = answer["fertility"]
        k = np.unravel_index(np.argmax(spec.f), spec.f.shape)
        divisor = spec.f[k] / scaled[k]
        if not oracle.close(divisor, o.r0):
            return f"stabilizing divisor {divisor!r}, oracle R0 {o.r0!r}"
        if not oracle.close(o.growth_after(divisor), 1.0):
            return "stabilized model does not grow at rate 1"
        return None
    if isinstance(label, tuple):
        s = label[1]
        if spec.leslie is not None:
            q_ref = oracle.leslie_q(*spec.leslie, s)
            if not oracle.close(answer["q"], q_ref):
                return f"q({s:.6g}) = {answer['q']!r}, closed form {q_ref!r}"
        growth = o.growth_after(answer["q"])
        if not oracle.close(growth, s):
            return f"target {s!r} reached {growth!r}"
        return None
    if label == "eventual":
        return o.check_limit(spec.x0, answer["limit"])
    if label == "periodic":
        return o.check_periodic(spec.x0, answer["limits"], spec.period)
    raise ValueError(label)
