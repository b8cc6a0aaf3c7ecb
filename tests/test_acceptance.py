"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and fails with the list of violated sub-checks, if any.
"""

import itertools
import math
import time

import numpy as np

from matpop import (
    Fate,
    LeslieModel,
    Trichotomy,
    analyze,
    assemble,
    eventual_limit,
    iterate,
    leslie_growth_rate,
    leslie_r0,
    next_gen_pattern,
    periodic_limits,
    perron_pair,
    q_poly_eval,
    r0_positive,
    spectral_radius,
    stabilizing_scale,
    target_growth_scale,
    validate_model,
)
from helpers import (
    PLANT_NEWBORN,
    PLANT_Q,
    PLANT_R,
    PLANT_R0,
    PLANT_STABLE,
    char_poly_spectral_radius,
    plant_model,
    plant_q_of_s,
    plant_r0_of_s,
    plant_stable_of_s,
    random_general_model,
    random_irreducible_model,
    random_leslie_model,
    random_primitive_model,
)


def _finish(name: str, failures: list[str]) -> None:
    print(f"ACCEPTANCE {name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{name}: {failures}"


def _proportional(actual, expected, tol: float) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.max(np.abs(actual / actual.sum() - expected / expected.sum()))) <= tol


def test_criterion_1_plant_lifecycle_golden_suite():
    failures = []
    started = time.perf_counter()
    model = plant_model()

    report = analyze(model)
    if abs(report.growth_rate - PLANT_R) > 1e-9:
        failures.append(f"growth rate {report.growth_rate} != sqrt(2)/2")
    if abs(report.net_reproductive_rate - PLANT_R0) > 1e-10:
        failures.append(f"net reproductive rate {report.net_reproductive_rate} != 3/8")
    if float(np.max(np.abs(model.next_generation - PLANT_Q))) > 1e-12:
        failures.append("next generation matrix mismatch")

    pair = perron_pair(model.projection)
    if not _proportional(pair.right, PLANT_STABLE, 1e-8):
        failures.append("right Perron vector of P not proportional to the stable population")

    # Perron vector of the (reducible) next generation matrix, through its
    # irreducible leading block.
    live = list(report.q_pattern.q11_indices)
    block_pair = perron_pair(model.next_generation[np.ix_(live, live)])
    newborn = np.zeros(model.n)
    newborn[live] = block_pair.right
    if not _proportional(newborn, PLANT_NEWBORN, 1e-8):
        failures.append("Perron vector of Q not proportional to the newborn distribution")

    for s in (0.5, math.sqrt(2.0) / 2.0, 1.0, 2.0):
        result = target_growth_scale(model, s)
        if abs(result.q - plant_q_of_s(s)) > 1e-9:
            failures.append(f"q({s}) = {result.q} != closed form")
        if abs(result.r0_scaled - plant_r0_of_s(s)) > 1e-9:
            failures.append(f"R0({s}) = {result.r0_scaled} != closed form")
        stable = perron_pair(result.scaled.projection).right
        if not _proportional(stable, plant_stable_of_s(s), 1e-8):
            failures.append(f"stable population of the s={s} scaled model mismatch")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s exceeds 1s")
    _finish("1 (plant lifecycle golden suite)", failures)


def test_criterion_2_stability_scaling_strict_trichotomy():
    failures = []
    started = time.perf_counter()
    rng = np.random.default_rng(20260801)
    for index in range(1000):
        model = random_irreducible_model(rng, n_max=10, rho_cap=0.9)
        r = spectral_radius(model.projection)
        r0 = spectral_radius(model.next_generation)
        scaled = stabilizing_scale(model)
        residual = abs(spectral_radius(scaled.projection) - 1.0)
        if residual > 1e-8:
            failures.append(f"model {index}: |rho(T + F/R0) - 1| = {residual}")
        branches = [
            abs(r - 1.0) <= 1e-9 and abs(r0 - 1.0) <= 1e-9,
            1.0 < r < r0 + 1e-9,
            1e-9 < r0 < r + 1e-9 and r < 1.0,
        ]
        if sum(branches) != 1:
            failures.append(f"model {index}: trichotomy branches {branches} for r={r}, R0={r0}")
        if len(failures) > 5:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish("2 (stability scaling on 1000 irreducible models)", failures)


def test_criterion_3_target_growth_scaling():
    failures = []
    rng = np.random.default_rng(20260802)
    for index in range(200):
        model = random_irreducible_model(rng, n_max=10, rho_cap=0.9)
        rho_t = spectral_radius(model.transition)
        s = float(rng.uniform(rho_t + 0.05, 3.0))
        result = target_growth_scale(model, s)
        achieved = spectral_radius(result.scaled.projection)
        if abs(achieved - s) > 1e-8:
            failures.append(f"model {index}: rho(T + F/q) = {achieved} != {s}")
        r0 = spectral_radius(model.next_generation)
        r0_direct = spectral_radius(result.scaled.next_generation)
        if abs(r0_direct - r0 / result.q) > 1e-10:
            failures.append(f"model {index}: R0(s) = {r0_direct} != R0/q = {r0 / result.q}")
        grid = np.linspace(rho_t + 0.05, 3.0, 10)
        values = [target_growth_scale(model, float(g)).q for g in grid]
        if not all(a > b for a, b in zip(values, values[1:])):
            failures.append(f"model {index}: q not strictly decreasing on the grid")
        if len(failures) > 5:
            break
    _finish("3 (target growth scaling on 200 irreducible models)", failures)


def test_criterion_4_weak_trichotomy_and_r0_certificate():
    failures = []
    rng = np.random.default_rng(20260803)
    for index in range(1000):
        model = random_general_model(rng)
        report = analyze(model)
        r, r0 = report.growth_rate, report.net_reproductive_rate
        if report.trichotomy is Trichotomy.STATIONARY:
            consistent = abs(r - 1.0) <= 1e-9 and abs(r0 - 1.0) <= 1e-9
        elif report.trichotomy is Trichotomy.GROWING:
            consistent = r > 1.0 and r <= r0 + 1e-9
        else:
            consistent = r < 1.0 and r0 <= r + 1e-9
        if not consistent:
            failures.append(f"model {index}: class {report.trichotomy} vs r={r}, R0={r0}")
        if r0_positive(model) != (r0 > 1e-9):
            failures.append(f"model {index}: certificate disagrees with rho(Q) = {r0}")
        if len(failures) > 5:
            break

    dead_end = validate_model([[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]])
    if r0_positive(dead_end):
        failures.append("dead-end fixture should have R0 = 0")
    if spectral_radius(dead_end.next_generation) > 1e-9:
        failures.append("dead-end fixture has nonzero rho(Q)")
    _finish("4 (weak trichotomy and R0 certificate on 1000 general models)", failures)


def test_criterion_5_next_generation_pattern_laws():
    failures = []
    rng = np.random.default_rng(20260804)
    for index in range(1000):
        model = random_irreducible_model(rng, n_max=10)
        q = model.next_generation
        report = next_gen_pattern(model.fertility, q)  # raises on any law violation
        f_zero = {int(i) for i in np.flatnonzero(~(model.fertility > 0).any(axis=1))}
        if set(report.zero_rows) != f_zero:
            failures.append(f"model {index}: zero rows of Q != zero rows of F")
        if report.q_irreducible != (len(f_zero) == 0):
            failures.append(f"model {index}: Q irreducibility vs F nonzero rows")
        live = list(report.q11_indices)
        if not (q[live, :] > 1e-12).any(axis=0).all():
            failures.append(f"model {index}: zero column in the nonzero-row submatrix")
        if len(failures) > 5:
            break
    _finish("5 (next generation pattern laws on 1000 irreducible models)", failures)


def test_criterion_6_normalized_trajectory_limits():
    failures = []
    rng = np.random.default_rng(20260805)
    for index in range(100):
        model = random_primitive_model(rng, n_max=8)
        x0 = rng.uniform(0.0, 2.0, model.n)
        x0[int(rng.integers(model.n))] += 0.2
        pair = perron_pair(model.projection)
        expected = float(pair.left @ x0) * pair.right

        # Iterate x_k / r^k directly until three consecutive quiet steps.
        y = x0.copy()
        scaled = model.projection / pair.rho
        quiet = 0
        for _ in range(1_000_000):
            y_next = scaled @ y
            if float(np.max(np.abs(y_next - y))) < 1e-9:
                quiet += 1
                if quiet >= 3:
                    y = y_next
                    break
            else:
                quiet = 0
            y = y_next
        if float(np.max(np.abs(y - expected))) > 1e-6:
            failures.append(f"model {index}: iterated limit misses the Perron projection")

        fate = eventual_limit(model, x0).fate
        expected_fate = (
            Fate.EXTINCT if pair.rho < 1 - 1e-9
            else Fate.UNBOUNDED if pair.rho > 1 + 1e-9
            else Fate.FINITE
        )
        if fate is not expected_fate:
            failures.append(f"model {index}: fate {fate} vs growth rate {pair.rho}")
        if len(failures) > 5:
            break

    # Imprimitive case: the plant model oscillates forever between two limits.
    plant = plant_model()
    result = periodic_limits(plant, PLANT_NEWBORN)
    if result.period != 2:
        failures.append(f"plant gave period {result.period} != 2")
    elif float(np.max(np.abs(result.limits[0] - result.limits[1]))) <= 1e-3:
        failures.append("plant subsequence limits do not alternate")
    trajectory = iterate(plant, PLANT_NEWBORN, 201, normalize=True)
    swings = [
        float(np.max(np.abs(trajectory[k + 1] - trajectory[k])))
        for k in range(100, 201)
    ]
    if min(swings) <= 1e-3:
        failures.append(f"plant oscillation amplitude fell to {min(swings)} in steps 100..200")
    _finish("6 (normalized trajectory limits on 100 primitive models)", failures)


def test_criterion_7_leslie_agreement():
    failures = []
    rng = np.random.default_rng(20260806)
    for index in range(500):
        leslie = random_leslie_model(rng, n_max=12)
        root = leslie_growth_rate(leslie)
        if abs(q_poly_eval(leslie, root) - 1.0) > 1e-10:
            failures.append(f"model {index}: |q(root) - 1| too big")
        model = assemble(leslie)
        if abs(root - spectral_radius(model.projection)) > 1e-9:
            failures.append(f"model {index}: root vs generic spectral radius")
        if abs(leslie_r0(leslie) - spectral_radius(model.next_generation)) > 1e-10:
            failures.append(f"model {index}: closed-form R0 vs rho(Q)")
        if len(failures) > 5:
            break

    # Constructed boundary cases: rescale fertility so R0 = 1 exactly.
    for index in range(50):
        leslie = random_leslie_model(rng, n_max=12)
        r0 = leslie_r0(leslie)
        balanced = LeslieModel(leslie.survival, tuple(f / r0 for f in leslie.fertility))
        if abs(leslie_r0(balanced) - 1.0) > 1e-12:
            failures.append(f"boundary {index}: rescaled R0 != 1")
        if abs(leslie_growth_rate(balanced) - 1.0) > 1e-8:
            failures.append(f"boundary {index}: R0 = 1 but r != 1")
        nudged = LeslieModel(
            balanced.survival, tuple(1.01 * f for f in balanced.fertility)
        )
        if not leslie_growth_rate(nudged) > 1.0:
            failures.append(f"boundary {index}: R0 > 1 but r <= 1")
    _finish("7 (Leslie agreement on 500 random models)", failures)


def test_criterion_8_small_instance_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(20260807)

    # Exhaustive zero-one patterns up to n = 3, with random positive magnitudes.
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            pattern = np.array(bits, dtype=float).reshape(n, n)
            matrix = pattern * rng.uniform(0.1, 3.0, (n, n))
            ours = spectral_radius(matrix)
            oracle = char_poly_spectral_radius(matrix)
            if abs(ours - oracle) > 1e-8:
                failures.append(f"pattern {bits}: {ours} vs oracle {oracle}")
                if len(failures) > 5:
                    break
        if len(failures) > 5:
            break

    for index in range(500):
        n = int(rng.integers(1, 5))
        matrix = rng.uniform(0.0, 3.0, (n, n))
        ours = spectral_radius(matrix)
        oracle = char_poly_spectral_radius(matrix)
        if abs(ours - oracle) > 1e-8:
            failures.append(f"dense {index}: {ours} vs oracle {oracle}")
            if len(failures) > 5:
                break
    _finish("8 (small-instance oracle equivalence)", failures)
