"""Acceptance gate: one printed pass/fail line per pinned criterion."""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

from gbmlab import gbsde
from gbmlab.cli import _main
from gbmlab.gcore import (CylinderFunctional, Grid1D, make_gfunction,
                          payoff_driver, preset_driver, regularize)
from gbmlab.gexpect import (LatticeSpec, doob_check, gexpect_cylinder,
                            gexpect_terminal, lattice_oracle)
from gbmlab.pde import (PdeProblem, derivatives, fit_space_modulus,
                        fit_time_modulus, solve_terminal_pde)
from gbmlab.scenario import (VolatilityControl, estimate_dx, forward_sde,
                             simulate_paths, variational_paths,
                             verify_measure_in_Ptx)

G01 = make_gfunction(0.0, 1.0)
SCHEDULE = (0.2, 0.1, 0.05, 0.025)


def _verdict(label: str, ok: bool) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _grid(nx: int = 401) -> Grid1D:
    return Grid1D.default_for(0.0, 1.0, G01, nx=nx)


@functools.lru_cache(maxsize=None)
def _family(preset: str):
    problem = PdeProblem(_grid(), preset_driver(preset), G01)
    return gbsde.solve_gbsde(problem, SCHEDULE, curvature=True)


def _neg_quadratic():
    return payoff_driver(lambda x: -np.asarray(x, dtype=float) ** 2,
                         lambda x: -2.0 * np.asarray(x, dtype=float),
                         name="neg-quadratic", L1=1.0, m=1)


def test_criterion_01_terminal_closed_forms():
    start = time.perf_counter()
    convex = gexpect_terminal(preset_driver("quadratic"), 1.0, G01, nx=401)
    t_convex = time.perf_counter() - start
    start = time.perf_counter()
    concave = gexpect_terminal(_neg_quadratic(), 1.0, G01, nx=401)
    t_concave = time.perf_counter() - start
    ok = (abs(convex - 1.0) <= 1e-2 and abs(concave) <= 1e-2
          and t_convex < 10.0 and t_concave < 10.0)
    _verdict("criterion 01 (terminal closed forms, degenerate band)", ok)


def test_criterion_02_oracle_equivalence():
    suite = (
        preset_driver("quadratic"),
        _neg_quadratic(),
        preset_driver("abs"),
        payoff_driver(np.cos, lambda x: -np.sin(np.asarray(x, dtype=float)),
                      name="cos", L1=1.0, m=1),
        preset_driver("smooth-bump"),
    )
    spec = LatticeSpec.for_horizon(1.0, 64, G01)
    ok = True
    for driver in suite:
        v_pde = gexpect_terminal(driver, 1.0, G01, nx=801)
        X = CylinderFunctional(times=(1.0,), psi=driver.phi, name=driver.name)
        ok = ok and abs(v_pde - lattice_oracle(X, G01, spec)) <= 2e-2
    spec2 = LatticeSpec.for_horizon(1.0, 32, G01)
    for psi in (lambda a, b: a + b,
                lambda a, b: np.asarray(a) ** 2 + np.asarray(b) ** 2):
        X = CylinderFunctional(times=(0.5, 1.0), psi=psi)
        v_rec = gexpect_cylinder(X, G01)
        ok = ok and abs(v_rec - lattice_oracle(X, G01, spec2)) <= 2e-2
    _verdict("criterion 02 (PDE vs lattice oracle, 5 payoffs + cylinders)",
             ok)


def test_criterion_03_maximal_inequality_battery():
    rng = np.random.default_rng(7)
    spec = LatticeSpec.for_horizon(1.0, 8, G01)
    start = time.perf_counter()
    ok = True
    for _ in range(10):
        n = int(rng.integers(1, 3))
        ks = np.sort(rng.choice(np.arange(1, 9), size=n, replace=False))
        times = tuple(float(k) * spec.dt for k in ks)
        c = rng.uniform(-1.0, 1.0, size=3)
        if n == 1:
            xi = CylinderFunctional(
                times=times,
                psi=lambda a, c=c: c[0] * np.abs(a) + c[1] * np.cos(a + c[2]))
        else:
            xi = CylinderFunctional(
                times=times,
                psi=lambda a, b, c=c: (c[0] * np.abs(a) + c[1] * np.abs(b)
                                       + c[2] * np.cos(a + b)))
        for p, pp in ((1.5, 2.0), (2.0, 4.0), (3.0, 4.0)):
            ok = ok and doob_check(xi, p, pp, G01, spec).margin >= 0.0
    ok = ok and (time.perf_counter() - start) < 60.0
    _verdict("criterion 03 (running-max inequality margins, random battery)",
             ok)


def test_criterion_04_eps_convergence():
    report = gbsde.convergence_report(_family("linear-h"))
    ok = all(abs(delta - (e1 ** 2 - e2 ** 2) * 1.5) <= 2e-2
             for e1, e2, delta, _b, _r in report.rows)
    for preset in ("smooth-bump", "sine-gz"):
        rows = gbsde.convergence_report(_family(preset)).rows
        deltas = [row[2] for row in rows]
        ok = ok and all(0.3 <= b / a <= 0.8
                        for a, b in zip(deltas, deltas[1:]))
    _verdict("criterion 04 (eps-family deltas: closed form + halving window)",
             ok)


def test_criterion_05_uniform_curvature():
    scan = gbsde.second_derivative_scan(_family("smooth-bump"))
    reference = abs(scan.min_uxx[0])
    ok = scan.bounded and all(abs(m) <= 2.0 * reference
                              for m in scan.min_uxx)
    _verdict("criterion 05 (second-derivative floor uniform across eps)", ok)


def test_criterion_06_derivative_representation():
    Geps = regularize(G01, 0.2)
    driver = preset_driver("smooth-bump", {"width": 2.0})
    sol = solve_terminal_pde(
        PdeProblem(_grid(), driver, Geps))
    d = derivatives(sol)
    start = time.perf_counter()
    ok = True
    for x0 in (-1.0, -0.5, 0.0, 0.5, 1.0):
        j = int(np.argmin(np.abs(sol.xs - x0)))
        est = estimate_dx(driver, 0.0, float(sol.xs[j]), Geps, sol,
                          n_paths=10_000, n_steps=256, seed=0)
        ok = ok and abs(est.plus - d.ux[0, j]) <= 3.0 * est.se_plus + 2e-2
    ok = ok and (time.perf_counter() - start) < 60.0
    _verdict("criterion 06 (MC flow derivative vs PDE slope, 5 probes)", ok)


def test_criterion_07_measure_membership():
    quad = preset_driver("quadratic")
    sol = solve_terminal_pde(PdeProblem(_grid(), quad, G01))
    mc = dict(n_paths=2000, n_steps=64, seed=0)
    extremal = verify_measure_in_Ptx(VolatilityControl.feedback(sol, G01),
                                     quad, 0.0, 0.0, G01, sol, **mc)
    low = verify_measure_in_Ptx(VolatilityControl.constant(0.0, G01),
                                quad, 0.0, 0.0, G01, sol, **mc)
    ok = (extremal.accepted
          and abs(extremal.mean_KT) <= 3.0 * extremal.se + 1e-2
          and low.residual <= -0.5 and not low.accepted)
    _verdict("criterion 07 (scenario-family membership residuals)", ok)


def test_criterion_08_kink_dichotomy():
    absd = preset_driver("abs")
    sol = solve_terminal_pde(PdeProblem(_grid(), absd, G01))
    est = estimate_dx(absd, 0.0, 0.0, G01, sol,
                      n_paths=10_000, n_steps=256, seed=0)
    closes = abs(est.plus - est.minus) <= \
        3.0 * (est.se_plus + est.se_minus) + 2e-2
    kinked = preset_driver("kinked")
    frozen_sol = solve_terminal_pde(
        PdeProblem(_grid(), kinked, G01))
    frozen = estimate_dx(kinked, 0.0, 0.0, G01, frozen_sol,
                         n_paths=500, n_steps=32, seed=0)
    keeps = abs((frozen.plus - frozen.minus) - 2.0) <= 5e-2
    _verdict("criterion 08 (kink closes under diffusion, persists frozen)",
             closes and keeps)


def test_criterion_09_singular_weight_example():
    formula = gbsde.counterexample_demo(
        1.0, [1.0, 0.01], n_paths=1000, n_steps=256, seed=0)
    ok = formula.rows[0][1] == 1.25
    ok = ok and abs(formula.rows[1][1] - 7.886966806002416) <= 1e-10
    mc = gbsde.counterexample_demo(
        1.0, [1.0, 0.5, 0.25, 0.125],
        n_paths=100_000, n_steps=256, seed=0)
    ok = ok and abs(mc.slope + 0.4) <= 0.02 and mc.slope_ok and mc.mc_ok
    ok = ok and all(row[4] >= 0.95 for row in mc.rows)
    _verdict("criterion 09 (unbounded-limit example: bounds, slope, MC)", ok)


def test_criterion_10_semiconvexity_refinement():
    driver = preset_driver("abs", {"smoothing": 0.1})
    G11 = make_gfunction(1.0, 1.0)
    reports = [gbsde.semiconvexity_scan(
        PdeProblem(Grid1D(-7.0, 7.0, nx, 1.0), driver, G11))
        for nx in (281, 561)]
    cs = [r.C for r in reports]
    ok = all(r.violations == 0 for r in reports)
    ok = ok and (max(cs) <= 1e-9 or max(cs) < 2.0 * min(cs))
    _verdict("criterion 10 (lower-curvature constant stable under nx -> 2nx)",
             ok)


def test_criterion_11_regularity_moduli():
    ok = True
    for preset in ("quadratic", "abs", "smooth-bump"):
        space, timec = [], []
        for nx in (151, 301, 601):
            sol = solve_terminal_pde(
                PdeProblem(_grid(nx), preset_driver(preset), G01))
            space.append(fit_space_modulus(sol))
            timec.append(fit_time_modulus(sol))
        for constants in (space, timec):
            ok = ok and min(constants) > 0.0
            ok = ok and max(constants) < 2.0 * min(constants)
    _verdict("criterion 11 (space/time moduli constants stable, 3 grids)",
             ok)


def test_criterion_12_property_suites(tmp_path):
    ok = True
    # generator shape: monotone, positively homogeneous, subadditive
    rng = np.random.default_rng(20240901)
    for lo, hi in ((0.0, 1.0), (0.5, 1.0)):
        G = make_gfunction(lo, hi)
        a = rng.uniform(-10.0, 10.0, size=1000)
        b = rng.uniform(-10.0, 10.0, size=1000)
        lam = rng.uniform(0.0, 5.0, size=1000)
        big, small = np.maximum(a, b), np.minimum(a, b)
        ok = ok and np.all(G.eval(big) - G.eval(small) >= -1e-12)
        ok = ok and np.max(np.abs(G.eval(lam * a) - lam * G.eval(a))) <= \
            1e-12 * (1.0 + np.max(np.abs(G.eval(a))) * np.max(lam))
        ok = ok and np.all(G.eval(a + b) <= G.eval(a) + G.eval(b) + 1e-12)
    # K paths: start at zero, never increase
    quad = preset_driver("quadratic")
    # the coarsest level of the family (0.2, 0.1), which sets its time grid
    sol = solve_terminal_pde(PdeProblem(_grid(), quad, regularize(G01, 0.2)))
    feedback = VolatilityControl.feedback(sol, regularize(G01, 0.2))
    bundle = simulate_paths(feedback, 500, 128, 1.0, seed=3, driver=quad)
    kp = gbsde.reconstruct_K(sol, bundle)
    ok = ok and np.all(kp.K[:, 0] == 0.0)
    ok = ok and np.all(np.diff(kp.K, axis=1) <= 1e-10)
    # first-variation process stays positive
    drift = dataclasses.replace(
        quad, name="drift",
        b=lambda t, x: 0.5 * np.asarray(x, dtype=float),
        b_x=lambda t, x: np.full_like(np.asarray(x, dtype=float), 0.5))
    flat = simulate_paths(VolatilityControl.constant(1.0, G01), 500, 64, 1.0,
                          seed=1)
    X = forward_sde(drift, 0.0, 1.0, flat)
    ok = ok and np.all(variational_paths(drift, flat, X).Gamma > 0.0)
    # artifact reproducibility under fixed seeds
    for argv, names in (
            (["doob", "--p", "2", "--p-prime", "4", "--steps", "8"],
             ("summary.json", "doob.csv")),
            (["sensitivity-x", "--n-paths", "400", "--n-steps", "64",
              "--nx", "201"],
             ("summary.json", "sensitivity.csv"))):
        out = tmp_path / argv[0]
        ok = ok and _main(argv + ["--output-dir", str(out)]) == 0
        first = {n: (out / n).read_bytes() for n in names}
        ok = ok and _main(argv + ["--output-dir", str(out)]) == 0
        ok = ok and all((out / n).read_bytes() == first[n] for n in names)
    _verdict("criterion 12 (property suites: generator, K, variation, "
             "reproducibility)", ok)
