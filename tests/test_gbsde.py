"""Regularized solution families, K reconstruction, and the report toolkit."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from gbmlab import gbsde
from gbmlab import pde as _pde
from gbmlab.gcore import (DomainError, Grid1D, make_gfunction, payoff_driver,
                          preset_driver, regularize)
from gbmlab.pde import (FieldInterpolator, NumericalError, PdeForm,
                        PdeProblem, solve_terminal_pde)
from gbmlab.scenario import VolatilityControl, mean_and_se, simulate_paths

G01 = make_gfunction(0.0, 1.0)
SCHEDULE = (0.2, 0.1, 0.05, 0.025)


def _grid(nx: int = 401) -> Grid1D:
    return Grid1D.default_for(0.0, 1.0, G01, nx=nx)


def _family(driver, schedule=SCHEDULE, *, grid=None, G=G01,
            form=PdeForm.REGULARIZED_BSDE):
    grid = _grid() if grid is None else grid
    return gbsde.solve_gbsde(gbsde.BsdeProblem(grid, driver, G, form), schedule)


def _neg_quadratic_driver():
    return payoff_driver(lambda x: -np.asarray(x, dtype=float) ** 2,
                         lambda x: -2.0 * np.asarray(x, dtype=float),
                         lambda x: np.full_like(np.asarray(x, dtype=float), -2.0),
                         name="neg-quadratic", kinks=())


# ---- solve_gbsde ----

def test_solve_regularized_level_value():
    fam = _family(preset_driver("quadratic"), (0.2, 0.1))
    assert fam.eps_schedule == (0.2, 0.1)
    assert fam.solutions[1].value(0.0, 0.0) == pytest.approx(1.01, abs=1e-2)


def test_solve_richardson_constant_h():
    fam = _family(preset_driver("linear-h"))
    u0 = fam.u0_at(0.0)
    assert u0 == pytest.approx(1.5, abs=2e-2)
    # each level solves to x^2 + (1 + eps^2)(1 + c)(T - t) up to boundary
    # contamination, so the two-finest-level extrapolation lands on
    # (1 - eps1*eps2)(1 + c)T for the tail (0.05, 0.025)
    assert u0 == pytest.approx(1.498125, abs=1e-10)


def test_solve_u0_matches_direct_degenerate_solve():
    driver = preset_driver("sine-gz")
    fam = _family(driver)
    direct = solve_terminal_pde(
        PdeProblem(_grid(), driver, G01, PdeForm.REGULARIZED_BSDE))
    assert np.max(np.abs(fam.u0 - direct.u[0])) <= 2e-2


def test_solve_rejects_bad_schedules():
    quad = preset_driver("quadratic")
    problem = gbsde.BsdeProblem(_grid(), quad, G01, PdeForm.REGULARIZED_BSDE)
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(problem, (0.1,))
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(problem, (0.1, 0.2))
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(problem, (1.2, 0.6))
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(problem, (0.2, 0.0))
    elliptic = gbsde.BsdeProblem(_grid(), quad, make_gfunction(0.5, 1.0),
                                 PdeForm.REGULARIZED_BSDE)
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(elliptic, (0.2, 0.1))


def test_family_reductions():
    fam = _family(preset_driver("quadratic"))
    assert len(fam.solutions) == len(SCHEDULE)
    assert np.array_equal(fam.solutions[0].u[-1], fam.solutions[-1].u[-1])
    deltas = np.asarray(fam.deltas)
    assert np.all(np.isfinite(deltas))
    assert np.all(np.diff(deltas) < 0.0)
    for sol in fam.solutions:
        assert sol.nt == fam.nt


@pytest.mark.parametrize("preset", ["linear-h", "sine-gz"])
def test_stacked_family_equals_single_level_solves(preset):
    driver = preset_driver(preset)
    grid = _grid(201)
    fam = _family(driver, grid=grid)
    # the levels are views of one stacked array, not copies
    assert fam.solutions[0].u.base is fam.solutions[-1].u.base
    pinned = grid.with_nt(fam.nt)
    for eps, sol in zip(SCHEDULE, fam.solutions):
        single = solve_terminal_pde(PdeProblem(
            pinned, driver, regularize(G01, eps), PdeForm.REGULARIZED_BSDE))
        assert np.array_equal(sol.u, single.u)
        assert np.array_equal(sol.a_field, single.a_field)


def test_family_honours_a_stable_pinned_nt():
    nt = _family(preset_driver("quadratic"), grid=_grid(101)).nt
    fam = _family(preset_driver("quadratic"),
                  grid=_grid(101).with_nt(nt + 7))
    assert fam.nt == nt + 7
    with pytest.raises(NumericalError):
        _family(preset_driver("quadratic"), grid=_grid(101).with_nt(nt - 1))


def _pinned_grid():
    nt = _family(preset_driver("quadratic"), grid=_grid(101)).nt
    return _grid(101).with_nt(nt + 7)


@pytest.mark.parametrize("preset, grid", [
    ("quadratic", None), ("linear-h", None), ("smooth-bump", None),
    ("sine-gz", None), ("sine-gz", "pinned")])
def test_streamed_family_equals_dense_family(preset, grid):
    grid = _pinned_grid() if grid == "pinned" else _grid(201)
    problem = gbsde.BsdeProblem(grid, preset_driver(preset), G01,
                                PdeForm.REGULARIZED_BSDE)
    dense = gbsde.solve_gbsde(problem, SCHEDULE)
    streamed = gbsde.stream_gbsde(problem, SCHEDULE, curvature=True)
    assert streamed.nt == dense.nt
    assert streamed.solutions == ()
    assert np.array_equal(dense.u, [sol.u[0] for sol in dense.solutions])
    assert np.array_equal(streamed.u, dense.u)
    assert np.array_equal(streamed.u0, dense.u0)
    assert streamed.deltas == dense.deltas
    assert streamed.min_uxx == dense.min_uxx
    # the dense reduction equals the scan over the full derivative fields
    nx = grid.nx
    lo, hi = nx // 3, max(nx // 3 + 1, nx - nx // 3)
    assert dense.min_uxx == tuple(
        float(_pde.derivatives(sol).uxx[:, lo:hi].min())
        for sol in dense.solutions)
    assert (gbsde.convergence_report(streamed).rows
            == gbsde.convergence_report(dense).rows)
    assert gbsde.convergence_report(streamed) == \
        gbsde.convergence_report(dense)
    assert gbsde.second_derivative_scan(streamed) == \
        gbsde.second_derivative_scan(dense)
    for i in range(len(SCHEDULE)):
        assert streamed.u_at(i, 0.3) == dense.solutions[i].value(0.0, 0.3)
    assert streamed.u0_at(0.3) == dense.u0_at(0.3)


def test_streamed_family_checks_like_the_dense_one():
    quad = preset_driver("quadratic")
    problem = gbsde.BsdeProblem(_grid(101), quad, G01,
                                PdeForm.REGULARIZED_BSDE)
    for schedule in ((0.1,), (0.1, 0.2), (0.2, 0.0)):
        with pytest.raises(DomainError):
            gbsde.stream_gbsde(problem, schedule)
    # without the curvature minimum the scan has nothing to read
    with pytest.raises(DomainError):
        gbsde.second_derivative_scan(gbsde.stream_gbsde(problem, (0.2, 0.1)))
    nt = gbsde.stream_gbsde(problem, (0.2, 0.1)).nt
    with pytest.raises(NumericalError):
        gbsde.stream_gbsde(dataclasses.replace(
            problem, grid=_grid(101).with_nt(nt - 1)), (0.2, 0.1))


def test_dense_and_streamed_start_agree_below_the_time_slack():
    # dt < 1e-12: an absolute 1e-12 slack would read the terminal level
    grid = Grid1D.default_for(0.0, 1e-13, G01, nx=21)
    problem = gbsde.BsdeProblem(grid, preset_driver("quadratic"), G01,
                                PdeForm.REGULARIZED_BSDE)
    dense = gbsde.solve_gbsde(problem, (0.2, 0.1))
    streamed = gbsde.stream_gbsde(problem, (0.2, 0.1))
    for x in (0.0, 0.05, -0.3):
        assert dense.u0_at(x) == streamed.u0_at(x)
    assert dense.solutions[0].value(0.0, 0.0) > 0.0


# ---- reconstruct_K ----

def test_k_zero_under_extremal_control():
    fam = _family(preset_driver("quadratic"), (0.2, 0.1))
    ctrl = VolatilityControl.feedback(fam.solutions[0], regularize(G01, 0.2))
    bundle = simulate_paths(ctrl, 200, 128, 1.0, seed=3,
                            driver=preset_driver("quadratic"))
    kp = gbsde.reconstruct_K(fam, 0, bundle)
    assert np.max(np.abs(kp.K)) == 0.0


def test_k_constant_sigma_low_control():
    fam = _family(preset_driver("quadratic"), (0.2, 0.1))
    ctrl = VolatilityControl.constant(0.1, regularize(G01, 0.1))
    bundle = simulate_paths(ctrl, 200, 128, 1.0, seed=5)
    kp = gbsde.reconstruct_K(fam, 1, bundle, x0=0.0)
    assert np.all(kp.K[:, 0] == 0.0)
    # a = 2 everywhere, so dK = (eps^2 - (1 + eps^2)) dt = -dt exactly
    assert np.max(np.abs(kp.K_T + 1.0)) <= 1e-10
    assert np.all(np.diff(kp.K, axis=1) <= 1e-10)


def test_k_flags_raised_increment():
    fam = _family(preset_driver("quadratic"), (0.2, 0.1))
    ctrl = VolatilityControl.constant(0.5, regularize(G01, 0.2))
    bundle = simulate_paths(ctrl, 50, 64, 1.0, seed=2)
    outside = dataclasses.replace(bundle, sigma=np.full(64, 2.0))
    with pytest.raises(NumericalError):
        gbsde.reconstruct_K(fam, 0, outside, x0=0.0)


def test_k_refuses_a_streamed_family():
    quad = preset_driver("quadratic")
    problem = gbsde.BsdeProblem(_grid(101), quad, G01,
                                PdeForm.REGULARIZED_BSDE)
    fam = gbsde.stream_gbsde(problem, (0.2, 0.1))
    bundle = simulate_paths(VolatilityControl.constant(0.5, G01), 20, 16,
                            1.0, seed=2)
    with pytest.raises(DomainError):
        gbsde.reconstruct_K(fam, 0, bundle, x0=0.0)


def test_k_terminal_mean_under_extremal_control():
    driver = preset_driver("smooth-bump")
    fam = _family(driver, (0.2, 0.1))
    ctrl = VolatilityControl.feedback(fam.solutions[0], regularize(G01, 0.2))
    bundle = simulate_paths(ctrl, 4000, 256, 1.0, seed=0, driver=driver)
    kp = gbsde.reconstruct_K(fam, 0, bundle)
    assert np.all(np.diff(kp.K, axis=1) <= 1e-10)
    mean, se = mean_and_se(kp.K_T)
    assert abs(mean) <= 3.0 * se + 1e-2


def test_value_field_matches_interpolation_along_paths():
    fam = _family(preset_driver("quadratic"), (0.2, 0.1))
    sol = fam.solutions[0]
    ctrl = VolatilityControl.feedback(sol, regularize(G01, 0.2))
    bundle = simulate_paths(ctrl, 200, 128, 1.0, seed=3,
                            driver=preset_driver("quadratic"))
    interp = FieldInterpolator(sol)
    for k in range(0, bundle.n_steps + 1, 16):
        t = bundle.times[k]
        xk = np.clip(bundle.x_paths[:, k], sol.xs[0], sol.xs[-1])
        level = min(np.searchsorted(sol.ts, t, side="right") - 1,
                    len(sol.ts) - 1)
        manual = np.interp(xk, sol.xs, sol.u[level])
        assert np.max(np.abs(interp.u_at(t, xk) - manual)) <= 1e-10


# ---- convergence_report ----

def test_convergence_quadratic_closed_form():
    fam = _family(preset_driver("linear-h"))
    report = gbsde.convergence_report(fam)
    for eps1, eps2, delta, _bound, _ratio in report.rows:
        assert delta == pytest.approx((eps1 ** 2 - eps2 ** 2) * 1.5, abs=1e-10)
    assert not report.any_violation


def test_convergence_bump_ratios():
    fam = _family(preset_driver("smooth-bump"))
    report = gbsde.convergence_report(fam)
    deltas = [row[2] for row in report.rows]
    for a, b in zip(deltas, deltas[1:]):
        assert 0.3 <= b / a <= 0.8
    assert not report.any_violation


def test_convergence_needs_three_levels():
    fam = _family(preset_driver("quadratic"), (0.2, 0.1))
    with pytest.raises(DomainError):
        gbsde.convergence_report(fam)


# ---- curvature and semiconvexity scans ----

def test_scan_quadratic():
    scan = gbsde.second_derivative_scan(_family(preset_driver("quadratic")))
    assert scan.eps == SCHEDULE
    for m in scan.min_uxx:
        assert m == pytest.approx(2.0, abs=1e-4)
    assert scan.bounded


def test_scan_negative_quadratic():
    scan = gbsde.second_derivative_scan(_family(_neg_quadratic_driver()))
    for m in scan.min_uxx:
        assert m == pytest.approx(-2.0, abs=1e-4)
    assert scan.bounded


def test_scan_bump_uniform_across_levels():
    scan = gbsde.second_derivative_scan(_family(preset_driver("sine-gz")))
    mags = np.abs(np.asarray(scan.min_uxx))
    assert scan.bounded
    assert np.max(mags) < 2.0 * np.min(mags)


def test_semiconvexity_quadratic():
    report = gbsde.semiconvexity_scan(
        gbsde.BsdeProblem(_grid(), preset_driver("quadratic"), G01,
                          PdeForm.MARKOVIAN_FBSDE))
    assert report.C == 0.0
    assert report.violations == 0
    assert report.min_second_diff >= 0.0


def test_semiconvexity_smoothed_abs_stable_under_refinement():
    driver = preset_driver("abs", {"smoothing": 0.1})
    G11 = make_gfunction(1.0, 1.0)
    coarse = gbsde.semiconvexity_scan(
        gbsde.BsdeProblem(Grid1D(-7.0, 7.0, 281, 1.0), driver, G11,
                          PdeForm.MARKOVIAN_FBSDE))
    fine = gbsde.semiconvexity_scan(
        gbsde.BsdeProblem(Grid1D(-7.0, 7.0, 561, 1.0), driver, G11,
                          PdeForm.MARKOVIAN_FBSDE))
    assert coarse.violations == 0 and fine.violations == 0
    assert fine.C <= 2.0 * coarse.C + 1e-12
    assert coarse.C <= 2.0 * fine.C + 1e-12


def test_semiconvexity_convex_kink_degenerate():
    grid = Grid1D(-7.0, 7.0, 281, 1.0)
    report = gbsde.semiconvexity_scan(
        gbsde.BsdeProblem(grid, preset_driver("kinked"), G01,
                          PdeForm.MARKOVIAN_FBSDE))
    # sigma == 0 freezes u at |x|, whose kink gives a +2/dx second difference;
    # the bound is one-sided from below, so the fit stays at zero
    assert report.max_second_diff == pytest.approx(2.0 / grid.dx, rel=1e-10)
    assert report.C <= 1e-10
    assert report.violations == 0


def test_semiconvexity_needs_second_derivatives():
    flat = payoff_driver(lambda x: np.asarray(x, dtype=float) ** 2,
                         lambda x: 2.0 * np.asarray(x, dtype=float),
                         name="no-curvature", kinks=())
    with pytest.raises(DomainError):
        gbsde.semiconvexity_scan(
            gbsde.BsdeProblem(_grid(), flat, G01, PdeForm.MARKOVIAN_FBSDE))


# ---- stability_check ----

def test_stability_identical_problems():
    problem = gbsde.BsdeProblem(Grid1D(-7.0, 7.0, 101, 1.0),
                                preset_driver("quadratic"),
                                regularize(G01, 0.1), PdeForm.REGULARIZED_BSDE)
    report = gbsde.stability_check(problem, problem, p=1.0, refinements=3)
    assert all(row[2] == 0.0 for row in report.rows)
    assert report.stable


def test_stability_constant_shift():
    grid = Grid1D(-7.0, 7.0, 101, 1.0)
    Geps = regularize(G01, 0.1)
    quad = preset_driver("quadratic")
    shifted = dataclasses.replace(
        quad, name="quad-shift",
        phi=lambda x: np.asarray(x, dtype=float) ** 2 + 0.1)
    report = gbsde.stability_check(
        gbsde.BsdeProblem(grid, quad, Geps, PdeForm.REGULARIZED_BSDE),
        gbsde.BsdeProblem(grid, shifted, Geps, PdeForm.REGULARIZED_BSDE),
        p=1.0, refinements=3)
    for _nx, delta, _lhs, rhs, constant in report.rows:
        assert delta == pytest.approx(0.1, abs=1e-12)
        assert rhs == pytest.approx(0.1, abs=1e-14)
        assert constant == pytest.approx(1.0, abs=1e-9)
    assert report.stable


def test_stability_bump_perturbation():
    grid = Grid1D(-7.0, 7.0, 101, 1.0)
    Geps = regularize(G01, 0.1)
    quad = preset_driver("quadratic")
    bump = preset_driver("smooth-bump")
    perturbed = dataclasses.replace(
        quad, name="quad-plus-bump",
        phi=lambda x: np.asarray(x, dtype=float) ** 2 + bump.phi(x),
        phi_x=lambda x: 2.0 * np.asarray(x, dtype=float) + bump.phi_x(x),
        phi_xx=lambda x: 2.0 + bump.phi_xx(x),
        L1=5.0)
    report = gbsde.stability_check(
        gbsde.BsdeProblem(grid, quad, Geps, PdeForm.REGULARIZED_BSDE),
        gbsde.BsdeProblem(grid, perturbed, Geps, PdeForm.REGULARIZED_BSDE),
        p=1.0, refinements=3)
    constants = [row[4] for row in report.rows]
    assert max(constants) < 2.0 * min(constants)
    assert report.stable


def test_stability_rejects_mismatched_inputs():
    Geps = regularize(G01, 0.1)
    quad = preset_driver("quadratic")
    base = gbsde.BsdeProblem(Grid1D(-7.0, 7.0, 101, 1.0), quad, Geps,
                             PdeForm.REGULARIZED_BSDE)
    other_grid = gbsde.BsdeProblem(Grid1D(-7.0, 7.0, 201, 1.0), quad, Geps,
                                   PdeForm.REGULARIZED_BSDE)
    with pytest.raises(DomainError):
        gbsde.stability_check(base, other_grid, p=1.0)
    other_G = gbsde.BsdeProblem(Grid1D(-7.0, 7.0, 101, 1.0), quad,
                                regularize(G01, 0.2),
                                PdeForm.REGULARIZED_BSDE)
    with pytest.raises(DomainError):
        gbsde.stability_check(base, other_G, p=1.0)


def _dense_stability_rows(problem1, problem2, p, refinements=3,
                          lattice_steps=64, safety=0.9):
    # two dense solves per level and the level-by-level f/g sums, as the
    # reference for the streamed check
    from gbmlab.gcore import CylinderFunctional
    from gbmlab.gexpect import LatticeSpec, lattice_oracle
    from gbmlab.pde import _ux
    G, d1, d2 = problem1.G, problem1.driver, problem2.driver
    g1 = problem1.grid
    xc = 0.5 * (g1.x_min + g1.x_max)
    rows = []
    for level in range(refinements):
        grid = gbsde._refine(g1, 2 ** level)
        s1 = solve_terminal_pde(PdeProblem(grid, d1, G, problem1.form),
                                safety=safety)
        s2 = solve_terminal_pde(PdeProblem(grid, d2, G, problem2.form),
                                safety=safety)
        delta = float(np.max(np.abs(s1.u[0] - s2.u[0])))

        def psi(bt):
            x = xc + np.asarray(bt, dtype=float)
            return np.abs(np.asarray(d1.phi(x), dtype=float)
                          - np.asarray(d2.phi(x), dtype=float)) ** p
        terminal = lattice_oracle(
            CylinderFunctional((grid.T,), psi), G,
            LatticeSpec.for_horizon(grid.T, lattice_steps, G))
        fint = 0.0
        gint = 0.0
        xs = s2.xs
        ux = _ux(s2.u, s2.dx)
        for n in range(s2.nt + 1):
            t = n * s2.dt
            y = s2.u[n]
            z = ux[n]
            fhat = np.max(np.abs(
                np.asarray(d1.f(t, xs, y), dtype=float)
                - np.asarray(d2.f(t, xs, y), dtype=float)))
            ghat = np.max(np.abs(
                np.asarray(d1.g(t, xs, y, z), dtype=float)
                - np.asarray(d2.g(t, xs, y, z), dtype=float)))
            wt = s2.dt if n < s2.nt else 0.0
            fint += fhat * wt
            gint += ghat * wt * G.sigma_high ** 2
        rhs = terminal + fint ** p + gint ** p
        rows.append((grid.nx, delta, delta ** p, rhs,
                     delta ** p / rhs if rhs > 0 else 0.0))
    return rows


def _fg_driver(name, f, g):
    return dataclasses.replace(
        preset_driver("smooth-bump"), name=name, f=f, g=g, f_x=None,
        f_y=None, g_x=None, g_y=None, g_z=None)


def _shifted(driver, shift=0.1):
    # what `stability --shift` builds: a new phi, every other field shared
    return dataclasses.replace(
        driver, name=f"{driver.name}+{shift:g}",
        phi=lambda x, _p=driver.phi: np.asarray(_p(x)) + shift)


def _stability_pair(case):
    grid = Grid1D(-6.0, 6.0, 41, 0.5)
    Geps = regularize(G01, 0.1)
    if case == "shift":
        quad = preset_driver("quadratic")
        pair, form = (quad, _shifted(quad)), PdeForm.REGULARIZED_BSDE
    elif case == "shift-sine-gz":
        # a shared non-zero g: its difference loop reads the stacked row
        sine = preset_driver("sine-gz")
        pair, form = (sine, _shifted(sine)), PdeForm.REGULARIZED_BSDE
    elif case == "f-and-g":
        pair = (_fg_driver("fg-1", lambda t, x, y: 0.3 * np.cos(x) - 0.2 * y,
                           lambda t, x, y, z: 0.25 * np.sin(z)),
                _fg_driver("fg-2", lambda t, x, y: 0.1 * np.sin(y),
                           lambda t, x, y, z: 0.1 * z + 0.05 * y))
        form = PdeForm.MARKOVIAN_FBSDE
    else:  # two presets whose CFL steps differ
        pair = (preset_driver("quadratic"),
                preset_driver("sine-gz", {"c": 2.0}))
        form = PdeForm.REGULARIZED_BSDE
    return tuple(gbsde.BsdeProblem(grid, d, Geps, form) for d in pair)


@pytest.mark.parametrize("case", ["shift", "shift-sine-gz", "f-and-g",
                                  "preset-b"])
def test_streamed_stability_equals_dense_solves(case):
    problem1, problem2 = _stability_pair(case)
    if case == "preset-b":
        nts = [_pde._time_steps(pr.grid, (pr.G,), pr.driver, 0.9)[0]
               for pr in (problem1, problem2)]
        assert nts[0] != nts[1]
    for p in (1.0, 2.0):
        report = gbsde.stability_check(problem1, problem2, p=p)
        ref = _dense_stability_rows(problem1, problem2, p)
        assert np.array(report.rows).tobytes() == np.array(ref).tobytes()
        if case == "f-and-g":
            assert all(r[3] > 1e-3 for r in ref)  # the f and g terms count


def _count_sweeps(monkeypatch):
    calls = []
    steps = _pde._backward_steps

    def counted(driver, grid, Gs, nt, dt, u):
        calls.append(np.shape(u)[0])
        return steps(driver, grid, Gs, nt, dt, u)
    monkeypatch.setattr(_pde, "_backward_steps", counted)
    return calls


def test_phi_only_stability_pair_is_one_sweep_per_level(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    problem1, problem2 = _stability_pair("shift-sine-gz")
    stacked = gbsde.stability_check(problem1, problem2, refinements=3)
    assert calls == [2, 2, 2]
    # the same pair with an equal but distinct g callable gets two sweeps,
    # and the same rows
    calls.clear()
    g = problem2.driver.g
    distinct = dataclasses.replace(problem2.driver,
                                   g=lambda t, x, y, z: g(t, x, y, z))
    report = gbsde.stability_check(
        problem1, dataclasses.replace(problem2, driver=distinct),
        refinements=3)
    assert calls == [1, 1] * 3
    assert np.array(report.rows).tobytes() == \
        np.array(stacked.rows).tobytes()


def test_other_stability_pairs_keep_two_sweeps(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    gbsde.stability_check(*_stability_pair("preset-b"), refinements=3)
    assert calls == [1, 1] * 3
    calls.clear()
    def f(t, x, y):
        return 0.0 * np.asarray(y, dtype=float)
    d1 = dataclasses.replace(preset_driver("quadratic"), f=f, f_x=None,
                             f_y=None)
    d2 = dataclasses.replace(_shifted(d1),
                             f=lambda t, x, y: f(t, x, y))
    grid = Grid1D(-6.0, 6.0, 41, 0.5)
    Geps = regularize(G01, 0.1)
    gbsde.stability_check(
        *(gbsde.BsdeProblem(grid, d, Geps, PdeForm.MARKOVIAN_FBSDE)
          for d in (d1, d2)), refinements=3)
    assert calls == [1, 1] * 3


def test_stacked_stability_keeps_a_nan_driver_difference(monkeypatch):
    # f is 0 except at x = 0 at t = 0: the sweep never reads it there (it
    # evaluates f at the known level, t >= dt), the difference loop does
    def f(t, x, y):
        bad = (t == 0.0) & (np.abs(np.asarray(x, dtype=float)) < 1e-9)
        return np.where(bad, np.nan, 0.0) * np.ones_like(y)
    bump = dataclasses.replace(preset_driver("smooth-bump"), name="nan-f",
                               f=f, f_x=None, f_y=None)
    grid = Grid1D(-6.0, 6.0, 41, 0.5)
    Geps = regularize(G01, 0.1)
    problem1, problem2 = (
        gbsde.BsdeProblem(grid, d, Geps, PdeForm.MARKOVIAN_FBSDE)
        for d in (bump, _shifted(bump)))
    calls = _count_sweeps(monkeypatch)
    stacked = gbsde.stability_check(problem1, problem2, refinements=3)
    assert calls == [2, 2, 2]
    # the two-sweep reference: the same f behind a distinct callable
    distinct = dataclasses.replace(problem2.driver,
                                   f=lambda t, x, y: f(t, x, y))
    reference = gbsde.stability_check(
        problem1, dataclasses.replace(problem2, driver=distinct),
        refinements=3)
    assert calls == [2, 2, 2] + [1, 1] * 3
    np.testing.assert_array_equal(np.array(stacked.rows),
                                  np.array(reference.rows))
    assert all(math.isnan(r[3]) and r[4] == 0.0 for r in stacked.rows)


# ---- dynamic programming check ----

def test_dp_empty_interval():
    problem = gbsde.BsdeProblem(_grid(), preset_driver("quadratic"), G01,
                                PdeForm.MARKOVIAN_FBSDE)
    assert gbsde.dynamic_programming_check(problem, 0.4, 0.4).residual == 0.0


def test_dp_pure_quadratic():
    problem = gbsde.BsdeProblem(_grid(), preset_driver("quadratic"), G01,
                                PdeForm.MARKOVIAN_FBSDE)
    report = gbsde.dynamic_programming_check(problem, 0.0, 0.5)
    assert report.residual <= 2e-2


def test_dp_linear_h():
    problem = gbsde.BsdeProblem(_grid(), preset_driver("linear-h"),
                                regularize(G01, 0.1), PdeForm.MARKOVIAN_FBSDE)
    report = gbsde.dynamic_programming_check(problem, 0.25, 0.75)
    assert report.residual <= 3e-2


def test_dp_rejections():
    quad = preset_driver("quadratic")
    geometric = dataclasses.replace(
        quad, name="geometric",
        sigma=lambda t, x: np.asarray(x, dtype=float),
        sigma_x=lambda t, x: np.ones_like(np.asarray(x, dtype=float)))
    problem = gbsde.BsdeProblem(_grid(), geometric, G01,
                                PdeForm.MARKOVIAN_FBSDE)
    with pytest.raises(DomainError):
        gbsde.dynamic_programming_check(problem, 0.0, 0.5)
    pure = gbsde.BsdeProblem(_grid(), quad, G01, PdeForm.MARKOVIAN_FBSDE)
    with pytest.raises(DomainError):
        gbsde.dynamic_programming_check(pure, 0.5, 0.25)
    with pytest.raises(DomainError):
        gbsde.dynamic_programming_check(pure, 0.5, 1.5)


def _ref_dp_lattice_value(problem, sol, t1, t2, x0, steps):
    """The dp check's lattice with its own probabilities and step."""
    d, G = problem.driver, problem.G
    horizon = t2 - t1
    dt = horizon / steps
    dxl = G.sigma_high * math.sqrt(dt)
    offs = np.arange(-steps, steps + 1)
    nodes = x0 + offs * dxl
    fields = FieldInterpolator(sol)
    V = fields.u_at(t2, nodes)
    probs = [s * s * dt / (2.0 * dxl * dxl)
             for s in (G.sigma_low, G.sigma_high)]
    sigmas = (G.sigma_low, G.sigma_high)
    for k in range(steps - 1, -1, -1):
        t = t1 + k * dt
        y = fields.u_at(t, nodes[1:-1])
        z = fields.z_at(t, nodes[1:-1])
        fval = np.asarray(d.f(t, nodes[1:-1], y), dtype=float)
        gval = np.asarray(d.g(t, nodes[1:-1], y, z), dtype=float)
        best = None
        for pr, sg in zip(probs, sigmas):
            cand = (pr * (V[2:] + V[:-2]) + (1.0 - 2.0 * pr) * V[1:-1]
                    + (fval + gval * sg * sg) * dt)
            best = cand if best is None else np.maximum(best, cand)
        V = V.copy()
        V[1:-1] = best
    return float(V[steps])


@pytest.mark.parametrize("preset, sigma_low, t1, t2, steps", [
    ("quadratic", 0.0, 0.0, 0.5, 64), ("linear-h", 0.1, 0.25, 0.75, 64),
    ("sine-gz", 0.5, 0.1, 0.37, 13), ("sine-gz", 1.0, 0.3, 0.9, 8)])
def test_dp_lattice_equals_its_own_loop(preset, sigma_low, t1, t2, steps):
    G = make_gfunction(sigma_low, 1.0)
    problem = gbsde.BsdeProblem(_grid(161), preset_driver(preset), G,
                                PdeForm.MARKOVIAN_FBSDE)
    sol = solve_terminal_pde(PdeProblem(problem.grid, problem.driver, G,
                                        problem.form))
    report = gbsde.dynamic_programming_check(problem, t1, t2, x0=0.1,
                                             steps=steps, sol=sol)
    want = _ref_dp_lattice_value(problem, sol, t1, t2, 0.1, steps)
    assert (np.float64(report.lattice_value).tobytes()
            == np.float64(want).tobytes())


def test_dp_rejects_too_few_steps():
    problem = gbsde.BsdeProblem(_grid(101), preset_driver("quadratic"), G01,
                                PdeForm.MARKOVIAN_FBSDE)
    for steps in (0, -2):
        with pytest.raises(DomainError):
            gbsde.dynamic_programming_check(problem, 0.0, 0.5, steps=steps)


def test_dp_refuses_too_few_steps_before_solving(monkeypatch):
    problem = gbsde.BsdeProblem(_grid(101), preset_driver("quadratic"), G01,
                                PdeForm.MARKOVIAN_FBSDE)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the steps check")

    with monkeypatch.context() as m:
        m.setattr(_pde, "solve_terminal_pde", no_solve)
        for steps in (0, -2):
            with pytest.raises(DomainError, match="steps"):
                gbsde.dynamic_programming_check(problem, 0.0, 0.5,
                                                steps=steps)
    # an empty window needs no lattice, so any steps value still reports
    report = gbsde.dynamic_programming_check(problem, 0.5, 0.5, steps=0)
    assert report.residual == 0.0 and report.lattice_value == report.u_t1


# ---- counterexample demo ----

def test_counterexample_bound_values():
    mc = {"n_paths": 2000, "n_steps": 256, "seed": 0}
    report = gbsde.counterexample_demo(1.0, [1.0, 0.01], mc=mc)
    assert report.rows[0][1] == 1.25
    assert report.rows[1][1] == pytest.approx(7.886966806002416, rel=1e-12)


def test_counterexample_slope_and_mc_ratios():
    mc = {"n_paths": 20000, "n_steps": 256, "seed": 0}
    report = gbsde.counterexample_demo(1.0, [1.0, 0.5, 0.25, 0.125], mc=mc)
    assert report.slope == pytest.approx(-0.4, abs=1e-10)
    assert report.slope_ok
    assert report.mc_ok
    for _eps, bound, est, _se, ratio in report.rows:
        assert ratio == est / bound
        assert ratio >= 0.95


def test_counterexample_rejections():
    with pytest.raises(DomainError):
        gbsde.counterexample_demo(1.0, [1.0, 0.5], exponent=-0.6)
    with pytest.raises(DomainError):
        gbsde.counterexample_demo(1.0, [1.0, 0.5], exponent=0.1)
    with pytest.raises(DomainError):
        gbsde.counterexample_demo(1.0, [])
    with pytest.raises(DomainError):
        gbsde.counterexample_demo(1.0, [0.5, 0.0])


# ---- path norms ----

def test_path_norms_unit_integrand():
    unit = simulate_paths(VolatilityControl.constant(1.0, G01), 300, 128, 1.0,
                          seed=11)
    still = simulate_paths(VolatilityControl.constant(0.0, G01), 300, 128, 1.0,
                           seed=11)
    norms = gbsde.path_norms(np.ones(128), 2.0, [unit, still])
    assert norms["h_norm"] == 1.0
    assert norms["m_norm"] == 1.0
    assert norms["consistent"]
    assert len(norms["per_bundle"]) == 2


def test_path_norms_zero_volatility():
    still = simulate_paths(VolatilityControl.constant(0.0, G01), 300, 128, 1.0,
                           seed=11)
    norms = gbsde.path_norms(np.ones(128), 2.0, [still])
    assert norms["h_norm"] == 0.0
    assert norms["m_norm"] == 1.0
    assert norms["consistent"]


def test_path_norms_needs_positive_p():
    unit = simulate_paths(VolatilityControl.constant(1.0, G01), 50, 16, 1.0,
                          seed=1)
    with pytest.raises(DomainError):
        gbsde.path_norms(np.ones(16), 0.0, [unit])


# ---- end-to-end invariants ----

def test_family_monotone_in_payoff():
    lower = payoff_driver(lambda x: np.cos(np.asarray(x, dtype=float)) - 1.0,
                          lambda x: -np.sin(np.asarray(x, dtype=float)),
                          lambda x: -np.cos(np.asarray(x, dtype=float)),
                          name="cos-minus-one", kinks=())
    fam_lo = _family(lower, (0.2, 0.1))
    fam_hi = _family(preset_driver("quadratic"), (0.2, 0.1))
    for lo, hi in zip(fam_lo.solutions, fam_hi.solutions):
        assert np.min(hi.u - lo.u) >= -1e-12
    # the limit at every time level, not only the t = 0 row the family keeps
    eps = fam_hi.eps_schedule
    sols_lo, sols_hi = fam_lo.solutions, fam_hi.solutions
    assert np.min(gbsde._extrapolate(eps, sols_hi[-2].u, sols_hi[-1].u)
                  - gbsde._extrapolate(eps, sols_lo[-2].u, sols_lo[-1].u)
                  ) >= -1e-12


def test_family_preserves_constants():
    const = payoff_driver(
        lambda x: np.full_like(np.asarray(x, dtype=float), 3.7),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name="const-3.7", kinks=())
    fam = _family(const, (0.2, 0.1))
    for sol in fam.solutions:
        assert np.all(sol.u == 3.7)
    # the limit at every time level, not only the t = 0 row the family keeps
    sols = fam.solutions
    assert np.all(gbsde._extrapolate(fam.eps_schedule, sols[-2].u,
                                     sols[-1].u) == 3.7)


# ---- report writers ----

def test_write_csv_types_and_digits(tmp_path):
    path = tmp_path / "table.csv"
    gbsde.write_csv(str(path), ("name", "count", "value", "ok"),
                    [("row-a", 3, 1.0 / 3.0, True)])
    lines = path.read_text().splitlines()
    assert lines[0] == "name,count,value,ok"
    cells = lines[1].split(",")
    assert cells[0] == "row-a"
    assert cells[1] == "3"
    mantissa = cells[2].split("e")[0].split(".")[1]
    assert len(mantissa) == 12
    assert cells[3] == "true"


def test_write_report_summary_and_determinism(tmp_path):
    tables = {"levels": (("eps", "delta"), [(0.2, 0.045), (0.1, 0.01125)])}
    kwargs = dict(experiment="demo", parameters={"T": 1.0},
                  values={"u0": 1.498125}, verdicts={"converged": True},
                  tables=tables)
    first = gbsde.write_report(str(tmp_path / "a"), **kwargs)
    second = gbsde.write_report(str(tmp_path / "b"), **kwargs)
    assert first.endswith("summary.json")
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert set(summary) == {"experiment", "parameters", "values", "verdicts"}
    assert summary["experiment"] == "demo"
    assert summary["verdicts"] == {"converged": True}
    assert (tmp_path / "a" / "levels.csv").exists()
    for name in ("summary.json", "levels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
