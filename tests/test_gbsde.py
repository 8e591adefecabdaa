"""Regularized solution families, K reconstruction, and the report toolkit."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from gbmlab import gbsde
from gbmlab import pde as _pde
from gbmlab.gcore import (PRESET_NAMES, DomainError, DriverSpec, Grid1D,
                          make_gfunction, payoff_driver, preset_driver,
                          regularize)
from gbmlab.pde import (FieldInterpolator, NumericalError, PdeProblem,
                        solve_terminal_pde)
from gbmlab.scenario import VolatilityControl, mean_and_se, simulate_paths

from conftest import traced_peak

G01 = make_gfunction(0.0, 1.0)
SCHEDULE = (0.2, 0.1, 0.05, 0.025)


def _grid(nx: int = 401) -> Grid1D:
    return Grid1D.default_for(0.0, 1.0, G01, nx=nx)


def _family(driver, schedule=SCHEDULE, *, grid=None, G=G01):
    grid = _grid() if grid is None else grid
    return gbsde.solve_gbsde(PdeProblem(grid, driver, G), schedule,
                             curvature=True)


def _level(fam, i):
    """The dense fields of level ``i`` of ``fam``: that level solved alone
    on the family's time grid."""
    p = fam.problem
    return solve_terminal_pde(PdeProblem(
        p.grid.with_nt(fam.nt), p.driver,
        regularize(p.G, fam.eps_schedule[i])))


def _levels(fam):
    return [_level(fam, i) for i in range(len(fam.eps_schedule))]


def _neg_quadratic_driver():
    return payoff_driver(lambda x: -np.asarray(x, dtype=float) ** 2,
                         lambda x: -2.0 * np.asarray(x, dtype=float),
                         name="neg-quadratic", kinks=())


# ---- solve_gbsde ----

def test_solve_regularized_level_value():
    fam = _family(preset_driver("quadratic"), (0.2, 0.1))
    assert fam.eps_schedule == (0.2, 0.1)
    assert fam.u_at(1, 0.0) == pytest.approx(1.01, abs=1e-2)


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
        PdeProblem(_grid(), driver, G01))
    assert np.max(np.abs(fam.u0 - direct.u[0])) <= 2e-2


def test_solve_rejects_bad_schedules():
    quad = preset_driver("quadratic")
    problem = PdeProblem(_grid(), quad, G01)
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(problem, (0.1,))
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(problem, (0.1, 0.2))
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(problem, (1.2, 0.6))
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(problem, (0.2, 0.0))
    elliptic = PdeProblem(_grid(), quad, make_gfunction(0.5, 1.0))
    with pytest.raises(DomainError):
        gbsde.solve_gbsde(elliptic, (0.2, 0.1))


def test_family_reductions():
    fam = _family(preset_driver("quadratic"))
    assert fam.u.shape == (len(SCHEDULE), _grid().nx)
    levels = _levels(fam)
    # every level starts from phi and ends at the family's row
    assert np.array_equal(levels[0].u[-1], levels[-1].u[-1])
    assert np.array_equal(fam.u, [sol.u[0] for sol in levels])
    deltas = np.asarray(fam.deltas)
    assert np.all(np.isfinite(deltas))
    assert np.all(np.diff(deltas) < 0.0)


@pytest.mark.parametrize("preset", ["linear-h", "sine-gz"])
def test_stacked_family_equals_single_level_solves(preset):
    driver = preset_driver(preset)
    grid = _grid(201)
    fam = _family(driver, grid=grid)
    # the levels are stepped as one stack; each row is its own solve's
    pinned = grid.with_nt(fam.nt)
    for i, eps in enumerate(SCHEDULE):
        single = solve_terminal_pde(PdeProblem(
            pinned, driver, regularize(G01, eps)))
        assert fam.u[i].tobytes() == single.u[0].tobytes()
    # the coarsest level sets the shared time grid: it needs no pin
    alone = solve_terminal_pde(PdeProblem(grid, driver,
                                          regularize(G01, SCHEDULE[0])))
    assert alone.nt == fam.nt
    assert fam.u[0].tobytes() == alone.u[0].tobytes()


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
    streamed = _family(preset_driver(preset), grid=grid)
    plain = gbsde.solve_gbsde(streamed.problem, SCHEDULE)
    assert plain.min_uxx is None
    assert np.array_equal(plain.u, streamed.u)
    dense = _levels(streamed)
    assert np.array_equal(streamed.u, [sol.u[0] for sol in dense])
    eps = streamed.eps_schedule
    u0 = gbsde._extrapolate(eps, dense[-2].u[0], dense[-1].u[0])
    assert np.array_equal(streamed.u0, u0)
    assert np.array_equal(plain.u0, u0)
    deltas = tuple(float(np.max(np.abs(a.u[0] - b.u[0])))
                   for a, b in zip(dense, dense[1:]))
    assert streamed.deltas == plain.deltas == deltas
    # the running minimum equals the scan over the full derivative fields
    nx = grid.nx
    lo, hi = nx // 3, max(nx // 3 + 1, nx - nx // 3)
    assert streamed.min_uxx == tuple(
        float(_pde.derivatives(sol).uxx[:, lo:hi].min()) for sol in dense)
    assert gbsde.convergence_report(streamed) == \
        gbsde.convergence_report(plain)
    for i in range(len(SCHEDULE)):
        assert streamed.u_at(i, 0.3) == dense[i].value(0.0, 0.3)


def test_streamed_family_checks_like_the_dense_one():
    quad = preset_driver("quadratic")
    problem = PdeProblem(_grid(101), quad, G01)
    for schedule in ((0.1,), (0.1, 0.2), (0.2, 0.0)):
        for curvature in (False, True):
            with pytest.raises(DomainError):
                gbsde.solve_gbsde(problem, schedule, curvature=curvature)
    # without the curvature minimum the scan has nothing to read
    with pytest.raises(DomainError):
        gbsde.second_derivative_scan(gbsde.solve_gbsde(problem, (0.2, 0.1)))
    nt = gbsde.solve_gbsde(problem, (0.2, 0.1)).nt
    for curvature in (False, True):
        with pytest.raises(NumericalError):
            gbsde.solve_gbsde(dataclasses.replace(
                problem, grid=_grid(101).with_nt(nt - 1)), (0.2, 0.1),
                curvature=curvature)


def test_dense_and_streamed_start_agree_below_the_time_slack():
    # dt < 1e-12: an absolute 1e-12 slack would read the terminal level
    grid = Grid1D.default_for(0.0, 1e-13, G01, nx=21)
    fam = _family(preset_driver("quadratic"), (0.2, 0.1), grid=grid)
    dense = _levels(fam)
    for x in (0.0, 0.05, -0.3):
        for i, sol in enumerate(dense):
            assert sol.value(0.0, x) == fam.u_at(i, x)
    assert dense[0].value(0.0, 0.0) > 0.0


# ---- reconstruct_K ----

def test_k_zero_under_extremal_control():
    sol = _level(_family(preset_driver("quadratic"), (0.2, 0.1)), 0)
    ctrl = VolatilityControl.feedback(sol, regularize(G01, 0.2))
    bundle = simulate_paths(ctrl, 200, 128, 1.0, seed=3,
                            driver=preset_driver("quadratic"))
    kp = gbsde.reconstruct_K(sol, bundle)
    assert np.max(np.abs(kp.K)) == 0.0


def test_k_constant_sigma_low_control():
    sol = _level(_family(preset_driver("quadratic"), (0.2, 0.1)), 1)
    ctrl = VolatilityControl.constant(0.1, regularize(G01, 0.1))
    bundle = simulate_paths(ctrl, 200, 128, 1.0, seed=5)
    kp = gbsde.reconstruct_K(sol, bundle, x0=0.0)
    assert np.all(kp.K[:, 0] == 0.0)
    # a = 2 everywhere, so dK = (eps^2 - (1 + eps^2)) dt = -dt exactly
    assert np.max(np.abs(kp.K_T + 1.0)) <= 1e-10
    assert np.all(np.diff(kp.K, axis=1) <= 1e-10)


def test_k_flags_raised_increment():
    sol = _level(_family(preset_driver("quadratic"), (0.2, 0.1)), 0)
    ctrl = VolatilityControl.constant(0.5, regularize(G01, 0.2))
    bundle = simulate_paths(ctrl, 50, 64, 1.0, seed=2)
    outside = dataclasses.replace(bundle, sigma=np.full(64, 2.0))
    with pytest.raises(NumericalError):
        gbsde.reconstruct_K(sol, outside, x0=0.0)


def test_k_terminal_mean_under_extremal_control():
    driver = preset_driver("smooth-bump")
    sol = _level(_family(driver, (0.2, 0.1)), 0)
    ctrl = VolatilityControl.feedback(sol, regularize(G01, 0.2))
    bundle = simulate_paths(ctrl, 4000, 256, 1.0, seed=0, driver=driver)
    kp = gbsde.reconstruct_K(sol, bundle)
    assert np.all(np.diff(kp.K, axis=1) <= 1e-10)
    mean, se = mean_and_se(kp.K_T)
    assert abs(mean) <= 3.0 * se + 1e-2


def test_value_field_matches_interpolation_along_paths():
    sol = _level(_family(preset_driver("quadratic"), (0.2, 0.1)), 0)
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


def test_convergence_report_of_equal_levels():
    # the zero preset gives every level the same solution: the deltas are
    # all 0 and there is no power law to fit
    fam = _family(preset_driver("zero"), (0.2, 0.1, 0.05))
    report = gbsde.convergence_report(fam)
    assert [row[2] for row in report.rows] == [0.0, 0.0]
    assert (report.rate_exponent, report.fitted_C) == (0.0, 0.0)
    assert report.violations == (False, False)
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
        PdeProblem(_grid(), preset_driver("quadratic"), G01))
    assert report.C == 0.0
    assert report.violations == 0
    assert report.min_second_diff >= 0.0


def test_semiconvexity_smoothed_abs_stable_under_refinement():
    driver = preset_driver("abs", {"smoothing": 0.1})
    G11 = make_gfunction(1.0, 1.0)
    coarse = gbsde.semiconvexity_scan(
        PdeProblem(Grid1D(-7.0, 7.0, 281, 1.0), driver, G11))
    fine = gbsde.semiconvexity_scan(
        PdeProblem(Grid1D(-7.0, 7.0, 561, 1.0), driver, G11))
    assert coarse.violations == 0 and fine.violations == 0
    assert fine.C <= 2.0 * coarse.C + 1e-12
    assert coarse.C <= 2.0 * fine.C + 1e-12


def test_semiconvexity_convex_kink_degenerate():
    grid = Grid1D(-7.0, 7.0, 281, 1.0)
    report = gbsde.semiconvexity_scan(
        PdeProblem(grid, preset_driver("kinked"), G01))
    # sigma == 0 freezes u at |x|, whose kink gives a +2/dx second difference;
    # the bound is one-sided from below, so the fit stays at zero
    assert report.max_second_diff == pytest.approx(2.0 / grid.dx, rel=1e-10)
    assert report.C <= 1e-10
    assert report.violations == 0


def _dense_semiconvexity_scan(problem):
    # the dense scan over every level of solve_terminal_pde, kept as the
    # reference
    driver = problem.driver
    sol = _pde.solve_terminal_pde(problem)
    dx = sol.dx
    xs = sol.xs[:-2]
    second = _pde._second_diff(sol.u, dx)
    weight = 1.0 + np.abs(xs) ** (2 * driver.m)
    ratio = second / weight[None, :]
    C = max(0.0, -float(ratio.min()))
    viol = int(np.sum(second < -C * weight[None, :] - 1e-9 * (1.0 + C)))
    return gbsde.SemiconvexityReport(C=C,
                                     min_second_diff=float(second.min()),
                                     max_second_diff=float(second.max()),
                                     violations=viol, m=driver.m)


def _assert_same_report(got, ref):
    assert got == ref
    for name in ("min_second_diff", "max_second_diff"):
        assert math.copysign(1.0, getattr(got, name)) == \
            math.copysign(1.0, getattr(ref, name)), name


def test_semiconvexity_scan_needs_no_payoff_second_derivative():
    # the scan reads second differences of the solved levels, so a driver
    # with phi and phi_x alone is scanned as the presets are
    driver = payoff_driver(lambda x: np.asarray(x, dtype=float) ** 2,
                           lambda x: 2.0 * np.asarray(x, dtype=float),
                           name="no-curvature", kinks=())
    problem = PdeProblem(_grid(), driver, G01)
    _assert_same_report(gbsde.semiconvexity_scan(problem),
                        _dense_semiconvexity_scan(problem))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_streamed_semiconvexity_scan_equals_the_dense_scan(name):
    driver = preset_driver(name)
    for G in (G01, make_gfunction(0.5, 1.0), make_gfunction(1.0, 1.0)):
        for nx in (41, 201):
            problem = PdeProblem(Grid1D.default_for(0.0, 1.0, G, nx=nx),
                                 driver, G)
            _assert_same_report(gbsde.semiconvexity_scan(problem),
                                _dense_semiconvexity_scan(problem))


def test_semiconvexity_second_sweep_counts_as_the_dense_scan(monkeypatch):
    # with the rounding bound made to fail, every scan counts its
    # violations in a second sweep
    monkeypatch.setattr(gbsde, "_RATIO_SLACK", math.inf)
    for name in ("abs", "smooth-bump", "sine-gz"):
        problem = PdeProblem(_grid(101), preset_driver(name), G01)
        _assert_same_report(gbsde.semiconvexity_scan(problem),
                            _dense_semiconvexity_scan(problem))


def test_semiconvexity_counts_rounding_violations_at_large_weights():
    # phi = -exp(x) is concave, so under sigma_low = 0 every level is phi;
    # on [38.51, 48.51] the weights 1 + x^16 reach 1e27, the bound on the
    # rounding fails, and at the least ratio fl(fl(second / w) * w) lands
    # above second, one node a level below -C w - 1e-9 (1 + C)
    neg_exp = lambda x: -np.exp(np.asarray(x, dtype=float))  # noqa: E731
    driver = payoff_driver(neg_exp, neg_exp, m=8, L1=30.0)
    problem = PdeProblem(Grid1D(38.51, 48.51, 11, 1e-3), driver, G01)
    ref = _dense_semiconvexity_scan(problem)
    assert ref.violations == 3  # nt = 2: one node on each of 3 levels
    _assert_same_report(gbsde.semiconvexity_scan(problem), ref)


def test_semiconvexity_scan_raises_the_sweep_error():
    # phi = +-1.7e308 on alternate nodes: its second differences overflow,
    # the G-heat sweep (which defers its check) turns non-finite, and the
    # scan raises the error of the dense solve
    grid = Grid1D(-1.0, 1.0, 41, 1.0)

    def saw(x):
        return 1.7e308 * np.cos(np.pi * np.asarray(x, dtype=float) / grid.dx)

    driver = DriverSpec(name="saw", phi=saw, skip_self_check=True)
    problem = PdeProblem(grid, driver, G01)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as dense:
            _dense_semiconvexity_scan(problem)
        with pytest.raises(NumericalError) as streamed:
            gbsde.semiconvexity_scan(problem)
    assert "time level" in str(dense.value)
    assert str(streamed.value) == str(dense.value)


def test_semiconvexity_scan_memory_is_below_one_dense_field():
    # nt = 1000 pinned levels of 101 nodes: the dense scan holds u, a_field
    # and three more fields of this size, the streamed one a few rows
    grid = Grid1D(-4.0, 4.0, 101, 1.0, nt=1000)
    problem = PdeProblem(grid, preset_driver("abs", {"smoothing": 0.1}), G01)
    peak = traced_peak(lambda: gbsde.semiconvexity_scan(problem))
    assert peak < (grid.nt + 1) * grid.nx * 8


# ---- stability_check ----

def test_stability_identical_problems():
    problem = PdeProblem(Grid1D(-7.0, 7.0, 101, 1.0),
                         preset_driver("quadratic"), regularize(G01, 0.1))
    report = gbsde.stability_check(problem, problem, p=1.0)
    assert all(row[2] == 0.0 for row in report.rows)
    assert report.stable


def test_stability_constant_shift():
    grid = Grid1D(-7.0, 7.0, 101, 1.0)
    Geps = regularize(G01, 0.1)
    quad = preset_driver("quadratic")
    shifted = dataclasses.replace(
        quad, name="quad-shift",
        phi=lambda x: np.asarray(x, dtype=float) ** 2 + 0.1)
    report = gbsde.stability_check(PdeProblem(grid, quad, Geps),
                                   PdeProblem(grid, shifted, Geps), p=1.0)
    for _nx, delta, _lhs, rhs, constant in report.rows:
        assert delta == pytest.approx(0.1, abs=1e-12)
        assert rhs == pytest.approx(0.1, abs=1e-14)
        assert constant == pytest.approx(1.0, abs=1e-9)
    assert report.stable


def _bump_pair(nx):
    grid = Grid1D(-7.0, 7.0, nx, 1.0)
    Geps = regularize(G01, 0.1)
    quad = preset_driver("quadratic")
    bump = preset_driver("smooth-bump")
    perturbed = dataclasses.replace(
        quad, name="quad-plus-bump",
        phi=lambda x: np.asarray(x, dtype=float) ** 2 + bump.phi(x),
        phi_x=lambda x: 2.0 * np.asarray(x, dtype=float) + bump.phi_x(x),
        L1=5.0)
    return PdeProblem(grid, quad, Geps), PdeProblem(grid, perturbed, Geps)


def test_stability_bump_perturbation():
    report = gbsde.stability_check(*_bump_pair(401), p=1.0)
    assert [row[0] for row in report.rows] == [101, 201, 401]
    constants = [row[4] for row in report.rows]
    assert max(constants) < 2.0 * min(constants)
    assert report.stable


def test_stability_refuses_a_level_that_misses_the_data():
    # at nx = 101 the coarsest level has 26 nodes on [-7, 7], none of them
    # where the bump is nonzero: its delta is 0, and the verdict would rest
    # on the two finer levels alone
    with pytest.raises(DomainError, match=r"level nx=26 .*larger --nx"):
        gbsde.stability_check(*_bump_pair(101), p=1.0)


def test_stability_rejects_mismatched_inputs():
    Geps = regularize(G01, 0.1)
    quad = preset_driver("quadratic")
    base = PdeProblem(Grid1D(-7.0, 7.0, 101, 1.0), quad, Geps)
    other_grid = PdeProblem(Grid1D(-7.0, 7.0, 201, 1.0), quad, Geps)
    with pytest.raises(DomainError):
        gbsde.stability_check(base, other_grid, p=1.0)
    other_G = PdeProblem(Grid1D(-7.0, 7.0, 101, 1.0), quad,
                         regularize(G01, 0.2))
    with pytest.raises(DomainError):
        gbsde.stability_check(base, other_G, p=1.0)


def _dense_stability_rows(problem1, problem2, p, lattice_steps=64):
    # two dense solves per level and the level-by-level f/g sums, as the
    # reference for the streamed check
    from gbmlab.gcore import CylinderFunctional
    from gbmlab.gexpect import LatticeSpec, lattice_oracle
    from gbmlab.pde import _ux
    G, d1, d2 = problem1.G, problem1.driver, problem2.driver
    g1 = problem1.grid
    xc = 0.5 * (g1.x_min + g1.x_max)
    rows = []
    for factor in (4, 2, 1):  # two coarsenings and the problems' grid
        grid = gbsde._coarsen(g1, factor, "the reference")
        s1 = solve_terminal_pde(PdeProblem(grid, d1, G))
        s2 = solve_terminal_pde(PdeProblem(grid, d2, G))
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
    grid = Grid1D(-6.0, 6.0, 161, 0.5)
    Geps = regularize(G01, 0.1)
    if case == "shift":
        quad = preset_driver("quadratic")
        pair = (quad, _shifted(quad))
    elif case == "shift-sine-gz":
        # a shared non-zero g: its difference loop reads the stacked row
        sine = preset_driver("sine-gz")
        pair = (sine, _shifted(sine))
    elif case == "f-and-g":
        pair = (_fg_driver("fg-1", lambda t, x, y: 0.3 * np.cos(x) - 0.2 * y,
                           lambda t, x, y, z: 0.25 * np.sin(z)),
                _fg_driver("fg-2", lambda t, x, y: 0.1 * np.sin(y),
                           lambda t, x, y, z: 0.1 * z + 0.05 * y))
    else:  # two presets whose CFL steps differ
        pair = (preset_driver("quadratic"),
                preset_driver("sine-gz", {"c": 2.0}))
    return tuple(PdeProblem(grid, d, Geps) for d in pair)


@pytest.mark.parametrize("case", ["shift", "shift-sine-gz", "f-and-g",
                                  "preset-b"])
def test_streamed_stability_equals_dense_solves(case):
    problem1, problem2 = _stability_pair(case)
    if case == "preset-b":
        nts = [_pde._time_steps(pr.grid, (pr.G,), pr.driver)[0]
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

    def counted(driver, grid, Gs, nt, dt, u, **kw):
        calls.append(np.shape(u)[0])
        return steps(driver, grid, Gs, nt, dt, u, **kw)
    monkeypatch.setattr(_pde, "_backward_steps", counted)
    return calls


def test_phi_only_stability_pair_is_one_sweep_per_level(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    problem1, problem2 = _stability_pair("shift-sine-gz")
    stacked = gbsde.stability_check(problem1, problem2)
    assert calls == [2, 2, 2]
    # the same pair with an equal but distinct g callable gets two sweeps,
    # and the same rows
    calls.clear()
    g = problem2.driver.g
    distinct = dataclasses.replace(problem2.driver,
                                   g=lambda t, x, y, z: g(t, x, y, z))
    report = gbsde.stability_check(
        problem1, dataclasses.replace(problem2, driver=distinct))
    assert calls == [1, 1] * 3
    assert np.array(report.rows).tobytes() == \
        np.array(stacked.rows).tobytes()


def test_other_stability_pairs_keep_two_sweeps(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    gbsde.stability_check(*_stability_pair("preset-b"))
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
    gbsde.stability_check(*(PdeProblem(grid, d, Geps) for d in (d1, d2)))
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
        PdeProblem(grid, d, Geps)
        for d in (bump, _shifted(bump)))
    calls = _count_sweeps(monkeypatch)
    stacked = gbsde.stability_check(problem1, problem2)
    assert calls == [2, 2, 2]
    # the two-sweep reference: the same f behind a distinct callable
    distinct = dataclasses.replace(problem2.driver,
                                   f=lambda t, x, y: f(t, x, y))
    reference = gbsde.stability_check(
        problem1, dataclasses.replace(problem2, driver=distinct))
    assert calls == [2, 2, 2] + [1, 1] * 3
    np.testing.assert_array_equal(np.array(stacked.rows),
                                  np.array(reference.rows))
    assert all(math.isnan(r[3]) and r[4] == 0.0 for r in stacked.rows)


def test_stacked_stability_is_charged_for_both_rows(monkeypatch):
    # a budget that a one-row sweep fits and a two-row sweep does not: the
    # stacked pair is refused before its first sweep, the same pair in two
    # sweeps (a distinct g) runs
    quad = preset_driver("quadratic")
    grid = Grid1D(-6.0, 6.0, 41, 0.5)
    Geps = regularize(G01, 0.1)
    nt = _pde._time_steps(grid, (Geps,), quad)[0]
    monkeypatch.setattr(_pde, "STEP_NODES_MIN", 1)
    monkeypatch.setattr(_pde, "NODE_STEPS_MAX", 3 * grid.nx * nt // 2)
    calls = _count_sweeps(monkeypatch)
    shifted = _shifted(quad)
    with pytest.raises(NumericalError, match=f"nx=41, 2 row"):
        gbsde.stability_check(PdeProblem(grid, quad, Geps),
                              PdeProblem(grid, shifted, Geps))
    assert calls == []
    g = shifted.g
    distinct = dataclasses.replace(shifted,
                                   g=lambda t, x, y, z: g(t, x, y, z))
    gbsde.stability_check(PdeProblem(grid, quad, Geps),
                          PdeProblem(grid, distinct, Geps))
    assert calls == [1, 1] * 3


# ---- dynamic programming check ----

def test_dp_empty_interval():
    problem = PdeProblem(_grid(), preset_driver("quadratic"), G01)
    assert gbsde.dynamic_programming_check(problem, 0.4, 0.4).residual == 0.0


def test_dp_pure_quadratic():
    problem = PdeProblem(_grid(), preset_driver("quadratic"), G01)
    report = gbsde.dynamic_programming_check(problem, 0.0, 0.5)
    assert report.residual <= 2e-2


def test_dp_linear_h():
    problem = PdeProblem(_grid(), preset_driver("linear-h"),
                         regularize(G01, 0.1))
    report = gbsde.dynamic_programming_check(problem, 0.25, 0.75)
    assert report.residual <= 3e-2


def test_dp_rejections():
    quad = preset_driver("quadratic")
    geometric = dataclasses.replace(
        quad, name="geometric",
        sigma=lambda t, x: np.asarray(x, dtype=float),
        sigma_x=lambda t, x: np.ones_like(np.asarray(x, dtype=float)))
    problem = PdeProblem(_grid(), geometric, G01)
    with pytest.raises(DomainError):
        gbsde.dynamic_programming_check(problem, 0.0, 0.5)
    pure = PdeProblem(_grid(), quad, G01)
    with pytest.raises(DomainError):
        gbsde.dynamic_programming_check(pure, 0.5, 0.25)
    with pytest.raises(DomainError):
        gbsde.dynamic_programming_check(pure, 0.5, 1.5)


def test_dp_refuses_a_drift_between_sample_points():
    # a drift bump at x = 1.2, far below 1e-14 at every one of seven
    # evenly spaced points of the grid, is a drift all the same
    grid = _grid()
    assert np.min(np.abs(np.linspace(grid.x_min, grid.x_max, 7) - 1.2)) > 0.4
    bumped = dataclasses.replace(
        preset_driver("quadratic"), name="hidden-b",
        b=lambda t, x: np.exp(-((np.asarray(x, dtype=float) - 1.2)
                                / 0.05) ** 2),
        b_x=None)
    with pytest.raises(DomainError, match="supports b == 0 only"):
        gbsde.dynamic_programming_check(PdeProblem(grid, bumped, G01),
                                        0.0, 0.5)


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
    problem = PdeProblem(_grid(161), preset_driver(preset), G)
    sol = solve_terminal_pde(problem)
    report = gbsde.dynamic_programming_check(problem, t1, t2, x0=0.1,
                                             steps=steps)
    want = _ref_dp_lattice_value(problem, sol, t1, t2, 0.1, steps)
    assert (np.float64(report.lattice_value).tobytes()
            == np.float64(want).tobytes())


def test_dp_rejects_too_few_steps():
    problem = PdeProblem(_grid(101), preset_driver("quadratic"), G01)
    for steps in (0, -2):
        with pytest.raises(DomainError):
            gbsde.dynamic_programming_check(problem, 0.0, 0.5, steps=steps)


def test_dp_refuses_too_few_steps_before_solving(monkeypatch):
    problem = PdeProblem(_grid(101), preset_driver("quadratic"), G01)

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
    report = gbsde.counterexample_demo(1.0, [1.0, 0.01], **mc)
    assert report.rows[0][1] == 1.25
    assert report.rows[1][1] == pytest.approx(7.886966806002416, rel=1e-12)


def test_counterexample_slope_and_mc_ratios():
    mc = {"n_paths": 20000, "n_steps": 256, "seed": 0}
    report = gbsde.counterexample_demo(1.0, [1.0, 0.5, 0.25, 0.125], **mc)
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


def test_counterexample_holds_one_chunk():
    # 16384 paths are one chunk of normals, scaled in place; a scaled copy,
    # or the last chunk kept alive through the next draw, would pass 2
    mc = {"n_paths": 16384, "n_steps": 128, "seed": 0}
    peak = traced_peak(
        lambda: gbsde.counterexample_demo(1.0, [1.0, 0.5, 0.25], **mc))
    assert peak < 1.25 * 8 * mc["n_paths"] * mc["n_steps"]


# ---- end-to-end invariants ----

def test_family_monotone_in_payoff():
    lower = payoff_driver(lambda x: np.cos(np.asarray(x, dtype=float)) - 1.0,
                          lambda x: -np.sin(np.asarray(x, dtype=float)),
                          name="cos-minus-one", kinks=())
    fam_lo = _family(lower, (0.2, 0.1))
    fam_hi = _family(preset_driver("quadratic"), (0.2, 0.1))
    assert np.min(fam_hi.u - fam_lo.u) >= -1e-12
    assert np.min(fam_hi.u0 - fam_lo.u0) >= -1e-12
    # every level and the limit at every time level, not only the t = 0
    # rows the family keeps, each level solved on its family's time grid
    eps = fam_hi.eps_schedule
    sols_lo, sols_hi = _levels(fam_lo), _levels(fam_hi)
    for lo, hi in zip(sols_lo, sols_hi):
        assert np.min(hi.u - lo.u) >= -1e-12
    assert np.min(gbsde._extrapolate(eps, sols_hi[-2].u, sols_hi[-1].u)
                  - gbsde._extrapolate(eps, sols_lo[-2].u, sols_lo[-1].u)
                  ) >= -1e-12


def test_family_preserves_constants():
    const = payoff_driver(
        lambda x: np.full_like(np.asarray(x, dtype=float), 3.7),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name="const-3.7", kinks=())
    fam = _family(const, (0.2, 0.1))
    assert np.all(fam.u == 3.7)
    assert np.all(fam.u0 == 3.7)
    # every level and the limit at every time level, not only the t = 0
    # rows the family keeps
    sols = _levels(fam)
    for sol in sols:
        assert np.all(sol.u == 3.7)
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
