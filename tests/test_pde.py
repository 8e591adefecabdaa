"""Monotone explicit solver: step bounds, frozen solves, fields, moduli."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from gbmlab.gcore import (
    CylinderFunctional,
    DomainError,
    DriverSpec,
    Grid1D,
    NumericalError,
    make_gfunction,
    payoff_driver,
    preset_driver,
    regularize,
)
from gbmlab.gexpect import LatticeSpec, lattice_oracle
from gbmlab.pde import (
    FieldInterpolator,
    GridPoints,
    PdeForm,
    PdeProblem,
    PdeSolution,
    cfl_timestep,
    derivatives,
    export_solution_csv,
    extremal_control,
    fit_space_modulus,
    fit_time_modulus,
    solve_terminal_pde,
)

G01 = make_gfunction(0.0, 1.0)


def _gheat(driver, G=G01, grid=None, nx=401, T=1.0, safety=0.9):
    if grid is None:
        grid = Grid1D.default_for(0.0, T, G, nx=nx)
    return solve_terminal_pde(PdeProblem(grid, driver, G, PdeForm.GHEAT),
                              safety=safety)


def _cos_driver():
    return payoff_driver(np.cos,
                         lambda x: -np.sin(np.asarray(x, dtype=float)),
                         lambda x: -np.cos(np.asarray(x, dtype=float)),
                         name="cos", L1=1.0, m=1)


def _neg_quadratic_driver():
    return payoff_driver(lambda x: -np.asarray(x, dtype=float) ** 2,
                         lambda x: -2.0 * np.asarray(x, dtype=float),
                         lambda x: np.full_like(np.asarray(x, dtype=float),
                                                -2.0),
                         name="neg-quadratic", L1=1.0, m=1)


# ---------------------------------------------------------------------------
# step-size bound
# ---------------------------------------------------------------------------

def test_cfl_unit_diffusion_frozen():
    grid = Grid1D(-2.0, 2.0, 41, 1.0)
    assert grid.dx == pytest.approx(0.1, abs=1e-15)
    zero = preset_driver("zero")
    assert cfl_timestep(grid, G01, zero, safety=0.9) == pytest.approx(
        0.009, abs=1e-15)
    assert cfl_timestep(grid, G01, zero, safety=1.0) == pytest.approx(
        0.01, abs=1e-15)


def test_cfl_state_dependent_sigma():
    grid = Grid1D(-2.0, 2.0, 41, 1.0)
    geom = dataclasses.replace(
        preset_driver("quadratic"), name="geometric",
        sigma=lambda t, x: np.asarray(x, dtype=float),
        sigma_x=lambda t, x: np.ones_like(np.asarray(x, dtype=float)))
    assert cfl_timestep(grid, G01, geom, safety=0.9) == pytest.approx(
        0.00225, abs=1e-15)


def test_cfl_safety_validation():
    grid = Grid1D(-2.0, 2.0, 41, 1.0)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            cfl_timestep(grid, G01, preset_driver("zero"), safety=bad)


# ---------------------------------------------------------------------------
# frozen terminal solves
# ---------------------------------------------------------------------------

def test_solve_convex_payoff():
    sol = _gheat(preset_driver("quadratic"))
    assert abs(sol.value(0.0, 0.0) - 1.0) <= 1e-2
    # terminal slice is the payoff sampled exactly
    assert np.array_equal(sol.u[-1], sol.xs ** 2)
    assert np.all(np.isfinite(sol.u))


def test_solve_concave_payoff_degenerate():
    sol = _gheat(_neg_quadratic_driver())
    assert abs(sol.value(0.0, 0.0) - 0.0) <= 1e-2


def test_solve_cos_matches_lattice():
    sol = _gheat(_cos_driver())
    X = CylinderFunctional(times=(1.0,), psi=np.cos)
    ref = lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 32, G01))
    assert abs(sol.value(0.0, 0.0) - ref) <= 2e-2


def test_solve_refuses_cfl_violation():
    grid = Grid1D.default_for(0.0, 1.0, G01, nx=401).with_nt(10)
    with pytest.raises(NumericalError):
        solve_terminal_pde(PdeProblem(grid, preset_driver("quadratic"),
                                      G01, PdeForm.GHEAT))


def test_solve_reports_nonfinite_terminal():
    # finite on the self-check box, infinite further out on the solve domain
    bad = payoff_driver(
        lambda x: np.where(np.abs(np.asarray(x, dtype=float)) < 5.0,
                           np.asarray(x, dtype=float), np.inf),
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        name="blowup", L1=2.0, m=1)
    with pytest.raises(NumericalError, match="non-finite"):
        _gheat(bad)


def test_bare_driver_solves_like_its_preset():
    zero = preset_driver("zero")
    quad = preset_driver("quadratic")
    for preset, bare in (
            (zero, DriverSpec(name="bare-zero", phi=zero.phi)),
            (quad, DriverSpec(name="bare-quad", phi=quad.phi,
                              phi_x=quad.phi_x))):
        ref, sol = _gheat(preset, nx=101), _gheat(bare, nx=101)
        assert np.array_equal(ref.u, sol.u)
        assert np.array_equal(ref.a_field, sol.a_field)


def test_gheat_form_rejects_nonzero_coefficients():
    grid = Grid1D.default_for(0.0, 1.0, G01)
    with pytest.raises(DomainError):
        PdeProblem(grid, preset_driver("linear-h"), G01, PdeForm.GHEAT)


# ---------------------------------------------------------------------------
# derivative fields
# ---------------------------------------------------------------------------

def _static_solution(values: np.ndarray, grid: Grid1D) -> PdeSolution:
    u = np.tile(values, (4, 1))
    return PdeSolution(u=u, a_field=np.zeros_like(u), grid=grid.with_nt(3),
                       driver=preset_driver("zero"), G=G01,
                       form=PdeForm.GHEAT, dx=grid.dx, dt=grid.T / 3)


def test_derivatives_exact_on_quadratic_field():
    grid = Grid1D(-2.0, 2.0, 81, 1.0)
    d = derivatives(_static_solution(grid.xs ** 2, grid))
    assert np.max(np.abs(d.ux[:, 1:-1] - 2.0 * grid.xs[1:-1])) <= 1e-12
    assert np.max(np.abs(d.uxx - 2.0)) <= 1e-10
    assert np.max(np.abs(d.ut)) == 0.0


def test_derivatives_vanish_on_constant_field():
    grid = Grid1D(-2.0, 2.0, 81, 1.0)
    d = derivatives(_static_solution(np.full(grid.nx, 3.5), grid))
    for f in (d.ux, d.uxx, d.ut):
        assert np.max(np.abs(f)) == 0.0


def test_time_derivative_of_convex_solve():
    sol = _gheat(preset_driver("quadratic"))
    d = derivatives(sol)
    j = int(np.argmin(np.abs(sol.xs)))
    assert abs(d.ut[0, j] - (-1.0)) <= 2e-2


# ---------------------------------------------------------------------------
# extremal control
# ---------------------------------------------------------------------------

def test_extremal_control_convex_selects_high():
    sol = _gheat(preset_driver("quadratic"))
    cf = extremal_control(sol, G01)
    assert np.all(cf.sigma_star == G01.sigma_high)


def test_extremal_control_concave_selects_low():
    sol = _gheat(_neg_quadratic_driver())
    cf = extremal_control(sol, G01)
    # the boundary closure zeroes the curvature argument there, which the
    # field flags as ambiguous; away from it the choice is sigma_low
    assert np.all(cf.sigma_star[:, 1:-1] == G01.sigma_low)
    assert not cf.ambiguous[:, 1:-1].any()


def test_extremal_control_cos_fraction_matches_lattice_policy():
    sol = _gheat(_cos_driver())
    cf = extremal_control(sol, G01)
    spec = LatticeSpec.for_horizon(1.0, 50, G01)
    _, policy = lattice_oracle(CylinderFunctional(times=(1.0,), psi=np.cos),
                               G01, spec, return_policy=True)
    lat_hi = lat_n = pde_hi = 0
    for k, (offsets, arg) in policy.items():
        off = np.asarray(offsets)
        reach = np.abs(off) <= k
        if not reach.any():
            continue
        choices = np.asarray(arg)[0, reach]
        n = min(int(round(k * spec.dt / sol.dt)), sol.u.shape[0] - 1)
        j = np.clip(np.rint((off[reach] * spec.dx - sol.xs[0]) / sol.dx)
                    .astype(int), 0, len(sol.xs) - 1)
        lat_hi += int((choices == len(spec.sigma_choices) - 1).sum())
        lat_n += choices.size
        pde_hi += int((cf.sigma_star[n, j] == G01.sigma_high).sum())
    assert lat_n > 0
    assert abs(lat_hi / lat_n - pde_hi / lat_n) <= 0.05


# ---------------------------------------------------------------------------
# scheme properties
# ---------------------------------------------------------------------------

def test_monotonicity_in_the_payoff():
    lo = payoff_driver(lambda x: np.cos(np.asarray(x, dtype=float)) - 1.0,
                       lambda x: -np.sin(np.asarray(x, dtype=float)),
                       name="cos-shift", L1=1.0, m=1)
    hi = preset_driver("quadratic")
    sol_lo, sol_hi = _gheat(lo), _gheat(hi)
    assert sol_lo.u.shape == sol_hi.u.shape
    assert np.all(sol_lo.u <= sol_hi.u + 1e-12)


def test_constant_preservation():
    const = payoff_driver(
        lambda x: np.full_like(np.asarray(x, dtype=float), 3.7),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name="const", L1=1.0, m=1)
    sol = _gheat(const)
    assert np.all(sol.u == 3.7)


def test_sublinearity_at_the_origin():
    f1 = _cos_driver()
    f2 = preset_driver("quadratic")
    both = payoff_driver(
        lambda x: np.cos(np.asarray(x, dtype=float))
        + np.asarray(x, dtype=float) ** 2,
        lambda x: -np.sin(np.asarray(x, dtype=float))
        + 2.0 * np.asarray(x, dtype=float),
        name="cos-plus-quadratic", L1=2.0, m=1)
    v12 = _gheat(both).value(0.0, 0.0)
    v1 = _gheat(f1).value(0.0, 0.0)
    v2 = _gheat(f2).value(0.0, 0.0)
    assert v12 <= v1 + v2 + 1e-10


def test_space_modulus_stable_under_refinement():
    coarse = _gheat(_cos_driver(), nx=201)
    fine = _gheat(_cos_driver(), nx=401)
    c0, c1 = fit_space_modulus(coarse), fit_space_modulus(fine)
    assert 0.0 < c1 <= 2.0 * c0
    assert c0 <= 2.0 * c1


def test_time_modulus_stable_under_refinement():
    coarse = _gheat(_cos_driver(), nx=201)
    fine = _gheat(_cos_driver(), nx=401)
    c0, c1 = fit_time_modulus(coarse), fit_time_modulus(fine)
    assert 0.0 < c1 <= 2.0 * c0
    assert c0 <= 2.0 * c1


def test_gradient_bound_uniform_across_regularizations():
    sup_grad = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        sol = _gheat(preset_driver("smooth-bump"), G=regularize(G01, eps))
        sup_grad.append(float(np.max(np.abs(derivatives(sol).ux))))
    lo, hi = min(sup_grad), max(sup_grad)
    assert (hi - lo) / lo < 0.10


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_solution_csv(tmp_path):
    grid = Grid1D(-1.0, 1.0, 11, 0.1)
    sol = solve_terminal_pde(PdeProblem(grid, preset_driver("quadratic"),
                                        G01, PdeForm.GHEAT))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_solution_csv(sol, str(p1))
    export_solution_csv(sol, str(p2))
    lines = p1.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,u,ux,uxx,a,sigma_star"
    assert len(lines) == 1 + (sol.nt + 1) * grid.nx
    cell = lines[1].split(",")[2]
    assert "e" in cell and len(cell.split("e")[0].replace("-", "")) == 14
    assert p1.read_bytes() == p2.read_bytes()


# ---- shared-index sampling ----

def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_grid_points_sample_equals_np_interp_bit_for_bit():
    rng = np.random.default_rng(11)
    for nx, lo, hi in ((3, -1.0, 1.0), (51, -8.2, 8.2), (401, -7.0, 9.3),
                       (1601, 0.1, 0.35)):
        xs = Grid1D(lo, hi, nx, 1.0).xs
        rows = [rng.normal(size=nx) * 10.0 ** rng.uniform(-3, 3, size=nx),
                np.where(rng.random(nx) < 0.3, -0.0, rng.normal(size=nx))]
        pad = hi - lo
        x = np.concatenate([
            xs,                                     # every node
            np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
            [lo, hi, lo - 1e-300, hi + 1e-12, lo - pad, hi + pad,
             -1e300, 1e300, -np.inf, np.inf, np.nan],   # ends and outside
            rng.uniform(lo - 0.1 * pad, hi + 0.1 * pad, size=5000)])
        pts = GridPoints(xs, x)
        for row in rows:
            assert _bits(pts.sample(row)) == _bits(np.interp(x, xs, row))
        near = np.abs(x) < 1e6
        j = np.clip(np.rint((x[near] - xs[0]) / (xs[1] - xs[0]))
                    .astype(np.int64), 0, nx - 1)
        assert np.array_equal(GridPoints(xs, x[near]).nearest(), j)
        far = GridPoints(xs, [-1e300, 1e300, -np.inf, np.inf]).nearest()
        assert far.tolist() == [0, nx - 1, 0, nx - 1]


def test_grid_points_keep_the_shape_of_x():
    xs = Grid1D(-1.0, 1.0, 11, 1.0).xs
    row = xs ** 2
    x = np.array([[0.05, -2.0], [0.3, 1.0]])
    assert np.array_equal(GridPoints(xs, x).sample(row),
                          np.interp(x, xs, row))
    assert GridPoints(xs, 0.05).sample(row) == np.interp(0.05, xs, row)


def test_field_interpolator_matches_np_interp():
    G = regularize(G01, 0.2)
    sol = solve_terminal_pde(PdeProblem(
        Grid1D.default_for(0.0, 1.0, G, nx=101), preset_driver("sine-gz"), G,
        PdeForm.REGULARIZED_BSDE))
    fields = FieldInterpolator(sol)
    x = np.random.default_rng(2).normal(scale=3.0, size=300)
    for t in (0.0, 0.37, 1.0):
        n = min(int(np.searchsorted(sol.ts, t + 1e-12, side="right")) - 1,
                sol.nt)
        for got, row in ((fields.u_at(t, x), sol.u[n]),
                         (fields.z_at(t, x), fields.ux[n]),
                         (fields.a_at(t, x), sol.a_field[n])):
            assert _bits(got) == _bits(np.interp(x, sol.xs, row))
