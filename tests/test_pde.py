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
from gbmlab import pde
from gbmlab.gcore import _one2, _zero2, _zero3, _zero4
from gbmlab.gexpect import LatticeSpec, lattice_oracle
from gbmlab.pde import (
    ControlField,
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


# ---- the work-buffer step against the allocating step ----

def _reference_generator_arg(driver, t, xs, dx, u):
    # the allocating expressions of the step, kept as the reference
    d2 = np.zeros_like(u)
    d2[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / (dx * dx)
    one = driver.sigma is _one2
    sig = None if one else np.asarray(driver.sigma(t, xs), dtype=float)
    a = d2 if one else sig * sig * d2
    if driver.h is _zero2 and driver.g is _zero4:
        return a
    d1 = np.empty_like(u)
    d1[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    d1[..., 0] = (u[..., 1] - u[..., 0]) / dx
    d1[..., -1] = (u[..., -1] - u[..., -2]) / dx
    if driver.h is not _zero2:
        a = a + 2.0 * np.asarray(driver.h(t, xs), dtype=float) * d1
    if driver.g is not _zero4:
        z = d1 if one else sig * d1
        a = a + 2.0 * np.asarray(driver.g(t, xs, u, z), dtype=float)
    return a


def _reference_steps(driver, grid, Gs, nt, dt, u):
    xs, dx = grid.xs, grid.dx
    sh2 = np.array([[G.sigma_high ** 2] for G in Gs])
    sl2 = np.array([[G.sigma_low ** 2] for G in Gs])
    for n in range(nt - 1, -1, -1):
        t_known = (n + 1) * dt
        a = _reference_generator_arg(driver, t_known, xs, dx, u)
        rate = 0.5 * (sh2 * np.maximum(a, 0.0) - sl2 * np.maximum(-a, 0.0))
        if driver.b is not _zero2:
            b = np.asarray(driver.b(t_known, xs), dtype=float)
            if np.any(b):
                du = np.diff(u, axis=-1) / dx
                fwd = np.concatenate([du, du[..., -1:]], axis=-1)
                bwd = np.concatenate([du[..., :1], du], axis=-1)
                rate = rate + b * np.where(b > 0.0, fwd, bwd)
        if driver.f is not _zero3:
            rate = rate + np.asarray(driver.f(t_known, xs, u), dtype=float)
        u = u + dt * rate
        yield n, a, u


def _x(x):
    return np.asarray(x, dtype=float)


_STEP_DRIVERS = {
    # every coefficient set; b changes sign, so both upwind sides are used
    "all": dict(b=lambda t, x: np.sin(_x(x)) - 0.2 * t,
                h=lambda t, x: 0.3 * np.cos(_x(x)) + t,
                sigma=lambda t, x: 1.0 + 0.25 * np.sin(_x(x)),
                f=lambda t, x, y: 0.4 * np.sin(_x(y)) - 0.1 * _x(x),
                g=lambda t, x, y, z: 0.5 * np.sin(_x(z)) + 0.1 * _x(y)),
    # sigma alone scales d_xx (the early return without d_x)
    "sigma-f": dict(sigma=lambda t, x: 0.5 + 0.1 * _x(x) ** 2,
                    f=lambda t, x, y: -0.3 * _x(y)),
    # g with the unit sigma (z is d_x u itself); g returns one row for all
    "h-g": dict(h=lambda t, x: 0.2 * _x(x),
                g=lambda t, x, y, z: 0.25 * np.cos(_x(x))),
    # a constant drift: one upwind side only
    "b": dict(b=lambda t, x: np.full_like(_x(x), -0.7)),
}


@pytest.mark.parametrize("name", sorted(_STEP_DRIVERS))
def test_backward_steps_equal_the_allocating_step(name):
    driver = DriverSpec(name=name, phi=np.cos, skip_self_check=True,
                        **_STEP_DRIVERS[name])
    grid = Grid1D(-3.0, 3.0, 61, 0.5)
    Gs = (make_gfunction(0.0, 1.0), make_gfunction(0.5, 1.2),
          make_gfunction(0.2, 0.8))
    xs = grid.xs
    stack = np.zeros((4, 3, grid.nx))
    stack[1] = np.stack([np.cos(xs), 0.5 * np.sin(2.0 * xs), xs ** 2 / 9.0])
    rows = stack[1]  # a strided view, as the dense solver passes
    before = stack.tobytes()
    got = pde._backward_steps(driver, grid, Gs, 40, 2e-4, rows)
    ref = _reference_steps(driver, grid, Gs, 40, 2e-4, rows.copy())
    levels = 0
    for (n, a, un), (n_ref, a_ref, un_ref) in zip(got, ref, strict=True):
        assert n == n_ref
        assert a.tobytes() == a_ref.tobytes(), (name, n)
        assert un.tobytes() == un_ref.tobytes(), (name, n)
        levels += 1
    assert levels == 40
    assert stack.tobytes() == before


def test_gheat_solve_with_zero_sigma_low_equals_the_allocating_step():
    driver = _cos_driver()
    grid = Grid1D.default_for(0.0, 1.0, G01, nx=101)
    sol = _gheat(driver, grid=grid)
    assert G01.sigma_low == 0.0
    u = np.empty_like(sol.u)
    a_field = np.empty_like(sol.u)
    u[-1] = np.cos(grid.xs)
    for n, a, un in _reference_steps(driver, grid, (G01,), sol.nt, sol.dt,
                                     u[-1][None]):
        a_field[n + 1] = a[0]
        u[n] = un[0]
    a_field[0] = _reference_generator_arg(driver, 0.0, grid.xs, grid.dx,
                                          u[0])
    assert sol.u.tobytes() == u.tobytes()
    assert sol.a_field.tobytes() == a_field.tobytes()


# ---- the level-at-a-time CSV writer against the cell-by-cell writer ----

def _cell_by_cell_csv(sol, path, control=None):
    # the cell-by-cell writer, kept as the reference
    d = derivatives(sol)
    if control is None:
        control = extremal_control(sol, sol.G)
    ts, xs = sol.ts, sol.xs
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,u,ux,uxx,a,sigma_star\n")
        for n in range(sol.u.shape[0]):
            for j in range(sol.u.shape[1]):
                fh.write(",".join(format(v, ".12e") for v in (
                    ts[n], xs[j], sol.u[n, j], d.ux[n, j], d.uxx[n, j],
                    sol.a_field[n, j], control.sigma_star[n, j])) + "\n")


def test_export_equals_the_cell_by_cell_writer_on_edge_values(tmp_path):
    grid = Grid1D(-3e-200, 3e-200, 7, 1e-149)  # three-digit exponents in x
    edge = [-0.0, 0.0, 5e-324, -2.2e-310, np.inf, -np.inf, np.nan,
            1e300, -1.5e-120, 1e-5, 123.456, -7.0]
    rng = np.random.default_rng(5)
    u = rng.choice(edge, size=(4, grid.nx))
    a_field = rng.choice(edge, size=(4, grid.nx))
    sol = PdeSolution(u=u, a_field=a_field, grid=grid.with_nt(3),
                      driver=preset_driver("zero"), G=G01,
                      form=PdeForm.GHEAT, dx=grid.dx, dt=grid.T / 3)
    sigma = rng.choice([-0.0, 0.0, np.nan, -np.nan, 1.0, 5e-324, np.inf],
                       size=u.shape)
    control = ControlField(sigma_star=sigma, ambiguous=np.zeros(u.shape, bool),
                           tie_tol=0.0)
    with np.errstate(all="ignore"):
        for ctl in (None, control):
            got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
            export_solution_csv(sol, str(got), ctl)
            _cell_by_cell_csv(sol, str(ref), ctl)
            assert got.read_bytes() == ref.read_bytes()
    text = got.read_text(encoding="utf-8")
    assert "-0.000000000000e+00" in text and "nan" in text and "e-200" in text


def test_export_equals_the_cell_by_cell_writer_on_a_solve(tmp_path):
    sol = _gheat(_cos_driver(), nx=41)
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    export_solution_csv(sol, str(got))
    _cell_by_cell_csv(sol, str(ref))
    assert got.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("nt", [2, 7, 8])
def test_export_equals_the_cell_by_cell_writer_across_blocks(tmp_path,
                                                             monkeypatch, nt):
    # nt + 1 = 3, 8 and 9 time levels: below one 4-level block, an exact
    # multiple of it, one more than a multiple; then 1-level blocks, and a
    # block size below one level, which still writes whole levels
    grid = Grid1D(-2.0, 2.0, 11, 0.2, nt=nt)
    sol = solve_terminal_pde(PdeProblem(grid, _cos_driver(), G01,
                                        PdeForm.GHEAT))
    assert sol.nt == nt
    ref = tmp_path / "ref.csv"
    _cell_by_cell_csv(sol, str(ref))
    level_bytes = 7 * (pde.CELL + 1) * grid.nx
    for block in (4 * level_bytes, level_bytes, 1):
        monkeypatch.setattr(pde, "_BLOCK_BYTES", block)
        got = tmp_path / f"got{block}.csv"
        export_solution_csv(sol, str(got))
        assert got.read_bytes() == ref.read_bytes(), block


def _cell_texts(values):
    v = np.asarray(values, dtype=float)
    out = np.full((v.size, pde.CELL), ord("?"), dtype=np.uint8)
    slow = pde._e12_cells(v, out)
    return [bytes(row).replace(b"\0", b"").decode("ascii")
            for row in out], slow


def test_cell_formatter_equals_format():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bits = st.integers(-2 ** 63, 2 ** 63 - 1).map(
        lambda b: float(np.int64(b).view(np.float64)))
    # k + 0.5 is exact for 13-digit k; scaled, it lands next to a tie
    ties = st.builds(lambda k, p: (k + 0.5) * 10.0 ** p,
                     st.integers(10 ** 12, 10 ** 13 - 1),
                     st.integers(-24, 24))
    powers = st.builds(lambda p, side, steps: float(np.nextafter(
        10.0 ** p, side * np.inf) if steps else 10.0 ** p),
        st.integers(-320, 308), st.sampled_from((-1, 1)), st.booleans())
    values = st.one_of(bits, ties, powers).flatmap(
        lambda v: st.sampled_from((v, -v)))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(values, min_size=1, max_size=40))
    def check(vs):
        texts, _ = _cell_texts(vs)
        assert texts == [format(v, ".12e") for v in vs]

    check()


def test_cell_formatter_leaves_few_cells_to_format():
    # the fast path covers the exponents -10 to 34 except within 2**-10 of
    # a rounding tie, about 0.2% of such cells; zero is fast too
    rng = np.random.default_rng(3)
    v = (rng.choice([-1.0, 1.0], 20_000) * rng.uniform(1.0, 10.0, 20_000)
         * 10.0 ** rng.integers(-10, 35, 20_000))
    v[::100] = 0.0
    texts, slow = _cell_texts(v)
    assert texts == [format(x, ".12e") for x in v.tolist()]
    assert slow < 100
    assert _cell_texts([-0.0, 0.0])[1] == 0
