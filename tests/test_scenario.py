"""Path simulation, variational processes, and derivative estimators."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from gbmlab import gbsde, gexpect, pde, scenario
from gbmlab.gcore import (
    DomainError,
    DriverSpec,
    GbmlabError,
    Grid1D,
    NumericalError,
    make_gfunction,
    payoff_driver,
    preset_driver,
    regularize,
)
from gbmlab.gexpect import LatticeSpec
from gbmlab.pde import (
    FieldInterpolator,
    GridPoints,
    PdeProblem,
    derivatives,
    solve_terminal_pde,
)
from gbmlab.scenario import (
    VolatilityControl,
    estimate_dt,
    estimate_dx,
    forward_sde,
    k_increments,
    mean_and_se,
    pairwise_sum,
    path_normals,
    simulate_paths,
    variational_paths,
    verify_measure_in_Ptx,
)

import path_reference
from conftest import traced_peak

G01 = make_gfunction(0.0, 1.0)


def _geometric_driver():
    return dataclasses.replace(
        preset_driver("quadratic"), name="geometric",
        sigma=lambda t, x: np.asarray(x, dtype=float),
        sigma_x=lambda t, x: np.ones_like(np.asarray(x, dtype=float)))


def _linear_driver():
    return payoff_driver(lambda x: np.asarray(x, dtype=float),
                         lambda x: np.ones_like(np.asarray(x, dtype=float)),
                         name="linear", L1=1.0, m=1)


def _solve(driver, G=G01, nx=401, T=1.0):
    grid = Grid1D.default_for(0.0, T, G, nx=nx)
    return solve_terminal_pde(PdeProblem(grid, driver, G))


# ---------------------------------------------------------------------------
# noise generation
# ---------------------------------------------------------------------------

def test_path_normals_split_stability():
    full = path_normals(0, 100, 16)
    head = path_normals(0, 40, 16)
    tail = path_normals(0, 60, 16, path_offset=40)
    assert np.array_equal(full[:40], head)
    assert np.array_equal(full[40:], tail)


def _fresh_stream_normals(seed, n_paths, n_steps, path_offset=0):
    # reference: a new Philox generator per path
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.stack([
        np.random.Generator(np.random.Philox(key=np.array(
            [seed, path_offset + i], dtype=np.uint64))).standard_normal(n_steps)
        for i in range(n_paths)])


@pytest.mark.parametrize("offset", [0, 16384])
def test_path_normals_equal_fresh_streams(offset):
    for seed in (0, 7, -3):
        ref = _fresh_stream_normals(seed, 37, 21, offset)
        assert np.array_equal(path_normals(seed, 37, 21, offset), ref)
        chunks = [path_normals(seed, stop - start, 21, offset + start)
                  for start, stop in ((0, 5), (5, 6), (6, 37))]
        assert np.array_equal(np.concatenate(chunks), ref)


def test_path_normals_at_the_top_of_the_key_range():
    # the key words are held as Python ints; the last path index is 2**64-1
    for seed in (0, 7, -3):
        assert np.array_equal(path_normals(seed, 5, 7, 2 ** 64 - 5),
                              _fresh_stream_normals(seed, 5, 7, 2 ** 64 - 5))


@pytest.mark.parametrize("n_paths, offset", [(5, -1), (5, 2 ** 64 - 4),
                                             (1, 2 ** 64)])
def test_path_normals_refuses_indices_outside_64_bits(n_paths, offset):
    with pytest.raises(DomainError, match="path indices"):
        path_normals(0, n_paths, 3, offset)


def test_path_normals_chunk_invariance_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 64 - 1),
                      n_paths=st.integers(1, 24), n_steps=st.integers(1, 12),
                      offset=st.integers(0, 2 ** 40), data=st.data())
    def check(seed, n_paths, n_steps, offset, data):
        cut = data.draw(st.integers(0, n_paths))
        full = path_normals(seed, n_paths, n_steps, offset)
        parts = [path_normals(seed, stop - start, n_steps, offset + start)
                 for start, stop in ((0, cut), (cut, n_paths)) if stop > start]
        assert np.array_equal(np.concatenate(parts), full)

    check()


def test_pairwise_sum_and_se():
    rng = np.random.default_rng(3)
    v = rng.normal(size=1001)
    assert pairwise_sum(v) == pytest.approx(float(np.sum(v)), abs=1e-10)
    mean, se = mean_and_se(v)
    assert mean == pytest.approx(float(np.mean(v)), abs=1e-12)
    assert se == pytest.approx(float(np.std(v, ddof=1) / math.sqrt(len(v))),
                               rel=1e-10)


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

def test_constant_control_quadratic_variation_exact():
    ctrl = VolatilityControl.constant(1.0, G01)
    bundle = simulate_paths(ctrl, 50, 256, 1.0, seed=1)
    assert np.all(bundle.QV[:, -1] == 1.0)
    dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
    assert np.all(dqv >= G01.sigma_low ** 2 * bundle.dt)
    assert np.all(dqv <= G01.sigma_high ** 2 * bundle.dt)


def test_zero_control_freezes_paths():
    bundle = simulate_paths(VolatilityControl.constant(0.0, G01),
                            50, 64, 1.0, seed=1)
    assert np.all(bundle.dB == 0.0)
    assert np.all(bundle.QV == 0.0)


def test_same_seed_reproduces_bundle():
    ctrl = VolatilityControl.constant(1.0, G01)
    b1 = simulate_paths(ctrl, 20, 32, 1.0, seed=9)
    b2 = simulate_paths(ctrl, 20, 32, 1.0, seed=9)
    b3 = simulate_paths(ctrl, 20, 32, 1.0, seed=10)
    assert np.array_equal(b1.dB, b2.dB)
    assert not np.array_equal(b1.dB, b3.dB)


def test_piecewise_control_bounds():
    G = make_gfunction(0.3, 1.0)
    ctrl = VolatilityControl.piecewise((0.0, 0.5), (0.3, 1.0), G)
    bundle = simulate_paths(ctrl, 10, 8, 1.0, seed=2)
    assert np.allclose(bundle.sigma[:4], 0.3)
    assert np.allclose(bundle.sigma[4:], 1.0)
    dqv = bundle.dQV
    assert np.all(dqv >= G.sigma_low ** 2 * bundle.dt - 1e-18)
    assert np.all(dqv <= G.sigma_high ** 2 * bundle.dt + 1e-18)


def test_control_admissibility_enforced():
    with pytest.raises(DomainError):
        VolatilityControl.constant(1.5, G01)
    with pytest.raises(DomainError):
        VolatilityControl.piecewise((0.0, 0.5), (0.2, 1.0),
                                    make_gfunction(0.3, 1.0))
    with pytest.raises(DomainError):
        VolatilityControl.piecewise((0.5, 0.5), (1.0, 1.0), G01)
    # breakpoints (0.0, nan) ran as the constant 0.5, and True and "0.5"
    # as numbers
    for times in ((0.0, math.nan), (math.nan, 0.5), (0.0, math.inf),
                  ("0", 0.5), (True, 2)):
        with pytest.raises(DomainError, match="need a finite breakpoint"):
            VolatilityControl.piecewise(times, (0.5, 1.0), G01)
    for sigma in (True, "0.5"):
        with pytest.raises(DomainError, match="need a finite volatility"):
            VolatilityControl.constant(sigma, G01)


# ---------------------------------------------------------------------------
# forward flow
# ---------------------------------------------------------------------------

def test_forward_additive_exact():
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            40, 64, 1.0, seed=3)
    X = forward_sde(preset_driver("zero"), 0.0, 0.3, bundle)
    assert np.all(X[:, 0] == 0.3)
    assert np.max(np.abs(X - (0.3 + bundle.B))) <= 1e-12


def test_forward_geometric_strong_order():
    n_fine = 256
    fine = simulate_paths(VolatilityControl.constant(1.0, G01),
                          4000, n_fine, 1.0, seed=4)
    geom = _geometric_driver()
    exact = np.exp(fine.B[:, -1] - 0.5)
    errs, dts = [], []
    for n in (16, 64, 256):
        block = n_fine // n
        dB = fine.dB.reshape(fine.n_paths, n, block).sum(axis=2)
        bundle = dataclasses.replace(fine, n_steps=n, dt=1.0 / n, dB=dB,
                                     sigma=np.ones(n))
        X = forward_sde(geom, 0.0, 1.0, bundle)
        errs.append(float(np.mean(np.abs(X[:, -1] - exact))))
        dts.append(1.0 / n)
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.4 <= order <= 0.6


def test_forward_moment_bound():
    ctrl = VolatilityControl.constant(1.0, G01)
    quad = preset_driver("quadratic")
    fitted = 0.0
    for x0 in (0.0, 1.0, 2.0, 4.0):
        bundle = simulate_paths(ctrl, 4000, 64, 1.0, seed=5)
        X = forward_sde(quad, 0.0, x0, bundle)
        fitted = max(fitted, float(np.mean(X[:, -1] ** 2)) / (1.0 + x0 ** 2))
    assert fitted <= 1.1


# ---------------------------------------------------------------------------
# variational processes
# ---------------------------------------------------------------------------

def test_variational_pure_case_exact():
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            30, 64, 1.0, seed=6)
    zero = preset_driver("zero")
    X = forward_sde(zero, 0.0, 0.0, bundle)
    var = variational_paths(zero, bundle, X)
    assert np.all(var.Gamma == 1.0)
    assert np.all(var.Xhat == 1.0)
    assert np.all(var.Gamma > 0.0)


def test_variational_linear_drift():
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            30, 256, 1.0, seed=6)
    drifted = dataclasses.replace(
        preset_driver("quadratic"), name="drifted",
        b=lambda t, x: 0.5 * np.asarray(x, dtype=float),
        b_x=lambda t, x: np.full_like(np.asarray(x, dtype=float), 0.5))
    X = forward_sde(drifted, 0.0, 1.0, bundle)
    var = variational_paths(drifted, bundle, X)
    assert np.max(np.abs(var.Xhat[:, -1] - math.e ** 0.5)) <= 1e-2


def test_variational_paths_refuses_a_driver_that_reads_y_or_z_unfielded():
    # sine-gz's g_z = c cos(z): without fields, Y and Z would be taken as
    # zero and Gamma would come out wrong without a word
    driver = preset_driver("sine-gz")
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            20, 16, 1.0, seed=1)
    X = forward_sde(driver, 0.0, 0.0, bundle)
    with pytest.raises(DomainError, match="reads Y or Z"):
        variational_paths(driver, bundle, X)
    grid = Grid1D.default_for(0.0, 1.0, G01, nx=101)
    fields = FieldInterpolator(solve_terminal_pde(PdeProblem(grid, driver,
                                                             G01)))
    assert np.all(variational_paths(driver, bundle, X, fields).Gamma > 0.0)


def test_flow_derivative_matches_first_variation():
    bundle = simulate_paths(VolatilityControl.constant(1.0, G01),
                            50, 128, 1.0, seed=7)
    delta = 1e-4
    for driver in (preset_driver("quadratic"), _geometric_driver()):
        X = forward_sde(driver, 0.0, 1.0, bundle)
        Xp = forward_sde(driver, 0.0, 1.0 + delta, bundle)
        fd = (Xp - X) / delta
        var = variational_paths(driver, bundle, X)
        rel = np.abs(fd - var.Xhat) / np.maximum(1.0, np.abs(var.Xhat))
        assert float(np.max(rel)) <= 0.05, driver.name


# ---------------------------------------------------------------------------
# space sensitivity
# ---------------------------------------------------------------------------

def test_dx_linear_payoff():
    driver = _linear_driver()
    sol = _solve(driver)
    est = estimate_dx(driver, 0.0, 0.0, G01, sol,
                      n_paths=2000, n_steps=64, seed=0)
    assert abs(est.plus - 1.0) <= 3.0 * est.se_plus + 1e-10
    assert abs(est.minus - 1.0) <= 3.0 * est.se_minus + 1e-10
    assert est.any_control_accepted


def test_dx_frozen_kink_one_sided():
    kinked = preset_driver("kinked")
    sol = _solve(kinked)
    est = estimate_dx(kinked, 0.0, 0.0, G01, sol,
                      n_paths=500, n_steps=32, seed=0)
    assert est.plus == pytest.approx(1.0, abs=1e-12)
    assert est.minus == pytest.approx(-1.0, abs=1e-12)


def test_dx_quadratic_off_center():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    est = estimate_dx(quad, 0.0, 0.5, G01, sol,
                      n_paths=10_000, n_steps=256, seed=0)
    assert abs(est.plus - 1.0) <= 3.0 * est.se_plus + 2e-2
    assert est.plus >= est.minus - 1e-12


def test_dx_kink_closure_under_elliptic_flow():
    # Lipschitz kink at 0 with nondegenerate forward diffusion: the two
    # one-sided estimates close up
    driver = preset_driver("abs")
    sol = _solve(driver)
    est = estimate_dx(driver, 0.0, 0.0, G01, sol,
                      n_paths=10_000, n_steps=256, seed=0)
    gap = abs(est.plus - est.minus)
    assert gap <= 3.0 * (est.se_plus + est.se_minus) + 2e-2
    assert est.plus >= est.minus - 1e-12


def test_dx_pure_case_matches_pde_slope():
    Geps = regularize(G01, 0.2)
    driver = preset_driver("smooth-bump", {"width": 2.0})
    sol = _solve(driver, G=Geps)
    est = estimate_dx(driver, 0.0, 0.5, Geps, sol,
                      n_paths=10_000, n_steps=256, seed=0)
    d = derivatives(sol)
    j = int(np.argmin(np.abs(sol.xs - 0.5)))
    assert abs(est.plus - d.ux[0, j]) <= 3.0 * est.se_plus + 2e-2


# ---------------------------------------------------------------------------
# the one-pass estimators against whole-bundle passes
# ---------------------------------------------------------------------------

def _reference_estimate(kind, driver, t, x, G, sol, mc):
    """Per-control results of the estimators composed from the reference
    whole-bundle passes (``path_reference``): simulate_paths ->
    forward_sde -> variational_paths -> k_increments, with Y and Z read by
    np.interp, one simulation per control."""
    n_paths, n_steps, seed = mc["n_paths"], mc["n_steps"], mc["seed"]
    T = sol.grid.T
    horizon = T - t
    fields = FieldInterpolator(sol)
    ux = pde._ux(sol.u, sol.dx)
    scale = max(1.0, abs(sol.value(t, x)))
    results = []
    for control in scenario._candidate_controls(sol, G):
        bundle = path_reference.simulate_paths(control, n_paths, n_steps, T,
                                               seed, driver=driver, t0=t,
                                               x0=x)
        X = path_reference.forward_sde(driver, t, x, bundle)
        var = path_reference.variational_paths(driver, bundle, X, fields)
        dqv = np.broadcast_to(bundle.dQV, bundle.dB.shape)
        acc = np.zeros(n_paths)
        for k in range(n_steps):
            tk = t + k * bundle.dt
            xk = X[:, k]
            n = min(max(int(np.searchsorted(sol.ts, tk + 1e-12,
                                            side="right")) - 1, 0), sol.nt)
            yk = np.interp(xk, sol.xs, sol.u[n])
            zk = np.interp(xk, sol.xs, ux[n])
            if kind == "x":
                w = var.Xhat[:, k] * var.Gamma[:, k]
                acc += np.asarray(driver.f_x(tk, xk, yk)) * w * bundle.dt
                acc += np.asarray(driver.g_x(tk, xk, yk, zk)) * w * dqv[:, k]
            else:
                tau = (T - tk) / horizon
                gam, xb = var.Gamma[:, k], var.Xbar[:, k]
                ft = 0.0 if driver.f_t is None else driver.f_t(tk, xk, yk)
                gt = 0.0 if driver.g_t is None else driver.g_t(tk, xk, yk, zk)
                fterm = (driver.f_x(tk, xk, yk) * xb + tau * ft
                         - driver.f(tk, xk, yk) / horizon)
                gterm = (driver.g_z(tk, xk, yk, zk) * zk / (2.0 * horizon)
                         + driver.g_x(tk, xk, yk, zk) * xb + tau * gt
                         - driver.g(tk, xk, yk, zk) / horizon)
                acc += fterm * gam * bundle.dt + gterm * gam * dqv[:, k]
        weight = (var.Xhat if kind == "x" else var.Xbar)[:, -1] \
            * var.Gamma[:, -1]
        mp, sp = mean_and_se(
            scenario._phi_sided(driver, X[:, -1], "plus") * weight + acc)
        mm, sm = mean_and_se(
            scenario._phi_sided(driver, X[:, -1], "minus") * weight + acc)
        kmean, kse = mean_and_se(
            path_reference.k_increments(fields, G, bundle, X).sum(axis=1))
        results.append(dict(label=control.label, plus=mp, se_plus=sp,
                            minus=mm, se_minus=sm, residual=kmean / scale,
                            residual_se=kse / scale,
                            accepted=abs(kmean / scale)
                            <= 3.0 * kse / scale + 1e-2))
    return results


@pytest.mark.parametrize("G", [G01, regularize(G01, 0.2),
                               make_gfunction(0.5, 2.0)],
                         ids=["degenerate", "regularized", "elliptic"])
@pytest.mark.parametrize("dt", [0.01, 1e-300, 3.0])
def test_in_place_k_step_equals_the_allocating_expression(G, dt):
    # every pair of edge values for a and dQV: signed zeros, NaN (both
    # signs), infinities and subnormals; the in-place step overwrites a
    # and dq, and its bytes must be the allocating expression's
    edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                      -5e-324, 1e-310, -2.5e-309, 1.0, -2.0, 1e308, -1e308])
    a, dq = (v.ravel() for v in np.meshgrid(edges, edges))
    with np.errstate(all="ignore"):
        ref = 0.5 * a * dq - G.eval(a) * dt
        out = np.empty_like(a)
        got = scenario._k_step(G, a.copy(), dq.copy(), dt, out=out)
    assert got is out
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("preset, params, kind, t, x", [
    ("smooth-bump", {"width": 2.0}, "x", 0.0, 0.5),
    ("abs", {}, "x", 0.0, 0.0),
    ("sine-gz", {}, "x", 0.25, 0.3),
    ("sine-gz", {}, "t", 0.5, 0.0),
])
def test_one_pass_estimates_equal_whole_bundle_passes(preset, params, kind,
                                                      t, x):
    G = regularize(G01, 0.2)
    driver = preset_driver(preset, params)
    sol = _solve(driver, G=G, nx=201)
    mc = dict(n_paths=400, n_steps=48, seed=5)
    estimate = estimate_dx if kind == "x" else estimate_dt
    est = estimate(driver, t, x, G, sol, **mc)
    ref = _reference_estimate(kind, driver, t, x, G, sol, mc)
    # every case ties somewhere, so the tie-flipped control runs too
    assert len(est.controls) == len(ref) == 2
    for got, want in zip(est.controls, ref):
        assert got == want


def _first_fork_steps(driver, t, x, G, sol, mc):
    """Per path, the first step at which the base feedback control's path
    is nearest a node where the tie-flipped control differs (n_steps if
    never), read off a reference whole-bundle simulation under the base
    control."""
    base, flip = scenario._candidate_controls(sol, G)
    differs = pde.sigma_of(flip.field_high, G) \
        != pde.sigma_of(base.field_high, G)
    n_paths, n_steps = mc["n_paths"], mc["n_steps"]
    bundle = path_reference.simulate_paths(base, n_paths, n_steps,
                                           sol.grid.T, mc["seed"],
                                           driver=driver, t0=t, x0=x)
    xs = sol.xs
    first = np.full(n_paths, n_steps)
    for k in range(n_steps - 1, -1, -1):
        tk = t + k * bundle.dt
        n = min(max(int(np.searchsorted(sol.ts, tk + 1e-12,
                                        side="right")) - 1, 0), sol.nt)
        j = np.clip(np.rint((bundle.x_paths[:, k] - xs[0]) / (xs[1] - xs[0])),
                    0, xs.size - 1).astype(np.intp)
        first[differs[n, j]] = k
    return first


def _assert_estimates_equal_whole_bundle_passes(kind, driver, t, x, G, sol,
                                                mc):
    estimate = estimate_dx if kind == "x" else estimate_dt
    est = estimate(driver, t, x, G, sol, **mc)
    ref = _reference_estimate(kind, driver, t, x, G, sol, mc)
    assert len(est.controls) == len(ref) == 2
    for got, want in zip(est.controls, ref):
        assert got == want


FORK_MC = dict(n_paths=400, n_steps=48, seed=5)


def test_paths_forked_at_the_first_step_equal_whole_bundle_passes():
    # the generator argument is 0 on the boundary columns at every level,
    # so a start on the first node is a tie for every path at step 0
    G = regularize(G01, 0.2)
    driver = preset_driver("smooth-bump", {"width": 2.0})
    sol = _solve(driver, G=G, nx=201)
    x = float(sol.xs[0])
    assert np.all(_first_fork_steps(driver, 0.0, x, G, sol, FORK_MC) == 0)
    _assert_estimates_equal_whole_bundle_passes("x", driver, 0.0, x, G, sol,
                                                FORK_MC)


@pytest.mark.parametrize("G", [regularize(G01, 0.2), make_gfunction(1.0, 1.0)],
                         ids=["no-path-reaches-a-tie", "equal-bounds"])
def test_unforked_paths_equal_whole_bundle_passes(G):
    # equal volatility bounds: the tie-flipped field is the base field
    driver = preset_driver("smooth-bump", {"width": 2.0})
    sol = _solve(driver, G=G, nx=201)
    first = _first_fork_steps(driver, 0.0, 0.5, G, sol, FORK_MC)
    assert np.all(first == FORK_MC["n_steps"])
    _assert_estimates_equal_whole_bundle_passes("x", driver, 0.0, 0.5, G,
                                                sol, FORK_MC)


@pytest.mark.parametrize("preset, G, kind, t, share", [
    ("abs", G01, "x", 0.0, 0.5),
    ("abs", G01, "t", 0.5, 0.5),
    ("sine-gz", regularize(G01, 0.2), "x", 0.0, 0.05),
], ids=["abs-x", "abs-t", "sine-gz-x"])
def test_paths_forked_mid_run_equal_whole_bundle_passes(preset, G, kind, t,
                                                        share):
    # coarse solves tie away from the start late in the run; the abs
    # paths' K increments vanish before the fork, the sine-gz ones do not
    driver = preset_driver(preset)
    sol = _solve(driver, G=G, nx=41)
    first = _first_fork_steps(driver, t, 0.0, G, sol, FORK_MC)
    assert np.mean((first > 0) & (first < FORK_MC["n_steps"])) > share
    _assert_estimates_equal_whole_bundle_passes(kind, driver, t, 0.0, G, sol,
                                                FORK_MC)


def _all_live_driver():
    """The smooth-bump payoff with every coefficient and derivative live
    (none is the shared zero or one of ``DriverSpec``), so that a path step
    computes every term.  f and g vanish at y = z = 0, so the generator
    argument is tiny where the bump's value is: the far field ties."""
    def arr(v):
        return np.asarray(v, dtype=float)

    def g_z(t, x, y, z):  # g = g_z z
        return 0.2 + 0.1 * np.cos(x) + 0.05 * t + 0.1 * arr(y) + 0.0 * arr(z)

    return dataclasses.replace(
        preset_driver("smooth-bump"), name="all-live",
        b=lambda t, x: 0.2 * np.sin(x) + 0.1 * t,
        b_x=lambda t, x: 0.2 * np.cos(x),
        b_t=lambda t, x: 0.1 + 0.0 * arr(x),
        h=lambda t, x: 0.1 * np.cos(x) * (1.0 + t),
        h_x=lambda t, x: -0.1 * np.sin(x) * (1.0 + t),
        h_t=lambda t, x: 0.1 * np.cos(x),
        sigma=lambda t, x: 1.0 + 0.2 * np.sin(x) + 0.1 * t,
        sigma_x=lambda t, x: 0.2 * np.cos(x),
        sigma_t=lambda t, x: 0.1 + 0.0 * arr(x),
        f=lambda t, x, y: (0.1 * np.sin(x) + 0.05 * t) * y,
        f_x=lambda t, x, y: 0.1 * np.cos(x) * y,
        f_y=lambda t, x, y: 0.1 * np.sin(x) + 0.05 * t + 0.0 * arr(y),
        f_t=lambda t, x, y: 0.05 * arr(y) + 0.0 * arr(x),
        g=lambda t, x, y, z: g_z(t, x, y, z) * z,
        g_x=lambda t, x, y, z: -0.1 * np.sin(x) * z + 0.0 * arr(y),
        g_y=lambda t, x, y, z: 0.1 * arr(z) + 0.0 * arr(x) * arr(y),
        g_z=g_z,
        g_t=lambda t, x, y, z: 0.05 * arr(z) + 0.0 * arr(x) * arr(y))


_TIME_DERIVATIVES = ("b_t", "h_t", "sigma_t", "f_t", "g_t")


@pytest.mark.parametrize("kind, t", [("x", 0.25), ("t", 0.5)])
@pytest.mark.parametrize("G, untimed", [
    (regularize(G01, 0.2), False),
    (make_gfunction(1.0, 1.0), False),
    (regularize(G01, 0.2), True),
], ids=["forked", "unforked", "forked-no-time-derivatives"])
def test_every_live_term_equals_whole_bundle_passes(kind, t, G, untimed):
    # the presets leave b, h, f and most derivatives at the shared zero and
    # sigma at the shared one; here every one of them is a live term that
    # the step must compute (a None time derivative is a dead one)
    driver = _all_live_driver()
    if untimed:
        driver = dataclasses.replace(
            driver, **dict.fromkeys(_TIME_DERIVATIVES))
    sol = _solve(driver, G=G, nx=201)
    run = scenario._Pass(kind, driver, G, FieldInterpolator(sol), t, 0.01)
    live = set(scenario._STEP_READS[kind])
    if untimed:
        live -= set(_TIME_DERIVATIVES)
    assert {nm for nm, _arity in run.calls} == live
    first = _first_fork_steps(driver, t, 0.0, G, sol, FORK_MC)
    forked = (first > 0) & (first < FORK_MC["n_steps"])
    # equal volatility bounds: the tie-flipped field is the base field
    assert forked.any() == (G.sigma_low < G.sigma_high)
    _assert_estimates_equal_whole_bundle_passes(kind, driver, t, 0.0, G, sol,
                                                FORK_MC)


def test_negative_zero_start_equals_whole_bundle_passes():
    # a concave payoff under sigma_low = 0: every path stands nearest the
    # middle node, where the control picks s = 0, so dB = -0.0 wherever the
    # normal is negative, and X = (-0.0 + 0 dt + 0 dQV) + 1 (-0.0) = +0.0
    # after the first step; phi_x tells the two zeros apart
    driver = payoff_driver(lambda x: -np.abs(np.asarray(x, dtype=float)),
                           lambda x: -np.copysign(1.0, x), name="neg-abs")
    sol = _solve(driver, G=G01, nx=41)
    mc = dict(n_paths=400, n_steps=3, seed=5)
    base = scenario._candidate_controls(sol, G01)[0]
    bundle = path_reference.simulate_paths(base, mc["n_paths"],
                                           mc["n_steps"], 1.0, mc["seed"],
                                           driver=driver, x0=-0.0)
    assert np.all(bundle.dB == 0.0) and np.signbit(bundle.dB[:, 0]).any()
    assert not np.signbit(bundle.x_paths[:, 1:]).any()
    est = estimate_dx(driver, 0.0, -0.0, G01, sol, **mc)
    ref = _reference_estimate("x", driver, 0.0, -0.0, G01, sol, mc)
    assert est.plus == -1.0
    assert list(est.controls) == ref


def _reference_bundle_equal(got, want):
    """Whether two bundles hold equal noise, volatility and state paths."""
    return (np.array_equal(got.dB, want.dB)
            and np.array_equal(got.sigma, want.sigma)
            and (got.x_paths is None) == (want.x_paths is None)
            and (got.x_paths is None
                 or np.array_equal(got.x_paths, want.x_paths)))


@pytest.mark.parametrize("t, x", [(0.0, 0.0), (0.25, 0.3)])
@pytest.mark.parametrize("make_driver", [
    _all_live_driver, lambda: preset_driver("sine-gz"),
    lambda: preset_driver("kinked")], ids=["all-live", "sine-gz", "kinked"])
def test_path_passes_equal_the_reference(make_driver, t, x):
    # the library's passes run _Pass, the reference evaluates every term:
    # equal up to the sign of a zero, which np.array_equal ignores
    G = regularize(G01, 0.2)
    driver = make_driver()
    sol = _solve(driver, G=G, nx=101)
    fields = FieldInterpolator(sol)
    mc = dict(n_paths=200, n_steps=32, seed=5)
    for control in (VolatilityControl.constant(0.5, G),
                    VolatilityControl.piecewise((0.0, 0.5), (0.3, 1.0), G),
                    VolatilityControl.feedback(sol, G)):
        args = (control, mc["n_paths"], mc["n_steps"], 1.0, mc["seed"])
        want = path_reference.simulate_paths(*args, driver=driver, t0=t,
                                             x0=x)
        assert _reference_bundle_equal(
            simulate_paths(*args, driver=driver, t0=t, x0=x), want)
        # without its state paths, forward_sde runs its own pass
        bundle = dataclasses.replace(want, x_paths=None, x0=None)
        X = path_reference.forward_sde(driver, t, x, bundle)
        assert np.array_equal(forward_sde(driver, t, x, bundle), X)
        for f in (None, fields):
            if f is None and {"f_y", "g_y", "g_z"} & driver.live.keys():
                # Y and Z would be read as zero: refused
                with pytest.raises(DomainError, match="reads Y or Z"):
                    variational_paths(driver, bundle, X)
                continue
            got = variational_paths(driver, bundle, X, f)
            ref = path_reference.variational_paths(driver, bundle, X, f)
            for name in ("Gamma", "Xhat", "Xbar"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
        dk = path_reference.k_increments(fields, G, bundle, X)
        assert np.array_equal(k_increments(fields, G, bundle, X), dk)
        # the one walk of verify_measure_in_Ptx against the composition
        chk = verify_measure_in_Ptx(control, driver, t, x, G, sol, **mc)
        kt = path_reference.k_increments(
            fields, G, want, path_reference.forward_sde(driver, t, x, want))
        assert (chk.mean_KT, chk.se) == mean_and_se(kt.sum(axis=1))


@pytest.mark.parametrize("preset, params, kind, calls", [
    ("smooth-bump", {"width": 2.0}, "x", ()),
    ("abs", {}, "x", ()),
    ("sine-gz", {}, "t", ("g_z", "g")),
])
def test_benchmark_presets_skip_their_dead_terms(preset, params, kind,
                                                 calls):
    # the presets of sensitivity-x, kink and sensitivity-t: only sine-gz's
    # g and g_z are evaluated, and only they read Y and Z and move Gamma;
    # Xhat stays 1
    G = regularize(G01, 0.2)
    driver = preset_driver(preset, params)
    sol = _solve(driver, G=G, nx=201)
    run = scenario._Pass(kind, driver, G, FieldInterpolator(sol), 0.0, 0.01)
    assert tuple(nm for nm, _arity in run.calls) == calls
    assert run.reads_y == run.reads_z == run.gamma == bool(calls)
    assert not run.xhat


def test_fork_defers_a_non_finite_state_to_finish():
    # paths 1, 3 and 6 start on the first node, a tie at step 0, and fork;
    # the others start at 0.5, where no path reaches a tie; the normals of
    # paths 5 (unforked), 6 and 3 are infinite
    G = regularize(G01, 0.2)
    driver = preset_driver("smooth-bump", {"width": 2.0})
    sol = _solve(driver, G=G, nx=201)
    fields = FieldInterpolator(sol)
    base_control, flip = scenario._candidate_controls(sol, G)
    run = scenario._Pass("x", driver, G, fields, 0.0, 0.01)
    n_paths, forked = 8, [1, 3, 6]
    base = scenario._Walk(np.arange(n_paths), 0.5)
    base.x[forked] = sol.xs[0]
    n, nearest = fields.level(0.0), GridPoints(fields.xs, base.x).nearest()

    def fork():
        return scenario._Fork(flip, base_control,
                              scenario._Walk(base.idx[:0], 0.5),
                              n_paths)

    bad = fork()
    xi = np.zeros(n_paths)
    xi[[5, 6, 3]] = np.inf
    bad.step(run, base, 0, n, nearest, xi)
    assert bad.walk.idx.tolist() == forked
    assert np.isfinite(bad.walk.x).tolist() == [True, False, False]
    assert isinstance(bad.error, NumericalError)
    # the stopped walk takes no further step; the error waits for finish
    bad.step(run, base, 1, n, nearest, np.zeros(n_paths))
    assert [k for k, _dk in bad.dk] == [0]
    with pytest.raises(NumericalError, match="non-finite on path 3$"):
        bad.finish()
    good = fork()
    good.step(run, base, 0, n, nearest, np.zeros(n_paths))
    assert good.error is None and np.isfinite(good.walk.x).all()
    good.finish()
    good.walk.finite = False
    with pytest.raises(NumericalError, match="variational process"):
        good.finish()


def test_sampled_fields_checked_finite_before_a_term_is_dropped():
    xs = np.linspace(0.0, 1.0, 11)
    assert scenario._samples_finite(3.0, 0.1)
    # finite nodes whose slope overflows: the interpolated sample is not
    # finite, so a term that multiplies it by zero is NaN, not zero
    row = np.where(np.arange(11) % 2, 1e307, -1e307)
    with np.errstate(over="ignore"):
        assert not np.isfinite(GridPoints(xs, [0.05]).sample(row)).all()
    assert not scenario._samples_finite(1e307, 0.1)
    assert not scenario._samples_finite(np.nan, 0.1)


@pytest.mark.parametrize("slope, live", [(1.0, False), (1e306, True)])
def test_time_pass_decides_a_dead_g_z_from_max_u(slope, live):
    # g_z is dead for a payoff driver; the bound |u_x| <= 2 max|u| / dx
    # keeps g_z Z live once it may overflow, here with u_x = 1e306 itself
    # finite
    driver = payoff_driver(lambda x: slope * np.asarray(x, dtype=float),
                           lambda x: np.full_like(np.asarray(x, dtype=float),
                                                  slope), name="slope",
                           L1=slope, m=1)
    G = regularize(G01, 0.2)
    sol = _solve(driver, G=G, nx=101)
    run = scenario._Pass("t", driver, G, FieldInterpolator(sol), 0.5, 0.01)
    assert ("g_z" in dict(run.calls)) == live


def test_time_pass_builds_no_slope_field():
    # the default preset of sensitivity-t: a whole-field u_x, or its
    # absolute value, would take (nt + 1) x nx doubles
    G = regularize(G01, 0.2)
    sol = _solve(preset_driver("quadratic"), G=G)
    fields = FieldInterpolator(sol)
    peak = traced_peak(lambda: scenario._Pass(
        "t", sol.driver, G, fields, 0.5, 0.01))
    assert peak < sol.u.nbytes / 8


def _edge_fields() -> list:
    """Generator-argument rows at the edges of the tie rule: +-0, the
    tolerance 1e-10 max|a| exactly and one ulp either side, subnormals,
    and, each in a field of its own, infinities (an infinite tolerance)
    and a NaN (a NaN tolerance)."""
    def edges(tol):
        near = [np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)]
        return near + [-v for v in near]

    # max|a| = 1, and below 1e-300, where the tolerance's floor holds
    tiny = 1e-10 * 1e-300
    return [[0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 5e-324, -5e-324, 1e-310,
             -2.2e-308, *edges(1e-10)],
            [0.0, -0.0, 5e-324, -5e-324, 1e-305, -1e-306, *edges(tiny)],
            [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324],
            [0.0, -0.0, np.nan, 1.0, -1.0, 5e-324, -1e-10]]


@pytest.mark.parametrize("G", [G01, make_gfunction(0.3, 1.2),
                               make_gfunction(1.0, 1.0)],
                         ids=["degenerate", "band", "equal-bounds"])
@pytest.mark.parametrize("row", _edge_fields(),
                         ids=["finite", "below-floor", "inf", "nan"])
def test_control_masks_equal_the_float_fields_at_the_edges(G, row):
    # the masks and every volatility worked out from them against the
    # float expressions they replace, bit for bit
    a = np.array([row, row[::-1]])
    grid = Grid1D(-1.0, 1.0, a.shape[1], 1.0)
    sol = pde.PdeSolution(u=np.zeros_like(a), a_field=a, grid=grid,
                          driver=preset_driver("quadratic"), G=G,
                          dx=grid.dx, dt=0.5)
    tol = pde._tie_tol(a)
    high = a >= -tol
    ambiguous = np.abs(a) <= tol
    sigma = np.where(high, G.sigma_high, G.sigma_low)
    flip = sigma.copy()
    flip[ambiguous] = G.sigma_low
    cf = pde.extremal_control(sol)
    assert cf.high.tobytes() == high.tobytes()
    assert cf.ambiguous.tobytes() == ambiguous.tobytes()
    assert pde.sigma_of(cf.high, G).tobytes() == sigma.tobytes()
    # a NaN tolerance ties no node, and then there is no tie-flipped twin
    controls = scenario._candidate_controls(sol, G)
    assert len(controls) == 1 + bool(ambiguous.any())
    x = np.linspace(-1.3, 1.3, 3 * a.shape[1])
    nearest = GridPoints(sol.xs, x).nearest()
    for control, field in zip(controls, (sigma, flip)):
        assert pde.sigma_of(control.field_high, G).tobytes() \
            == field.tobytes()
        for n, t in enumerate(sol.ts):
            want = field[n, nearest].tobytes()
            assert control.sigma_at(t, x).tobytes() == want
            # at the level and the nodes a walk has found
            assert control.sigma_at(t, x, n, nearest).tobytes() == want
    if len(controls) == 2:
        fork = scenario._Fork(controls[1], controls[0],
                              scenario._Walk(np.arange(0), 0.0), 4)
        assert fork.differs.tobytes() == (flip != sigma).tobytes()


# ---------------------------------------------------------------------------
# time sensitivity
# ---------------------------------------------------------------------------

def test_dt_quadratic():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    est = estimate_dt(quad, 0.5, 0.0, G01, sol,
                      n_paths=10_000, n_steps=256, seed=0)
    assert abs(est.plus - (-1.0)) <= 3.0 * est.se_plus + 5e-2
    assert abs(est.minus - (-1.0)) <= 3.0 * est.se_minus + 5e-2


def test_dt_linear_payoff_vanishes():
    driver = _linear_driver()
    sol = _solve(driver)
    est = estimate_dt(driver, 0.5, 0.0, G01, sol,
                      n_paths=10_000, n_steps=256, seed=0)
    assert abs(est.plus) <= 3.0 * est.se_plus
    assert abs(est.minus) <= 3.0 * est.se_minus


def test_dt_bump_with_driver_matches_pde():
    driver = preset_driver("linear-h", {"phi": "smooth-bump"})
    sol = _solve(driver)
    est = estimate_dt(driver, 0.5, 0.0, G01, sol,
                      n_paths=10_000, n_steps=512, seed=0)
    d = derivatives(sol)
    n = int(round(0.5 / sol.dt))
    j = int(np.argmin(np.abs(sol.xs)))
    ref = d.ut[n, j]
    assert abs(est.plus - ref) <= 3.0 * est.se_plus + 5e-2


def test_dt_rejects_boundary_times():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    for t in (0.0, 1.0):
        with pytest.raises(DomainError):
            estimate_dt(quad, t, 0.0, G01, sol, n_paths=10)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_start_point_is_refused_before_drawing(monkeypatch, x):
    # x = nan reached an IndexError in the nearest-node lookup
    quad = preset_driver("quadratic")
    sol = _solve(quad, nx=51)
    control = VolatilityControl.feedback(sol, G01)

    def no_draw(*args):
        raise AssertionError("drew normals")
    monkeypatch.setattr(scenario, "path_normals", no_draw)
    mc = dict(n_paths=16, n_steps=4)
    for estimate, t in ((estimate_dx, 0.0), (estimate_dt, 0.5)):
        with pytest.raises(DomainError, match="finite start point"):
            estimate(quad, t, x, G01, sol, **mc)
    with pytest.raises(DomainError, match="finite start point"):
        simulate_paths(control, 16, 4, 1.0, 0, driver=quad, x0=x)


def _entry_points(sol, quad):
    """Each Monte Carlo entry point on ``sol`` as a function of the start
    time and the run sizes."""
    control = VolatilityControl.feedback(sol, G01)
    return [
        lambda t, **sizes: estimate_dx(quad, t, 0.0, G01, sol, **sizes),
        lambda t, **sizes: estimate_dt(quad, t, 0.0, G01, sol, **sizes),
        lambda t, **sizes: verify_measure_in_Ptx(control, quad, t, 0.0, G01,
                                                 sol, **sizes),
        lambda t, n_paths=16, n_steps=4: simulate_paths(
            control, n_paths, n_steps, 1.0, 0, driver=quad, t0=t),
    ]


@pytest.fixture
def no_draw(monkeypatch):
    def draw(*args):
        raise AssertionError("drew normals")
    monkeypatch.setattr(scenario, "path_normals", draw)
    monkeypatch.setattr(gbsde, "path_normals", draw)


def test_misspelt_size_keyword_is_a_type_error(no_draw):
    # the sizes are keywords: a misspelt one, or the old dict, is refused
    # instead of running the default 10 000 paths
    quad = preset_driver("quadratic")
    sol = _solve(quad, nx=51)
    for sizes in (dict(n_path=100), dict(mc=dict(n_paths=100))):
        for run in _entry_points(sol, quad)[:3]:
            with pytest.raises(TypeError):
                run(0.5, **sizes)
        with pytest.raises(TypeError):
            gbsde.counterexample_demo(1.0, [0.5], **sizes)


@pytest.mark.parametrize("sizes", [dict(n_paths=2.5), dict(n_steps=2.5),
                                   dict(n_paths=math.nan), dict(n_steps=0),
                                   dict(n_paths=True), dict(n_steps="8")])
def test_bad_run_size_is_a_domain_error_before_drawing(no_draw, sizes):
    # int() truncated 2.5 to 2; an integral float such as 16.0 still runs
    quad = preset_driver("quadratic")
    sol = _solve(quad, nx=51)
    for run in _entry_points(sol, quad):
        with pytest.raises(DomainError, match="must be an integer >= 1"):
            run(0.5, **{"n_paths": 16, "n_steps": 4, **sizes})
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        gbsde.counterexample_demo(1.0, [0.5],
                                  **{"n_paths": 16, "n_steps": 4, **sizes})


def test_integral_float_sizes_run_as_ints():
    quad = preset_driver("quadratic")
    sol = _solve(quad, nx=51)
    for run in _entry_points(sol, quad)[:3]:
        assert run(0.5, n_paths=16.0, n_steps=4.0) \
            == run(0.5, n_paths=16, n_steps=4)


@pytest.mark.parametrize("t", [-0.5, 1.0, 1.5, math.nan, -math.inf])
def test_start_time_outside_the_horizon_is_refused_before_drawing(no_draw,
                                                                  t):
    # t = -0.5 walked paths over a 1.5 horizon with every field read
    # clamped to level 0
    quad = preset_driver("quadratic")
    sol = _solve(quad, nx=51)
    for run in _entry_points(sol, quad):
        with pytest.raises(DomainError):
            run(t, n_paths=16, n_steps=4)


def test_simulate_paths_is_charged_before_drawing(no_draw):
    # 10**6 x 10**4 asked for 80 GB of normals before any check ran
    with pytest.raises(NumericalError, match="path storage needs"):
        simulate_paths(VolatilityControl.constant(0.5, G01), 10 ** 6,
                       10 ** 4, 1.0, 0)


# the hostile values of each kind of parameter: 0 and -1 are seeds (a
# seed keys the streams mod 2**64), and 2.5 is a horizon
_HOSTILE = {"count": (2.5, math.nan, math.inf, True, "8", 0, -1),
            "seed": (2.5, math.nan, math.inf, True, "8"),
            "horizon": (math.nan, math.inf, True, "8", 0, -1),
            "real": (math.nan, math.inf, -math.inf, True, "8")}
_MC = ("n_paths", "n_steps", "seed")
_PROBED = {"estimate_dx": _MC + ("t", "x"), "estimate_dt": _MC + ("t", "x"),
           "verify_measure_in_Ptx": _MC, "simulate_paths": _MC + ("T",),
           "counterexample_demo": _MC + ("T",), "path_normals": _MC,
           "Grid1D": ("nx", "nt", "T", "x_min", "x_max"),
           "LatticeSpec.for_horizon": ("T", "steps"),
           "dynamic_programming_check": ("steps", "t1", "t2", "x0"),
           "VolatilityControl.constant": ("sigma",),
           "VolatilityControl.piecewise": ("breakpoint", "value")}


def _kind(param):
    if param in ("t", "x", "x_min", "x_max", "t1", "t2", "x0", "sigma",
                 "breakpoint", "value"):
        return "real"
    return {"seed": "seed", "T": "horizon"}.get(param, "count")


@pytest.fixture(scope="module")
def probe_solution():
    return _solve(preset_driver("quadratic"), nx=51)


def _probe_call(name, sol, **bad):
    """``name`` at valid small arguments, with ``bad`` in place of some."""
    quad = preset_driver("quadratic")
    control = VolatilityControl.feedback(sol, G01)
    kw = {"n_paths": 16, "n_steps": 4, "seed": 0, **bad}
    calls = {
        "estimate_dx": lambda: estimate_dx(quad, kw.pop("t", 0.0),
                                           kw.pop("x", 0.0), G01, sol, **kw),
        "estimate_dt": lambda: estimate_dt(quad, kw.pop("t", 0.5),
                                           kw.pop("x", 0.0), G01, sol, **kw),
        "verify_measure_in_Ptx": lambda: verify_measure_in_Ptx(
            control, quad, 0.0, 0.0, G01, sol, **kw),
        "simulate_paths": lambda: simulate_paths(
            control, kw["n_paths"], kw["n_steps"], kw.get("T", 1.0),
            kw["seed"], driver=quad),
        "counterexample_demo": lambda: gbsde.counterexample_demo(
            kw.pop("T", 1.0), [0.5], **kw),
        "path_normals": lambda: path_normals(kw["seed"], kw["n_paths"],
                                             kw["n_steps"]),
        "Grid1D": lambda: Grid1D(bad.get("x_min", -1.0),
                                 bad.get("x_max", 1.0), bad.get("nx", 11),
                                 bad.get("T", 1.0), bad.get("nt")),
        "LatticeSpec.for_horizon": lambda: LatticeSpec.for_horizon(
            bad.get("T", 1.0), bad.get("steps", 8), G01),
        "dynamic_programming_check": lambda: gbsde.dynamic_programming_check(
            PdeProblem(Grid1D(-3.0, 3.0, 31, 1.0), quad, G01),
            bad.pop("t1", 0.0), bad.pop("t2", 0.5), **bad),
        "VolatilityControl.constant": lambda: VolatilityControl.constant(
            bad.get("sigma", 0.5), G01),
        "VolatilityControl.piecewise": lambda: VolatilityControl.piecewise(
            (0.0, bad.get("breakpoint", 0.5)), (0.5, bad.get("value", 1.0)),
            G01),
    }
    return calls[name]


@pytest.mark.parametrize("name, param, value", [
    (name, param, value) for name, params in _PROBED.items()
    for param in params for value in _HOSTILE[_kind(param)]])
def test_hostile_count_seed_or_horizon_is_refused_before_any_work(
        monkeypatch, probe_solution, name, param, value):
    # each ends in a GbmlabError with no warning, before any draw, sweep or
    # lattice step; none may run as a rounded or cast value
    def work(*args, **kwargs):
        raise AssertionError("drew normals or swept")
    for module, fn in ((scenario, "path_normals"), (gbsde, "path_normals"),
                       (pde, "_backward_steps"), (gexpect, "_sup_step")):
        monkeypatch.setattr(module, fn, work)
    call = _probe_call(name, probe_solution, **{param: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GbmlabError):
            call()


# ---------------------------------------------------------------------------
# measure admissibility
# ---------------------------------------------------------------------------

def test_measure_extremal_control_is_exact():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    ctrl = VolatilityControl.feedback(sol, G01)
    chk = verify_measure_in_Ptx(ctrl, quad, 0.0, 0.0, G01, sol,
                                n_paths=2000, n_steps=64, seed=0)
    assert abs(chk.residual) <= 1e-12
    assert chk.accepted


def test_measure_low_control_rejected_on_convex_payoff():
    quad = preset_driver("quadratic")
    sol = _solve(quad)
    ctrl = VolatilityControl.constant(0.0, G01)
    chk = verify_measure_in_Ptx(ctrl, quad, 0.0, 0.0, G01, sol,
                                n_paths=2000, n_steps=64, seed=0)
    assert chk.residual <= -0.5
    assert not chk.accepted


def test_measure_frozen_control_optimal_on_concave_payoff():
    neg = payoff_driver(lambda x: -np.asarray(x, dtype=float) ** 2,
                        lambda x: -2.0 * np.asarray(x, dtype=float),
                        name="neg-quadratic", L1=1.0, m=1)
    sol = _solve(neg)
    ctrl = VolatilityControl.constant(0.0, G01)
    chk = verify_measure_in_Ptx(ctrl, neg, 0.0, 0.0, G01, sol,
                                n_paths=2000, n_steps=64, seed=0)
    assert abs(chk.residual) <= 1e-12
    assert chk.accepted


def test_measure_locates_each_path_once_a_step(monkeypatch):
    # the walk's one GridPoints a step gives the feedback volatility too
    quad = preset_driver("quadratic")
    sol = _solve(quad, nx=51)
    built = []

    class Counted(GridPoints):
        def __init__(self, xs, x):
            built.append(xs)
            super().__init__(xs, x)
    monkeypatch.setattr(scenario, "GridPoints", Counted)
    verify_measure_in_Ptx(VolatilityControl.feedback(sol, G01), quad, 0.0,
                          0.0, G01, sol, n_paths=64, n_steps=8, seed=0)
    assert len(built) == 8


def test_measure_refuses_a_feedback_control_of_another_grid(no_draw):
    # the walk finds each path's nearest node on the grid of sol
    quad = preset_driver("quadratic")
    sol = _solve(quad, nx=51)
    for other in (_solve(quad, nx=41), _solve(quad, nx=51, T=0.5)):
        with pytest.raises(DomainError, match="grid of the solution"):
            verify_measure_in_Ptx(VolatilityControl.feedback(other, G01),
                                  quad, 0.0, 0.0, G01, sol, n_paths=16,
                                  n_steps=4)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset, kind, t", [("abs", "x", 0.0),
                                             ("sine-gz", "t", 0.5)])
def test_estimate_holds_one_path_buffer(preset, kind, t):
    # the normals, whose rows take the K increments once read, plus the
    # forked paths' increments and O(n_paths) vectors; a second
    # (n_steps, n_paths) array alone would pass 2 buffers
    G = regularize(G01, 0.2)
    driver = preset_driver(preset)
    sol = _solve(driver, G=G, nx=101)
    mc = dict(n_paths=8192, n_steps=128, seed=0)
    estimate = estimate_dx if kind == "x" else estimate_dt
    peak = traced_peak(lambda: estimate(driver, t, 0.0, G, sol, **mc))
    assert peak < 1.75 * 8 * mc["n_paths"] * mc["n_steps"]


@pytest.mark.parametrize("feedback", [True, False],
                         ids=["feedback", "constant"])
def test_verify_measure_holds_one_path_buffer(feedback):
    # one walk, as an estimate's: the normals, whose rows take the K
    # increments once read, and O(n_paths) vectors
    G = regularize(G01, 0.2)
    driver = preset_driver("sine-gz")
    sol = _solve(driver, G=G, nx=101)
    control = VolatilityControl.feedback(sol, G) if feedback \
        else VolatilityControl.constant(0.5, G)
    mc = dict(n_paths=8192, n_steps=128, seed=0)
    peak = traced_peak(lambda: verify_measure_in_Ptx(control, driver, 0.0,
                                                     0.0, G, sol, **mc))
    assert peak < 1.75 * 8 * mc["n_paths"] * mc["n_steps"]


@pytest.mark.parametrize("preset, kind, t", [("abs", "x", 0.0),
                                             ("sine-gz", "t", 0.5)])
def test_estimate_holds_one_byte_controls(preset, kind, t):
    # a grid large beside the paths: beyond the solution, the path buffer
    # and the one block of normals drawn at a time (here all paths), the
    # controls may take four one-byte fields a node-level; a float copy of
    # one would take eight
    G = regularize(G01, 0.2)
    driver = preset_driver(preset)
    sol = _solve(driver, G=G, nx=401)
    mc = dict(n_paths=1024, n_steps=16, seed=0)
    estimate = estimate_dx if kind == "x" else estimate_dt
    peak = traced_peak(lambda: estimate(driver, t, 0.0, G, sol, **mc))
    assert peak < 2 * 8 * mc["n_paths"] * mc["n_steps"] + 4 * sol.u.size
