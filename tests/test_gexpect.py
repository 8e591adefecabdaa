"""Worst-case expectations, the lattice oracle, and the maximal inequality."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from gbmlab import gexpect
from gbmlab.gcore import (
    CylinderFunctional,
    DomainError,
    DriverSpec,
    Grid1D,
    make_gfunction,
    payoff_driver,
    preset_driver,
)
from gbmlab.gexpect import (
    LatticeSpec,
    doob_check,
    doob_constant,
    gexpect_cylinder,
    gexpect_terminal,
    lattice_oracle,
)
from gbmlab.pde import PdeProblem, solve_terminal_pde

import lattice_reference

G01 = make_gfunction(0.0, 1.0)


# ---------------------------------------------------------------------------
# terminal payoffs
# ---------------------------------------------------------------------------

def test_terminal_quadratic():
    assert abs(gexpect_terminal(preset_driver("quadratic"), 1.0, G01)
               - 1.0) <= 1e-2


def test_terminal_linear():
    v = gexpect_terminal(lambda x: np.asarray(x, dtype=float), 1.0, G01)
    assert abs(v) <= 1e-3


def test_terminal_absolute_value():
    v = gexpect_terminal(preset_driver("abs"), 1.0, G01)
    assert abs(v - math.sqrt(2.0 / math.pi)) <= 1e-2


def test_terminal_monotone_and_sublinear():
    cos_v = gexpect_terminal(np.cos, 1.0, G01)
    abs_v = gexpect_terminal(preset_driver("abs"), 1.0, G01)
    both = gexpect_terminal(
        lambda x: np.cos(np.asarray(x, dtype=float))
        + np.abs(np.asarray(x, dtype=float)), 1.0, G01)
    shifted = gexpect_terminal(
        lambda x: np.cos(np.asarray(x, dtype=float)) + 0.5, 1.0, G01)
    assert both <= cos_v + abs_v + 1e-10
    assert cos_v <= shifted + 1e-12


@pytest.mark.parametrize("preset, nx", [
    ("quadratic", 401), ("smooth-bump", 801), ("abs", 401)])
def test_terminal_equals_the_dense_solution(preset, nx):
    # gexpect_terminal steps one row to t = 0; the dense solve keeps every
    # level and reads the same u(0, 0)
    driver = preset_driver(preset)
    grid = Grid1D.default_for(0.0, 1.0, G01, nx=nx)
    sol = solve_terminal_pde(PdeProblem(grid, driver, G01))
    assert gexpect_terminal(driver, 1.0, G01, nx=nx) == sol.value(0.0, 0.0)


def test_terminal_refuses_a_driver_whose_f_vanishes_on_small_y():
    # f is zero for |y| <= 1 only: a driver term all the same, so the
    # equation is no G-heat equation and u(0, 0) is no G-expectation
    quad = preset_driver("quadratic")
    driver = DriverSpec(
        name="hidden-f", phi=quad.phi, phi_x=quad.phi_x,
        f=lambda t, x, y: np.maximum(np.abs(np.asarray(y, dtype=float))
                                     - 1.0, 0.0),
        f_y=None)
    with pytest.raises(DomainError, match="not a pure payoff"):
        gexpect_terminal(driver, 1.0, G01)


# ---------------------------------------------------------------------------
# cylinder functionals
# ---------------------------------------------------------------------------

def test_cylinder_linear_sum():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a + b)
    assert abs(gexpect_cylinder(X, G01)) <= 1e-2


def test_cylinder_sum_of_squares():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a ** 2 + b ** 2)
    assert abs(gexpect_cylinder(X, G01) - 1.0) <= 2e-2


def test_cylinder_stage_start_between_nodes_is_second_order():
    # at even nx no node sits at 0, and each stage starts from the linear
    # interpolation of the two middle nodes: the error of the sum of
    # squares (exact value 1) falls fourfold as the spacing halves.  At odd
    # nx a node sits at 0.
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a ** 2 + b ** 2)
    coarse, fine = (gexpect_cylinder(X, G01, nx=nx) - 1.0 for nx in (50, 100))
    assert 0.0 < fine < coarse < 0.03
    assert 3.5 <= coarse / fine <= 4.5
    assert abs(gexpect_cylinder(X, G01, nx=51) - 1.0) <= 1e-12


def test_cylinder_product():
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a * b)
    assert abs(gexpect_cylinder(X, G01)) <= 2e-2


@pytest.mark.parametrize("psi", [
    lambda a, b, c: np.abs(a + b + c),
    lambda a, b, c: np.maximum(np.maximum(a, b), c),
    lambda a, b, c: a ** 2 + b ** 2 + c ** 2,
], ids=["abs-sum", "max", "sum-of-squares"])
def test_three_stage_cylinder_matches_the_lattice(psi):
    # the recursion through three stages, against the independent lattice
    # at criterion 02's tolerance; more than four stages are refused
    X = CylinderFunctional(times=(1 / 3, 2 / 3, 1.0), psi=psi)
    pde_value = gexpect_cylinder(X, G01, nx=41)
    lattice = lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 48, G01))
    assert abs(pde_value - lattice) <= 2e-2
    five = CylinderFunctional(times=(0.2, 0.4, 0.6, 0.8, 1.0),
                              psi=lambda a, b, c, d, e: a)
    with pytest.raises(DomainError, match="N <= 4"):
        gexpect_cylinder(five, G01, nx=41)


# ---------------------------------------------------------------------------
# lattice oracle
# ---------------------------------------------------------------------------

def test_lattice_convex_value():
    X = CylinderFunctional(times=(1.0,), psi=lambda a: a ** 2)
    v = lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 16, G01))
    assert abs(v - 1.0) <= 2e-2


def test_lattice_refuses_a_mesh_that_cannot_carry_G():
    # a mesh built for [0, 1] has dx^2 = dt: sigma = 2 would give the
    # middle move a negative probability.  E-hat[B_1^2] is 4 under [0, 2]
    X = CylinderFunctional(times=(1.0,), psi=lambda a: a ** 2)
    G02 = make_gfunction(0.0, 2.0)
    v = lattice_oracle(X, G02, LatticeSpec.for_horizon(1.0, 64, G02))
    assert v == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(DomainError, match="lattice explosion"):
        lattice_oracle(X, G02, LatticeSpec.for_horizon(1.0, 64, G01))


def test_lattice_runs_G_on_the_mesh_of_another_G():
    # the volatilities are G's ends whatever G the mesh was built for: a
    # mesh for [0, 1] (the same dx) under [0.5, 1] gives the bits of the
    # mesh built for [0.5, 1], and not the [0, 1] value
    X = CylinderFunctional(times=(0.5, 1.0),
                           psi=lambda a, b: np.cos(a + 2.0 * b) - np.abs(b))
    G = make_gfunction(0.5, 1.0)
    v = lattice_oracle(X, G, LatticeSpec.for_horizon(1.0, 16, G01))
    want = lattice_oracle(X, G, LatticeSpec.for_horizon(1.0, 16, G))
    assert np.float64(v).tobytes() == np.float64(want).tobytes()
    assert v != lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 16, G01))


def test_lattice_concave_freezes():
    X = CylinderFunctional(times=(1.0,), psi=lambda a: -(a ** 2))
    v = lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 16, G01))
    assert abs(v) <= 1e-12


def test_lattice_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec(steps=0, dt=0.1, dx=0.4)
    spec = LatticeSpec(steps=4, dt=0.25, dx=0.1)
    with pytest.raises(DomainError, match="lattice explosion"):
        spec.probs(G01)


def test_lattice_rejects_unaligned_stage_times():
    X = CylinderFunctional(times=(0.3,), psi=lambda a: np.abs(a))
    with pytest.raises(DomainError):
        lattice_oracle(X, G01, LatticeSpec.for_horizon(1.0, 8, G01))


def test_pde_matches_lattice_on_payoff_suite():
    suite = (
        preset_driver("quadratic"),
        payoff_driver(lambda x: -np.asarray(x, dtype=float) ** 2,
                      lambda x: -2.0 * np.asarray(x, dtype=float),
                      name="neg-quadratic", L1=1.0, m=1),
        preset_driver("abs"),
        payoff_driver(np.cos, lambda x: -np.sin(np.asarray(x, dtype=float)),
                      name="cos", L1=1.0, m=1),
        preset_driver("smooth-bump"),
    )
    spec = LatticeSpec.for_horizon(1.0, 64, G01)
    for driver in suite:
        v_pde = gexpect_terminal(driver, 1.0, G01, nx=801)
        X = CylinderFunctional(times=(1.0,), psi=driver.phi, name=driver.name)
        v_lat = lattice_oracle(X, G01, spec)
        assert abs(v_pde - v_lat) <= 2e-2, driver.name


# ---------------------------------------------------------------------------
# maximal inequality
# ---------------------------------------------------------------------------

def test_doob_constant_frozen():
    assert doob_constant(2.0, 4.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_doob_constant_certificate():
    xi = CylinderFunctional(times=(1.0,),
                            psi=lambda a: np.full_like(
                                np.asarray(a, dtype=float), 0.7))
    rep = doob_check(xi, 2.0, 4.0, G01, LatticeSpec.for_horizon(1.0, 8, G01))
    assert rep.C == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert rep.lhs == pytest.approx(0.7, abs=1e-12)
    assert rep.rhs == pytest.approx(0.7 * math.sqrt(2.0), abs=1e-12)
    assert rep.margin == pytest.approx(0.7 * (math.sqrt(2.0) - 1.0), abs=1e-12)


def test_doob_terminal_absolute_value():
    xi = CylinderFunctional(times=(1.0,), psi=lambda a: np.abs(a))
    rep = doob_check(xi, 2.0, 4.0, G01, LatticeSpec.for_horizon(1.0, 8, G01))
    assert rep.margin >= 0.0


def test_doob_rejects_bad_exponents():
    xi = CylinderFunctional(times=(1.0,), psi=lambda a: np.abs(a))
    spec = LatticeSpec.for_horizon(1.0, 8, G01)
    with pytest.raises(DomainError):
        doob_check(xi, 4.0, 2.0, G01, spec)
    with pytest.raises(DomainError):
        doob_check(xi, 0.5, 2.0, G01, spec)


def test_doob_runs_G_on_any_mesh_that_carries_it():
    # both sides run under G on the spec's mesh: a mesh for [0, 1] cannot
    # carry [0, 2]; a mesh for [0, 2] carries [0, 1], whose rhs there is
    # below that of the wider [0, 2]
    xi = CylinderFunctional(times=(1.0,), psi=lambda a: np.abs(a))
    G02 = make_gfunction(0.0, 2.0)
    with pytest.raises(DomainError, match="lattice explosion"):
        doob_check(xi, 2.0, 4.0, G02, LatticeSpec.for_horizon(1.0, 8, G01))
    spec = LatticeSpec.for_horizon(1.0, 8, G02)
    narrow = doob_check(xi, 2.0, 4.0, G01, spec)
    assert narrow.margin >= 0.0
    assert narrow.rhs < doob_check(xi, 2.0, 4.0, G02, spec).rhs


def test_doob_randomized_battery():
    rng = np.random.default_rng(7)
    spec = LatticeSpec.for_horizon(1.0, 8, G01)
    start = time.perf_counter()
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
            rep = doob_check(xi, p, pp, G01, spec)
            assert rep.margin >= 0.0, (times, p, pp)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# the folded trinomial step against the loops it replaced
# ---------------------------------------------------------------------------

FOLD_PAYOFFS = {
    "one-stage": CylinderFunctional(times=(1.0,),
                                    psi=lambda a: a * a - np.abs(a)),
    # -0.0 wherever a == b
    "signed-zero": CylinderFunctional(times=(0.5, 1.0),
                                      psi=lambda a, b: -np.abs(a - b)),
    "three-stage": CylinderFunctional(
        times=(0.25, 0.5, 1.0),
        psi=lambda a, b, c: np.cos(a + 2.0 * b) - c * c + np.abs(b)),
}


@pytest.mark.parametrize("payoff", sorted(FOLD_PAYOFFS))
@pytest.mark.parametrize("sigma_low", [0.0, 0.5, 1.0])
def test_folded_lattice_equals_the_separate_loops(payoff, sigma_low):
    X, G = FOLD_PAYOFFS[payoff], make_gfunction(sigma_low, 1.0)
    spec = LatticeSpec.for_horizon(1.0, 8, G)
    s = gexpect._stage_bounds(X, spec)
    probs = [sig ** 2 * spec.dt / (2.0 * spec.dx ** 2)
             for sig in (G.sigma_low, G.sigma_high)]
    assert spec.probs(G) == tuple(probs)
    tab = gexpect._terminal_tab(X, s, spec.dx)
    if payoff == "signed-zero":
        assert np.signbit(tab[tab == 0.0]).all()

    ref = lattice_reference.sup_dp(tab, s, probs)
    value = lattice_oracle(X, G, spec)
    assert np.float64(value).tobytes() == ref[0, s[0]].tobytes()

    absx = np.abs(tab)
    records, ref_records = {}, {}
    assert (gexpect._sup_dp(absx, s, spec.probs(G), record=records).tobytes()
            == lattice_reference.sup_dp(absx, s, probs,
                                        record=ref_records).tobytes())
    assert sorted(records) == sorted(ref_records)
    for k, rec in ref_records.items():
        assert records[k].shape == rec.shape
        assert records[k].tobytes() == rec.tobytes()
    for p, pp in ((1.0, 2.0), (1.5, 3.0)):
        want_lhs = lattice_reference.running_max_lhs(ref_records, s, probs, p)
        lhs = gexpect._running_max_lhs(records, s, spec.probs(G), p)
        assert np.float64(lhs).tobytes() == np.float64(want_lhs).tobytes()
        rep = doob_check(X, p, pp, G, spec)
        want_rhs = doob_constant(p, pp) * float(lattice_reference.sup_dp(
            absx ** pp, s, probs)[0, s[0]]) ** (1.0 / pp)
        assert (np.float64(rep.lhs).tobytes()
                == np.float64(want_lhs ** (1.0 / p)).tobytes())
        assert np.float64(rep.rhs).tobytes() == np.float64(want_rhs).tobytes()


# ---------------------------------------------------------------------------
# random payoffs: the PDE route against the lattice
# ---------------------------------------------------------------------------

def test_random_lipschitz_payoffs_pde_against_lattice():
    # 1-Lipschitz piecewise-linear payoffs: gexpect_terminal at nx = 401
    # within criterion 02's 2e-2 of the 256-step lattice, under a
    # degenerate and an elliptic G; and on one mesh, widening the interval
    # to [0, 1.25] never lowers the lattice value (a few ulps a step)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    wide = make_gfunction(0.0, 1.25)
    mesh = LatticeSpec.for_horizon(1.0, 256, wide)
    unit = st.floats(-1.0, 1.0)

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(c=unit, slopes=st.lists(unit, min_size=2, max_size=5),
                      knots=st.lists(st.floats(-2.5, 2.5), min_size=4,
                                     max_size=4, unique=True))
    def check(c, slopes, knots):
        knots = sorted(knots)[:len(slopes) - 1]
        jumps = np.diff(slopes)

        def phi(x):
            x = np.asarray(x, dtype=float)
            return c + slopes[0] * x + sum(
                j * np.maximum(x - k, 0.0) for j, k in zip(jumps, knots))
        X = CylinderFunctional(times=(1.0,), psi=phi)
        for G in (G01, make_gfunction(0.5, 1.0)):
            v_lat = lattice_oracle(X, G, LatticeSpec.for_horizon(1.0, 256, G))
            v_pde = gexpect_terminal(phi, 1.0, G, nx=401)
            assert abs(v_pde - v_lat) <= 2e-2, (G, v_pde, v_lat)
            assert (lattice_oracle(X, wide, mesh)
                    >= lattice_oracle(X, G, mesh) - 1e-12), G
    check()
