"""Generator algebra, driver catalog, grids, and run configuration."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gbmlab.gcore import (
    PRESET_NAMES,
    ConfigError,
    CylinderFunctional,
    DomainError,
    Grid1D,
    make_gfunction,
    parse_config,
    payoff_driver,
    preset_driver,
    _zero4,
    regularize,
)


# ---------------------------------------------------------------------------
# generator evaluation
# ---------------------------------------------------------------------------

def test_eval_degenerate_positive_part():
    G = make_gfunction(0.0, 1.0)
    assert G.eval(2.0) == 1.0
    assert G.eval(-2.0) == 0.0
    assert G.degenerate


def test_eval_nondegenerate_negative_part():
    G = make_gfunction(0.5, 1.0)
    assert G.eval(-2.0) == -0.25
    assert not G.degenerate


def test_make_gfunction_rejects_bad_intervals():
    with pytest.raises(DomainError):
        make_gfunction(-0.1, 1.0)
    with pytest.raises(DomainError):
        make_gfunction(0.0, 0.0)
    with pytest.raises(DomainError):
        make_gfunction(1.5, 1.0)


def test_eval_vectorized_matches_scalar():
    G = make_gfunction(0.3, 2.0)
    a = np.linspace(-4.0, 4.0, 17)
    vec = G.eval(a)
    assert vec.shape == a.shape
    for ai, vi in zip(a, vec):
        assert vi == G.eval(float(ai))


def test_eval_properties_randomized():
    rng = np.random.default_rng(20240901)
    for lo, hi in ((0.0, 1.0), (0.5, 1.0), (0.3, 2.0)):
        G = make_gfunction(lo, hi)
        a = rng.uniform(-10.0, 10.0, size=1000)
        b = rng.uniform(-10.0, 10.0, size=1000)
        lam = rng.uniform(0.0, 5.0, size=1000)
        big, small = np.maximum(a, b), np.minimum(a, b)
        assert np.all(G.eval(big) - G.eval(small) >= -1e-12)
        assert np.max(np.abs(G.eval(lam * a) - lam * G.eval(a))) <= 1e-12 * (
            1.0 + np.max(np.abs(G.eval(a))) * np.max(lam))
        assert np.all(G.eval(a + b) <= G.eval(a) + G.eval(b) + 1e-12)


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def test_regularize_frozen_values():
    G = make_gfunction(0.0, 1.0)
    Ge = regularize(G, 0.1)
    assert Ge.sigma_low == 0.1
    assert Ge.sigma_high == pytest.approx(np.sqrt(1.01), abs=1e-15)
    assert Ge.eval(-2.0) == pytest.approx(-0.01, abs=1e-15)
    assert Ge.eval(2.0) == pytest.approx(1.01, abs=1e-15)


def test_regularize_error_paths():
    G = make_gfunction(0.0, 1.0)
    with pytest.raises(DomainError):
        regularize(G, 0.0)
    with pytest.raises(DomainError):
        regularize(G, 1.0)
    with pytest.raises(DomainError):
        regularize(make_gfunction(0.5, 1.0), 0.1)


def test_regularize_pointwise_error_identity():
    # G_eps(a) - G(a) = eps^2 |a| / 2 exactly, for either sign of a
    G = make_gfunction(0.0, 1.0)
    eps = 0.05
    Ge = regularize(G, eps)
    a = np.linspace(-10.0, 10.0, 401)
    diff = np.abs(Ge.eval(a) - G.eval(a))
    bound = 0.5 * eps ** 2 * np.abs(a)
    # slack covers the cancellation in eval's two half-terms (a few ulps of
    # sigma_high^2 * a / 2), nothing more
    assert np.all(diff <= bound + 1e-14)
    assert np.max(np.abs(diff - bound)) <= 1e-14


# ---------------------------------------------------------------------------
# driver catalog
# ---------------------------------------------------------------------------

def test_every_preset_constructs():
    # construction runs the derivative and Lipschitz self-checks
    for name in PRESET_NAMES:
        d = preset_driver(name)
        assert d.name == name


def test_quadratic_preset_fields():
    d = preset_driver("quadratic")
    x = np.array([-1.0, 0.0, 3.0])
    assert np.allclose(d.phi(x), x ** 2)
    assert np.allclose(d.phi_x(x), 2.0 * x)
    assert np.allclose(d.phi_xx(x), 2.0)
    assert np.all(d.b(0.0, x) == 0.0)
    assert np.all(d.sigma(0.0, x) == 1.0)
    assert d.m == 1


def test_linear_h_preset_driver_constant():
    d = preset_driver("linear-h", {"c": 0.5})
    x = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(d.g(0.3, x, x, x), 0.5)
    assert np.all(d.h(0.3, x) == 0.0)
    assert np.all(d.f(0.3, x, x) == 0.0)


def test_zero_preset_is_identity_problem():
    d = preset_driver("zero")
    x = np.linspace(-1.0, 1.0, 5)
    for fn, args in ((d.b, (0.0, x)), (d.h, (0.0, x)),
                     (d.f, (0.0, x, x)), (d.g, (0.0, x, x, x)),
                     (d.phi, (x,))):
        assert np.all(np.asarray(fn(*args)) == 0.0)
    assert np.all(d.sigma(0.0, x) == 1.0)


def test_kinked_preset_freezes_the_flow():
    d = preset_driver("kinked")
    x = np.linspace(-1.0, 1.0, 5)
    assert np.all(d.sigma(0.5, x) == 0.0)
    assert np.allclose(d.phi(x), np.abs(x))
    assert d.phi_kinks == (0.0,)


def test_unknown_preset_rejected():
    with pytest.raises(DomainError):
        preset_driver("cubic")
    with pytest.raises(DomainError):
        preset_driver("abs", {"smoothing": -1.0})


def test_lipschitz_envelope_violation_rejected():
    with pytest.raises(DomainError):
        payoff_driver(lambda x: 10.0 * np.asarray(x), L1=1.0)


def test_derivative_self_check_rejects_mismatch():
    with pytest.raises(DomainError):
        payoff_driver(lambda x: np.asarray(x) ** 2,
                      lambda x: 3.0 * np.asarray(x), L1=5.0)


def test_default_derivative_of_a_replaced_coefficient_is_checked():
    # b is replaced but b_x keeps its zero default: the self-check must
    # compare them rather than skip the pair
    with pytest.raises(DomainError, match="b_x"):
        dataclasses.replace(preset_driver("quadratic"),
                            b=lambda t, x: 0.5 * np.asarray(x, dtype=float))


@pytest.mark.parametrize("c", [0.5, -1.5, 0.0])
def test_sine_gz_coefficients_equal_the_broadcast_zero_form(c):
    d = preset_driver("sine-gz", {"c": c})
    z = np.array([[0.0, -0.0, 1e-300, -2.5], [np.pi, -np.pi, 3.0, -0.0]])
    x, y = np.linspace(-1.0, 1.0, 4), np.zeros((2, 4))
    cases = [(0.3, x, y, z), (0.0, 0.5, -0.25, 0.0), (0.0, 0.5, -0.25, -0.0),
             (1.0, -1.0, 2.0, 1.25)]
    for t, xv, yv, zv in cases:
        zf = np.asarray(zv, dtype=float)
        for got, want in (
                (d.g(t, xv, yv, zv), c * np.sin(zf) + _zero4(t, xv, yv, zv)),
                (d.g_z(t, xv, yv, zv), c * np.cos(zf) + _zero4(t, xv, yv, zv))):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# grids and cylinder payoffs
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1D(1.0, -1.0, 11, 1.0)
    with pytest.raises(DomainError):
        Grid1D(-1.0, 1.0, 2, 1.0)
    with pytest.raises(DomainError):
        Grid1D(-1.0, 1.0, 11, 0.0)
    with pytest.raises(DomainError):
        Grid1D(-1.0, 1.0, 11, 1.0, nt=0)


def test_grid_geometry():
    g = Grid1D(-2.0, 2.0, 9, 1.0)
    assert g.dx == 0.5
    assert g.xs[0] == -2.0 and g.xs[-1] == 2.0
    assert g.with_nt(10).nt == 10
    gd = Grid1D.default_for(0.0, 1.0, make_gfunction(0.0, 1.0))
    assert gd.x_max == 7.0 and gd.x_min == -7.0


def test_cylinder_validation():
    with pytest.raises(DomainError):
        CylinderFunctional(times=(), psi=lambda: 0.0)
    with pytest.raises(DomainError):
        CylinderFunctional(times=(0.0, 1.0), psi=lambda a, b: a + b)
    with pytest.raises(DomainError):
        CylinderFunctional(times=(0.5, 0.5), psi=lambda a, b: a + b)
    with pytest.raises(DomainError):
        CylinderFunctional(times=(1.0,),
                           psi=lambda a: np.where(a > 0.0, a, np.nan))
    X = CylinderFunctional(times=(0.5, 1.0), psi=lambda a, b: a + b)
    assert X.n_stages == 2


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

CONFIG_TEXT = """
[generator]
sigma_low = 0.0
sigma_high = 1.0
eps_schedule = 0.2, 0.1, 0.05

[grid]
x_min = -4.0
x_max = 4.0
nx = 201
T = 1.0
cfl_safety = 0.9

[driver]
preset = linear-h
c = 0.5

[mc]
n_paths = 5000
seed = 7
"""


def test_parse_config_roundtrip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg["generator"]["sigma_low"] == 0.0
    assert cfg["generator"]["eps_schedule"] == (0.2, 0.1, 0.05)
    assert cfg["grid"]["nx"] == 201
    assert isinstance(cfg["grid"]["nx"], int)
    assert cfg["grid"]["T"] == 1.0
    assert cfg["driver"]["preset"] == "linear-h"
    assert cfg["driver"]["c"] == 0.5
    assert cfg["mc"]["n_paths"] == 5000


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    assert parse_config(str(path)) == parse_config(CONFIG_TEXT)


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigError):
        parse_config("[plotting]\nstyle = fancy\n")
