"""Core value types: volatility-interval generators, driver data, grids.

Everything here is plain data plus validation.  The generator ``G`` of a
volatility interval [sigma_low, sigma_high] acts on a curvature value ``a``
as ``G(a) = 0.5 * (sigma_high**2 * a^+ - sigma_low**2 * a^-)``; it is
monotone, positively homogeneous and subadditive, and it is the only
nonlinearity the PDE and lattice modules ever see.
"""

from __future__ import annotations

import configparser
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class GbmlabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GbmlabError):
    """Invalid inputs or configuration (CLI exit code 1)."""


class ConfigError(DomainError):
    """Malformed run configuration file."""


class NumericalError(GbmlabError):
    """Numerical failure: CFL refusal, non-finite values (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GFunction1D:
    """Sublinear generator of a one-dimensional volatility interval.

    Parameters
    ----------
    sigma_low : float
        Lower volatility bound, >= 0.  Zero makes the generator degenerate.
    sigma_high : float
        Upper volatility bound, > 0 and >= ``sigma_low``.
    """

    sigma_low: float
    sigma_high: float

    def __post_init__(self) -> None:
        sl, sh = self.sigma_low, self.sigma_high
        if not (np.isfinite(sl) and np.isfinite(sh)):
            raise DomainError("volatility bounds must be finite")
        # regularize adds eps^2 < sigma_high^2 to the square, so twice the
        # square must stay finite too
        if not math.isfinite(2.0 * sh * sh):
            raise DomainError(f"sigma_high^2 overflows, got sigma_high={sh}")
        if sl < 0.0:
            raise DomainError(f"sigma_low must be >= 0, got {sl}")
        if sh <= 0.0:
            raise DomainError(f"sigma_high must be > 0, got {sh}")
        if sl > sh:
            raise DomainError(
                f"need sigma_low <= sigma_high, got [{sl}, {sh}]")

    @property
    def degenerate(self) -> bool:
        return self.sigma_low == 0.0

    def eval(self, a):
        """Apply the generator to a curvature value or array."""
        a = np.asarray(a, dtype=float)
        out = 0.5 * (self.sigma_high ** 2 * np.maximum(a, 0.0)
                     - self.sigma_low ** 2 * np.maximum(-a, 0.0))
        return float(out) if out.ndim == 0 else out


def make_gfunction(sigma_low: float, sigma_high: float) -> GFunction1D:
    """Validated constructor for :class:`GFunction1D`."""
    return GFunction1D(float(sigma_low), float(sigma_high))


def regularize(G: GFunction1D, eps: float) -> GFunction1D:
    """Uniformly elliptic approximation of a degenerate generator.

    Replaces the interval [0, sigma_high] by
    [eps, sqrt(sigma_high**2 + eps**2)]; the generator error is exactly
    bounded by ``0.5 * eps**2 * |a|``.
    """
    if not G.degenerate:
        raise DomainError("regularize expects a degenerate generator "
                          f"(sigma_low=0), got sigma_low={G.sigma_low}")
    if not (0.0 < eps < G.sigma_high):
        raise DomainError(
            f"need 0 < eps < sigma_high={G.sigma_high}, got eps={eps}")
    return GFunction1D(float(eps), math.sqrt(G.sigma_high ** 2 + eps ** 2))


# ---------------------------------------------------------------------------
# grids and cylinder functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time grid on [x_min, x_max] x [0, T].

    ``nt`` may be left as None; solvers then derive it from the CFL bound.
    """

    x_min: float
    x_max: float
    nx: int
    T: float
    nt: int | None = None

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.T))):
            raise DomainError(f"need finite x_min, x_max and T, got "
                              f"[{self.x_min}, {self.x_max}], T={self.T}")
        if not self.x_min < self.x_max:
            raise DomainError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.nx < 3:
            raise DomainError(f"need nx >= 3, got {self.nx}")
        if self.T <= 0.0:
            raise DomainError(f"need T > 0, got {self.T}")
        if self.nt is not None and self.nt < 1:
            raise DomainError(f"need nt >= 1, got {self.nt}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def with_nt(self, nt: int) -> "Grid1D":
        return Grid1D(self.x_min, self.x_max, self.nx, self.T, nt)

    @classmethod
    def default_for(cls, x0: float, T: float, G: GFunction1D,
                    nx: int = 401) -> "Grid1D":
        """Domain wide enough that boundary influence at (0, x0) is negligible
        (six standard deviations plus one)."""
        if not T > 0.0:  # before sqrt; NaN too
            raise DomainError(f"need T > 0, got {T}")
        span = 6.0 * G.sigma_high * math.sqrt(T) + 1.0
        return cls(x0 - span, x0 + span, nx, T)


@dataclass(frozen=True)
class CylinderFunctional:
    """Payoff psi(B_{t_1}, B_{t_2}-B_{t_1}, ..., B_{t_N}-B_{t_{N-1}}).

    ``psi`` takes N increment arguments and should accept numpy arrays
    (broadcasting); non-vectorized callables are wrapped on first use.
    """

    times: tuple
    psi: Callable
    name: str = "cylinder"

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) < 1:
            raise DomainError("need at least one stage time")
        if times[0] <= 0.0:
            raise DomainError(f"stage times must be > 0, got t1={times[0]}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise DomainError(f"stage times must be strictly increasing: {times}")
        if not callable(self.psi):
            raise DomainError("psi must be callable")
        self._lipschitz_smoke_check()

    @property
    def n_stages(self) -> int:
        return len(self.times)

    def _lipschitz_smoke_check(self) -> None:
        # Reject clearly non-Lipschitz payoffs (jumps): the difference
        # quotient at scale 1e-6 must not dwarf the quotient at scale 1.
        rng = np.random.default_rng(20240915)
        n = len(self.times)
        pts = rng.uniform(-2.0, 2.0, size=(64, n))
        f = _as_vectorized(self.psi, n)
        q_small = 0.0
        q_large = 0.0
        for scale in (1e-6, 1.0):
            shifted = pts.copy()
            shifted[:, 0] += scale
            num = np.abs(f(*shifted.T) - f(*pts.T))
            q = float(np.max(num)) / scale
            if scale < 1e-3:
                q_small = q
            else:
                q_large = q
        if not np.isfinite(q_small):
            raise DomainError(f"{self.name}: psi produced non-finite values")
        if q_small > 1e3 * max(q_large, 1.0):
            raise DomainError(
                f"{self.name}: psi looks non-Lipschitz (difference quotient "
                f"{q_small:.3g} at scale 1e-6 vs {q_large:.3g} at scale 1)")


def _as_vectorized(fn: Callable, nargs: int) -> Callable:
    """Return fn if it handles arrays, else an np.vectorize wrapper."""
    try:
        probe = [np.zeros(2) for _ in range(nargs)]
        out = fn(*probe)
        np.broadcast_to(np.asarray(out, dtype=float), (2,))
        return fn
    except Exception:
        return np.vectorize(fn, otypes=[float])


# ---------------------------------------------------------------------------
# driver specification
# ---------------------------------------------------------------------------

def _fd_x(fn: Callable, argindex: int) -> Callable:
    """Central finite-difference fallback for a missing derivative."""
    def deriv(*args):
        args = list(args)
        x = np.asarray(args[argindex], dtype=float)
        h = 1e-6 * (1.0 + np.abs(x))
        up = list(args)
        dn = list(args)
        up[argindex] = x + h
        dn[argindex] = x - h
        return (np.asarray(fn(*up), dtype=float)
                - np.asarray(fn(*dn), dtype=float)) / (2.0 * h)
    deriv._fd_backed = True  # excluded from the construction self-check
    return deriv


def _zero2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _one2(t, x):
    return np.ones_like(np.asarray(x, dtype=float))


def _zero3(t, x, y):
    shape = np.broadcast(np.asarray(x, dtype=float), np.asarray(y, dtype=float)).shape
    return np.zeros(shape)


def _zero4(t, x, y, z):
    shape = np.broadcast(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                         np.asarray(z, dtype=float)).shape
    return np.zeros(shape)


@dataclass(frozen=True, kw_only=True)
class DriverSpec:
    """Coefficient bundle for the forward/backward equations.

    Signatures: ``b(t, x)``, ``h(t, x)``, ``sigma(t, x)``, ``f(t, x, y)``,
    ``g(t, x, y, z)``, ``phi(x)``; all must accept numpy arrays in the
    non-time arguments.  Only ``name`` and ``phi`` are required.  Every
    other coefficient and each of its derivatives defaults to the shared
    zero (``sigma`` to the shared one), whose terms the solver skips; a
    coefficient set without its derivatives fails the self-check unless
    they are passed as None (first derivatives then fall back to finite
    differences, as an omitted ``phi_x`` does).  Construction runs a
    sampled self-check: every analytic derivative is compared against a
    central difference of its base at relative tolerance 1e-4, and ``phi``
    is checked against the declared polynomial-growth Lipschitz envelope
    ``L1 * (1+|x|^m+|x'|^m) * |x-x'|``.
    """

    name: str
    b: Callable = _zero2
    h: Callable = _zero2
    sigma: Callable = _one2
    f: Callable = _zero3
    g: Callable = _zero4
    phi: Callable
    b_x: Callable | None = _zero2
    h_x: Callable | None = _zero2
    sigma_x: Callable | None = _zero2
    phi_x: Callable | None = None
    f_x: Callable | None = _zero3
    f_y: Callable | None = _zero3
    g_x: Callable | None = _zero4
    g_y: Callable | None = _zero4
    g_z: Callable | None = _zero4
    b_t: Callable | None = _zero2
    h_t: Callable | None = _zero2
    sigma_t: Callable | None = _zero2
    f_t: Callable | None = _zero3
    g_t: Callable | None = _zero4
    phi_xx: Callable | None = None
    L1: float = 1.0
    m: int = 1
    phi_kinks: tuple = ()
    skip_self_check: bool = False

    def __post_init__(self) -> None:
        if self.L1 <= 0 or self.m < 1:
            raise DomainError("need L1 > 0 and integer m >= 1")
        if self.f is not _zero3 and \
                len(inspect.signature(self.f).parameters) != 3:
            raise DomainError("f must have signature f(t, x, y); a z argument "
                              "is rejected (see counterexample_demo docs)")
        for nm, fn, argidx in (("b_x", self.b, 1), ("h_x", self.h, 1),
                               ("sigma_x", self.sigma, 1), ("phi_x", self.phi, 0),
                               ("f_x", self.f, 1), ("f_y", self.f, 2),
                               ("g_x", self.g, 1), ("g_y", self.g, 2),
                               ("g_z", self.g, 3)):
            if getattr(self, nm) is None:
                object.__setattr__(self, nm, _fd_x(fn, argidx))
        if not self.skip_self_check:
            self._self_check()

    # -- construction self-check ------------------------------------------

    def _sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        ts = rng.uniform(0.0, 2.0, n)
        xs = rng.uniform(-3.0, 3.0, n)
        for k in self.phi_kinks:
            bad = np.abs(xs - k) < 1e-3
            xs[bad] += 2e-3
        ys = rng.uniform(-2.0, 2.0, n)
        zs = rng.uniform(-2.0, 2.0, n)
        return np.stack([ts, xs, ys, zs], axis=1)

    def _self_check(self) -> None:
        rng = np.random.default_rng(777)
        pts = self._sample_points(rng, 24)
        errs: list[str] = []
        defaults = self.__dataclass_fields__

        def check(nm: str, base_nm: str, args, argidx: int):
            base, deriv = getattr(self, base_nm), getattr(self, nm)
            if deriv is None or getattr(deriv, "_fd_backed", False):
                return
            # a default derivative of a default base is exact by construction
            if base is defaults[base_nm].default and \
                    deriv is defaults[nm].default:
                return
            for row in pts:
                call = [row[i] for i in args]
                h = 1e-5 * (1.0 + abs(call[argidx]))
                up = list(call)
                dn = list(call)
                up[argidx] += h
                dn[argidx] -= h
                fd = (float(base(*up)) - float(base(*dn))) / (2.0 * h)
                an = float(deriv(*call))
                if abs(an - fd) > 1e-4 * max(1.0, abs(an), abs(fd)):
                    errs.append(f"{nm} vs FD at {tuple(round(v, 3) for v in call)}: "
                                f"{an:.6g} != {fd:.6g}")
                    break

        T, X, Y, Z = 0, 1, 2, 3
        check("b_x", "b", (T, X), 1)
        check("h_x", "h", (T, X), 1)
        check("sigma_x", "sigma", (T, X), 1)
        check("phi_x", "phi", (X,), 0)
        check("f_x", "f", (T, X, Y), 1)
        check("f_y", "f", (T, X, Y), 2)
        check("g_x", "g", (T, X, Y, Z), 1)
        check("g_y", "g", (T, X, Y, Z), 2)
        check("g_z", "g", (T, X, Y, Z), 3)
        check("b_t", "b", (T, X), 0)
        check("h_t", "h", (T, X), 0)
        check("sigma_t", "sigma", (T, X), 0)
        check("f_t", "f", (T, X, Y), 0)
        check("g_t", "g", (T, X, Y, Z), 0)
        if self.phi_x is not None and not getattr(self.phi_x, "_fd_backed", False):
            check("phi_xx", "phi_x", (X,), 0)
        if errs:
            raise DomainError(f"driver '{self.name}' failed its derivative "
                              f"self-check: " + "; ".join(errs))

        # sampled polynomial-growth Lipschitz envelope for phi
        xa = rng.uniform(-3.0, 3.0, 40)
        xb = rng.uniform(-3.0, 3.0, 40)
        lhs = np.abs(np.asarray(self.phi(xa), dtype=float)
                     - np.asarray(self.phi(xb), dtype=float))
        rhs = self.L1 * (1.0 + np.abs(xa) ** self.m + np.abs(xb) ** self.m) \
            * np.abs(xa - xb)
        if np.any(lhs > rhs * (1.0 + 1e-9) + 1e-12):
            j = int(np.argmax(lhs - rhs))
            raise DomainError(
                f"driver '{self.name}': phi violates its declared Lipschitz "
                f"envelope at x={xa[j]:.4g}, x'={xb[j]:.4g} "
                f"(|dphi|={lhs[j]:.4g} > {rhs[j]:.4g})")


# ---------------------------------------------------------------------------
# preset catalog
# ---------------------------------------------------------------------------

def _const4(c):
    def fn(t, x, y, z):
        shape = np.broadcast(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                             np.asarray(z, dtype=float)).shape
        return np.full(shape, float(c))
    return fn


def _bump_callables(amplitude: float, width: float, center: float):
    """Compactly supported smooth bump amp*exp(1 - 1/(1-u^2)), u=(x-c)/w."""
    amp, w, c = float(amplitude), float(width), float(center)

    def u_of(x):
        return (np.asarray(x, dtype=float) - c) / w

    def phi(x):
        u = u_of(x)
        inside = np.abs(u) < 0.9999999
        ui = np.where(inside, u, 0.0)
        val = amp * np.exp(1.0 - 1.0 / (1.0 - ui ** 2))
        out = np.where(inside, val, 0.0)
        return out if out.ndim else float(out)

    def phi_x(x):
        u = u_of(x)
        out = np.zeros_like(u)
        inside = np.abs(u) < 0.9999999
        ui = np.where(inside, u, 0.0)
        e = np.exp(1.0 - 1.0 / (1.0 - ui ** 2))
        q = -2.0 * ui / (1.0 - ui ** 2) ** 2
        val = amp * e * q / w
        out = np.where(inside, val, 0.0)
        return out if out.ndim else float(out)

    def phi_xx(x):
        u = u_of(x)
        inside = np.abs(u) < 0.9999999
        ui = np.where(inside, u, 0.0)
        one = 1.0 - ui ** 2
        e = np.exp(1.0 - 1.0 / one)
        q = -2.0 * ui / one ** 2
        qp = -2.0 / one ** 2 - 8.0 * ui ** 2 / one ** 3
        val = amp * e * (q * q + qp) / w ** 2
        out = np.where(inside, val, 0.0)
        return out if out.ndim else float(out)

    return phi, phi_x, phi_xx


def _payoff(kind: str, params: Mapping):
    """(phi, phi_x, phi_xx, kinks, L1, m) for the named terminal payoff."""
    if kind == "smooth-bump":
        kind = "bump"
    if kind == "zero":
        return (lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                (), 1.0, 1)
    if kind == "quadratic":
        return (lambda x: np.asarray(x, dtype=float) ** 2,
                lambda x: 2.0 * np.asarray(x, dtype=float),
                lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
                (), 1.0, 1)
    if kind == "abs":
        delta = float(params.get("smoothing", 0.0))
        if delta < 0:
            raise DomainError(f"smoothing must be >= 0, got {delta}")
        if delta == 0.0:
            return (lambda x: np.abs(np.asarray(x, dtype=float)),
                    lambda x: np.sign(np.asarray(x, dtype=float)),
                    lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                    (0.0,), 1.0, 1)
        return (lambda x: np.sqrt(np.asarray(x, dtype=float) ** 2 + delta ** 2),
                lambda x: np.asarray(x, dtype=float)
                / np.sqrt(np.asarray(x, dtype=float) ** 2 + delta ** 2),
                lambda x: delta ** 2
                / (np.asarray(x, dtype=float) ** 2 + delta ** 2) ** 1.5,
                (), 1.0, 1)
    if kind == "bump":
        # default width 0.25: narrow enough that the concave cap sits in
        # the kink-dominated regime of the eps families over the standard
        # schedule 0.2 * 2^-k, wide enough for lattice/PDE agreement
        phi, phi_x, phi_xx = _bump_callables(params.get("amplitude", 1.0),
                                             params.get("width", 0.25),
                                             params.get("center", 0.0))
        amp = float(params.get("amplitude", 1.0))
        w = float(params.get("width", 0.25))
        return phi, phi_x, phi_xx, (), max(1.0, 3.0 * abs(amp) / w), 1
    raise DomainError(f"unknown payoff '{kind}'")


PRESET_NAMES = ("zero", "quadratic", "abs", "smooth-bump", "linear-h",
                "sine-gz", "kinked", "counterexample-weight")

# the ``params`` keys each payoff reads, and the payoff the ``phi`` key of
# the presets with a driver term chooses by default
_PAYOFF_KEYS = {"abs": ("smoothing",),
                "bump": ("amplitude", "width", "center"),
                "smooth-bump": ("amplitude", "width", "center")}
_DEFAULT_PHI = {"linear-h": "quadratic", "sine-gz": "bump"}


def preset_driver(name: str, params: Mapping | None = None) -> DriverSpec:
    """Build a catalog driver.

    Presets: ``zero``, ``quadratic`` (phi=x^2), ``abs`` (phi=|x| or its
    smoothing), ``smooth-bump`` (compactly supported payoff), ``linear-h``
    (constant quadratic-variation driver g=c), ``sine-gz`` (g=c*sin(z),
    exercises the adjoint weight), ``kinked`` (phi=|x| with frozen flow
    sigma=0), ``counterexample-weight`` (zero coefficients; carries the
    singular weight exponent used by the moment-bound demo).
    """
    p = dict(params or {})
    coeffs = {}
    if name in ("zero", "quadratic", "abs", "smooth-bump"):
        payoff = name
    elif name == "linear-h":
        coeffs["g"] = _const4(float(p.setdefault("c", 0.5)))
        payoff = p.get("phi", _DEFAULT_PHI[name])
    elif name == "sine-gz":
        c = float(p.setdefault("c", 0.5))

        # + 0.0 turns c*sin(-0.0) into +0.0
        def g(t, x, y, z):
            return c * np.sin(np.asarray(z, dtype=float)) + 0.0

        def g_z(t, x, y, z):
            return c * np.cos(np.asarray(z, dtype=float)) + 0.0

        coeffs.update(g=g, g_z=g_z)
        payoff = p.get("phi", _DEFAULT_PHI[name])
    elif name == "kinked":
        coeffs["sigma"] = _zero2
        payoff = "abs"
    elif name == "counterexample-weight":
        p.setdefault("exponent", -0.2)
        payoff = "zero"
    else:
        raise DomainError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")
    phi, phi_x, phi_xx, kinks, L1, m = _payoff(payoff, p)
    return DriverSpec(name=name, phi=phi, phi_x=phi_x, phi_xx=phi_xx,
                      phi_kinks=kinks, L1=L1, m=m, **coeffs)


def preset_keys(name: str, params: Mapping) -> set:
    """The keys of ``params`` that ``preset_driver(name, params)`` reads."""
    if name in _DEFAULT_PHI:
        payoff = params.get("phi", _DEFAULT_PHI[name])
        return {"c", "phi", *_PAYOFF_KEYS.get(payoff, ())}
    if name == "counterexample-weight":
        return {"exponent"}
    return set(_PAYOFF_KEYS.get("abs" if name == "kinked" else name, ()))


def payoff_driver(phi: Callable, phi_x: Callable | None = None,
                  phi_xx: Callable | None = None, *, name: str = "custom",
                  kinks: tuple = (), L1: float = 1.0, m: int = 1) -> DriverSpec:
    """Pure driver (b=h=f=g=0, sigma=1) around a terminal payoff."""
    return DriverSpec(name=name, phi=phi, phi_x=phi_x, phi_xx=phi_xx,
                      phi_kinks=kinks, L1=L1, m=m)


# ---------------------------------------------------------------------------
# run configuration files
# ---------------------------------------------------------------------------

_KNOWN_SECTIONS = ("generator", "grid", "driver", "schedule", "mc", "output")


def _coerce(value: str):
    v = value.strip()
    if "," in v:
        try:
            return tuple(float(tok) for tok in v.split(",") if tok.strip())
        except ValueError:
            return v
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            continue
    if v.lower() in ("true", "false"):
        return v.lower() == "true"
    return v


def parse_config(source: str) -> dict:
    """Parse a plain-text key=value run configuration.

    ``source`` is a path or raw text.  Sections: [generator] sigma_low,
    sigma_high, eps_schedule; [grid] x_min, x_max, nx, T, cfl_safety;
    [driver] preset plus preset parameters; optional [schedule], [mc],
    [output].  Values are coerced to int/float/bool/tuple-of-float.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        if "\n" in source or "=" in source:
            cp.read_string(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    out: dict = {}
    for section in cp.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]; "
                              f"expected one of {_KNOWN_SECTIONS}")
        out[section] = {k: _coerce(v) for k, v in cp.items(section)}
    return out
