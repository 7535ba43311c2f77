"""Fisher-information flows and the two free-entropy routes.

Density route: for one-matrix laws with square-root edges, the score
(conjugate variable) is the principal-value transform

    score(x) = 2 p.v. integral rho(y) / (x - y) dy,

computed spectrally: on the support [c - r, c + r] write
rho(c + r s) = sqrt(1 - s^2) g(s) and expand g in Chebyshev-U polynomials;
then p.v. int sqrt(1-s^2) U_k(s)/(x - s) ds = pi T_{k+1}(x), so the
transform is exact on the truncated expansion.  Fisher information is the
Gauss-Chebyshev quadrature of rho * score^2.

Control route: the microstates entropy relative to the Gaussian is realized
as minus half the control cost of the optimally steered bridge whose
endpoint is the Gibbs law; the Lebesgue entropy follows by the affine
conversion chi = chi_gauss + (1/2) sum_l tau(X_l^2) + m C with the constant
calibrated once on the standard semicircular case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .laplace import simulate_controlled_paths
from .matrix_core import sample_increment_array, stream
from .potentials import PotentialSpec, quadratic_spec
from .value_function import ValueEstimate


@dataclass
class SpectralDensity:
    """One-matrix spectral density on a compact support.

    ``grid``/``values`` describe the density; ``fn`` optionally supplies an
    exact evaluator (used by constructors with closed forms).  Normalization
    is checked to 1e-8 at construction.
    """

    grid: np.ndarray
    values: np.ndarray
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < -1e-12):
            raise ValueError("density values must be nonnegative")
        mass = float(np.trapezoid(self.values, self.grid))
        if abs(mass - 1.0) > 1e-8 and self.fn is None:
            raise ValueError(f"density integrates to {mass:.10f}, not 1")

    @property
    def support(self) -> tuple:
        return float(self.grid[0]), float(self.grid[-1])

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        if self.fn is not None:
            return self.fn(np.asarray(xs))
        return np.interp(xs, self.grid, self.values, left=0.0, right=0.0)

    @classmethod
    def semicircle(cls, variance: float, points: int = 2001) -> "SpectralDensity":
        r = 2.0 * math.sqrt(variance)

        def fn(xs):
            xs = np.asarray(xs, dtype=float)
            out = np.zeros_like(xs)
            inside = np.abs(xs) < r
            out[inside] = 2.0 / (math.pi * r * r) * np.sqrt(r * r - xs[inside] ** 2)
            return out

        grid = np.linspace(-r, r, points)
        return cls(grid=grid, values=fn(grid), fn=fn)


def _chebyshev_data(density: SpectralDensity, modes: int = 256):
    """Sample g(s) = rho(c + r s)/sqrt(1 - s^2) at Chebyshev angles."""
    a, b = density.support
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    mm = modes
    theta = (np.arange(1, mm + 1) - 0.5) * np.pi / mm  # open nodes, avoid endpoints
    s = np.cos(theta)
    rho = density(c + r * s)
    g = rho / np.sin(theta)  # sqrt(1 - s^2) = sin(theta)
    # Chebyshev-U coefficients: g = sum_k c_k U_k(s); with s = cos(theta),
    # U_k(cos t) sin t = sin((k+1) t); project with the midpoint rule.
    ks = np.arange(mm)
    sin_mat = np.sin(np.outer(theta, ks + 1))  # (nodes, modes)
    ck = (2.0 / mm) * (sin_mat.T @ (g * np.sin(theta)))
    return c, r, theta, s, g, ck


def hilbert_score(density: SpectralDensity, xs: np.ndarray, modes: int = 256) -> np.ndarray:
    """Conjugate-variable score 2 p.v. int rho(y)/(x - y) dy inside the support.

    With rho(c + r s) = sqrt(1 - s^2) sum_k c_k U_k(s), the transform is
    2 pi sum_k c_k T_{k+1}((x - c)/r); for the semicircle of variance v this
    reduces to x / v.
    """
    c, r, _, _, _, ck = _chebyshev_data(density, modes)
    xs = np.asarray(xs, dtype=float)
    shat = np.clip((xs - c) / r, -1.0, 1.0)
    tt = np.arccos(shat)
    acc = np.zeros_like(xs)
    for k, coef in enumerate(ck):
        acc += coef * np.cos((k + 1) * tt)  # T_{k+1}(shat)
    return 2.0 * np.pi * acc


def _score_at_nodes(theta: np.ndarray, ck: np.ndarray) -> np.ndarray:
    ks = np.arange(len(ck))
    cos_mat = np.cos(np.outer(theta, ks + 1))
    return 2.0 * np.pi * (cos_mat @ ck)


def fisher_from_density(density: SpectralDensity, modes: int = 256) -> float:
    """Fisher information int rho(x) score(x)^2 dx by Gauss-U quadrature."""
    c, r, theta, s, g, ck = _chebyshev_data(density, modes)
    score = _score_at_nodes(theta, ck)
    # int rho xi^2 dy = r * int sqrt(1-s^2) g(s) xi^2 ds, midpoint in theta
    integrand = g * score**2 * np.sin(theta) ** 2
    return float(r * (np.pi / len(theta)) * integrand.sum())


def score_residual_from_density(density: SpectralDensity, modes: int = 256) -> float:
    """Defining-relation check at P = X: int score(x) x rho dx - 1."""
    c, r, theta, s, g, ck = _chebyshev_data(density, modes)
    score = _score_at_nodes(theta, ck)
    xs = c + r * s
    val = float(r * (np.pi / len(theta)) * (g * score * xs * np.sin(theta) ** 2).sum())
    return val - 1.0


def free_convolve_semicircle(density: SpectralDensity, t: float, points: int = 600) -> SpectralDensity:
    """Free convolution with a semicircular of variance t by subordination.

    Solves G(z) = G_0(z - t G(z)) for z just above the real axis by damped
    fixed-point iteration with eta-continuation, then rho_t = -Im(G)/pi.
    """
    if t <= 0:
        return density
    a, b = density.support
    pad = 2.0 * math.sqrt(t) + 0.25 * (b - a) + 1e-6
    xs = np.linspace(a - pad, b + pad, points)
    step_base = max(density.grid.size // 800, 1)
    ygrid = density.grid[::step_base]
    yvals = density.values[::step_base]
    mass0 = np.trapezoid(yvals, ygrid)

    def g0(z):
        # Stieltjes transform of the base density by quadrature
        return np.trapezoid(yvals / (z[:, None] - ygrid[None, :]), ygrid, axis=1) / mass0

    g = None
    for eta in (1.0, 0.1, 0.01, 1e-3, 3e-4):
        z = xs + 1j * eta
        if g is None:
            g = g0(z)
        for _ in range(200):
            g_new = g0(z - t * g)
            step = g_new - g
            g = g + 0.5 * step
            if np.max(np.abs(step)) < 1e-10:
                break
    rho = np.maximum(-np.imag(g) / np.pi, 0.0)
    lo = np.nonzero(rho > 1e-9)[0]
    sl = slice(max(lo[0] - 1, 0), min(lo[-1] + 2, xs.size))
    rho_cut = rho[sl].copy()
    rho_cut /= np.trapezoid(rho_cut, xs[sl])
    return SpectralDensity(grid=xs[sl], values=rho_cut)


@dataclass
class FlowPoint:
    t: float
    fisher: ValueEstimate
    residual: float
    density_value: float = float("nan")

    def __post_init__(self):
        if self.fisher.value < 0:
            raise ValueError("Fisher information must be nonnegative")


def _spec_semicircle_variance(spec: PotentialSpec) -> float:
    """Endpoint semicircle variance of a one-slot pure-quadratic spec."""
    if spec.k != 1 or spec.m != 1:
        raise ValueError("the spectral route needs a one-matrix, one-slot spec")
    for comp in spec.components:
        if comp.word is not None and comp.coupling != 0:
            raise ValueError("the spectral route needs a pure-quadratic spec")
    c = sum(comp.quad for comp in spec.components)
    t1 = spec.times[0]
    return t1 / (1.0 + 2.0 * c * t1)


def fisher_semicircular_flow(
    source,
    t_grid,
    n: Optional[int] = None,
    samples: int = 400,
    rng: Optional[np.random.Generator] = None,
    modes: int = 256,
) -> tuple:
    """Fisher information along the semicircular perturbation.

    ``source`` is a one-slot convex PotentialSpec (quadratic family:
    convolved laws stay semicircular) or a SpectralDensity (general laws:
    subordination).  With ``n`` set, each point is cross-checked at finite
    size by the linear-projection score estimate from sampled matrices.
    Returns (FlowPoint list, report) where the report carries the
    monotonicity flag and the empirical Hoelder modulus of t -> Fisher.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if np.any(t_grid < 0):
        raise ValueError("flow times must be nonnegative")
    semicircular_var: Optional[float] = None
    base_density: Optional[SpectralDensity] = None
    if isinstance(source, PotentialSpec):
        semicircular_var = _spec_semicircle_variance(source)
    else:
        base_density = source

    points = []
    for t in t_grid:
        if semicircular_var is not None:
            dens = SpectralDensity.semicircle(semicircular_var + t)
        else:
            dens = free_convolve_semicircle(base_density, t)
        phi = fisher_from_density(dens, modes=modes)
        resid = score_residual_from_density(dens, modes=modes)
        est = ValueEstimate(value=phi, stderr=0.0, samples=0, meta={"route": "density"})
        if n is not None and semicircular_var is not None:
            est = _fisher_matrix_estimate(semicircular_var, t, n, samples, rng)
        points.append(FlowPoint(t=t, fisher=est, residual=resid, density_value=phi))

    vals = np.array([p.density_value for p in points])
    errs = np.array([p.fisher.stderr for p in points])
    mono = bool(np.all(np.diff(vals) <= 3 * (errs[:-1] + errs[1:]) + 1e-12))
    dts = np.diff(t_grid)
    dphis = np.abs(np.diff(vals))
    ok = (dts > 0) & (dphis > 0)
    if ok.sum() >= 2 and np.unique(np.round(np.log(dts[ok]), 12)).size >= 2:
        slope = float(np.polyfit(np.log(dts[ok]), np.log(dphis[ok]), 1)[0])
    else:
        slope = float("nan")
    report = {"monotone_nonincreasing": mono, "holder_slope": slope}
    return points, report


def _fisher_matrix_estimate(
    var0: float, t: float, n: int, samples: int, rng: Optional[np.random.Generator]
) -> ValueEstimate:
    """Finite-size cross-check: project the base conjugate candidate onto the
    perturbed matrix and take the squared norm of the projection.

    For the quadratic family the projection is linear, so the regression
    coefficient of score0 = X/var0 on Y = X + sqrt(t) S recovers E[xi | Y].
    """
    rng = rng or stream(0)
    x = sample_increment_array(n, 1, 1.0, rng, batch=(samples,)) / np.sqrt(n) * np.sqrt(var0)
    s = sample_increment_array(n, 1, 1.0, rng, batch=(samples,)) / np.sqrt(n)
    y = x + np.sqrt(t) * s
    xi0 = x / var0
    num = np.real(np.einsum("bmij,bmji->b", xi0, y)) / n
    den = np.real(np.einsum("bmij,bmji->b", y, y)) / n
    beta = num.mean() / den.mean()
    phi_draws = beta**2 * den
    return ValueEstimate(
        value=float(phi_draws.mean()),
        stderr=float(phi_draws.std(ddof=1) / np.sqrt(samples)),
        samples=samples,
        meta={"route": "matrix-projection", "beta": float(beta)},
    )


def chi_star(flow, m: int = 1) -> float:
    """Non-microstates entropy from a Fisher flow:
    (1/2) int (m/(1+t) - Fisher(t)) dt + (m/2) log(2 pi e), with the tail
    above the last flow point closed using the m/(variance + t) asymptotic."""
    ts = np.array([p.t for p in flow], dtype=float)
    vals = np.array([p.density_value if np.isfinite(p.density_value) else p.fisher.value for p in flow])
    if ts.size < 4:
        raise ValueError("need at least 4 flow points")
    T = ts[-1]
    phi_T = vals[-1]
    v_eff = m / phi_T
    if T < 5.0 * max(1.0, v_eff - T):
        raise ValueError(
            f"flow range T={T:.2f} too short for the tail closure; "
            f"use T >= {5.0 * max(1.0, v_eff - T):.1f}"
        )
    from scipy.interpolate import CubicSpline  # deferred: the heaviest import, and only this route needs it

    integrand = 0.5 * (m / (1.0 + ts) - vals)
    spline = CubicSpline(ts, integrand)
    head = float(spline.integrate(ts[0], T))
    tail = 0.5 * m * math.log(v_eff / (1.0 + T))
    return head + tail + 0.5 * m * math.log(2.0 * math.pi * math.e)


def chi_microstates_control(
    spec: PotentialSpec,
    n: int,
    paths: int = 64,
    grid_steps: int = 48,
    inner: int = 128,
    rng: Optional[np.random.Generator] = None,
    constant: Optional[float] = None,
) -> dict:
    """Entropy by the control route: chi_gauss = -(1/2) int E||b||^2 dt along
    the optimal bridge, converted to chi when the calibration constant is
    supplied."""
    rng = rng or stream(0)
    sim = simulate_controlled_paths(spec, n, paths, grid_steps, inner, rng)
    costs = sim["control_costs"]
    chi_g = ValueEstimate(
        value=float(-costs.mean()),
        stderr=float(costs.std(ddof=1) / np.sqrt(costs.size)),
        samples=int(costs.size),
    )
    end = sim["slot_states"][:, -1]
    tau2 = float((np.sum(np.abs(end) ** 2, axis=(-1, -2, -3)) / n).mean())
    out = {"chi_gauss": chi_g, "tau2_endpoint": tau2, "m": spec.m}
    if constant is not None:
        out["chi"] = chi_g.value + 0.5 * tau2 + spec.m * constant
        out["constant"] = constant
    return out


def calibrate_universal_constant(
    n: int,
    paths: int = 64,
    grid_steps: int = 48,
    inner: int = 128,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Fix the affine constant between the two entropies on the standard
    semicircular case: the flow quadrature gives chi*, the control route
    gives chi_gauss and the endpoint second moment, and the constant is
    whatever reconciles them (analytically log sqrt(2 pi))."""
    rng = rng or stream(0)
    flow, _ = fisher_semicircular_flow(
        quadratic_spec(0.0, floor=1.0), np.concatenate([np.linspace(0, 4, 41), np.linspace(4.5, 40, 72)])
    )
    ref = chi_star(flow, m=1)
    est = chi_microstates_control(quadratic_spec(0.0, floor=1.0), n, paths, grid_steps, inner, rng)
    return ref - est["chi_gauss"].value - 0.5 * est["tau2_endpoint"]


def conjugate_variable_residual(
    samples: np.ndarray,
    spec: PotentialSpec,
    battery=None,
    candidate: str = "model",
    u_ext=None,
):
    """IBP residual of a conjugate-variable candidate over a polynomial battery.

    ``candidate="model"`` uses the ensemble's own score-based candidate;
    ``candidate="gaussian-only"`` deliberately drops the potential term (a
    negative control that must fail for nonzero potentials).
    Returns a list of (polynomial, ValueEstimate).
    """
    from .gibbs import sd_residual
    from .nc_poly import NCPolynomial

    if battery is None:
        x1 = NCPolynomial.x(1)
        battery = [NCPolynomial.one(), x1, x1 * x1]
    if candidate == "gaussian-only":
        stripped = PotentialSpec(
            times=spec.times,
            components=tuple(
                type(c)(offset=c.offset, quad=0.0, coupling=0.0, word=None)
                for c in spec.components
            ),
            p=spec.p,
            offset=spec.offset,
            m=spec.m,
        )
        spec_used = stripped
    elif candidate == "model":
        spec_used = spec
    else:
        raise ValueError(f"unknown candidate {candidate!r}")
    return [(p, sd_residual(samples, spec_used, p, 1, u_ext)) for p in battery]
