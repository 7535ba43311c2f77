"""Closed-form oracles used across the test suite.

Every function here is derived independently of the package's estimators:
scalar Gaussian integrals, moment recursions, and elementary ODEs only.
"""

import numpy as np


def catalan(p: int) -> int:
    c = [1]
    for k in range(p):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c[p]


def quad_value(c: float, t: float, x_norm2: float, m: int = 1) -> float:
    """Cost-to-go of the terminal quadratic c * sum_l tau(x_l(1)^2).

    Per isometric coordinate the remaining noise is N(0, (1-t)/n) and the
    tilt integrates as a 1-D Gaussian convolution; summing the per
    coordinate values gives

        c * sum_l tau(x_l^2) / (1 + 2c(1-t)) + (m/2) log(1 + 2c(1-t)).

    ``x_norm2`` is sum_l tau(x_l^2).
    """
    den = 1.0 + 2.0 * c * (1.0 - t)
    return c * x_norm2 / den + 0.5 * m * np.log(den)


def quad_drift_coeff(c: float, t: float) -> float:
    """Drift b(t, x) = -coeff * x for the terminal quadratic; coeff = 2c/(1+2c(1-t))."""
    return 2.0 * c / (1.0 + 2.0 * c * (1.0 - t))


def quad_value_by_quadrature(c: float, t: float, x_coord: float, n: int) -> float:
    """Numeric cross-check of the 1-D reduction behind :func:`quad_value`.

    Value contribution of one isometric coordinate with state value
    ``x_coord``: -(1/n^2)-scaled log of E[exp(-n*c*(x + z)^2)], z ~
    N(0, (1-t)/n), computed by brute quadrature.
    """
    sig = np.sqrt((1.0 - t) / n)
    zs = np.linspace(-12 * sig, 12 * sig, 40001)
    dens = np.exp(-0.5 * (zs / sig) ** 2) / (sig * np.sqrt(2 * np.pi))
    integ = np.trapezoid(np.exp(-n * c * (x_coord + zs) ** 2) * dens, zs)
    return -np.log(integ)


def bridge_variance_ode(c: float, ts: np.ndarray) -> np.ndarray:
    """tau(X_t^2) of the optimally steered bridge for the terminal quadratic.

    Solves v' = -2 a(t) v + 1, v(0)=0 with a(t) = 2c/(1+2c(1-t)) by RK4 on a
    fine grid (independent moment-ODE oracle).
    """
    fine = np.linspace(0.0, ts[-1], 20001)
    h = fine[1] - fine[0]

    def f(t, v):
        a = 2.0 * c / (1.0 + 2.0 * c * (1.0 - t))
        return -2.0 * a * v + 1.0

    v = 0.0
    vals = [v]
    for t in fine[:-1]:
        k1 = f(t, v)
        k2 = f(t + h / 2, v + h * k1 / 2)
        k3 = f(t + h / 2, v + h * k2 / 2)
        k4 = f(t + h, v + h * k3)
        v = v + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        vals.append(v)
    return np.interp(ts, fine, vals)


def bridge_control_cost(c: float, T: float = 1.0) -> float:
    """int_0^T E||b(t, X_t)||_2^2 dt for the terminal quadratic (m = 1).

    Uses the moment ODE above: E||b||^2 = a(t)^2 v(t).
    """
    fine = np.linspace(0.0, T, 20001)
    v = bridge_variance_ode(c, fine)
    a = 2.0 * c / (1.0 + 2.0 * c * (1.0 - fine))
    return float(np.trapezoid(a**2 * v, fine))


def chi_g_quadratic(c: float) -> float:
    """chi^G of the quadratic family: -(1/2) * control cost of the bridge."""
    return -0.5 * bridge_control_cost(c)


def semicircle_density(var: float, xs: np.ndarray) -> np.ndarray:
    r = 2.0 * np.sqrt(var)
    out = np.zeros_like(xs)
    inside = np.abs(xs) < r
    out[inside] = 2.0 / (np.pi * r * r) * np.sqrt(r * r - xs[inside] ** 2)
    return out


def semicircle_log_energy_entropy(var: float) -> float:
    """chi of the semicircular law by the log-energy formula.

    For the centered semicircle of variance s^2: integral double
    log|x-y| d mu d mu + 3/4 + (1/2) log(2 pi) ... evaluated via the known
    value at variance 1, 0.5*log(2*pi*e), plus the scaling chi(aX) =
    chi(X) + log a.
    """
    return 0.5 * np.log(2 * np.pi * np.e) + 0.5 * np.log(var)


def power_word_gradient(x: np.ndarray, k: int, eps: int, lam: complex) -> np.ndarray:
    """Gradient of Re(lam * tau(u(x)^(eps k))) by spectral calculus on eigh(x).

    With phi(l) = (l + 4i)/(l - 4i) the Cayley map on an eigenvalue, the word
    is f(x) for f = phi^(eps k), whose derivative is
    eps k phi^(eps k - 1) (-8i)/(l - 4i)^2; the gradient under the pairing
    (1/n)Tr is the Hermitian part of lam * V diag(f') V*.  Batched over
    leading axes.
    """
    lams, vecs = np.linalg.eigh(x)
    phi = (lams + 4j) / (lams - 4j)
    fprime = eps * k * phi ** (eps * k - 1) * (-8j) / (lams - 4j) ** 2
    g = lam * (vecs * fprime[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
