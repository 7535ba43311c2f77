"""Moreau envelope, proximal map, and Yosida gradient for convex functions.

Works on flat real coordinate vectors with the Euclidean norm.  Matrix-tuple
consumers embed isometrically first (see sde.euler_yosida).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ProxFailure(RuntimeError):
    """Prox iteration did not reach tolerance; carries the final residual."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"prox did not converge after {iterations} iterations "
            f"(fixed-point residual {residual:.3e})"
        )


@dataclass
class ConvexFn:
    """A convex function R^d -> R with optional analytic gradient.

    ``lower_bound`` and ``lipschitz`` are declared metadata (used for
    diagnostics only, never trusted for correctness).
    """

    fn: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lower_bound: Optional[float] = None
    lipschitz: Optional[float] = None

    def __call__(self, y: np.ndarray) -> float:
        return float(self.fn(np.asarray(y, dtype=float)))


def _prox_descent(
    g: ConvexFn, lam: float, x: np.ndarray, tol: float, max_iter: int, y0: np.ndarray
) -> np.ndarray:
    """Monotone first-order descent with backtracking on
    F(y) = g(y) + ||x - y||^2 / (2 lam); Barzilai-Borwein step proposals.
    Stops on the fixed-point residual ||x - y - lam * grad g(y)||."""

    def F(y):
        return g(y) + float(np.dot(x - y, x - y)) / (2.0 * lam)

    def dF(y):
        return g.grad(y) - (x - y) / lam

    y = y0.copy()
    fy = F(y)
    scale = 1.0 + float(np.linalg.norm(x))
    step = lam
    y_prev = None
    g_prev = None
    residual = np.inf
    for _ in range(max_iter):
        gr = dF(y)
        residual = float(np.linalg.norm(x - y - lam * g.grad(y)))
        if residual <= tol * scale:
            return y
        if y_prev is not None:
            dy = y - y_prev
            dg = gr - g_prev
            denom = float(np.dot(dy, dg))
            if denom > 0:
                step = float(np.clip(np.dot(dy, dy) / denom, 1e-14, 1e14))
        gg = float(np.dot(gr, gr))
        while True:
            cand = y - step * gr
            fc = F(cand)
            if fc <= fy - 1e-4 * step * gg or step < 1e-16:
                break
            step *= 0.5
        y_prev, g_prev = y, gr
        y, fy = cand, fc
    residual = float(np.linalg.norm(x - y - lam * g.grad(y)))
    if residual <= tol * scale:
        return y
    raise ProxFailure(residual, max_iter)


def _prox_derivative_free(g: ConvexFn, lam: float, x: np.ndarray, tol: float, y0: np.ndarray):
    from scipy import optimize  # deferred: the heaviest import, and only this route needs it

    def F(y):
        return g(y) + float(np.dot(x - y, x - y)) / (2.0 * lam)

    res = optimize.minimize(F, y0, method="Powell", options={"xtol": tol * 1e-2, "ftol": 1e-14, "maxiter": 4000})
    if not res.success and res.status != 1:  # status 1: maxiter, still check value
        raise ProxFailure(float("nan"), int(res.get("nit", -1)))
    return np.asarray(res.x, dtype=float).reshape(np.shape(x))


def prox(
    g: ConvexFn,
    lam: float,
    x: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 2000,
    warm_start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """argmin_y  g(y) + ||x - y||^2 / (2 lam).

    With an analytic gradient the solution satisfies
    x - J = lam * grad g(J) to the fixed-point tolerance.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    x = np.asarray(x, dtype=float)
    y0 = x.copy() if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    if g.grad is not None:
        return _prox_descent(g, lam, x, tol, max_iter, y0)
    return _prox_derivative_free(g, lam, x, tol, y0)


def envelope(g: ConvexFn, lam: float, x: np.ndarray, **kw) -> float:
    """Moreau envelope value g_lam(x) = min_y ||x-y||^2/(2 lam) + g(y)."""
    x = np.asarray(x, dtype=float)
    j = prox(g, lam, x, **kw)
    return g(j) + float(np.dot(x - j, x - j)) / (2.0 * lam)


def yosida_gradient(g: ConvexFn, lam: float, x: np.ndarray, **kw) -> np.ndarray:
    """A_lam(x) = (x - J_lam(x)) / lam; globally 1/lam-Lipschitz."""
    x = np.asarray(x, dtype=float)
    return (x - prox(g, lam, x, **kw)) / lam
