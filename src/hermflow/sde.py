"""Path integrators for Markov drift fields and the stationary matrix dynamics.

The optimally controlled path, whose drift the value-function estimator
gives from the slot history, is integrated by
:func:`hermflow.laplace.simulate_controlled_paths`.

All integrators run at the normalized scale: the driving noise over a step
of length dt is an unscaled Hermitian increment divided by sqrt(n), so that
E[(1/n)Tr(H_t^2)] = t per matrix.  ``langevin_stationary`` doubles the
quadratic variation (sqrt(2) noise) so that its stationary law is the Gibbs
density exp(-n^2[G + quadratic]) rather than its square root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .matrix_core import (
    HermitianTuple,
    hs_norm2,
    norm2_array,
    sample_increment_array,
    stream,
)
from .potentials import PotentialSpec, gradient_potential_array
from .yosida import ConvexFn, prox

EXPLOSION_THRESHOLD = 1e6


class PathExplosion(RuntimeError):
    pass


class PicardNonContraction(RuntimeError):
    def __init__(self, ratio: float, history: list):
        self.ratio = ratio
        self.history = history
        super().__init__(f"Picard iteration is not contracting (measured ratio {ratio:.3f})")


@dataclass
class ControlledPath:
    grid: np.ndarray  # (M+1,)
    states: np.ndarray  # (M+1, m, n, n)
    drifts: np.ndarray  # (M+1, m, n, n)
    meta: dict = field(default_factory=dict)

    def state(self, i: int) -> HermitianTuple:
        return HermitianTuple(self.states[i])


@dataclass
class DriftField:
    """Markov drift b(t, x), with an optional Lipschitz constant that bounds the step."""

    fn: Callable
    lipschitz: Optional[float] = None

    def __call__(self, t: float, x: HermitianTuple) -> HermitianTuple:
        return self.fn(t, x)


def _check_explosion(x: np.ndarray, t: float):
    norm = float(np.sqrt(norm2_array(x)).max())
    if norm > EXPLOSION_THRESHOLD:
        raise PathExplosion(
            f"state norm {norm:.3e} exceeded {EXPLOSION_THRESHOLD:.0e} at t={t:.4f}"
        )


def euler_maruyama(
    field: DriftField,
    x0: HermitianTuple,
    grid: np.ndarray,
    rng: np.random.Generator,
    increments: Optional[np.ndarray] = None,
) -> ControlledPath:
    """Euler-Maruyama for dX = b(t, X) dt + dH with normalized Hermitian noise.

    ``increments``: optional pre-sampled unscaled increments, shape
    (M, m, n, n); they are divided by sqrt(n) internally (shared-noise runs).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least two nodes")
    if field.lipschitz is not None and np.isfinite(field.lipschitz) and field.lipschitz > 0:
        max_step = float(np.max(np.diff(grid)))
        if max_step > 1.0 / (4.0 * field.lipschitz):
            raise ValueError(
                f"grid step {max_step:.4f} exceeds 1/(4 L) = {1.0 / (4 * field.lipschitz):.4f}"
            )
    n, m = x0.n, x0.m
    M = grid.size - 1
    states = np.empty((M + 1, m, n, n), dtype=complex)
    drifts = np.empty((M + 1, m, n, n), dtype=complex)
    states[0] = x0.data
    x = x0
    for i in range(M):
        t, dt = grid[i], grid[i + 1] - grid[i]
        b = field(t, x)
        drifts[i] = b.data
        if increments is not None:
            dh = increments[i] / np.sqrt(n)
        else:
            dh = sample_increment_array(n, m, dt, rng) / np.sqrt(n)
        x = HermitianTuple(x.data + dt * b.data + dh)
        states[i + 1] = x.data
        _check_explosion(x.data, grid[i + 1])
    drifts[M] = field(grid[-1], x).data
    return ControlledPath(grid=grid, states=states, drifts=drifts)


def euler_yosida(
    g_family: Callable[[float], ConvexFn],
    lam: float,
    v0: np.ndarray,
    grid: np.ndarray,
    rng: np.random.Generator,
    noise: Optional[np.ndarray] = None,
    noise_scale: float = 1.0,
    prox_tol: float = 1e-8,
) -> np.ndarray:
    """Vector-level scheme dV = -A_lam(g_t, V) dt + noise_scale dBeta.

    Matrix consumers embed isometrically first.  The drift at each node is
    the Yosida gradient of the (time-dependent) convex potential; prox
    solves are warm-started along the path.  Returns states (M+1, d).
    """
    if not (0 < lam <= 1):
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    grid = np.asarray(grid, dtype=float)
    v = np.asarray(v0, dtype=float).copy()
    d = v.size
    out = np.empty((grid.size, d))
    out[0] = v
    warm = v.copy()
    for i in range(grid.size - 1):
        t, dt = grid[i], grid[i + 1] - grid[i]
        g = g_family(t)
        j = prox(g, lam, v, tol=prox_tol, warm_start=warm)
        warm = j
        a = (v - j) / lam
        if noise is not None:
            db = noise[i]
        else:
            db = rng.standard_normal(d) * np.sqrt(dt)
        v = v - dt * a + noise_scale * db
        out[i + 1] = v
        if np.linalg.norm(v) > EXPLOSION_THRESHOLD:
            raise PathExplosion(f"vector state norm exploded at t={grid[i + 1]:.4f}")
    return out


def _stationary_drift(spec: PotentialSpec, x: np.ndarray, u_ext=None) -> np.ndarray:
    """Drift -x - grad G(x) of the stationary dynamics for a one-slot spec."""
    g = gradient_potential_array(spec, x[..., None, :, :, :], u_ext)[..., 0, :, :, :]
    return -x - g


def langevin_stationary(
    spec: PotentialSpec,
    n: int,
    total_time: float,
    dt: float,
    rng: np.random.Generator,
    x0: Optional[HermitianTuple] = None,
    u_ext: Optional[np.ndarray] = None,
    record_every: int = 0,
) -> tuple:
    """Integrate dX = (-X - grad G(X)) dt + sqrt(2) dH towards the Gibbs law.

    Requires a convex-mode one-slot spec.  Returns (final state, diagnostics)
    where diagnostics carries the recorded tau(X^2) trace when requested.
    """
    if spec.k != 1:
        raise ValueError("stationary dynamics need a one-slot spec")
    if not spec.effectively_convex:
        raise ValueError("stationary dynamics need a convex-mode spec")
    m = spec.m
    x = HermitianTuple.zeros(n, m).data if x0 is None else x0.data.copy()
    steps = int(round(total_time / dt))
    trace = []
    for i in range(steps):
        b = _stationary_drift(spec, x, u_ext)
        dh = sample_increment_array(n, m, dt, rng) / np.sqrt(n)
        x = x + dt * b + np.sqrt(2.0) * dh
        _check_explosion(x, (i + 1) * dt)
        if record_every and (i + 1) % record_every == 0:
            trace.append(float(norm2_array(x)))
    diag = {"steps": steps, "norm2_trace": trace}
    return HermitianTuple(x), diag


def langevin_coupled(
    spec: PotentialSpec,
    n: int,
    total_time: float,
    dt: float,
    rng: np.random.Generator,
    x: HermitianTuple,
    y: HermitianTuple,
    u_ext: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Shared-noise pair of stationary dynamics; returns ||X_t - Y_t||_2^2 series."""
    xa, ya = x.data.copy(), y.data.copy()
    steps = int(round(total_time / dt))
    dist = np.empty(steps + 1)
    dist[0] = hs_norm2(HermitianTuple(xa - ya))
    m = spec.m
    for i in range(steps):
        dh = np.sqrt(2.0) * sample_increment_array(n, m, dt, rng) / np.sqrt(n)
        xa = xa + dt * _stationary_drift(spec, xa, u_ext) + dh
        ya = ya + dt * _stationary_drift(spec, ya, u_ext) + dh
        dist[i + 1] = float(norm2_array(xa - ya))
    return dist


# -- forward-backward fixed point by Picard iteration ------------------------


def _picard_drift(
    spec: PotentialSpec,
    level: int,
    t: float,
    y: np.ndarray,  # lead + (m, n, n)
    horizon: float,
    substeps: int,
    budgets: list,
    seed: int,
    depth: int = 0,
    u_ext=None,
) -> np.ndarray:
    """Drift iterate beta_level(t, y) = -E[grad G(X_T)] with X driven by the
    previous iterate.

    Nested Monte Carlo with budgets indexed by recursion depth, and RNG
    streams keyed by (depth, time): successive iterates then traverse the
    same driving noise at every shared tree position, so their difference
    isolates the drift refinement (common random numbers).
    """
    n, m = y.shape[-1], spec.m
    lead = y.shape[:-3]
    draws = budgets[min(depth, len(budgets) - 1)]
    rng = stream(seed, worker=depth * 7919 + int(round(t * 1e6)) % 7907)
    if horizon - t < 1e-12:
        g = gradient_potential_array(spec, y[..., None, :, :, :], u_ext)[..., 0, :, :, :]
        return -g
    if level == 0:
        z = sample_increment_array(n, m, horizon - t, rng, batch=lead + (draws,)) / np.sqrt(n)
        yt = y[..., None, :, :, :] + z
        g = gradient_potential_array(spec, yt[..., None, :, :, :], u_ext)[..., 0, :, :, :]
        return -g.mean(axis=-4)
    ts = np.linspace(t, horizon, substeps + 1)
    state = np.broadcast_to(y[..., None, :, :, :], lead + (draws, m, n, n)).copy()
    for i in range(substeps):
        dt_i = ts[i + 1] - ts[i]
        b = _picard_drift(
            spec, level - 1, ts[i], state, horizon, substeps, budgets, seed, depth + 1, u_ext
        )
        dh = sample_increment_array(n, m, dt_i, rng, batch=lead + (draws,)) / np.sqrt(n)
        state = state + dt_i * b + dh
    g = gradient_potential_array(spec, state[..., None, :, :, :], u_ext)[..., 0, :, :, :]
    return -g.mean(axis=-4)


def picard_fbsde(
    spec: PotentialSpec,
    horizon: float,
    tol: float,
    max_iter: int,
    rng: np.random.Generator,
    n: int = 4,
    substeps: int = 4,
    budgets: Optional[list] = None,
    probes: int = 3,
    u_ext=None,
) -> tuple:
    """Fixed-point drift field for the terminal-cost control problem.

    Iterates the conditional-expectation map from the driftless field,
    measuring sup distances between successive iterates on a probe set.
    Returns (ControlledPath under the final field, report dict).  Raises
    PicardNonContraction when the measured decay ratio reaches 1.

    Nested conditional expectations multiply cost geometrically in the
    iteration index, so the per-level budgets shrink with depth and
    ``max_iter`` beyond 3--4 is expensive.
    """
    if spec.k != 1 or abs(spec.times[0] - horizon) > 1e-12:
        raise ValueError("picard_fbsde expects a one-slot spec with its time at the horizon")
    budgets = budgets or [48, 16, 8, 4, 3]
    m = spec.m
    seed = int(rng.integers(2**60))
    probe_pts = []
    for w in range(probes):
        r = stream(seed, worker=500 + w)
        probe_pts.append(
            (
                float(r.uniform(0.0, horizon * 0.6)),
                sample_increment_array(n, m, 1.0, r) * 0.4 / np.sqrt(n),
            )
        )

    def sup_distance(l1: int, l2: int) -> float:
        worst = 0.0
        for tp, yp in probe_pts:
            b1 = _picard_drift(spec, l1, tp, yp, horizon, substeps, budgets, seed, u_ext=u_ext)
            b2 = _picard_drift(spec, l2, tp, yp, horizon, substeps, budgets, seed, u_ext=u_ext)
            worst = max(worst, float(np.sqrt(norm2_array(b1 - b2))))
        return worst

    dists = []
    converged_at = None
    for level in range(1, max_iter + 1):
        d = sup_distance(level, level - 1)
        dists.append(d)
        if d < tol:
            converged_at = level
            break
        if len(dists) >= 2 and dists[-2] > tol:
            ratio = dists[-1] / dists[-2]
            if ratio >= 1.0:
                raise PicardNonContraction(ratio, dists)
    ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 0]
    report = {
        "sup_differences": dists,
        "decay_ratios": ratios,
        "converged_at": converged_at,
        "tol": tol,
    }
    final_level = converged_at if converged_at is not None else max_iter

    # integrate one path under the final drift field
    grid = np.linspace(0.0, horizon, substeps + 1)

    def field_fn(t, x):
        b = _picard_drift(spec, final_level, t, x.data, horizon, substeps, budgets, seed, u_ext=u_ext)
        return HermitianTuple(b)

    path = euler_maruyama(DriftField(fn=field_fn), HermitianTuple.zeros(n, m), grid, rng)
    path.meta["picard"] = report
    return path, report
