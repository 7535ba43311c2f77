"""Both sides of the finite-size variational identity, and N-trend reports.

Left side: -(1/n^2) log E[exp(-n^2 G)] over direct Hermitian-Brownian slot
samples (optionally with the closed-form Gaussian tilt).  Right side: the
expected terminal cost plus half the time-integrated squared drift along
the optimally controlled path, with the drift estimated per step by the
value-function machinery.  The two agree path-by-path in the exact theory;
here they agree within combined Monte Carlo error.

The plain left side is feasible only while n^2 * spread(G) stays a few
tens of nats; the report annotates the regime and the tilted estimator
covers the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .matrix_core import HermitianTuple, sample_increment_array
from .potentials import (
    PotentialSpec,
    brownian_slot_sample,
    eval_potential_array,
)
from .sde import _check_explosion
from .value_function import (
    EstimatorUnderflow,
    ValueEstimate,
    ValueQuery,
    drift_core_array,
    resolve_tilt,
    value_h,
)

_TIME_TOL = 1e-12


def lhs_log_laplace(
    spec: PotentialSpec,
    n: int,
    samples: int,
    rng: np.random.Generator,
    tilt="auto",
    u_ext: Optional[np.ndarray] = None,
) -> ValueEstimate:
    """-(1/n^2) log E[exp(-n^2 G)] by direct slot sampling (log-domain)."""
    q = ValueQuery(
        spec,
        0.0,
        [],
        HermitianTuple.zeros(n, spec.m),
        samples,
        rng,
        tilt=tilt,
    )
    try:
        return value_h(q, u_ext)
    except EstimatorUnderflow as exc:
        raise EstimatorUnderflow(
            str(exc) + " -- the direct estimator is out of its regime; "
            "use the control-cost route (rhs_control_cost)"
        ) from exc


def spread_nats(spec: PotentialSpec, n: int, rng: np.random.Generator, pilot: int = 256) -> float:
    """n^2 times the sampled standard deviation of G (feasibility diagnostic)."""
    slots = brownian_slot_sample(spec.times, n, spec.m, rng, batch=(pilot,))
    vals = eval_potential_array(spec, slots)
    return float(n * n * vals.std(ddof=1))


def _controlled_grid(spec: PotentialSpec, steps: int) -> np.ndarray:
    """``steps`` uniform steps on [0, t_k] with every slot time a node; a uniform node
    within ``_TIME_TOL`` of a slot time gives way to it (0 always stays)."""
    slots = np.asarray(spec.times)
    base = np.linspace(0.0, slots[-1], steps + 1)
    near = np.abs(base[:, None] - slots).min(axis=1) <= _TIME_TOL
    near[0] = False
    return np.union1d(base[~near], slots)


def simulate_controlled_paths(
    spec: PotentialSpec,
    n: int,
    paths: int,
    grid_steps: int,
    inner: int,
    rng: np.random.Generator,
    tilt="auto",
    perturb: float = 0.0,
    u_ext: Optional[np.ndarray] = None,
    heun: bool = True,
) -> dict:
    """Batched controlled dynamics driven by the per-step drift estimator.

    Returns the grid (slot times included), the per-node states and drifts
    (paths, M+1, m, n, n), slot states (paths, k, m, n, n), per-path
    terminal values of G, per-path control costs (1/2) int ||b||_2^2 dt
    (trapezoid, with the split-batch product making each node unbiased),
    and drift diagnostics.  The drift at node i is the estimate used for
    the step from node i (before any Heun correction).  A nonzero
    ``perturb`` adds that multiple of a fresh random Hermitian field to the
    drift at every step (sub-optimality probes).

    ``heun``: predictor-corrector drift step (weak order 2); the O(dt) bias
    of the plain Euler step is visible against 3-sigma tolerances at the
    acceptance budgets.
    """
    m = spec.m
    c_tilt = resolve_tilt(spec, tilt)
    grid = _controlled_grid(spec, grid_steps)
    M = grid.size - 1
    # slot j is the state at its first node at or after its time; the drift
    # at that node still sees it as the current state, later nodes as history
    slot_nodes = np.searchsorted(grid, np.asarray(spec.times) - _TIME_TOL)
    states = np.zeros((paths, M + 1, m, n, n), dtype=complex)
    drifts = np.empty_like(states)
    bsq_nodes = np.zeros((paths, M + 1))
    ess_min = np.inf
    x = states[:, 0].copy()

    def node_bsq(b1, b2):
        return np.real(np.einsum("pmij,pmji->p", b1, b2)) / n

    for i in range(M + 1):
        t = grid[i]
        res = drift_core_array(
            spec, t, states[:, slot_nodes[slot_nodes < i]], x, inner, rng, c_tilt, u_ext,
            split=True,
        )
        b, b1, b2 = res["b"], res["b1"], res["b2"]
        if not res.get("deterministic", False):
            ess_min = min(ess_min, float(np.min(res["ess"])))
        if perturb != 0.0:
            z = sample_increment_array(n, m, 1.0, rng, batch=(paths,)) / np.sqrt(n)
            b = b + perturb * z
            b1 = b1 + perturb * z
            b2 = b2 + perturb * z
        drifts[:, i] = b
        bsq_nodes[:, i] = node_bsq(b1, b2)
        if i < M:
            dt = grid[i + 1] - grid[i]
            dh = sample_increment_array(n, m, dt, rng, batch=(paths,)) / np.sqrt(n)
            pred = x + dt * b + dh
            if heun:
                res2 = drift_core_array(
                    spec, grid[i + 1], states[:, slot_nodes[slot_nodes <= i]], pred,
                    inner, rng, c_tilt, u_ext,
                )
                b_corr = res2["b"]
                if perturb != 0.0:
                    b_corr = b_corr + perturb * z
                x = x + 0.5 * dt * (b + b_corr) + dh
            else:
                x = pred
            states[:, i + 1] = x
            _check_explosion(x, grid[i + 1])

    slot_states = states[:, slot_nodes]
    g_vals = np.real(eval_potential_array(spec, slot_states, u_ext))
    cost_vals = 0.5 * np.trapezoid(bsq_nodes, grid, axis=1)
    return {
        "grid": grid,
        "states": states,
        "drifts": drifts,
        "slot_states": slot_states,
        "terminal_values": g_vals,
        "control_costs": cost_vals,
        "per_path_total": g_vals + cost_vals,
        "min_ess": ess_min,
    }


def rhs_control_cost(
    spec: PotentialSpec,
    n: int,
    paths: int,
    grid_steps: int,
    mc_inner: int,
    rng: np.random.Generator,
    tilt="auto",
    perturb: float = 0.0,
    u_ext: Optional[np.ndarray] = None,
) -> ValueEstimate:
    """E[G at the controlled path's slots + (1/2) int ||b||_2^2 dt]."""
    bounded = all(c.quad == 0 for c in spec.components)
    if not (spec.effectively_convex or bounded):
        raise ValueError("control route needs a convex-mode or bounded spec")
    sim = simulate_controlled_paths(
        spec, n, paths, grid_steps, mc_inner, rng, tilt=tilt, perturb=perturb, u_ext=u_ext
    )
    vals = sim["per_path_total"]
    return ValueEstimate(
        value=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / np.sqrt(vals.size)),
        samples=int(vals.size),
        meta={
            "terminal_mean": float(sim["terminal_values"].mean()),
            "control_cost_mean": float(sim["control_costs"].mean()),
            "min_ess": sim["min_ess"],
        },
    )


@dataclass
class LaplaceReport:
    n_list: list
    lhs: list  # ValueEstimate per n (may hold None where infeasible)
    rhs: list  # ValueEstimate per n
    gaps: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    extrapolated: Optional[float] = None
    config: dict = field(default_factory=dict)

    def finalize(self):
        self.gaps, self.flags = [], []
        for le, re in zip(self.lhs, self.rhs):
            if le is None or re is None:
                self.gaps.append(None)
                self.flags.append("skipped")
                continue
            gap = le.value - re.value
            tol = 3.0 * np.hypot(le.stderr, re.stderr)
            self.gaps.append(gap)
            self.flags.append("pass" if abs(gap) <= tol else "fail")
        xs, ys = [], []
        for nv, le in zip(self.n_list, self.lhs):
            if le is not None:
                xs.append(1.0 / nv**2)
                ys.append(le.value)
        if len(xs) >= 2:
            self.extrapolated = float(np.polyfit(xs, ys, 1)[1])
        elif ys:
            self.extrapolated = float(ys[0])
        return self

    def as_dict(self) -> dict:
        def ve(e):
            if e is None:
                return None
            return {"value": e.value, "stderr": e.stderr, "samples": e.samples}

        return {
            "n_list": list(self.n_list),
            "lhs": [ve(e) for e in self.lhs],
            "rhs": [ve(e) for e in self.rhs],
            "gaps": self.gaps,
            "flags": self.flags,
            "extrapolated": self.extrapolated,
            "config": self.config,
        }

    def csv_rows(self) -> list:
        rows = [("n", "lhs", "lhs_err", "rhs", "rhs_err", "gap", "flag")]
        for nv, le, re, gap, flag in zip(self.n_list, self.lhs, self.rhs, self.gaps, self.flags):
            rows.append(
                (
                    nv,
                    "" if le is None else le.value,
                    "" if le is None else le.stderr,
                    "" if re is None else re.value,
                    "" if re is None else re.stderr,
                    "" if gap is None else gap,
                    flag,
                )
            )
        return rows


def n_convergence(
    spec: PotentialSpec,
    n_list,
    budgets: dict,
    seed: int,
    tilt="auto",
    u_ext=None,
) -> LaplaceReport:
    """lhs and rhs per matrix size, with pass/fail gap flags and an
    extrapolated 1/n^2 trend of the lhs."""
    from .matrix_core import stream

    samples = budgets.get("samples", 20000)
    paths = budgets.get("paths", 64)
    inner = budgets.get("inner", 128)
    grid_steps = budgets.get("grid_steps", 48)
    lhs, rhs = [], []
    regimes = {}
    for w, nv in enumerate(n_list):
        rng_l = stream(seed, worker=10 * w)
        rng_r = stream(seed, worker=10 * w + 1)
        regimes[int(nv)] = spread_nats(spec, nv, stream(seed, worker=10 * w + 2))
        try:
            lhs.append(lhs_log_laplace(spec, nv, samples, rng_l, tilt=tilt, u_ext=u_ext))
        except EstimatorUnderflow:
            lhs.append(None)
        rhs.append(
            rhs_control_cost(
                spec, nv, paths, grid_steps, inner, rng_r, tilt=tilt, u_ext=u_ext
            )
        )
    # grid-refinement study at the smallest size: rhs on a halved grid
    nv0 = n_list[0]
    coarse = rhs_control_cost(
        spec, nv0, paths, max(grid_steps // 2, 4), inner,
        stream(seed, worker=9001), tilt=tilt, u_ext=u_ext,
    )
    refinement = {
        "n": int(nv0),
        "coarse_steps": max(grid_steps // 2, 4),
        "fine_steps": grid_steps,
        "coarse_value": coarse.value,
        "fine_value": rhs[0].value,
        "difference": coarse.value - rhs[0].value,
    }
    report = LaplaceReport(
        n_list=list(n_list),
        lhs=lhs,
        rhs=rhs,
        config={
            "budgets": budgets,
            "seed": seed,
            "spread_nats": regimes,
            "grid_refinement": refinement,
        },
    )
    return report.finalize()
