"""MCMC sampling of matrix Gibbs ensembles, score fields, and diagnostics.

The target density on k slots of m-tuples (normalized scale) is

    p(x) ~ exp(-n^2 [ G(x) + bridge(x) ])

with ``bridge`` the Gaussian-increment quadratic form of the slot times.
The score in matrix form (gradient of log p under the unnormalized trace
pairing) is

    Xi_j = -n [ grad_j G + (x_j - x_{j-1})/(t_j - t_{j-1})
                          - (x_{j+1} - x_j)/(t_{j+1} - t_j) ]

(the last difference absent for j = k).  The conjugate-variable candidate
paired in the Schwinger-Dyson residual is -Xi/n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .matrix_core import HermitianTuple, _embed_array, _unembed_array
from .nc_poly import NCPolynomial, bitrace_array, eval_poly_array, free_difference_quotient
from .potentials import (
    PotentialSpec,
    _bridge,
    _evaluate,
    brownian_slot_sample,
    gradient_bridge_potential_array,
    gradient_potential_array,
)
from .value_function import ValueEstimate


class AcceptanceCollapse(RuntimeError):
    pass


def score_array(spec: PotentialSpec, slots: np.ndarray, u_ext=None) -> np.ndarray:
    """Matrix-form score of the Gibbs density, shape like ``slots``."""
    g = gradient_potential_array(spec, slots, u_ext)
    br = gradient_bridge_potential_array(spec.times, slots)
    n = slots.shape[-1]
    return -n * (g + br)


def score_field(spec: PotentialSpec, xs, u_ext=None):
    """Score per slot for one tuple per time slot (list of HermitianTuple)."""
    slots = np.stack([x.data for x in xs], axis=0)
    s = score_array(spec, slots, u_ext)
    return [HermitianTuple(s[j]) for j in range(spec.k)]


def conjugate_candidate_array(spec: PotentialSpec, slots: np.ndarray, u_ext=None) -> np.ndarray:
    """-Xi/n: the finite-size conjugate-variable candidate per slot."""
    n = slots.shape[-1]
    return -score_array(spec, slots, u_ext) / n


@dataclass
class GibbsEnsemble:
    spec: PotentialSpec
    n: int
    step: float = 0.1
    u_ext: Optional[np.ndarray] = None
    state: Optional[np.ndarray] = None  # (k, m, n, n)
    accepted: int = 0
    proposed: int = 0
    target_acceptance: float = 0.574

    def __post_init__(self):
        if self.state is None:
            self.state = np.zeros((self.spec.k, self.spec.m, self.n, self.n), dtype=complex)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else float("nan")


def _log_density_and_score(ens: GibbsEnsemble, slots: np.ndarray) -> tuple[float, np.ndarray]:
    """Log density at one state and its score in embedded coordinates, from one pass each
    of the potential and the bridge form."""
    n, times = ens.n, ens.spec.times
    _, val, g = _evaluate(ens.spec, slots[None], ens.u_ext, grad=True)
    bridge_val, bridge_grad = _bridge(times, slots[None])  # the spec's times are validated
    logp = -float(n * n * (val[0] + bridge_val[0]))
    xi = -n * (g + bridge_grad)  # score_array's formula
    return logp, _embed_array(xi[0]).ravel()


def _embed_state(slots: np.ndarray) -> np.ndarray:
    return _embed_array(slots).ravel()


def _unembed_state(v: np.ndarray, k: int, m: int, n: int) -> np.ndarray:
    return _unembed_array(v.reshape(k, m * n * n), n, m)


def _log_proposal(v_to: np.ndarray, v_from: np.ndarray, grad_from: np.ndarray, eps: float) -> float:
    """log q(v_to | v_from) of the Langevin proposal, up to a constant."""
    return -float(np.sum((v_to - v_from - 0.5 * eps**2 * grad_from) ** 2)) / (2 * eps**2)


def mala_log_ratio(ens: GibbsEnsemble, slots_a: np.ndarray, slots_b: np.ndarray) -> float:
    """log of the acceptance ratio for a proposed move a -> b (MALA kernel)."""
    eps = ens.step
    va, vb = _embed_state(slots_a), _embed_state(slots_b)
    la, ga = _log_density_and_score(ens, slots_a)
    lb, gb = _log_density_and_score(ens, slots_b)
    return lb - la + _log_proposal(va, vb, gb, eps) - _log_proposal(vb, va, ga, eps)


def mala_sample(
    ens: GibbsEnsemble,
    steps: int,
    rng: np.random.Generator,
    burn_in: Optional[int] = None,
    thin: int = 5,
    adapt: bool = True,
) -> tuple:
    """Metropolis-adjusted Langevin chain targeting the ensemble density.

    Returns (samples, diagnostics): samples (S, k, m, n, n) thinned after
    burn-in; diagnostics carry acceptance rate, tuned step, and an
    autocorrelation-based effective sample size of tau(X_1^2).
    """
    k, m, n = ens.spec.k, ens.spec.m, ens.n
    burn_in = steps // 4 if burn_in is None else burn_in
    if burn_in < 0 or thin < 1:
        raise ValueError(f"need burn_in >= 0 and thin >= 1, got {burn_in} and {thin}")
    v = _embed_state(ens.state)
    slots = ens.state
    logp, grad = _log_density_and_score(ens, slots)
    eps = ens.step
    kept = range(burn_in, steps, thin)  # iterations whose state is kept
    samples = np.empty((len(kept),) + slots.shape, dtype=complex)
    track = []
    window_acc = []
    for it in range(steps):
        xi = rng.standard_normal(v.size)
        v_prop = v + 0.5 * eps**2 * grad + eps * xi
        slots_prop = _unembed_state(v_prop, k, m, n)
        logp_prop, grad_prop = _log_density_and_score(ens, slots_prop)
        fwd = _log_proposal(v_prop, v, grad, eps)
        bwd = _log_proposal(v, v_prop, grad_prop, eps)
        log_alpha = logp_prop - logp + bwd - fwd
        ens.proposed += 1
        accept = np.log(rng.uniform()) < log_alpha
        if accept:
            v, slots, logp, grad = v_prop, slots_prop, logp_prop, grad_prop
            ens.accepted += 1
        window_acc.append(1.0 if accept else 0.0)
        if adapt and it < burn_in and (it + 1) % 25 == 0:
            rate = float(np.mean(window_acc[-25:]))
            eps *= float(np.exp(0.4 * (rate - ens.target_acceptance)))
        if it in kept:
            samples[len(track)] = slots
            track.append(float(np.sum(np.abs(slots[0]) ** 2) / n))
    ens.state = slots
    ens.step = eps
    rate = ens.acceptance_rate
    if rate < 0.05:
        raise AcceptanceCollapse(
            f"acceptance rate {rate:.3f} < 5%; reduce the step size or check the potential scaling"
        )
    if not kept:
        raise ValueError(f"no sample kept: burn_in {burn_in} >= steps {steps}")
    diag = {
        "acceptance": rate,
        "step": eps,
        "ess": _ess_autocorr(np.asarray(track)),
        "draws": len(kept),
        "trace_norm2": track,
    }
    return samples, diag


def rhat(chain_series: list) -> float:
    """Split-chain potential scale reduction factor over scalar traces."""
    halves = []
    for s in chain_series:
        s = np.asarray(s, dtype=float)
        h = s.size // 2
        if h < 2:
            raise ValueError("chains too short for R-hat")
        halves.extend([s[:h], s[h : 2 * h]])
    arr = np.stack(halves)  # (2c, h)
    c, h = arr.shape
    means = arr.mean(axis=1)
    w = arr.var(axis=1, ddof=1).mean()
    b = h * means.var(ddof=1)
    var_plus = (h - 1) / h * w + b / h
    return float(np.sqrt(var_plus / w)) if w > 0 else float("nan")


def _ess_autocorr(series: np.ndarray, max_lag: int = 200) -> float:
    """Initial-positive-sequence effective sample size estimate."""
    s = series - series.mean()
    if s.size < 8 or np.allclose(s, 0):
        return float(s.size)
    var = float(s @ s) / s.size
    if var == 0:
        return float(s.size)
    tau = 1.0
    for lag in range(1, min(max_lag, s.size // 2)):
        rho = float(s[:-lag] @ s[lag:]) / ((s.size - lag) * var)
        if rho <= 0.0:
            break
        tau += 2.0 * rho
    return float(s.size / tau)


def exact_gaussian_slots(
    times, n: int, m: int, rng: np.random.Generator, draws: int
) -> np.ndarray:
    """Exact samples of the g = 0 ensemble (Brownian slot marginals)."""
    return brownian_slot_sample(times, n, m, rng, batch=(draws,))


def sd_residual(
    samples: np.ndarray,
    spec: PotentialSpec,
    test_poly: NCPolynomial,
    i: int,
    u_ext=None,
) -> ValueEstimate:
    """Integration-by-parts residual of the conjugate-variable candidate.

    Per sample:  tau(candidate_i * P)  -  (tau (x) tau)(d_i P),
    which vanishes in expectation for exact samples of the ensemble.
    ``i`` is the flat (slot, matrix) letter index of the polynomial.
    """
    n = samples.shape[-1]
    k, m = spec.k, spec.m
    flat = samples.reshape(samples.shape[:-4] + (k * m, n, n))
    cand = conjugate_candidate_array(spec, samples, u_ext)
    cand_flat = cand.reshape(cand.shape[:-4] + (k * m, n, n))
    pv = eval_poly_array(test_poly, flat, u_ext)
    lhs = np.real(np.einsum("...ij,...ji->...", cand_flat[..., i - 1, :, :], pv)) / n
    tp = free_difference_quotient(test_poly, i)
    rhs = np.real(bitrace_array(tp, flat, u_ext))
    diffs = lhs - rhs
    return ValueEstimate(
        value=float(diffs.mean()),
        stderr=float(diffs.std(ddof=1) / np.sqrt(diffs.size)),
        samples=int(diffs.size),
    )


def concentration_stats(
    samples: np.ndarray,
    observable: NCPolynomial,
    u_ext=None,
    moments: tuple = (4,),
) -> dict:
    """Variance of (1/n)Tr(observable), centered matrix moments, and
    operator-norm tail statistics over a sample set (S, k, m, n, n)."""
    n = samples.shape[-1]
    k, m = samples.shape[-4], samples.shape[-3]
    flat = samples.reshape(samples.shape[:-4] + (k * m, n, n))
    tr = np.real(np.trace(eval_poly_array(observable, flat, u_ext), axis1=-2, axis2=-1)) / n
    mean_matrix = flat.mean(axis=0)  # per flat slot
    centered = flat - mean_matrix
    cm = {}
    for p in moments:
        acc = centered
        power = centered
        for _ in range(p - 1):
            power = power @ centered
        cm[p] = float(np.real(np.trace(power, axis1=-2, axis2=-1)).mean() / n)
    eigs = np.linalg.eigvalsh(flat)
    opnorm = np.abs(eigs).max(axis=(-1, -2))
    return {
        "trace_mean": float(tr.mean()),
        "trace_var": float(tr.var(ddof=1)),
        "trace_var_stderr": float(tr.var(ddof=1) * np.sqrt(2.0 / max(tr.size - 1, 1))),
        "centered_matrix_moments": cm,
        "opnorm_mean": float(opnorm.mean()),
        "opnorm_max": float(opnorm.max()),
        "draws": int(tr.size),
    }
