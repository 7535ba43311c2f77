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


def _log_density_and_score(ens: GibbsEnsemble, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log densities at states (C, k, m, n, n) and their scores in embedded coordinates
    (C, k*m*n*n), from one pass each of the potential and the bridge form."""
    n, times = ens.n, ens.spec.times
    _, val, g = _evaluate(ens.spec, slots, ens.u_ext, grad=True)
    bridge_val, bridge_grad = _bridge(times, slots)  # the spec's times are validated
    logp = -(n * n * (val + bridge_val))
    xi = -n * (g + bridge_grad)  # score_array's formula
    return logp, _embed_state(xi)


def _embed_state(slots: np.ndarray) -> np.ndarray:
    """(..., k, m, n, n) states -> (..., k*m*n*n) real coordinates."""
    return _embed_array(slots).reshape(slots.shape[:-4] + (-1,))


def _unembed_state(v: np.ndarray, k: int, m: int, n: int) -> np.ndarray:
    return _unembed_array(v.reshape(v.shape[:-1] + (k, m * n * n)), n, m)


def _log_proposal(v_to: np.ndarray, v_from: np.ndarray, grad_from: np.ndarray, eps_sq: np.ndarray) -> np.ndarray:
    """log q(v_to | v_from) of the Langevin proposal, up to a constant, per leading index
    of ``eps_sq`` (the squared steps)."""
    drift = 0.5 * eps_sq[..., None] * grad_from
    return -np.sum((v_to - v_from - drift) ** 2, axis=-1) / (2 * eps_sq)


def _squares(eps: list) -> np.ndarray:
    # C pow, as Python's float ** 2: numpy's vectorised square differs from it
    # in the last bit about once in a thousand
    return np.array([e**2 for e in eps])


def mala_log_ratio(ens: GibbsEnsemble, slots_a: np.ndarray, slots_b: np.ndarray) -> float:
    """log of the acceptance ratio for a proposed move a -> b (MALA kernel)."""
    both = np.stack([slots_a, slots_b])
    (va, vb), (la, lb), (ga, gb) = _embed_state(both), *_log_density_and_score(ens, both)
    eps_sq = _squares([ens.step])[0]
    return float(lb - la + _log_proposal(va, vb, gb, eps_sq) - _log_proposal(vb, va, ga, eps_sq))


def mala_sample(
    ens,
    steps: int,
    rng,
    burn_in: Optional[int] = None,
    thin: int = 5,
    adapt: bool = True,
) -> tuple:
    """Metropolis-adjusted Langevin chains targeting the ensemble density.

    ``ens`` and ``rng`` are one GibbsEnsemble and its Generator, or equal-length
    sequences of them, one per chain, sharing spec, n and u_ext.  The chains
    step together along a leading axis, one potential pass per step for all
    proposals.  Each chain draws its normals, then its accept uniform, from its
    own Generator and adapts its own step over 25-step windows of burn-in, so
    its samples do not depend on the other chains in the call.

    Returns (samples, diagnostics).  For one ensemble: samples (S, k, m, n, n)
    thinned after burn-in; diagnostics carry acceptance rate, tuned step, an
    autocorrelation-based effective sample size of tau(X_1^2), the draw count
    and the tau(X_1^2) trace.  For sequences: samples (C, S, k, m, n, n) and
    {"acceptance": mean over chains, "chains": [one such dict per chain]}.
    """
    single = isinstance(ens, GibbsEnsemble)
    ensembles, rngs = ([ens], [rng]) if single else (list(ens), list(rng))
    if not ensembles or len(ensembles) != len(rngs):
        raise ValueError(f"need one Generator per ensemble, got {len(ensembles)} and {len(rngs)}")
    first = ensembles[0]
    if any(e.spec != first.spec or e.n != first.n or e.u_ext is not first.u_ext for e in ensembles):
        raise ValueError("batched chains must share spec, n and u_ext")
    k, m, n = first.spec.k, first.spec.m, first.n
    burn_in = steps // 4 if burn_in is None else burn_in
    if burn_in < 0 or thin < 1:
        raise ValueError(f"need burn_in >= 0 and thin >= 1, got {burn_in} and {thin}")
    slots = np.stack([e.state for e in ensembles])
    v = _embed_state(slots)
    logp, grad = _log_density_and_score(first, slots)
    eps = [e.step for e in ensembles]
    eps_sq = _squares(eps)
    kept = range(burn_in, steps, thin)  # iterations whose state is kept
    chains = len(ensembles)
    samples = np.empty((chains, len(kept)) + slots.shape[1:], dtype=complex)
    track = np.empty((chains, len(kept)))
    window = np.zeros((chains, 25))  # accept indicators of the last 25 steps
    accepted = np.zeros(chains, dtype=int)
    for it in range(steps):
        xi = np.stack([r.standard_normal(v.shape[-1]) for r in rngs])
        v_prop = v + 0.5 * eps_sq[:, None] * grad + np.array(eps)[:, None] * xi
        slots_prop = _unembed_state(v_prop, k, m, n)
        logp_prop, grad_prop = _log_density_and_score(first, slots_prop)
        fwd = _log_proposal(v_prop, v, grad, eps_sq)
        bwd = _log_proposal(v, v_prop, grad_prop, eps_sq)
        log_alpha = logp_prop - logp + bwd - fwd
        accept = np.array([np.log(r.uniform()) for r in rngs]) < log_alpha
        v[accept], slots[accept] = v_prop[accept], slots_prop[accept]
        logp[accept], grad[accept] = logp_prop[accept], grad_prop[accept]
        accepted += accept
        window[:, it % 25] = accept
        if adapt and it < burn_in and (it + 1) % 25 == 0:
            for c, rate in enumerate(window.mean(axis=1)):
                eps[c] *= float(np.exp(0.4 * (rate - ensembles[c].target_acceptance)))
            eps_sq = _squares(eps)
        if it in kept:
            j = (it - burn_in) // thin
            samples[:, j] = slots
            track[:, j] = np.sum(np.abs(slots[:, 0]) ** 2, axis=(-1, -2, -3)) / n
    for c, e in enumerate(ensembles):
        e.state, e.step = slots[c], eps[c]
        e.proposed, e.accepted = e.proposed + steps, e.accepted + int(accepted[c])
    collapsed = [e.acceptance_rate for e in ensembles if e.acceptance_rate < 0.05]
    if collapsed:
        raise AcceptanceCollapse(
            f"acceptance rate {collapsed[0]:.3f} < 5%; reduce the step size or check the potential scaling"
        )
    if not kept:
        raise ValueError(f"no sample kept: burn_in {burn_in} >= steps {steps}")
    diags = [
        {"acceptance": e.acceptance_rate, "step": e.step, "ess": _ess_autocorr(track[c]),
         "draws": len(kept), "trace_norm2": track[c].tolist()}
        for c, e in enumerate(ensembles)
    ]
    if single:
        return samples[0], diags[0]
    return samples, {"acceptance": float(np.mean([d["acceptance"] for d in diags])), "chains": diags}


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
