"""Monte Carlo value function and optimal drift for the controlled bridge.

The cost-to-go at time t with history (x_1, ..., x_i) at the slot times
below t and current state x is

    value(t, x) = -(1/n^2) log E[ exp(-n^2 V(x_1,...,x_i, x + z_{i+1}, ...)) ]

with z_j the remaining normalized Hermitian Brownian increments at the slot
times above t.  The optimal drift is minus its gradient under the
sum_l (1/n)Tr inner product.  One self-normalized estimator gives both from
the same weighted futures: ``value_h`` reduces the weights by a streaming
log-mean-exp, ``drift_core_array`` takes the weighted mean of the
slot-gradient sum (with an effective-sample-size diagnostic), its weights
and gradients coming from one pass of the potential kernel.
``drift_logratio`` defaults to no tilt, ``drift_gradexp`` to the automatic one.

Exponential weights concentrate brutally as n grows, so the futures come
from a quadratically tilted Gaussian bridge: the Gaussian part of the tilt
integrates in closed form and the sampled weights only carry the residual.
:func:`resolve_tilt` maps ``"auto"`` to the potential's aggregate quadratic
coefficient and None to 0 (the plain estimator).

Memory: a draw is scaled and shifted in the sampler's own output, and when
every slot lies in the future that buffer is the slot array itself, so one
chunk holds about one slot array plus real scratch (the sampler's block and
the half-size ``|y|^2`` of the norms).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .matrix_core import HermitianTuple, hermitize, norm2_array, sample_increment_array
from .potentials import PotentialSpec, _evaluate, eval_potential_array, gradient_potential_array

_TIME_TOL = 1e-12


class EstimatorUnderflow(RuntimeError):
    """Weights collapsed; advise a larger budget or an importance shift."""


def resolve_tilt(spec: PotentialSpec, tilt: Union[None, float, str]) -> float:
    """Tilt coefficient: None -> 0, "auto" -> ``spec.quad_coefficient()``, else the number."""
    if tilt is None:
        return 0.0
    if isinstance(tilt, str):
        if tilt != "auto":
            raise ValueError(f"unknown tilt {tilt!r}")
        return spec.quad_coefficient()
    c = float(tilt)
    if isinstance(tilt, bool) or not (math.isfinite(c) and c >= 0):
        raise ValueError(f"tilt must be None, 'auto' or a finite nonnegative number, got {tilt!r}")
    return c


@dataclass
class ValueEstimate:
    value: float
    stderr: float
    samples: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


@dataclass
class TupleEstimate:
    """A matrix-tuple Monte Carlo estimate with an aggregate scalar stderr."""

    tuple: HermitianTuple
    stderr: float
    samples: int
    meta: dict = field(default_factory=dict)


@dataclass
class ValueQuery:
    spec: PotentialSpec
    t: float
    history: list  # HermitianTuple per slot time strictly below t
    x: HermitianTuple
    samples: int
    rng: np.random.Generator
    tilt: Union[None, float, str] = None  # see resolve_tilt

    def __post_init__(self):
        times = self.spec.times
        i = sum(1 for s in times if s < self.t - _TIME_TOL)
        if not (self.t >= 0 and self.t <= times[-1] + _TIME_TOL):
            raise ValueError(f"t={self.t} outside [0, t_k]")
        if len(self.history) != i:
            raise ValueError(f"history length {len(self.history)} != {i} slots below t={self.t}")

    def tilt_coefficient(self) -> float:
        return resolve_tilt(self.spec, self.tilt)


# -- Gaussian future chain ---------------------------------------------------


@dataclass
class _FutureChain:
    """Per-real-coordinate Gaussian data for the (tilted) remaining slots.

    Each isometric coordinate of the future slot deviations z = (z_j)_j is
    N(0, Sigma) with Sigma_ab = (min(t_a, t_b) - t)/n under the prior; the
    quadratic tilt exp(-a sum_j (x_coord + z_j)^2) with a = n * c keeps the
    chain Gaussian with covariance Sigma (I + 2a Sigma)^{-1} and a mean
    proportional to the current state.
    """

    times: np.ndarray
    n: int
    c: float  # tilt coefficient; a = n * c
    a: float
    chol_t: np.ndarray
    mu_coef: np.ndarray  # tilted mean of z_j is mu_coef[j] * x
    logdet_term: float  # logdet(I + 2 a Sigma)
    quad_coef: float  # coefficient of sum-of-squared-coords(x) in log E[weight]

    @property
    def k_future(self) -> int:
        return self.times.size


def _build_chain(future_times: np.ndarray, t: float, n: int, c_tilt: float) -> _FutureChain:
    kf = future_times.size
    sigma = (np.minimum.outer(future_times, future_times) - t) / n
    a = n * c_tilt
    eye = np.eye(kf)
    core = eye + 2.0 * a * sigma
    sigma_t = sigma @ np.linalg.inv(core)
    sigma_t = 0.5 * (sigma_t + sigma_t.T)
    chol_t = np.linalg.cholesky(sigma_t)
    ones = np.ones(kf)
    st1 = sigma_t @ ones
    logdet = float(np.linalg.slogdet(core)[1])
    quad_coef = -a * kf + 2.0 * a * a * float(ones @ st1)
    return _FutureChain(
        times=np.asarray(future_times, dtype=float),
        n=n,
        c=c_tilt,
        a=a,
        chol_t=chol_t,
        mu_coef=-2.0 * a * st1,
        logdet_term=logdet,
        quad_coef=quad_coef,
    )


def _split_times(spec: PotentialSpec, t: float):
    times = np.asarray(spec.times)
    past = np.nonzero(times < t - _TIME_TOL)[0]
    here = np.nonzero(np.abs(times - t) <= _TIME_TOL)[0]
    future = np.nonzero(times > t + _TIME_TOL)[0]
    return past, here, future


def _log_weight_closed(chain: _FutureChain, x: np.ndarray, m: int) -> np.ndarray:
    """log E_prior[exp(-n^2 c sum_j tau((x+z_j)^2))], batched over x leads."""
    n = chain.n
    d = n * n * m
    sum_sq = np.sum(np.abs(x) ** 2, axis=(-1, -2, -3))  # = sum_l Tr(x_l^2)
    return -0.5 * d * chain.logdet_term + chain.quad_coef * sum_sq


def _sample_future(
    chain: _FutureChain, x: np.ndarray, m: int, rng: np.random.Generator, draws: int
) -> np.ndarray:
    """Future slot values y_j = x + z_j under the (tilted) chain.

    x: (..., m, n, n); returns (..., draws, k_future, m, n, n), built in the
    sampler's output (one extra array only for the k_future > 1 mixing).
    """
    n = chain.n
    kf = chain.k_future
    lead = x.shape[:-3]
    y = sample_increment_array(n, m, 1.0, rng, batch=lead + (draws, kf))
    if kf == 1:
        y *= chain.chol_t[0, 0]  # a 1 x 1 Cholesky factor scales the draws in place
    else:
        y = np.einsum("jb,...bmpq->...jmpq", chain.chol_t, y)
    mu = chain.mu_coef[:, None, None, None] * x[..., None, :, :, :]  # (..., kf, m, n, n)
    y += x[..., None, None, :, :, :]
    y += np.expand_dims(mu, axis=-5)
    return y


def _assemble_slots(
    spec: PotentialSpec, parts, history: np.ndarray, x: np.ndarray, y_future: np.ndarray
) -> np.ndarray:
    """Stack history / boundary / sampled future into (..., draws, k, m, n, n)."""
    past_idx, here_idx, future_idx = parts
    if len(future_idx) == spec.k:
        return y_future  # every slot is a future slot: the draw already has the slot layout
    lead = x.shape[:-3]
    draws = y_future.shape[-5]
    k, m, n = spec.k, spec.m, x.shape[-1]
    out = np.empty(lead + (draws, k, m, n, n), dtype=complex)
    for pos, j in enumerate(past_idx):
        out[..., j, :, :, :] = history[..., pos, :, :, :][..., None, :, :, :]
    for j in here_idx:
        out[..., j, :, :, :] = x[..., None, :, :, :]
    for pos, j in enumerate(future_idx):
        out[..., j, :, :, :] = y_future[..., pos, :, :, :]
    return out


def _stack_history(history) -> np.ndarray:
    if not history:
        return np.zeros((0,))
    return np.stack([h.data for h in history], axis=0)


def _terminal_slots(spec: PotentialSpec, parts, history: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The single slot array when no future slot is left, lead + (1, k, m, n, n)."""
    no_future = np.empty(x.shape[:-3] + (1, 0) + x.shape[-3:], dtype=complex)
    return _assemble_slots(spec, parts, history, x, no_future)


def _draw(
    spec: PotentialSpec,
    chain: _FutureChain,
    parts,
    history: np.ndarray,
    x: np.ndarray,
    draws: int,
    rng: np.random.Generator,
    u_ext: Optional[np.ndarray],
    grad: bool = False,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Sample the future slots and weight them.

    Returns the log-weights -n^2 (V - c sum_j tau(y_j^2)), lead + (draws,),
    i.e. the potential over the tilt whose Gaussian part
    :func:`_log_weight_closed` integrates, and, when ``grad``, the potential's
    gradient at the slots, lead + (draws, k, m, n, n), from the same pass.
    """
    n = x.shape[-1]
    y = _sample_future(chain, x, spec.m, rng, draws)
    y_norm2 = norm2_array(y.reshape(y.shape[:-4] + (-1, n, n)))
    slots = _assemble_slots(spec, parts, history, x, y)
    del y  # when slots is a copy, free the draw before the potential's temporaries
    _, v, grads = _evaluate(spec, slots, u_ext, grad)
    return -(n * n) * (v - chain.c * y_norm2), grads


# -- public estimators -------------------------------------------------------


def value_h(q: ValueQuery, u_ext: Optional[np.ndarray] = None, chunk: int = 50000) -> ValueEstimate:
    """Normalized cost-to-go (1/n^2) h_t at (history, x); see module docstring.

    Large budgets are processed in chunks with a running-max rescale of the
    weight accumulators (streaming log-mean-exp).  Only a chunk's log-weights
    outlive its draw, so memory is about one chunk's slot array
    (``chunk * k * m * n^2`` complex numbers) plus real scratch; with past or
    boundary slots the future draw is copied into it once.
    """
    spec, x = q.spec, q.x
    n = x.n
    parts = _split_times(spec, q.t)
    future = parts[2]
    hist = _stack_history(q.history)
    c_tilt = q.tilt_coefficient()

    if future.size == 0:
        slots = _terminal_slots(spec, parts, hist, x.data)
        val = float(eval_potential_array(spec, slots, u_ext)[0])
        return ValueEstimate(value=val, stderr=0.0, samples=0, meta={"deterministic": True})

    chain = _build_chain(np.asarray(spec.times)[future], q.t, n, c_tilt)
    gmax = -np.inf
    s1 = s2 = m2 = 0.0  # sum w, sum w^2, centered sum of squares, at scale e^gmax
    count = 0
    remaining = q.samples
    while remaining > 0:
        draws = min(remaining, chunk)
        remaining -= draws
        logw = _draw(spec, chain, parts, hist, x.data, draws, q.rng, u_ext)[0]
        cmax = float(logw.max())
        if not np.isfinite(cmax):
            raise EstimatorUnderflow(
                "all weights underflowed; increase the sample budget or use an importance tilt"
            )
        new_max = max(gmax, cmax)
        scale = np.exp(gmax - new_max) if np.isfinite(gmax) else 0.0
        s1 *= scale
        s2 *= scale * scale
        m2 *= scale * scale
        w = np.exp(logw - new_max)
        c1 = float(w.sum())
        s2 += float(w @ w)
        # Chan et al.'s pairwise update: the chunk's own centered sum of
        # squares plus the shift between the running and the chunk mean
        cmean = c1 / draws
        w -= cmean
        delta = cmean - s1 / count if count else 0.0
        m2 += float(w @ w) + delta * delta * count * draws / (count + draws)
        s1 += c1
        gmax = new_max
        count += draws

    # The largest weight is 1 after the rescale, so s1 < 2 means it carries
    # more than half the total.  Every weight set with an L2 ESS s1^2/s2 < 2
    # has s1 < 2 too, since s2 <= s1.
    mean_w = s1 / count
    ess = s1**2 / s2
    if s1 < 2.0:
        raise EstimatorUnderflow(
            f"the largest weight carries {1.0 / s1:.1%} of the total (effective sample "
            f"size {ess:.2f}); increase the budget or the tilt"
        )
    log_closed = float(_log_weight_closed(chain, x.data, spec.m))
    value = -(log_closed + gmax + float(np.log(mean_w))) / (n * n)
    var_w = m2 / max(count - 1, 1)
    rel = float(np.sqrt(var_w) / (np.sqrt(count) * mean_w))
    return ValueEstimate(value=value, stderr=rel / (n * n), samples=q.samples, meta={"ess": ess})


def drift_core_array(
    spec: PotentialSpec,
    t: float,
    history: np.ndarray,  # lead + (i, m, n, n), or shape (0,) when empty
    x: np.ndarray,  # lead + (m, n, n)
    draws: int,
    rng: np.random.Generator,
    c_tilt: float,
    u_ext: Optional[np.ndarray] = None,
    split: bool = False,
) -> dict:
    """Batched drift estimation over arbitrary leading state axes.

    Returns a dict with the full-batch drift ``b`` (lead + (m, n, n)),
    half-batch estimates ``b1``/``b2`` when ``split``, per-state ``stderr``
    and ``ess`` arrays, all under the sum_l (1/n)Tr pairing convention.
    """
    n = x.shape[-1]
    lead = x.shape[:-3]
    parts = _split_times(spec, t)
    _, here, future = parts

    if future.size == 0:
        grads = gradient_potential_array(spec, _terminal_slots(spec, parts, history, x), u_ext)
        b = hermitize(-np.sum(grads[..., 0, list(here), :, :, :], axis=-4))
        zeros = np.zeros(lead)
        return {"b": b, "b1": b, "b2": b, "stderr": zeros, "ess": zeros, "deterministic": True}

    chain = _build_chain(np.asarray(spec.times)[future], t, n, c_tilt)
    logw, grads = _draw(spec, chain, parts, history, x, draws, rng, u_ext, grad=True)
    live = list(here) + list(future)
    integ = -np.sum(grads[..., live, :, :, :], axis=-4)  # lead + (draws, m, n, n)

    def weighted_mean(sl):
        """Weights, their sum and the self-normalized mean of ``integ`` over draws ``sl``."""
        lw = logw[..., sl]
        mx = lw.max(axis=-1, keepdims=True)
        if not np.all(np.isfinite(mx)):
            raise EstimatorUnderflow("all weights underflowed; use a tilt or a larger budget")
        w = np.exp(lw - mx)
        sw = w.sum(axis=-1)
        b = np.einsum("...s,...smpq->...mpq", w, integ[..., sl, :, :, :])
        b /= sw[..., None, None, None]
        return w, sw, b

    w, sw, b = weighted_mean(slice(None))
    ess = sw**2 / np.einsum("...s,...s->...", w, w)
    dev = integ - b[..., None, :, :, :]
    infl = np.einsum("...s,...smpq->...mpq", w**2, np.abs(dev) ** 2)
    infl /= (sw**2)[..., None, None, None]
    stderr = np.sqrt(infl.sum(axis=(-1, -2, -3)) / n)
    out = {"b": hermitize(b), "stderr": stderr, "ess": ess, "deterministic": False}
    if split:  # the half-batch estimates need no diagnostics
        out["b1"] = hermitize(weighted_mean(slice(0, draws // 2))[2])
        out["b2"] = hermitize(weighted_mean(slice(draws // 2, draws))[2])
    else:
        out["b1"] = out["b2"] = out["b"]
    return out


def _drift(q: ValueQuery, c_tilt: float, u_ext: Optional[np.ndarray]) -> TupleEstimate:
    """Single-state drift estimate of :func:`drift_core_array` as a TupleEstimate."""
    res = drift_core_array(
        q.spec, q.t, _stack_history(q.history), q.x.data, q.samples, q.rng, c_tilt, u_ext
    )
    b = HermitianTuple(res["b"])
    if res["deterministic"]:
        return TupleEstimate(b, 0.0, 0, {"deterministic": True})
    ess = float(res["ess"])
    est = TupleEstimate(b, float(res["stderr"]), q.samples, {"ess": ess})
    if ess < 0.01 * max(q.samples, 1):
        est.meta["warning"] = f"effective sample size {ess:.1f} below 1% of budget"
    return est


def drift_logratio(q: ValueQuery, u_ext: Optional[np.ndarray] = None) -> TupleEstimate:
    """Optimal drift by the prior-weighted ratio estimator.

    Numerator and denominator share the same sampled futures.  Uses the
    query's tilt only if explicitly set (default: prior Brownian samples).
    """
    return _drift(q, q.tilt_coefficient(), u_ext)


def drift_gradexp(q: ValueQuery, u_ext: Optional[np.ndarray] = None) -> TupleEstimate:
    """Optimal drift as the tilted-bridge expectation of the slot-gradient sum.

    Self-normalized importance sampling under the quadratically tilted
    bridge; defaults to the automatic tilt when the query does not set one.
    """
    est = _drift(q, resolve_tilt(q.spec, "auto" if q.tilt is None else q.tilt), u_ext)
    if "warning" in est.meta:
        warnings.warn(est.meta["warning"])
    return est
