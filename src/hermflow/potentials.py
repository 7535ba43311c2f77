"""Convex trace potentials on matrix tuples and their exact gradients.

A potential acts on k time slots of m-tuples of n x n Hermitian matrices
(all at the normalized scale, tau = (1/n)Tr):

    g(x) = D + ( sum_i g_i(x)^p )^(1/p),      p in [2, inf]
    g_i(x) = D_i + C_i * sum_{j,l} tau((x_j^l)^2) + Re(lambda_i * tau(word_i))

Words are noncommutative monomials/polynomials in the Cayley unitaries
u(x_j^l)^{+-1} of the slot matrices and in fixed external unitaries v_r.
A flat letter index i refers to slot j = (i-1)//m + 1 and matrix
l = (i-1)%m + 1.

Gradients are exact matrix calculus.  Differentiating a Cayley letter uses

    d u(X)^eps [K] = -(eps / 8i) (u^eps - 1) K (u^eps - 1),

so each occurrence of a Cayley letter contributes a resolvent-product term.
A word term u_j^{eps k} (one Cayley letter, one sign, k >= 1) has commuting
letters, so its k terms are one:

    grad tau(u^{eps k}) = k * -(eps / 8i) (u^eps - 1) u^{eps(k-1)} (u^eps - 1),

with u^{eps(k-1)} the prefix product the value already builds.
Gradients pair with the normalized inner product <A, B> = sum_l (1/n) Tr(A_l B_l).
"""

from __future__ import annotations

import json
import math
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .matrix_core import (
    HermitianTuple,
    UnitaryTuple,
    hermitize,
    norm2_array,
    sample_increment_array,
)
from .nc_poly import NCPolynomial, _letter_matrices, parse_word, word_to_text


@dataclass(frozen=True)
class PotentialComponent:
    offset: float  # D_i
    quad: float  # C_i
    coupling: complex = 0.0  # lambda_i
    word: NCPolynomial | None = None

    def __post_init__(self):
        if self.quad < 0:
            raise ValueError("quadratic coefficients must be nonnegative")
        if self.word is not None:
            if self.word.letter_indices("x"):
                raise ValueError("component words may only use Cayley (u) and external (v) letters")


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative potential over k time slots of m-tuples."""

    times: tuple
    components: tuple
    p: float = 2.0
    offset: float = 0.0  # D
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "components", tuple(self.components))
        ts = self.times
        if not ts:
            raise ValueError("need at least one time slot")
        if ts[0] <= 0 or ts[-1] > 1 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"times must be strictly increasing in (0, 1], got {ts}")
        if not (self.p >= 2):
            raise ValueError(f"p must lie in [2, inf], got {self.p}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        km = self.k * self.m
        for comp in self.components:
            if comp.word is not None:
                idx = comp.word.letter_indices("u")
                if idx and max(idx) > km:
                    raise ValueError(
                        f"word letter u{max(idx)} exceeds k*m = {km} slots*matrices"
                    )

    @property
    def k(self) -> int:
        return len(self.times)

    @property
    def convex_mode(self) -> bool:
        """All quadratic coefficients strictly positive."""
        return all(c.quad > 0 for c in self.components)

    @property
    def effectively_convex(self) -> bool:
        """Convex mode, allowing constant components (C = 0 without a word)."""
        return all(
            c.quad > 0 or (c.quad == 0 and (c.word is None or c.coupling == 0))
            for c in self.components
        )

    def quad_coefficient(self) -> float:
        """Aggregate quadratic coefficient (sum C_i^p)^(1/p); used for tilting."""
        cs = [c.quad for c in self.components]
        if not cs:
            return 0.0
        if math.isinf(self.p):
            return max(cs)
        return float(np.sum(np.power(cs, self.p)) ** (1.0 / self.p))


def quadratic_spec(c: float, times=(1.0,), m: int = 1, floor: float = 1.0) -> PotentialSpec:
    """Single-component pure quadratic c * sum_{j,l} tau(x_j,l^2) (+ floor offset)."""
    comp = PotentialComponent(offset=floor, quad=c)
    return PotentialSpec(times=times, components=(comp,), p=2.0, offset=-floor, m=m)


# -- evaluation ------------------------------------------------------------


def _flatten_slots(slots: np.ndarray) -> np.ndarray:
    """(..., k, m, n, n) -> (..., k*m, n, n) flat letter layout."""
    lead = slots.shape[:-4]
    k, m, n = slots.shape[-4], slots.shape[-3], slots.shape[-1]
    return slots.reshape(lead + (k * m, n, n))


def _evaluate(spec: PotentialSpec, slots: np.ndarray, u_ext=None, grad: bool = False):
    """One pass of the potential at slots (..., k, m, n, n).

    Solves each Cayley letter once and multiplies each word once: the word's
    trace comes from its last prefix product, associated left to right from
    the first letter as in :func:`eval_word_array`.  Returns the component
    values g_i (..., n_components), the value (...) and, when ``grad``, the
    exact gradient shaped like ``slots`` (pairing sum_{j,l} (1/n)Tr), else None.
    """
    if slots.shape[-4] != spec.k or slots.shape[-3] != spec.m:
        raise ValueError(
            f"slot layout {slots.shape[-4:]} does not match spec (k={spec.k}, m={spec.m})"
        )
    n = slots.shape[-1]
    flat = _flatten_slots(slots)
    lead = flat.shape[:-3]
    eye = np.broadcast_to(np.eye(n, dtype=complex), lead + (n, n))
    cache: dict = {}  # flat letter index -> its Cayley transform
    quad_sum = norm2_array(flat)  # sum_{j,l} tau(x^2)
    vals, word_grads = [], []
    for comp in spec.components:
        v = comp.offset + comp.quad * quad_sum
        terms = []  # per word term: (lambda * coeff, {flat index: un-hermitized grad of tau(word)})
        if comp.word is not None and comp.word.terms:
            acc = np.zeros(lead, dtype=complex)
            for w, c in comp.word.terms.items():
                mats = _letter_matrices(w, flat, u_ext, cache)
                products = accumulate(mats, np.matmul)  # prefix products, from the first letter on
                prefix = list(products) if grad else deque(products, maxlen=1)
                acc = acc + c * (np.trace(prefix[-1] if mats else eye, axis1=-2, axis2=-1) / n)
                if not grad:
                    continue
                if w and w[0][0] == "u" and w.count(w[0]) == len(w):
                    # u^{eps k}: the k letters commute, so the k rings are one, u^{eps(k-1)}
                    (_, idx, exp), a = w[0], mats[0] - eye
                    core = a @ prefix[-2] @ a if len(w) > 1 else a @ a
                    raw = {idx: (-len(w) * exp / (8j)) * core}
                else:
                    suffix = list(accumulate(reversed(mats), lambda s, mat: mat @ s))[::-1]
                    before, after = [eye] + prefix[:-1], suffix[1:] + [eye]  # letters < / > pos
                    raw: dict[int, np.ndarray] = {}
                    for pos, (kind, idx, exp) in enumerate(w):
                        if kind != "u":
                            continue
                        # d u^eps[K] = -(eps/8i)(u^eps - 1) K (u^eps - 1), closed cyclically
                        if 0 < pos < len(w) - 1:
                            ring = after[pos] @ before[pos]
                        else:  # an end letter: one side is the identity
                            ring = after[pos] if pos == 0 else before[pos]
                        a = mats[pos] - eye
                        raw[idx] = raw.get(idx, 0) + (-(exp) / (8j)) * (a @ ring @ a)
                terms.append((comp.coupling * c, raw))
            v = v + np.real(comp.coupling * acc)
        vals.append(v)
        word_grads.append(terms)
    g = np.stack(vals, axis=-1)

    if math.isinf(spec.p):
        value = g.max(axis=-1)
        if grad:  # the gradient of the max component (a.e.; ties broken by argmax)
            weights = np.eye(g.shape[-1])[np.argmax(g, axis=-1)]
    else:
        s = np.sum(np.power(g, spec.p), axis=-1)
        value = s ** (1.0 / spec.p)
        if grad:
            weights = np.power(g, spec.p - 1.0) * (s ** (1.0 / spec.p - 1.0))[..., None]
    if not grad:
        return g, spec.offset + value, None

    grad_flat = np.zeros(flat.shape, dtype=complex)
    for ci, comp in enumerate(spec.components):
        wgt = weights[..., ci]
        if comp.quad != 0.0:
            grad_flat += (2.0 * comp.quad) * wgt[..., None, None, None] * flat
        for lam, raw in word_grads[ci]:
            for idx, r in raw.items():
                grad_flat[..., idx - 1, :, :] += wgt[..., None, None] * hermitize(lam * r)
    return g, spec.offset + value, grad_flat.reshape(slots.shape)


def component_values_array(
    spec: PotentialSpec, slots: np.ndarray, u_ext: np.ndarray | None = None
) -> np.ndarray:
    """Per-component values g_i, shape (..., n_components)."""
    return _evaluate(spec, slots, u_ext)[0]


def eval_potential_array(
    spec: PotentialSpec, slots: np.ndarray, u_ext: np.ndarray | None = None
) -> np.ndarray:
    """Batched potential value for slots of shape (..., k, m, n, n)."""
    return _evaluate(spec, slots, u_ext)[1]


def _stack_slots(xs) -> np.ndarray:
    return np.stack([x.data for x in xs], axis=0)


def eval_potential(spec: PotentialSpec, xs, u: UnitaryTuple | None = None) -> float:
    """Potential value at one tuple per time slot."""
    if len(xs) != spec.k:
        raise ValueError(f"expected {spec.k} slot tuples, got {len(xs)}")
    u_ext = u.data if u is not None and u.count else None
    return float(eval_potential_array(spec, _stack_slots(xs), u_ext))


def gradient_potential_array(
    spec: PotentialSpec, slots: np.ndarray, u_ext: np.ndarray | None = None
) -> np.ndarray:
    """Exact gradient, shape like ``slots``, for the pairing sum_{j,l} (1/n)Tr(G_j,l K_j,l)."""
    return _evaluate(spec, slots, u_ext, grad=True)[2]


def gradient_potential(spec: PotentialSpec, xs, u: UnitaryTuple | None = None):
    """Gradient of :func:`eval_potential` as one HermitianTuple per slot."""
    u_ext = u.data if u is not None and u.count else None
    grads = gradient_potential_array(spec, _stack_slots(xs), u_ext)
    return [HermitianTuple(grads[j]) for j in range(spec.k)]


# -- Gaussian bridge potential ----------------------------------------------


def _bridge(times, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and tridiagonal gradient of the bridge form, from one loop over the slots.

    Takes validated float ``times``; the gradient pairs by the scaled/HS-n pairing.
    """
    n = slots.shape[-1]
    prev_t, prev = 0.0, 0.0
    total = 0.0
    grad = np.zeros_like(slots)
    for j, t in enumerate(times):
        diff = slots[..., j, :, :, :] - prev
        total = total + np.sum(np.abs(diff) ** 2, axis=(-1, -2, -3)) / (n * (t - prev_t))
        step = diff / (t - prev_t)
        grad[..., j, :, :, :] += step
        if j > 0:
            grad[..., j - 1, :, :, :] -= step
        prev, prev_t = slots[..., j, :, :, :], t
    return 0.5 * total, grad


def eval_bridge_potential_array(times, slots: np.ndarray) -> np.ndarray:
    """Gaussian increment quadratic form (1/2) sum_l [tau(x_1^2)/t_1 + ...]."""
    ts = tuple(float(t) for t in times)
    if any(b <= a for a, b in zip(ts, ts[1:])) or ts[0] <= 0:
        raise ValueError(f"times must be strictly increasing and positive, got {ts}")
    if slots.shape[-4] != len(ts):
        raise ValueError("slot count does not match times")
    return _bridge(ts, slots)[0]


def eval_bridge_potential(times, xs) -> float:
    return float(eval_bridge_potential_array(times, _stack_slots(xs)))


def gradient_bridge_potential_array(times, slots: np.ndarray) -> np.ndarray:
    """Tridiagonal gradient of the bridge form (scaled/HS-n pairing)."""
    return _bridge(tuple(float(t) for t in times), slots)[1]


def gradient_bridge_potential(times, xs):
    g = gradient_bridge_potential_array(times, _stack_slots(xs))
    return [HermitianTuple(g[j]) for j in range(len(xs))]


# -- floor enforcement -------------------------------------------------------


def ensure_component_floor(
    spec: PotentialSpec, n: int, rng: np.random.Generator, pilot: int = 128
) -> tuple[PotentialSpec, list[float]]:
    """Shift component offsets so g_i >= 1 on a pilot Brownian sample.

    Returns the (possibly) shifted spec and the per-component shifts applied.
    A nonzero shift is reported with a warning; the class structurally
    assumes the floor.
    """
    slots = brownian_slot_sample(spec.times, n, spec.m, rng, batch=(pilot,))
    with np.errstate(invalid="ignore"):  # the combined value of a g_i < 0 at fractional p is NaN
        vals = component_values_array(spec, slots)
    mins = vals.min(axis=0)
    shifts = [max(0.0, 1.0 - float(v)) for v in mins]
    if all(s == 0.0 for s in shifts):
        return spec, shifts
    comps = tuple(
        PotentialComponent(c.offset + s, c.quad, c.coupling, c.word)
        for c, s in zip(spec.components, shifts)
    )
    warnings.warn(
        f"component floor g_i >= 1 violated on pilot sample; offsets shifted by {shifts}"
    )
    return (
        PotentialSpec(spec.times, comps, p=spec.p, offset=spec.offset, m=spec.m),
        shifts,
    )


def brownian_slot_sample(
    times, n: int, m: int, rng: np.random.Generator, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """Normalized Hermitian BM marginals at the given times, (batch, k, m, n, n)."""
    prev_t = 0.0
    cur = np.zeros(tuple(batch) + (m, n, n), dtype=complex)
    out = []
    for t in times:
        cur = cur + sample_increment_array(n, m, t - prev_t, rng, batch=tuple(batch)) / np.sqrt(n)
        out.append(cur)
        prev_t = t
    return np.stack(out, axis=-4)


# -- serialization -----------------------------------------------------------


def spec_to_dict(spec: PotentialSpec) -> dict:
    """The config form of ``spec``; a config word is one monomial with coefficient 1."""
    comps = []
    for i, c in enumerate(spec.components):
        terms = {} if c.word is None else c.word.terms
        if len(terms) > 1 or any(not w or coeff != 1 for w, coeff in terms.items()):
            raise ValueError(
                f"component {i}: word {c.word!r} is not a single nonempty monomial with "
                "coefficient 1, which is all a config can express"
            )
        entry = {
            "D": c.offset,
            "C": c.quad,
            "lambda_re": float(np.real(c.coupling)),
            "lambda_im": float(np.imag(c.coupling)),
            "word": word_to_text(next(iter(terms), ())),
        }
        comps.append(entry)
    return {
        "times": list(spec.times),
        "p": "inf" if math.isinf(spec.p) else spec.p,
        "D": spec.offset,
        "m": spec.m,
        "components": comps,
    }


def spec_from_dict(doc: dict) -> PotentialSpec:
    p = doc.get("p", 2.0)
    if isinstance(p, str):
        if p.lower() not in ("inf", "infinity"):
            raise ValueError(f"unrecognized p value {p!r}")
        p = math.inf
    comps = []
    for entry in doc.get("components", []):
        word_text = entry.get("word", "")
        word = parse_word(word_text) if word_text.strip() else None
        comps.append(
            PotentialComponent(
                offset=float(entry["D"]),
                quad=float(entry["C"]),
                coupling=complex(float(entry.get("lambda_re", 0.0)), float(entry.get("lambda_im", 0.0))),
                word=word,
            )
        )
    return PotentialSpec(
        times=tuple(doc["times"]),
        components=tuple(comps),
        p=float(p),
        offset=float(doc.get("D", 0.0)),
        m=int(doc.get("m", 1)),
    )


def spec_to_json(spec: PotentialSpec) -> str:
    return json.dumps(spec_to_dict(spec), sort_keys=True)


def spec_from_json(text: str) -> PotentialSpec:
    return spec_from_dict(json.loads(text))
