"""Hermitian matrix tuples, Gaussian increments, and real-coordinate embeddings.

Conventions used throughout the package:

* An *unscaled* Hermitian Brownian increment over a time step ``dt`` has
  diagonal entries N(0, dt) and off-diagonal real/imaginary parts each
  N(0, dt/2), so that E[Tr M_k^2] = n^2 * dt per matrix.
* Dynamic states live at the *normalized* scale X = B/sqrt(n), for which
  E[(1/n) Tr X_t^2] = t.  ``norm2`` below is the matching squared norm
  sum_k (1/n) Tr(x_k^2).
* The real embedding is isometric for the *unnormalized* Hilbert-Schmidt
  norm: ||embed(x)||^2 = sum_k Tr(x_k^2).

Sampling: :func:`sample_increment_array` draws n^2 standard normals per
matrix, one n x n real block ``a`` in stream order.  The diagonal of ``a``
gives the diagonal, its strict upper triangle the real parts and its strict
lower triangle the imaginary parts of the upper off-diagonal entries; the
lower entries are their exact conjugates.

Memory: :func:`sample_increment_array` allocates only its complex output
and a real scratch block of at most ``_BLOCK_NORMALS`` normals, and
:func:`norm2_array` needs one real array of half the input's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-12
_BLOCK_NORMALS = 1 << 18  # real scratch of sample_increment_array: 2 MiB


def stream(seed: int, worker: int = 0) -> np.random.Generator:
    """Counter-based RNG stream, reproducible given (seed, worker).

    Philox streams with distinct keys are statistically independent, so
    parallel Monte Carlo workers should each get their own ``worker`` index.
    """
    return np.random.Generator(np.random.Philox(key=(int(seed) & (2**64 - 1)) + (int(worker) << 64)))


def _check_hermitian(data: np.ndarray) -> None:
    scale = 1.0 + np.abs(data).max(initial=0.0)
    dev = np.abs(data - np.conj(np.swapaxes(data, -1, -2))).max(initial=0.0)
    if dev > HERMITIAN_RTOL * scale * 10:
        raise ValueError(f"matrices are not Hermitian (max deviation {dev:.3e})")


@dataclass
class HermitianTuple:
    """An m-tuple of dense n x n complex Hermitian matrices.

    ``data`` has shape (m, n, n).  Values are treated as immutable; all
    arithmetic returns fresh tuples.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 3 or self.data.shape[1] != self.data.shape[2]:
            raise ValueError(f"expected shape (m, n, n), got {self.data.shape}")
        if self.m < 1 or self.n < 1:
            raise ValueError("need m >= 1 and n >= 1")
        _check_hermitian(self.data)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, n: int, m: int) -> "HermitianTuple":
        return cls(np.zeros((m, n, n), dtype=complex))

    @classmethod
    def from_matrices(cls, *mats: np.ndarray) -> "HermitianTuple":
        return cls(np.stack([np.asarray(a, dtype=complex) for a in mats]))

    def copy(self) -> "HermitianTuple":
        return HermitianTuple(self.data.copy())

    def __add__(self, other: "HermitianTuple") -> "HermitianTuple":
        return HermitianTuple(self.data + other.data)

    def __sub__(self, other: "HermitianTuple") -> "HermitianTuple":
        return HermitianTuple(self.data - other.data)

    def __mul__(self, c: float) -> "HermitianTuple":
        return HermitianTuple(self.data * c)

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianTuple":
        return HermitianTuple(-self.data)


@dataclass
class RealCoords:
    """Real coordinates of a Hermitian tuple, dim = n^2 * m."""

    values: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n * self.n * self.m,):
            raise ValueError(
                f"dimension mismatch: expected {self.n * self.n * self.m}, got {self.values.shape}"
            )

    @property
    def dim(self) -> int:
        return self.values.size


@dataclass
class UnitaryTuple:
    """Fixed deterministic unitaries carried through word evaluation."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 3 or self.data.shape[1] != self.data.shape[2]:
            raise ValueError(f"expected shape (count, n, n), got {self.data.shape}")
        n = self.n
        eye = np.eye(n)
        for k in range(self.count):
            dev = np.abs(self.data[k] @ self.data[k].conj().T - eye).max()
            if dev > 1e-10:
                raise ValueError(f"entry {k} is not unitary (max |UU* - I| = {dev:.3e})")

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @classmethod
    def empty(cls, n: int) -> "UnitaryTuple":
        return cls(np.zeros((0, n, n), dtype=complex))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize to the nearest Hermitian matrix (batched over leading axes)."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def sample_increment_array(
    n: int, m: int, dt: float, rng: np.random.Generator, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """Unscaled Hermitian Brownian increments, shape batch + (m, n, n).

    E[Tr M_k^2] = n^2 * dt: diagonal entries N(0, dt), off-diagonal complex
    entries with real and imaginary parts each N(0, dt/2).

    Each matrix takes one n x n block ``a`` of n^2 standard normals, in
    stream order, and for i < j sets

        Re H_ii = sqrt(dt) a_ii,     Im H_ii = +0.0,
        Re H_ij = Re H_ji = sqrt(dt/2) a_ij,
        Im H_ij = -Im H_ji = sqrt(dt/2) a_ji,

    so the output is exactly Hermitian.  The blocks go through one reused
    real scratch of at most ``_BLOCK_NORMALS`` normals straight into the
    real and imaginary views of the complex output.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    h = np.empty(tuple(batch) + (m, n, n), dtype=complex)
    flat = h.reshape(-1, n, n)
    diag = h.reshape(-1, n * n)[:, :: n + 1]  # a view of every diagonal
    per_block = max(1, _BLOCK_NORMALS // (n * n))
    scratch = np.empty((min(per_block, flat.shape[0]), n, n))
    lower = np.tril(np.ones((n, n), dtype=bool), -1)
    s_diag, s_off = np.sqrt(dt), np.sqrt(0.5 * dt)
    for lo in range(0, flat.shape[0], per_block):
        a = scratch[: min(per_block, flat.shape[0] - lo)]
        hi = lo + a.shape[0]
        rng.standard_normal(out=a)
        d = np.diagonal(a, axis1=-2, axis2=-1) * s_diag
        a *= s_off
        at = np.swapaxes(a, -1, -2)
        re, im = flat.real[lo:hi], flat.imag[lo:hi]
        np.copyto(re, a)
        np.copyto(re, at, where=lower)
        np.copyto(im, at)
        np.negative(a, out=im, where=lower)
        diag.real[lo:hi] = d
        diag.imag[lo:hi] = 0.0
    return h


def sample_increment(n: int, m: int, dt: float, rng: np.random.Generator) -> HermitianTuple:
    """One unscaled Hermitian Brownian increment as a HermitianTuple."""
    return HermitianTuple(sample_increment_array(n, m, dt, rng))


def _embed_array(data: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of (..., m, n, n) Hermitian arrays."""
    n = data.shape[-1]
    iu, ju = np.triu_indices(n, k=1)
    diag = np.real(np.diagonal(data, axis1=-2, axis2=-1))
    off = data[..., iu, ju]
    sq2 = np.sqrt(2.0)
    return np.concatenate(
        [diag, sq2 * np.real(off), sq2 * np.imag(off)], axis=-1
    ).reshape(data.shape[:-3] + (-1,))


def _unembed_array(values: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of :func:`_embed_array` for (..., n*n*m) real arrays."""
    per = n * n
    lead = values.shape[:-1]
    if values.shape[-1] != per * m:
        raise ValueError(f"dimension mismatch: expected {per * m}, got {values.shape[-1]}")
    v = values.reshape(lead + (m, per))
    iu, ju = np.triu_indices(n, k=1)
    k = iu.size
    diag = v[..., :n]
    re = v[..., n : n + k] / np.sqrt(2.0)
    im = v[..., n + k :] / np.sqrt(2.0)
    out = np.zeros(lead + (m, n, n), dtype=complex)
    idx = np.arange(n)
    out[..., idx, idx] = diag
    out[..., iu, ju] = re + 1j * im
    out[..., ju, iu] = re - 1j * im
    return out


def real_embedding(x: HermitianTuple) -> RealCoords:
    """Isometric bijection onto R^(n^2 m): ||embed(x)||^2 = sum_k Tr(x_k^2)."""
    return RealCoords(_embed_array(x.data), n=x.n, m=x.m)


def real_embedding_inverse(coords: RealCoords) -> HermitianTuple:
    return HermitianTuple(_unembed_array(coords.values, coords.n, coords.m))


def cayley(x: np.ndarray) -> np.ndarray:
    """Cayley transform (X + 4i)(X - 4i)^{-1} of a Hermitian matrix (batched)."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    eye = np.eye(n)
    return np.swapaxes(
        np.linalg.solve(np.swapaxes(x - 4j * eye, -1, -2), np.swapaxes(x + 4j * eye, -1, -2)),
        -1,
        -2,
    )


def cayley_inverse(u: np.ndarray) -> np.ndarray:
    """Recover X = 4i (u + 1)(u - 1)^{-1} from its Cayley transform."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[-1]
    eye = np.eye(n)
    # (u+1) and (u-1)^{-1} commute, so solve on the left.
    return hermitize(4j * np.linalg.solve(u - eye, u + eye))


def norm2_array(data: np.ndarray) -> np.ndarray:
    """sum_k (1/n) Tr(x_k^2) for (..., m, n, n) Hermitian arrays."""
    n = data.shape[-1]
    sq = np.abs(data)
    np.square(sq, out=sq)  # Tr(x^2) = sum |x_ij|^2 for Hermitian x
    return sq.sum(axis=(-1, -2, -3)) / n


def hs_norm2(x: HermitianTuple) -> float:
    """Squared norm sum_k (1/n) Tr(x_k^2) (the matrix-tuple Euclidean norm)."""
    return float(norm2_array(x.data))


def hs_inner(x: HermitianTuple, y: HermitianTuple) -> float:
    """Inner product sum_k (1/n) Re Tr(x_k y_k) matching :func:`hs_norm2`."""
    n = x.n
    return float(np.real(np.einsum("kij,kji->", x.data, y.data)) / n)


def normalized_trace_array(data: np.ndarray) -> np.ndarray:
    """(1/n) Tr per matrix, shape (..., m) for input (..., m, n, n)."""
    n = data.shape[-1]
    return np.trace(data, axis1=-2, axis2=-1) / n
