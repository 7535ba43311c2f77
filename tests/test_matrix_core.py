import tracemalloc

import numpy as np
import pytest

from hermflow import matrix_core
from hermflow.matrix_core import (
    HermitianTuple,
    UnitaryTuple,
    cayley,
    cayley_inverse,
    hs_norm2,
    norm2_array,
    real_embedding,
    real_embedding_inverse,
    sample_increment,
    sample_increment_array,
    stream,
)


def catalan(p: int) -> int:
    """Independent oracle: Catalan recursion C_0=1, C_{p+1} = sum C_i C_{p-i}."""
    c = [1]
    for k in range(p):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c[p]


def random_tuple(n, m, rng, scale=1.0):
    return HermitianTuple(sample_increment_array(n, m, 1.0, rng) * scale)


def block_draw_increment(n, m, dt, rng, batch=()):
    """Reference sampler: one real normal array a, then for i < j
    Re h_ii = sqrt(dt) a_ii, Re h_ij = Re h_ji = sqrt(dt/2) a_ij,
    Im h_ij = -Im h_ji = sqrt(dt/2) a_ji and Im h_ii = 0."""
    a = rng.standard_normal(tuple(batch) + (m, n, n))
    at = np.swapaxes(a, -1, -2)
    i, j = np.indices((n, n))
    s_diag, s_off = np.sqrt(dt), np.sqrt(dt / 2)
    re = np.where(i == j, s_diag * a, np.where(i < j, s_off * a, s_off * at))
    im = np.where(i == j, 0.0, np.where(i < j, s_off * at, -(s_off * a)))
    h = np.empty(re.shape, dtype=complex)
    h.real, h.imag = re, im
    return h


class TestSampleIncrement:
    def test_trace_normalization(self):
        # E[(1/N) Tr((M/sqrt(N))^2)] = dt; dt=1, N=16, 1e4 draws
        rng = stream(101)
        n, draws = 16, 10_000
        ms = sample_increment_array(n, 1, 1.0, rng, batch=(draws,))
        vals = norm2_array(ms / np.sqrt(n))
        mc_err = vals.std(ddof=1) / np.sqrt(draws)
        assert abs(vals.mean() - 1.0) < 3 * mc_err

    def test_entry_variances(self):
        rng = stream(2)
        dt = 0.37
        ms = sample_increment_array(8, 1, dt, rng, batch=(20000,))[:, 0]
        diag = np.real(ms[:, 0, 0])
        offr = np.real(ms[:, 0, 1])
        offi = np.imag(ms[:, 0, 1])
        assert np.isclose(diag.var(), dt, rtol=0.1)
        assert np.isclose(offr.var(), dt / 2, rtol=0.1)
        assert np.isclose(offi.var(), dt / 2, rtol=0.1)

    @pytest.mark.parametrize(
        "n, m, dt, batch",
        [
            (5, 1, 1.0, ()),
            (4, 2, 1.0, ()),
            (3, 2, 0.37, (4, 3)),
            (4, 1, 2.5, (matrix_core._BLOCK_NORMALS // 16 + 3,)),  # crosses a block boundary
            (4, 2, 0.5, (matrix_core._BLOCK_NORMALS // 32 + 1,)),
        ],
    )
    def test_bit_exact_against_complex_draw(self, n, m, dt, batch):
        # the reference builds the complex increment from one real block draw
        rng_a, rng_b, rng_c = stream(61), stream(61), stream(61)
        got = sample_increment_array(n, m, dt, rng_a, batch)
        want = block_draw_increment(n, m, dt, rng_b, batch)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        rng_c.standard_normal(n * n * m * int(np.prod(batch)))  # n^2 normals per matrix
        assert rng_a.standard_normal() == rng_c.standard_normal()  # same draws consumed

    def test_bit_exact_across_many_small_blocks(self, monkeypatch):
        monkeypatch.setattr(matrix_core, "_BLOCK_NORMALS", 50)  # 5 matrices per block at n=3
        got = sample_increment_array(3, 2, 0.8, stream(62), batch=(7,))  # 14 = 5 + 5 + 4
        assert np.array_equal(got, block_draw_increment(3, 2, 0.8, stream(62), (7,)))

    @pytest.mark.parametrize("n, m, dt, batch", [(1, 1, 1.0, (3,)), (5, 2, 0.37, (4,)), (16, 1, 2.0, (50,))])
    def test_exactly_hermitian(self, n, m, dt, batch):
        h = sample_increment_array(n, m, dt, stream(64), batch)
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))
        diag_im = np.diagonal(h.imag, axis1=-2, axis2=-1)
        assert np.all(diag_im == 0.0) and not np.signbit(diag_im).any()  # +0.0

    def test_real_and_imaginary_parts_uncorrelated(self):
        # corr(Re h_01, Im h_01) over 20000 draws: 0 within 4 standard errors
        draws = 20_000
        h = sample_increment_array(6, 1, 1.0, stream(60), batch=(draws,))[:, 0]
        iu, ju = np.triu_indices(6, k=1)
        re, im = h.real[:, iu, ju], h.imag[:, iu, ju]
        corr = ((re - re.mean(0)) * (im - im.mean(0))).mean(0) / (re.std(0) * im.std(0))
        assert np.abs(corr).max() < 4 / np.sqrt(draws)
        # nor is one entry's real part with another's imaginary part
        cross = np.corrcoef(re[:, 0], im[:, 1])[0, 1]
        assert abs(cross) < 4 / np.sqrt(draws)

    def test_peak_memory_is_one_output(self):
        tracemalloc.start()
        try:
            out = sample_increment_array(16, 1, 1.0, stream(63), batch=(10_000,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            sample_increment(4, 1, 0.0, stream(3))

    def test_sign_symmetry(self):
        # M and -M equidistributed: mean of (1/N) Tr(M/sqrt(N)) -> 0
        rng = stream(4)
        n = 16
        ms = sample_increment_array(n, 1, 1.0, rng, batch=(20000,))
        tr = np.real(np.trace(ms[:, 0], axis1=-2, axis2=-1)) / n**1.5
        assert abs(tr.mean()) < 3 * tr.std(ddof=1) / np.sqrt(len(tr))

    def test_fourth_moment_catalan(self):
        # n=64: mean of (1/N) Tr((M/sqrt(N))^4) -> C_2 = 2 within 0.1
        rng = stream(5)
        n, draws = 64, 400
        ms = sample_increment_array(n, 1, 1.0, rng, batch=(draws,)) / np.sqrt(n)
        sq = ms[:, 0] @ ms[:, 0]
        m4 = np.einsum("bij,bji->b", sq, sq).real / n
        assert abs(m4.mean() - catalan(2)) < 0.1

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gue_moment_convergence(self, p):
        # error vs Catalan(p) decreases as n grows
        errs = []
        for n in (8, 16, 32, 64):
            rng = stream(6, worker=n)
            draws = 200
            ms = sample_increment_array(n, 1, 1.0, rng, batch=(draws,)) / np.sqrt(n)
            acc = np.eye(n)[None, :, :].repeat(draws, axis=0).astype(complex)
            for _ in range(2 * p):
                acc = acc @ ms[:, 0]
            moment = np.trace(acc, axis1=-2, axis2=-1).real.mean() / n
            errs.append(abs(moment - catalan(p)))
        assert errs[-1] < errs[0] + 0.05
        assert errs[-1] < 0.15 * max(1.0, catalan(p))


class TestEmbedding:
    def test_zero(self):
        x = HermitianTuple.zeros(5, 2)
        assert np.all(real_embedding(x).values == 0)

    def test_identity_n2(self):
        x = HermitianTuple(np.eye(2)[None].astype(complex))
        v = real_embedding(x).values
        nz = v[v != 0]
        assert nz.shape == (2,) and np.allclose(nz, 1.0)
        assert np.isclose(np.linalg.norm(v), np.sqrt(2))

    def test_isometry_and_roundtrip(self):
        rng = stream(7)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 4))
            x = random_tuple(n, m, rng)
            v = real_embedding(x)
            tr2 = float(np.sum(np.abs(x.data) ** 2))  # sum_k Tr(x_k^2)
            assert abs(np.dot(v.values, v.values) - tr2) <= 1e-10 * (1 + tr2)
            back = real_embedding_inverse(v)
            assert np.abs(back.data - x.data).max() < 1e-12 * (1 + np.abs(x.data).max())

    def test_inverse_dimension_mismatch(self):
        from hermflow.matrix_core import RealCoords

        with pytest.raises(ValueError):
            RealCoords(np.zeros(5), n=2, m=1)


class TestCayley:
    def test_zero_maps_to_minus_identity(self):
        u = cayley(np.zeros((3, 3)))
        assert np.allclose(u, -np.eye(3))

    def test_roundtrip(self):
        rng = stream(8)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            # spectrum spread over [-100, 100]
            lam = rng.uniform(-100, 100, size=n)
            q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            x = (q * lam) @ q.conj().T
            x = 0.5 * (x + x.conj().T)
            u = cayley(x)
            assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-10
            back = cayley_inverse(u)
            assert np.abs(back - x).max() < 1e-10 * (1 + np.abs(x).max())

    def test_eigenvalue_map(self):
        x = np.diag([4.0, 0.0]).astype(complex)
        u = cayley(x)
        ev = np.sort_complex(np.linalg.eigvals(u))
        assert np.any(np.isclose(ev, 1j))  # (4+4i)/(4-4i) = i


class TestNorm:
    def test_zero(self):
        assert hs_norm2(HermitianTuple.zeros(4, 2)) == 0.0

    def test_identity(self):
        assert np.isclose(hs_norm2(HermitianTuple(np.eye(6)[None].astype(complex))), 1.0)

    def test_homogeneity(self):
        rng = stream(9)
        x = random_tuple(5, 2, rng)
        c = 3.7
        assert np.isclose(hs_norm2(c * x), c**2 * hs_norm2(x), rtol=1e-12)


class TestInvariants:
    def test_hermitian_preserved(self):
        rng = stream(10)
        x = random_tuple(6, 2, rng)
        y = random_tuple(6, 2, rng)
        for z in (x + y, x - y, 2.5 * x, -x):
            assert np.abs(z.data - np.conj(np.swapaxes(z.data, -1, -2))).max() < 1e-12

    def test_unitary_validation(self):
        with pytest.raises(ValueError):
            UnitaryTuple(np.ones((1, 3, 3), dtype=complex))

    def test_stream_reproducible_and_disjoint(self):
        a = stream(42).standard_normal(4)
        b = stream(42).standard_normal(4)
        c = stream(42, worker=1).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
