import tracemalloc

import numpy as np
import pytest

from hermflow.matrix_core import (
    HermitianTuple,
    hs_inner,
    hs_norm2,
    sample_increment_array,
    stream,
)
from hermflow import nc_poly, value_function
from hermflow.potentials import PotentialComponent, PotentialSpec, quadratic_spec
from hermflow.value_function import (
    EstimatorUnderflow,
    ValueQuery,
    _assemble_slots,
    _build_chain,
    _sample_future,
    _split_times,
    drift_core_array,
    drift_gradexp,
    drift_logratio,
    resolve_tilt,
    value_h,
)

from oracles import quad_value, quad_drift_coeff, quad_value_by_quadrature


def rand_tuple(n, m, rng, scale=1.0):
    return HermitianTuple(scale * sample_increment_array(n, m, 1.0, rng))


def einsum_sample_future(chain, x, m, rng, draws):
    """Reference future draw: Cholesky factor by einsum, then x + z + mu as new arrays."""
    lead = x.shape[:-3]
    w = sample_increment_array(chain.n, m, 1.0, rng, batch=lead + (draws, chain.k_future))
    z = np.einsum("jb,...bmpq->...jmpq", chain.chol_t, w)
    mu = chain.mu_coef[:, None, None, None] * x[..., None, :, :, :]
    return x[..., None, None, :, :, :] + z + np.expand_dims(mu, axis=-5)


def zero_spec():
    comp = PotentialComponent(offset=1.0, quad=0.0)
    return PotentialSpec(times=(1.0,), components=(comp,), p=2.0, offset=-1.0, m=1)


@pytest.mark.parametrize(
    "tilt, want",
    [(None, 0.0), ("auto", 0.5), (0, 0.0), (0.3, 0.3), (2, 2.0), (np.float64(0.7), 0.7)],
)
def test_resolve_tilt(tilt, want):
    c = resolve_tilt(quadratic_spec(0.5), tilt)
    assert c == want and isinstance(c, float)


@pytest.mark.parametrize("tilt", ["bogus", "AUTO", "", -0.1, -1, float("nan"), float("inf"), True])
def test_resolve_tilt_rejects(tilt):
    with pytest.raises(ValueError):
        resolve_tilt(quadratic_spec(0.5), tilt)


def test_query_tilt_coefficient_uses_resolve_tilt():
    spec = quadratic_spec(0.5)
    for tilt in (None, "auto", 0.25):
        q = ValueQuery(spec, 0.0, [], HermitianTuple.zeros(4, 1), 10, stream(1), tilt=tilt)
        assert q.tilt_coefficient() == resolve_tilt(spec, tilt)


def test_oracle_self_consistency():
    # the per-coordinate closed form agrees with brute quadrature
    n, c, t, xc = 8, 0.5, 0.3, 0.4
    per_coord = quad_value_by_quadrature(c, t, xc, n)
    # closed form for one coordinate: n*c*x^2/(1+2c(1-t)) + 0.5*log(1+2c(1-t))
    den = 1 + 2 * c * (1 - t)
    want = n * c * xc**2 / den + 0.5 * np.log(den)
    assert abs(per_coord - want) < 1e-10


class TestValueH:
    def test_zero_functional(self):
        rng = stream(60)
        q = ValueQuery(zero_spec(), 0.4, [], rand_tuple(6, 1, rng), 64, rng)
        est = value_h(q)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_closed_form_at_origin(self):
        # t=0, x=0, c=0.5 -> (1/2) log 2
        rng = stream(61)
        spec = quadratic_spec(0.5)
        q = ValueQuery(spec, 0.0, [], HermitianTuple.zeros(8, 1), 4000, rng, tilt=0.3)
        est = value_h(q)
        assert abs(est.value - 0.5 * np.log(2.0)) <= max(3 * est.stderr, 1e-3)

    def test_quadratic_closed_form_grid(self):
        rng = stream(62)
        c = 0.5
        spec = quadratic_spec(c)
        n = 8
        for t in (0.2, 0.6, 1.0 - 1e-13):
            for scale in (0.0, 0.5):
                x = rand_tuple(n, 1, stream(63), scale)
                q = ValueQuery(spec, t, [], x, 3000, stream(64), tilt="auto")
                est = value_h(q)
                want = quad_value(c, t, hs_norm2(x))
                assert abs(est.value - want) <= max(3 * est.stderr, 2e-3)

    def test_exact_tilt_kills_variance(self):
        rng = stream(65)
        spec = quadratic_spec(0.7)
        q = ValueQuery(spec, 0.0, [], HermitianTuple.zeros(16, 1), 200, rng, tilt=0.7)
        est = value_h(q)
        assert est.stderr < 1e-12
        assert abs(est.value - 0.5 * np.log(1 + 1.4)) < 1e-9

    def test_boundary_time_deterministic(self):
        rng = stream(66)
        spec = quadratic_spec(0.5)
        x = rand_tuple(6, 1, rng)
        q = ValueQuery(spec, 1.0, [], x, 10, rng)
        est = value_h(q)
        assert est.meta.get("deterministic")
        assert est.value == pytest.approx(0.5 * hs_norm2(x))

    def test_history_slots(self):
        # two-slot quadratic; condition on the first slot
        rng = stream(67)
        c = 0.4
        comp = PotentialComponent(offset=1.0, quad=c)
        spec = PotentialSpec(times=(0.5, 1.0), components=(comp,), p=2.0, offset=-1.0, m=1)
        n = 6
        x1 = rand_tuple(n, 1, rng, 0.4)
        x = rand_tuple(n, 1, rng, 0.4)
        q = ValueQuery(spec, 0.75, [x1], x, 4000, stream(68), tilt="auto")
        est = value_h(q)
        # oracle: c*tau(x1^2) enters additively; remaining slot is a 1-D
        # convolution with variance (1 - 0.75)/n per coordinate
        den = 1 + 2 * c * 0.25
        want = c * hs_norm2(x1) + c * hs_norm2(x) / den + 0.5 * np.log(den)
        assert abs(est.value - want) <= max(3 * est.stderr, 2e-3)

    def test_underflow_raises(self):
        rng = stream(69)
        spec = quadratic_spec(2.0)
        q = ValueQuery(spec, 0.0, [], HermitianTuple.zeros(32, 1), 50, rng)  # no tilt
        with pytest.raises(EstimatorUnderflow):
            value_h(q)

    def test_exact_tilt_chunked_stderr_is_rounding_level(self):
        # constant weights up to rounding, over chunks of 64, 64, 64 and 8 draws
        spec = quadratic_spec(0.7)
        q = ValueQuery(spec, 0.0, [], HermitianTuple.zeros(16, 1), 200, stream(65), tilt=0.7)
        est = value_h(q, chunk=64)
        assert est.stderr < 1e-15
        assert abs(est.value - 0.5 * np.log(1 + 1.4)) < 1e-9

    def test_dominant_weight_raises(self, monkeypatch):
        # weights (1, 0.5, 0.4): the largest carries 53% of the total while the
        # L2 effective sample size 1.9^2 / 1.41 = 2.56 is above 2
        logw = np.log(np.array([1.0, 0.5, 0.4])) - 3.0
        monkeypatch.setattr(value_function, "_draw", lambda *args, **kwargs: (logw.copy(),))
        q = ValueQuery(quadratic_spec(0.5), 0.0, [], HermitianTuple.zeros(4, 1), 3, stream(72))
        with pytest.raises(EstimatorUnderflow, match="largest weight carries 52.6%"):
            value_h(q)

    def test_history_length_validation(self):
        rng = stream(70)
        spec = quadratic_spec(0.5, times=(0.5, 1.0))
        with pytest.raises(ValueError):
            ValueQuery(spec, 0.75, [], HermitianTuple.zeros(4, 1), 10, rng)

    def test_midpoint_convexity_in_x(self):
        rng = stream(71)
        spec = quadratic_spec(0.5)
        n = 6
        for _ in range(10):
            x = rand_tuple(n, 1, rng, 0.6)
            y = rand_tuple(n, 1, rng, 0.6)
            mid = HermitianTuple(0.5 * (x.data + y.data))
            vals = []
            for pt in (x, y, mid):
                q = ValueQuery(spec, 0.3, [], pt, 2000, stream(72), tilt="auto")
                vals.append(value_h(q))
            tol = 3 * sum(v.stderr for v in vals)
            assert vals[2].value <= 0.5 * (vals[0].value + vals[1].value) + tol


class TestDrift:
    def test_zero_at_origin(self):
        rng = stream(73)
        spec = quadratic_spec(0.5)
        q = ValueQuery(spec, 0.0, [], HermitianTuple.zeros(8, 1), 2000, rng)
        est = drift_logratio(q)
        assert np.sqrt(hs_norm2(est.tuple)) <= 3 * est.stderr + 1e-9

    def test_quadratic_closed_form(self):
        c = 0.5
        spec = quadratic_spec(c)
        n = 8
        for t in (0.0, 0.4, 0.9):
            x = rand_tuple(n, 1, stream(74), 0.5)
            q = ValueQuery(spec, t, [], x, 4000, stream(75), tilt="auto")
            est = drift_gradexp(q)
            want = -quad_drift_coeff(c, t) * x.data
            err = np.sqrt(hs_norm2(HermitianTuple(est.tuple.data - want)))
            assert err <= max(3 * est.stderr, 2e-2)

    def test_logratio_matches_finite_differences(self):
        rng = stream(76)
        c = 0.5
        spec = quadratic_spec(c)
        n = 6
        x = rand_tuple(n, 1, rng, 0.5)
        h = rand_tuple(n, 1, rng, 1.0)
        t = 0.3
        b = drift_logratio(ValueQuery(spec, t, [], x, 6000, stream(77), tilt=0.4))
        pair = hs_inner(b.tuple, h)
        eps = 1e-3
        vals = []
        for sgn in (+1, -1):
            xp = HermitianTuple(x.data + sgn * eps * h.data)
            vals.append(value_h(ValueQuery(spec, t, [], xp, 6000, stream(77), tilt=0.4)))
        fd = (vals[0].value - vals[1].value) / (2 * eps)
        tol = 3 * (b.stderr * np.sqrt(hs_norm2(h)) + (vals[0].stderr + vals[1].stderr) / (2 * eps))
        assert abs(pair + fd) <= max(tol, 2e-3)  # b = -grad value

    def test_cross_estimator_agreement(self):
        # drift_gradexp vs drift_logratio on 50 random queries
        c = 0.35
        spec = quadratic_spec(c)
        n = 4
        fails = 0
        for trial in range(50):
            rng_x = stream(78, worker=trial)
            x = rand_tuple(n, 1, rng_x, 0.6)
            t = float(rng_x.uniform(0.0, 0.95))
            q1 = ValueQuery(spec, t, [], x, 3000, stream(79, worker=trial))
            q2 = ValueQuery(spec, t, [], x, 3000, stream(80, worker=trial), tilt="auto")
            b1 = drift_logratio(q1)
            b2 = drift_gradexp(q2)
            gap = np.sqrt(hs_norm2(HermitianTuple(b1.tuple.data - b2.tuple.data)))
            if gap > 3 * (b1.stderr + b2.stderr) + 1e-6:
                fails += 1
        assert fails <= 3  # 3-sigma test across 50 trials

    def test_boundary_time_deterministic_gradient(self):
        rng = stream(81)
        c = 0.5
        spec = quadratic_spec(c)
        x = rand_tuple(6, 1, rng)
        q = ValueQuery(spec, 1.0, [], x, 10, rng)
        est = drift_gradexp(q)
        assert est.meta.get("deterministic")
        assert np.allclose(est.tuple.data, -2 * c * x.data)


class TestRegularitySweeps:
    def test_time_regularity_sqrt_pattern(self):
        # |h_t - h_{t+s}| ~ s^gamma with gamma >= 1/2 on the quadratic case
        c = 0.5
        spec = quadratic_spec(c)
        x = rand_tuple(6, 1, stream(82), 0.5)
        base = 0.2
        gaps = np.array([0.4, 0.2, 0.1, 0.05])
        diffs = []
        for s in gaps:
            v1 = quad_value(c, base, hs_norm2(x))
            v2 = quad_value(c, base + s, hs_norm2(x))
            diffs.append(abs(v1 - v2))
        slope = np.polyfit(np.log(gaps), np.log(diffs), 1)[0]
        assert slope >= 0.5 - 0.05  # smooth case decays at least as fast as sqrt

    def test_drift_lipschitz_stable_across_n(self):
        c = 0.5
        spec = quadratic_spec(c)
        t = 0.4
        ratios = []
        for n in (4, 8, 16):
            rng = stream(83, worker=n)
            worst = 0.0
            for _ in range(5):
                x = rand_tuple(n, 1, rng, 0.5)
                y = rand_tuple(n, 1, rng, 0.5)
                bx = drift_gradexp(ValueQuery(spec, t, [], x, 2000, stream(84, worker=n), tilt="auto"))
                by = drift_gradexp(ValueQuery(spec, t, [], y, 2000, stream(85, worker=n), tilt="auto"))
                num = np.sqrt(hs_norm2(HermitianTuple(bx.tuple.data - by.tuple.data)))
                den = np.sqrt(hs_norm2(HermitianTuple(x.data - y.data)))
                worst = max(worst, num / den)
            ratios.append(worst)
        assert all(np.isfinite(r) for r in ratios)
        # true Lipschitz constant is 2c/(1+2c(1-t)) = 0.7692; MC noise adds a little
        assert max(ratios) < 2.0 * quad_drift_coeff(c, t)
        assert max(ratios) / min(ratios) < 1.8


class TestDriftTimeHoelder:
    def test_expected_squared_increment_bound(self):
        # E||b(t, X_t) - b(s, X_s)||_2^2 <= C |t-s|^{1/4}: on the smooth
        # quadratic case the decay is much faster, so the ratio against
        # |t-s|^{1/4} must stay bounded and the fitted exponent >= 1/4
        c, n = 0.5, 6
        spec = quadratic_spec(c)
        base = 0.3
        gaps = np.array([0.4, 0.2, 0.1, 0.05])
        diffs = []
        for gi, s in enumerate(gaps):
            acc = []
            for rep in range(48):
                rng = stream(230, worker=100 * gi + rep)
                # one Brownian path from 0 to base and on to base + s
                x_t = HermitianTuple(
                    sample_increment_array(n, 1, base, rng) / np.sqrt(n)
                )
                x_s = HermitianTuple(
                    x_t.data + sample_increment_array(n, 1, s, rng) / np.sqrt(n)
                )
                bt = -quad_drift_coeff(c, base) * x_t.data
                bs = -quad_drift_coeff(c, base + s) * x_s.data
                acc.append(hs_norm2(HermitianTuple(bt - bs)))
            diffs.append(np.mean(acc))
        ratios = diffs / gaps**0.25
        assert np.isfinite(ratios).all() and ratios.max() < 10 * max(ratios.min(), 1e-12)
        slope = np.polyfit(np.log(gaps), np.log(diffs), 1)[0]
        assert slope >= 0.25


class TestCopyFreeFutures:
    @pytest.mark.parametrize(
        "times, m, lead",
        [((1.0,), 1, ()), ((1.0,), 2, (3,)), ((0.5, 1.0), 1, ()), ((0.5, 1.0), 2, (2,))],
    )
    def test_sample_future_bit_exact(self, times, m, lead):
        n, draws = 4, 37
        chain = _build_chain(np.asarray(times), 0.0, n, 0.6)
        x = 0.3 * sample_increment_array(n, m, 1.0, stream(80), batch=lead)
        got = _sample_future(chain, x, m, stream(81), draws)
        want = einsum_sample_future(chain, x, m, stream(81), draws)
        assert got.shape == lead + (draws, len(times), m, n, n)
        assert np.array_equal(got, want)

    def test_all_future_slots_reuse_the_draw(self):
        comp = PotentialComponent(offset=1.0, quad=0.4)
        spec = PotentialSpec(times=(0.5, 1.0), components=(comp,), p=2.0, offset=-1.0, m=1)
        chain = _build_chain(np.asarray(spec.times), 0.0, 4, 0.4)
        x = np.zeros((1, 4, 4), dtype=complex)
        y = _sample_future(chain, x, 1, stream(82), 5)
        assert _assemble_slots(spec, _split_times(spec, 0.0), np.zeros((0,)), x, y) is y

    def test_value_h_peak_memory_bounded_by_two_slot_arrays(self):
        # one 50 000-draw chunk at n=16: the slot array is 50000 * 16 * 16 complex
        n, samples = 16, 50_000
        q = ValueQuery(
            quadratic_spec(0.5), 0.0, [], HermitianTuple.zeros(n, 1), samples, stream(83),
            tilt="auto",
        )
        slot_bytes = samples * n * n * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            est = value_h(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * slot_bytes
        assert est.value == pytest.approx(0.5 * np.log(2.0), abs=1e-9)


def test_one_cayley_solve_per_letter_per_drift_call(monkeypatch):
    solves = []
    real = nc_poly.cayley
    monkeypatch.setattr(nc_poly, "cayley", lambda x: solves.append(x.shape) or real(x))
    word = nc_poly.parse_word("u1 u2^-1 u1 u2")
    spec = PotentialSpec(times=(0.5, 1.0), components=(PotentialComponent(1.0, 0.5, 0.05, word),))
    x = rand_tuple(4, 1, stream(90)).data[None]  # a leading state axis of length 1
    res = drift_core_array(spec, 0.25, np.zeros((0,)), x, 64, stream(91), 0.5)
    assert res["b"].shape == x.shape
    assert solves == [(1, 64, 4, 4), (1, 64, 4, 4)]  # letters u1 and u2, once each
