import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermflow import nc_poly
from hermflow.matrix_core import (
    HermitianTuple,
    UnitaryTuple,
    hs_inner,
    norm2_array,
    sample_increment_array,
    stream,
)
from hermflow.nc_poly import NCPolynomial, parse_word
from hermflow.potentials import (
    PotentialComponent,
    PotentialSpec,
    _bridge,
    brownian_slot_sample,
    component_values_array,
    ensure_component_floor,
    eval_bridge_potential,
    eval_bridge_potential_array,
    eval_potential,
    eval_potential_array,
    gradient_bridge_potential,
    gradient_bridge_potential_array,
    gradient_potential,
    gradient_potential_array,
    quadratic_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)

from oracles import power_word_gradient


def rand_tuple(n, m, rng, scale=1.0):
    return HermitianTuple(scale * sample_increment_array(n, m, 1.0, rng))


def word_spec(lam=0.05, c=1.0, times=(0.5, 1.0), m=1, p=2.0):
    # degree-4 alternating word in the Cayley letters of both slots
    word = parse_word("u1 u2 u1^-1 u2^-1")
    comp1 = PotentialComponent(offset=1.0, quad=c, coupling=lam, word=word)
    comp2 = PotentialComponent(offset=2.0, quad=0.5 * c)
    return PotentialSpec(times=times, components=(comp1, comp2), p=p, offset=0.3, m=m)


def first_word_component(spec, slots):
    """g_1 at a batch of slots, its word's trace built by nc_poly.eval_word_array."""
    n, batch = slots.shape[-1], slots.shape[:-4]
    flat = slots.reshape(batch + (spec.k * spec.m, n, n))
    comp = spec.components[0]
    ((word, coeff),) = comp.word.terms.items()
    tr = np.trace(nc_poly.eval_word_array(word, flat), axis1=-2, axis2=-1) / n
    acc = np.zeros(batch, dtype=complex) + coeff * tr
    return comp.offset + comp.quad * norm2_array(flat) + np.real(comp.coupling * acc)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def config_specs(draw):
    """Every spec a config can hold: 1-3 slots, m in {1, 2}, single-monomial u words."""
    times = draw(
        st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=3, unique=True)
    )
    m = draw(st.sampled_from([1, 2]))
    letter = st.tuples(st.just("u"), st.integers(1, len(times) * m), st.sampled_from([1, -1]))
    word = st.none() | st.lists(letter, min_size=1, max_size=6).map(NCPolynomial.monomial)
    comps = draw(
        st.lists(
            st.builds(
                PotentialComponent,
                offset=finite,
                quad=st.floats(0.0, allow_infinity=False),
                coupling=st.complex_numbers(allow_nan=False, allow_infinity=False),
                word=word,
            ),
            max_size=3,
        )
    )
    p = draw(st.sampled_from([2.0, 2.5, math.inf]))
    return PotentialSpec(sorted(times), comps, p=p, offset=draw(finite), m=m)


class TestEval:
    def test_zero_tuple_pure_quadratic(self):
        spec = quadratic_spec(1.0, floor=0.0)
        x = [HermitianTuple.zeros(6, 1)]
        assert eval_potential(spec, x) == pytest.approx(0.0)

    def test_pure_quadratic_value(self):
        # tau(x^2) = 0.5 -> value 0.5
        spec = quadratic_spec(1.0, floor=0.0)
        x = [HermitianTuple(np.diag([np.sqrt(0.5)] * 4)[None] / np.sqrt(2))]
        # tau(x^2) = (1/4) * 4 * 0.25 = 0.25 ... build exactly instead
        a = np.sqrt(0.5) * np.eye(4)
        x = [HermitianTuple(a[None])]  # tau(x^2) = 0.5
        assert eval_potential(spec, x) == pytest.approx(0.5)

    def test_p_norm_combination(self):
        # two equal components of value v each, p = 2 -> sqrt(2) v
        v = 3.0
        comps = (PotentialComponent(offset=v, quad=0.0), PotentialComponent(offset=v, quad=0.0))
        spec = PotentialSpec(times=(1.0,), components=comps, p=2.0, offset=0.0, m=1)
        x = [HermitianTuple.zeros(4, 1)]
        assert eval_potential(spec, x) == pytest.approx(math.sqrt(2) * v)

    def test_p_infinity_max(self):
        comps = (PotentialComponent(offset=3.0, quad=0.0), PotentialComponent(offset=5.0, quad=0.0))
        spec = PotentialSpec(times=(1.0,), components=comps, p=math.inf, offset=1.0, m=1)
        x = [HermitianTuple.zeros(4, 1)]
        assert eval_potential(spec, x) == pytest.approx(6.0)

    def test_mismatched_slot_count(self):
        spec = quadratic_spec(1.0, times=(0.5, 1.0))
        with pytest.raises(ValueError):
            eval_potential(spec, [HermitianTuple.zeros(4, 1)])

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            PotentialSpec(times=(1.0,), components=(PotentialComponent(1.0, 1.0),), p=1.5)

    def test_rejects_selfadjoint_word_letters(self):
        with pytest.raises(ValueError):
            PotentialComponent(offset=1.0, quad=1.0, coupling=0.1, word=parse_word("X1 X1"))

    def test_word_value_matches_eval_word_array(self):
        spec = word_spec(lam=0.08 + 0.03j)
        slots = brownian_slot_sample(spec.times, 5, spec.m, stream(25), batch=(3,))
        want = first_word_component(spec, slots)
        assert np.array_equal(component_values_array(spec, slots)[:, 0], want)


class TestGradient:
    def test_pure_quadratic_gradient(self):
        rng = stream(20)
        spec = quadratic_spec(1.0)
        x = [rand_tuple(5, 1, rng)]
        (g,) = gradient_potential(spec, x)
        assert np.abs(g.data - 2.0 * x[0].data).max() < 1e-12

    def test_word_free_independent_of_unitaries(self):
        rng = stream(22)
        spec = quadratic_spec(1.0)
        x = [rand_tuple(4, 1, rng)]
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        g1 = gradient_potential(spec, x)[0]
        g2 = gradient_potential(spec, x, u=UnitaryTuple(q[None]))[0]
        assert np.allclose(g1.data, g2.data)

    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    def test_finite_difference_random_specs(self, p):
        rng = stream(23)
        spec = word_spec(lam=0.08 + 0.03j, p=p)
        n = 5
        for _ in range(12):
            xs = [rand_tuple(n, 1, rng, 0.7) for _ in range(2)]
            hs = [rand_tuple(n, 1, rng, 0.7) for _ in range(2)]
            grads = gradient_potential(spec, xs)
            pair = sum(hs_inner(g, h) for g, h in zip(grads, hs))

            eps = 1e-5
            def f(t):
                shifted = [HermitianTuple(x.data + t * h.data) for x, h in zip(xs, hs)]
                return eval_potential(spec, shifted)

            fd = (f(eps) - f(-eps)) / (2 * eps)
            assert abs(pair - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_finite_difference_with_extern_unitaries(self):
        rng = stream(24)
        n = 4
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        u = UnitaryTuple(q[None])
        word = parse_word("u1 v1 u1^-1 v1^-1")
        comp = PotentialComponent(offset=1.5, quad=0.8, coupling=0.1, word=word)
        spec = PotentialSpec(times=(1.0,), components=(comp,), p=2.0, m=1)
        x = [rand_tuple(n, 1, rng, 0.6)]
        h = [rand_tuple(n, 1, rng, 0.6)]
        (g,) = gradient_potential(spec, x, u=u)
        pair = hs_inner(g, h[0])
        eps = 1e-5
        fd = (
            eval_potential(spec, [HermitianTuple(x[0].data + eps * h[0].data)], u)
            - eval_potential(spec, [HermitianTuple(x[0].data - eps * h[0].data)], u)
        ) / (2 * eps)
        assert abs(pair - fd) <= 1e-6 * max(1.0, abs(fd))


class TestPowerWord:
    """u1^(eps k) words, whose gradient takes the closed form in the kernel."""

    @staticmethod
    def spec_and_slots(k, eps, n):
        word = parse_word(" ".join(["u1" if eps == 1 else "u1^-1"] * k))
        comp = PotentialComponent(offset=1.0, quad=0.5, coupling=0.3 - 0.2j, word=word)
        spec = PotentialSpec(times=(1.0,), components=(comp,))
        slots = brownian_slot_sample(spec.times, n, 1, stream(40, worker=n * 10 + k), batch=(3,))
        return spec, slots

    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_gradient_matches_spectral_oracle(self, k, eps, n):
        spec, slots = self.spec_and_slots(k, eps, n)
        comp, x = spec.components[0], slots[:, 0, 0]
        want = power_word_gradient(x, k, eps, comp.coupling) + 2.0 * comp.quad * x
        got = gradient_potential_array(spec, slots)[:, 0, 0]
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_value_matches_eval_word_array(self, k, eps, n):
        spec, slots = self.spec_and_slots(k, eps, n)
        want = first_word_component(spec, slots)
        assert np.array_equal(component_values_array(spec, slots)[:, 0], want)


class TestBridgePotential:
    def test_zero_slots(self):
        xs = [HermitianTuple.zeros(4, 1), HermitianTuple.zeros(4, 1)]
        assert eval_bridge_potential((0.5, 1.0), xs) == pytest.approx(0.0)

    def test_single_increment(self):
        a = np.eye(4, dtype=complex)  # tau(x^2) = 1
        assert eval_bridge_potential((1.0,), [HermitianTuple(a[None])]) == pytest.approx(0.5)

    def test_two_slot_equal_states(self):
        # k=2, t=(1/2, 1), x1 = x2 with tau(x1^2)=1 -> 0.5 * (1/0.5) * 1 = 1
        a = np.eye(4, dtype=complex)
        xs = [HermitianTuple(a[None]), HermitianTuple(a[None])]
        got = eval_bridge_potential((0.5, 1.0), xs)
        # direct quadratic-form oracle
        want = 0.5 * (1.0 / 0.5 * 1.0 + 1.0 / 0.5 * 0.0)
        assert got == pytest.approx(want)

    def test_non_increasing_times_rejected(self):
        xs = [HermitianTuple.zeros(3, 1)] * 2
        with pytest.raises(ValueError):
            eval_bridge_potential((0.6, 0.4), xs)

    def test_gradient_matches_finite_differences(self):
        rng = stream(25)
        times = (0.3, 0.7, 1.0)
        xs = [rand_tuple(4, 2, rng) for _ in times]
        hs = [rand_tuple(4, 2, rng) for _ in times]
        grads = gradient_bridge_potential(times, xs)
        pair = sum(hs_inner(g, h) for g, h in zip(grads, hs))
        eps = 1e-6
        def f(t):
            return eval_bridge_potential(
                times, [HermitianTuple(x.data + t * h.data) for x, h in zip(xs, hs)]
            )
        fd = (f(eps) - f(-eps)) / (2 * eps)
        assert abs(pair - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_one_pass_matches_public_functions(self):
        times = (0.4, 1.0)
        for m, n in ((1, 5), (2, 4)):
            slots = brownian_slot_sample(times, n, m, stream(26, worker=m), batch=(3,))
            value, grad = _bridge(times, slots)
            assert np.array_equal(value, eval_bridge_potential_array(times, slots))
            assert np.array_equal(grad, gradient_bridge_potential_array(times, slots))


class TestRegularityProbes:
    def test_midpoint_convexity(self):
        # 500 random triples, convex regime (C > 0, small coupling)
        rng = stream(26)
        spec = word_spec(lam=0.02)
        n = 4
        for _ in range(500):
            theta = rng.uniform(0.05, 0.95)
            xs = [rand_tuple(n, 1, rng) for _ in range(2)]
            ys = [rand_tuple(n, 1, rng) for _ in range(2)]
            mix = [HermitianTuple(theta * x.data + (1 - theta) * y.data) for x, y in zip(xs, ys)]
            lhs = eval_potential(spec, mix)
            rhs = theta * eval_potential(spec, xs) + (1 - theta) * eval_potential(spec, ys)
            assert lhs <= rhs + 1e-9

    def test_subquadratic_bound(self):
        rng = stream(27)
        spec = word_spec(lam=0.05)
        n = 6
        # C bound: value <= C (1 + sum tau(x^2)); report the smallest workable C
        worst = 0.0
        for _ in range(200):
            scale = rng.uniform(0.2, 3.0)
            xs = [rand_tuple(n, 1, rng, scale) for _ in range(2)]
            q = sum(float(np.sum(np.abs(x.data) ** 2)) / n for x in xs)
            worst = max(worst, eval_potential(spec, xs) / (1.0 + q))
        assert np.isfinite(worst) and worst < 20.0

    def test_lipschitz_on_balls(self):
        rng = stream(28)
        spec = word_spec(lam=0.05)
        n = 5
        worst = 0.0
        for _ in range(200):
            xs = [rand_tuple(n, 1, rng, rng.uniform(0.3, 2.0)) for _ in range(2)]
            ys = [rand_tuple(n, 1, rng, rng.uniform(0.3, 2.0)) for _ in range(2)]
            dv = abs(eval_potential(spec, xs) - eval_potential(spec, ys))
            dx = np.sqrt(sum(float(np.sum(np.abs(x.data - y.data) ** 2)) / n for x, y in zip(xs, ys)))
            nx = np.sqrt(sum(float(np.sum(np.abs(x.data) ** 2)) / n for x in xs))
            ny = np.sqrt(sum(float(np.sum(np.abs(y.data) ** 2)) / n for y in ys))
            worst = max(worst, dv / (dx * (1 + nx + ny) + 1e-300))
        assert np.isfinite(worst) and worst < 20.0

    def test_second_difference_constant_stable_in_n(self):
        # |g(x+y)+g(x-y)-2g(x)| <= K ||y||_2^2 with K stable across n
        spec = word_spec(lam=0.05)
        ks = []
        for n in (4, 8, 16):
            rng = stream(29, worker=n)
            worst = 0.0
            for _ in range(100):
                xs = [rand_tuple(n, 1, rng) for _ in range(2)]
                ys = [rand_tuple(n, 1, rng, 0.5) for _ in range(2)]
                plus = [HermitianTuple(x.data + y.data) for x, y in zip(xs, ys)]
                minus = [HermitianTuple(x.data - y.data) for x, y in zip(xs, ys)]
                num = abs(
                    eval_potential(spec, plus) + eval_potential(spec, minus) - 2 * eval_potential(spec, xs)
                )
                den = sum(float(np.sum(np.abs(y.data) ** 2)) / n for y in ys)
                worst = max(worst, num / den)
            ks.append(worst)
        assert max(ks) < 4.0 * max(min(ks), 1e-6) or max(ks) < 1.0


class TestFloorAndSerialization:
    def test_floor_shift(self):
        comp = PotentialComponent(offset=-3.0, quad=0.1)
        spec = PotentialSpec(times=(1.0,), components=(comp,), p=2.0, m=1)
        with pytest.warns(UserWarning):
            shifted, shifts = ensure_component_floor(spec, 8, stream(30))
        assert shifts[0] > 0
        rng = stream(31)
        slots = brownian_slot_sample(spec.times, 8, 1, rng, batch=(64,))
        from hermflow.potentials import component_values_array

        assert component_values_array(shifted, slots).min() >= 1.0 - 0.5  # pilot-level guarantee

    def test_floor_noop_when_satisfied(self):
        spec = quadratic_spec(1.0, floor=1.0)
        out, shifts = ensure_component_floor(spec, 8, stream(32))
        assert shifts == [0.0] and out is spec

    def test_json_roundtrip_bit_exact(self):
        spec = word_spec(lam=0.0625 + 0.125j, p=2.0)
        text = spec_to_json(spec)
        spec2 = spec_from_json(text)
        assert spec_to_json(spec2) == text
        assert spec2.times == spec.times
        assert spec2.components[0].coupling == spec.components[0].coupling

    @pytest.mark.parametrize(
        "spec",
        [
            quadratic_spec(0.5),
            PotentialSpec(
                times=(1.0,),
                components=(PotentialComponent(1.0, 0.5, 0.06 - 0.02j, parse_word("u1 u1 u1 u1")),),
                offset=-1.0,
            ),
            PotentialSpec(
                times=(0.5, 1.0),
                components=(
                    PotentialComponent(1.0, 0.5, 0.05, parse_word("u1 u2^-1")),
                    PotentialComponent(2.0, 0.3),
                ),
                p=math.inf,
                offset=-1.0,
                m=2,
            ),
        ],
        ids=["quadratic", "u1^4-complex", "two-slot-m2-inf"],
    )
    def test_dict_roundtrip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize(
        "word",
        [
            parse_word("u1") + parse_word("u1 u1"),
            2.0 * parse_word("u1"),
            NCPolynomial.one(),
            NCPolynomial.zero(),
        ],
        ids=["two-terms", "coefficient-2", "empty-word", "zero-polynomial"],
    )
    def test_to_dict_rejects_what_a_config_cannot_hold(self, word):
        comps = (PotentialComponent(1.0, 0.5), PotentialComponent(1.0, 0.5, 0.1, word))
        spec = PotentialSpec(times=(1.0,), components=comps)
        with pytest.raises(ValueError, match="component 1"):
            spec_to_dict(spec)

    @given(config_specs())
    @settings(max_examples=200, deadline=None)
    def test_dict_roundtrip_property(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_json_p_inf(self):
        spec = word_spec(p=math.inf)
        spec2 = spec_from_json(spec_to_json(spec))
        assert math.isinf(spec2.p)

    def test_eval_after_roundtrip_identical(self):
        rng = stream(33)
        spec = word_spec(lam=0.03)
        spec2 = spec_from_json(spec_to_json(spec))
        xs = [rand_tuple(4, 1, rng) for _ in range(2)]
        assert eval_potential(spec, xs) == eval_potential(spec2, xs)
