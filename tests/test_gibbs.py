import numpy as np
import pytest

from hermflow import nc_poly
from hermflow.gibbs import (
    GibbsEnsemble,
    concentration_stats,
    exact_gaussian_slots,
    mala_log_ratio,
    mala_sample,
    score_field,
    sd_residual,
)
from hermflow.matrix_core import HermitianTuple, sample_increment_array, stream
from hermflow.nc_poly import NCPolynomial, parse_word
from hermflow.potentials import PotentialComponent, PotentialSpec, quadratic_spec

X = NCPolynomial.x


def rand_tuple(n, m, rng, scale=1.0):
    return HermitianTuple(scale * sample_increment_array(n, m, 1.0, rng))


class TestScoreField:
    def test_pure_gaussian(self):
        # g = 0, k = 1, t1 = 1: score = -n * A
        spec = quadratic_spec(0.0, floor=1.0)
        n = 6
        a = rand_tuple(n, 1, stream(120))
        (xi,) = score_field(spec, [a])
        assert np.allclose(xi.data, -n * a.data)

    def test_quadratic(self):
        # g = c tau(X^2): score = -n (1 + 2c) A  [direct differentiation oracle]
        c = 0.7
        spec = quadratic_spec(c)
        n = 5
        a = rand_tuple(n, 1, stream(121))
        (xi,) = score_field(spec, [a])
        assert np.allclose(xi.data, -n * (1 + 2 * c) * a.data)

    def test_matches_finite_differences_of_log_density(self):
        from hermflow.potentials import (
            eval_bridge_potential_array,
            eval_potential_array,
        )

        rng = stream(122)
        comp = PotentialComponent(offset=1.0, quad=0.4)
        spec = PotentialSpec(times=(0.5, 1.0), components=(comp,), p=2.0, m=1)
        n = 4
        xs = [rand_tuple(n, 1, rng, 0.5) for _ in range(2)]
        slots = np.stack([x.data for x in xs])
        scores = score_field(spec, xs)

        def logp(slots_arr):
            v = eval_potential_array(spec, slots_arr[None])[0]
            v += eval_bridge_potential_array(spec.times, slots_arr[None])[0]
            return -n * n * v

        eps = 1e-6
        for j in range(2):
            h = rand_tuple(n, 1, rng).data
            plus = slots.copy()
            plus[j] = plus[j] + eps * h
            minus = slots.copy()
            minus[j] = minus[j] - eps * h
            fd = (logp(plus) - logp(minus)) / (2 * eps)
            pair = float(np.real(np.trace(scores[j].data[0] @ h[0])))
            assert abs(pair - fd) <= 1e-6 * max(1.0, abs(fd))


class TestMALA:
    def test_one_cayley_solve_per_proposal(self, monkeypatch):
        solves = []
        real = nc_poly.cayley
        monkeypatch.setattr(nc_poly, "cayley", lambda x: solves.append(1) or real(x))
        comp = PotentialComponent(offset=1.0, quad=0.5, coupling=0.06, word=parse_word("u1 u1 u1 u1"))
        spec = PotentialSpec(times=(1.0,), components=(comp,), offset=-1.0)
        mala_sample(GibbsEnsemble(spec, 4, step=0.15), 40, stream(7), burn_in=0, thin=1)
        assert len(solves) == 41  # the start state, then one per proposal

    def test_gaussian_second_moment(self):
        # g = 0: sampled tau(A^2) -> t1 = 1 (GUE)
        spec = quadratic_spec(0.0, floor=1.0)
        n = 8
        ens = GibbsEnsemble(spec, n, step=0.35)
        samples, diag = mala_sample(ens, 4000, stream(123))
        t2 = np.sum(np.abs(samples[:, 0]) ** 2, axis=(-1, -2, -3)) / n
        err = 3 * t2.std(ddof=1) / np.sqrt(max(diag["ess"], 4.0))
        assert abs(t2.mean() - 1.0) < max(err, 0.05)
        assert 0.3 <= diag["acceptance"] <= 0.9

    def test_quadratic_second_moment(self):
        # c = 0.5: normalized second moment -> 1/(1+2c) = 0.5
        spec = quadratic_spec(0.5)
        n = 8
        ens = GibbsEnsemble(spec, n, step=0.3)
        samples, diag = mala_sample(ens, 4000, stream(124))
        t2 = np.sum(np.abs(samples[:, 0]) ** 2, axis=(-1, -2, -3)) / n
        err = 3 * t2.std(ddof=1) / np.sqrt(max(diag["ess"], 4.0))
        assert abs(t2.mean() - 0.5) < max(err, 0.03)

    def test_detailed_balance_antisymmetry(self):
        spec = quadratic_spec(0.5)
        n = 4
        ens = GibbsEnsemble(spec, n, step=0.25)
        rng = stream(125)
        for _ in range(5):
            a = np.stack([rand_tuple(n, 1, rng, 0.5).data])
            b = np.stack([rand_tuple(n, 1, rng, 0.5).data])
            r_ab = mala_log_ratio(ens, a, b)
            r_ba = mala_log_ratio(ens, b, a)
            assert abs(r_ab + r_ba) < 1e-10 * max(1.0, abs(r_ab))

    def test_acceptance_collapse_raises(self):
        from hermflow.gibbs import AcceptanceCollapse

        spec = quadratic_spec(0.5)
        ens = GibbsEnsemble(spec, 8, step=80.0)  # absurd step
        with pytest.raises(AcceptanceCollapse):
            mala_sample(ens, 400, stream(126), adapt=False)

    def test_kept_samples_are_the_thinned_chain(self):
        # without adaptation the chain does not depend on burn_in or thin
        spec = quadratic_spec(0.5)
        full, _ = mala_sample(GibbsEnsemble(spec, 4, step=0.3), 60, stream(128), 0, 1, False)
        kept, diag = mala_sample(GibbsEnsemble(spec, 4, step=0.3), 60, stream(128), 10, 7, False)
        assert kept.shape == (len(range(10, 60, 7)), 1, 1, 4, 4)
        assert np.array_equal(kept, full[10::7])
        assert diag["draws"] == len(diag["trace_norm2"]) == kept.shape[0]

    def test_no_kept_sample_raises(self):
        ens = GibbsEnsemble(quadratic_spec(0.5), 4, step=0.3)
        with pytest.raises(ValueError):
            mala_sample(ens, 40, stream(129), burn_in=40)

    @pytest.mark.parametrize("burn_in, thin", [(-1, 5), (0, 0)])
    def test_bad_burn_in_or_thin_raises(self, burn_in, thin):
        ens = GibbsEnsemble(quadratic_spec(0.5), 4, step=0.3)
        with pytest.raises(ValueError):
            mala_sample(ens, 40, stream(129), burn_in=burn_in, thin=thin)


class TestBatchedChains:
    @staticmethod
    def word_spec():
        comp = PotentialComponent(offset=1.0, quad=0.5, coupling=0.06, word=parse_word("u1 u1 u1 u1"))
        return PotentialSpec(times=(1.0,), components=(comp,), offset=-1.0)

    def test_each_chain_matches_its_single_chain_call(self):
        spec, n, steps = self.word_spec(), 4, 300

        def ens():
            return GibbsEnsemble(spec, n, step=0.3 / np.sqrt(n))

        batch, diag = mala_sample([ens() for _ in range(3)], steps, [stream(131, worker=w) for w in range(3)])
        assert batch.shape[0] == len(diag["chains"]) == 3
        for c in range(3):
            alone, want = mala_sample(ens(), steps, stream(131, worker=c))
            got = diag["chains"][c]
            assert np.array_equal(batch[c], alone)
            assert got["trace_norm2"] == want["trace_norm2"]
            for key in ("step", "acceptance", "ess", "draws"):
                assert got[key] == want[key], key
        assert diag["acceptance"] == np.mean([d["acceptance"] for d in diag["chains"]])

    def test_ensembles_and_streams_of_different_lengths_raise(self):
        spec = quadratic_spec(0.5)
        with pytest.raises(ValueError):
            mala_sample([GibbsEnsemble(spec, 4), GibbsEnsemble(spec, 4)], 40, [stream(132)])
        with pytest.raises(ValueError):
            mala_sample([GibbsEnsemble(spec, 4)], 40, [stream(132), stream(133)])

    def test_collapsed_chain_in_a_batch_raises(self):
        from hermflow.gibbs import AcceptanceCollapse

        spec = quadratic_spec(0.5)
        ensembles = [GibbsEnsemble(spec, 8, step=0.3), GibbsEnsemble(spec, 8, step=80.0)]
        with pytest.raises(AcceptanceCollapse):
            mala_sample(ensembles, 400, [stream(134), stream(135)], adapt=False)


class TestSDResidual:
    def test_constant_polynomial_exact_zero(self):
        spec = quadratic_spec(0.5)
        n = 8
        rng = stream(127)
        # exact Gibbs samples for the quadratic: Gaussian with variance 1/(1+2c)
        draws = 400
        scale = 1.0 / np.sqrt(1 + 2 * 0.5)
        samples = (
            scale * brownian_like(n, draws, rng)
        )
        est = sd_residual(samples, spec, NCPolynomial.one(), 1)
        # d(1) = 0 and E tr(candidate) = 0 by symmetry: residual is mean of tau(cand)/1...
        assert abs(est.value) <= 3 * est.stderr + 1e-12

    def test_gaussian_battery(self):
        # exact g=0 samples: residual within 3 sigma for degree <= 4 battery
        spec = quadratic_spec(0.0, floor=1.0)
        n = 16
        samples = exact_gaussian_slots(spec.times, n, 1, stream(128), 600)
        battery = [
            NCPolynomial.one(),
            X(1),
            X(1) * X(1),
            X(1) * X(1) * X(1),
            X(1) * X(1) * X(1) * X(1),
        ]
        for p in battery:
            est = sd_residual(samples, spec, p, 1)
            assert abs(est.value) <= 3 * est.stderr + 1e-12, f"failed for {p}"

    def test_quadratic_closed_form_direction(self):
        # candidate = (1+2c) X; for P = X the residual -> (1+2c) tau(X^2) - 1
        c = 0.5
        spec = quadratic_spec(c)
        n = 16
        rng = stream(129)
        scale = 1.0 / np.sqrt(1 + 2 * c)
        samples = scale * brownian_like(n, 500, rng)
        est = sd_residual(samples, spec, X(1), 1)
        assert abs(est.value) <= 3 * est.stderr + 1e-3

    def test_mala_samples_pass_ibp(self):
        spec = quadratic_spec(0.5)
        n = 8
        ens = GibbsEnsemble(spec, n, step=0.3)
        samples, diag = mala_sample(ens, 3000, stream(130))
        for p in (X(1), X(1) * X(1)):
            est = sd_residual(samples, spec, p, 1)
            # thinned MALA samples still autocorrelate; widen by ess ratio
            infl = np.sqrt(max(1.0, samples.shape[0] / max(diag["ess"], 1.0)))
            assert abs(est.value) <= 4 * est.stderr * infl + 5e-3


def brownian_like(n, draws, rng):
    """Exact unit-variance Gibbs samples (g=0, t=1) shaped (draws, 1, 1, n, n)."""
    return sample_increment_array(n, 1, 1.0, rng, batch=(draws,))[:, None] / np.sqrt(n)


class TestConcentration:
    def test_variance_scaling_slope(self):
        # Var((1/n)Tr P) log-log slope vs n in [-2.3, -1.7]
        slopes_x, slopes_y = [], []
        for n in (8, 16, 32):
            rng = stream(131, worker=n)
            samples = exact_gaussian_slots((1.0,), n, 1, rng, 1500)
            stats = concentration_stats(samples, X(1) * X(1))
            slopes_x.append(np.log(n))
            slopes_y.append(np.log(stats["trace_var"]))
        slope = np.polyfit(slopes_x, slopes_y, 1)[0]
        assert -2.3 <= slope <= -1.7

    def test_brascamp_lieb_comparison(self):
        # centered fourth matrix moment under convex g <= under g = 0
        n = 8
        rng = stream(132)
        g0 = exact_gaussian_slots((1.0,), n, 1, rng, 800)
        # convex ensemble: variance 1/(1+2c) Gaussian (exact for quadratic g)
        gc = brownian_like(n, 800, stream(133)) / np.sqrt(2.0)
        s0 = concentration_stats(g0, X(1))
        sc = concentration_stats(gc, X(1))
        assert sc["centered_matrix_moments"][4] <= s0["centered_matrix_moments"][4]

    def test_opnorm_stable_across_n(self):
        tops = []
        for n in (8, 16, 32):
            samples = exact_gaussian_slots((1.0,), n, 1, stream(134, worker=n), 200)
            tops.append(concentration_stats(samples, X(1))["opnorm_max"])
        # a.s. bounded: max operator norm stays O(1) (semicircle edge ~ 2)
        assert max(tops) < 4.0
