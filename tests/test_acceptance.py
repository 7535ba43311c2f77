"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets are sized so the whole module runs in minutes on a laptop while
keeping every tolerance at its stated value.
"""

import numpy as np
import pytest

from hermflow.free_entropy import (
    calibrate_universal_constant,
    chi_microstates_control,
    chi_star,
    fisher_semicircular_flow,
)
from hermflow.gibbs import GibbsEnsemble, mala_sample, sd_residual
from hermflow.laplace import lhs_log_laplace, rhs_control_cost, simulate_controlled_paths
from hermflow.matrix_core import (
    HermitianTuple,
    hs_inner,
    hs_norm2,
    sample_increment_array,
    stream,
)
from hermflow.nc_poly import NCPolynomial, cyclic_gradient, eval as nc_eval, parse_word
from hermflow.potentials import PotentialComponent, PotentialSpec, quadratic_spec
from hermflow.sde import langevin_coupled, picard_fbsde
from hermflow.value_function import ValueQuery, drift_logratio, value_h
from hermflow.yosida import ConvexFn, envelope, prox, yosida_gradient

from oracles import catalan, chi_g_quadratic, quad_drift_coeff, quad_value

HALF_LOG_2 = 0.5 * np.log(2.0)


def rand_tuple(n, m, rng, scale=1.0):
    return HermitianTuple(scale * sample_increment_array(n, m, 1.0, rng))


class TestCriterion1LaplaceIdentity:
    @pytest.mark.parametrize("n", [8, 16])
    def test_identity(self, n, criterion):
        spec = quadratic_spec(0.5)
        lhs = lhs_log_laplace(spec, n, 100_000, stream(201, worker=n), tilt=0.35)
        paths = 160 if n == 8 else 96
        rhs = rhs_control_cost(spec, n, paths, 48, 128, stream(202, worker=n))
        combined = np.hypot(lhs.stderr, rhs.stderr)
        ok = (
            lhs.stderr <= 0.01
            and rhs.stderr <= 0.01
            and abs(lhs.value - HALF_LOG_2) <= 3 * lhs.stderr
            and abs(rhs.value - HALF_LOG_2) <= 3 * combined + 0.002  # residual grid bias
            and abs(lhs.value - rhs.value) <= 3 * combined + 0.002
        )
        criterion(
            f"1. Laplace identity (n={n})",
            ok,
            f"lhs={lhs.value:.5f}+-{lhs.stderr:.5f} rhs={rhs.value:.5f}+-{rhs.stderr:.5f} "
            f"target={HALF_LOG_2:.5f}",
        )
        assert ok


class TestCriterion2ValueFunction:
    def test_closed_form_grid(self, criterion):
        c, n = 0.5, 8
        spec = quadratic_spec(c)
        direction = rand_tuple(n, 1, stream(203))
        direction = (1.0 / np.sqrt(hs_norm2(direction))) * direction
        worst_v = worst_b = 0.0
        ok = True
        for ti, t in enumerate((0.0, 0.25, 0.5, 0.75, 1.0 - 1e-12)):
            for si, scale in enumerate((0.0, 0.3, 0.6, 0.9, 1.2)):
                x = scale * direction
                q = ValueQuery(spec, t, [], x, 4000, stream(204, worker=10 * ti + si), tilt="auto")
                est = value_h(q)
                want = quad_value(c, t, hs_norm2(x))
                dv = abs(est.value - want)
                worst_v = max(worst_v, dv)
                if dv > max(3 * est.stderr, 1e-9) + 2e-3:
                    ok = False
                qd = ValueQuery(spec, t, [], x, 4000, stream(205, worker=10 * ti + si), tilt="auto")
                best = drift_logratio(qd)
                want_b = -quad_drift_coeff(c, t) * x.data
                db = np.sqrt(hs_norm2(HermitianTuple(best.tuple.data - want_b)))
                worst_b = max(worst_b, db)
                if db > 3 * best.stderr + 2e-2:
                    ok = False
        criterion(
            "2. Value function closed form (5x5 grid)",
            ok,
            f"max value err={worst_v:.2e}, max drift err={worst_b:.2e}",
        )
        assert ok


class TestCriterion3GibbsEndpoint:
    def test_endpoint_matches_mala(self, criterion):
        c, n = 0.5, 16
        spec = quadratic_spec(c)
        sim = simulate_controlled_paths(spec, n, 128, 32, 96, stream(206))
        end = sim["slot_states"][:, 0]
        t2_c = np.einsum("pij,pji->p", end[:, 0], end[:, 0]).real / n
        sq = end[:, 0] @ end[:, 0]
        t4_c = np.einsum("pij,pji->p", sq, sq).real / n

        ens = GibbsEnsemble(spec, n, step=0.25 / np.sqrt(n))
        samples, diag = mala_sample(ens, 6000, stream(207))
        x = samples[:, 0, 0]
        t2_m = np.einsum("sij,sji->s", x, x).real / n
        sqm = x @ x
        t4_m = np.einsum("sij,sji->s", sqm, sqm).real / n

        infl = np.sqrt(max(1.0, len(t2_m) / max(diag["ess"], 1.0)))
        checks = []
        for a, b, name in ((t2_c, t2_m, "tau2"), (t4_c, t4_m, "tau4")):
            err = 3 * np.hypot(a.std(ddof=1) / np.sqrt(a.size), infl * b.std(ddof=1) / np.sqrt(b.size))
            checks.append((name, abs(a.mean() - b.mean()), err))
        ok = all(gap <= err for _, gap, err in checks)
        criterion(
            "3. Gibbs endpoint law (n=16)",
            ok,
            " ".join(f"{nm}: gap={gap:.4f} tol={err:.4f}" for nm, gap, err in checks),
        )
        assert ok


class TestCriterion4SchwingerDyson:
    def test_residuals_and_moments(self, criterion):
        c, n = 0.5, 32
        spec = quadratic_spec(c)
        ens = GibbsEnsemble(spec, n, step=0.25 / np.sqrt(n))
        samples, diag = mala_sample(ens, 5000, stream(208))
        infl = np.sqrt(max(1.0, samples.shape[0] / max(diag["ess"], 1.0)))
        x = NCPolynomial.x(1)
        battery = [NCPolynomial.one(), x, x * x, x * x * x]
        ok = True
        details = []
        for deg, poly in enumerate(battery):
            est = sd_residual(samples, spec, poly, 1)
            good = abs(est.value) <= 3 * est.stderr * infl + 1e-9
            ok = ok and good
            details.append(f"deg{deg}: {est.value:+.4f}+-{est.stderr:.4f}")
        # closed-form moment targets tau(X^{2p}) = Catalan(p)/(1+2c)^p
        flat = samples[:, 0]
        for p in (1, 2):
            acc = flat[:, 0]
            for _ in range(2 * p - 1):
                acc = acc @ flat[:, 0]
            mom = np.einsum("sii->s", acc).real / n
            want = catalan(p) / (1 + 2 * c) ** p
            tol = 3 * infl * mom.std(ddof=1) / np.sqrt(mom.size) + 2e-3
            good = abs(mom.mean() - want) <= tol
            ok = ok and good
            details.append(f"m{2 * p}: {mom.mean():.4f} vs {want:.4f}")
        criterion("4. Schwinger-Dyson residuals (n=32)", ok, "; ".join(details))
        assert ok


class TestCriterion5Contraction:
    def test_langevin_pairs(self, criterion):
        spec = quadratic_spec(0.5)
        n = 8
        ok = True
        worst = 0.0
        for trial in range(4):
            rng = stream(209, worker=trial)
            x = rand_tuple(n, 1, rng)
            y = rand_tuple(n, 1, rng, 0.5)
            dist = langevin_coupled(spec, n, total_time=3.0, dt=0.01, rng=rng, x=x, y=y)
            ts = np.linspace(0, 3.0, dist.size)
            ratio = dist / (dist[0] * np.exp(-ts) * 1.05)
            worst = max(worst, float(ratio.max()))
            if np.any(ratio > 1.0 + 1e-12):
                ok = False
        criterion("5. Langevin contraction (pathwise)", ok, f"max ratio vs bound = {worst:.3f}")
        assert ok


class TestCriterion6Yosida:
    def test_suite(self, criterion):
        rng = stream(210)
        half_sq = ConvexFn(fn=lambda y: 0.5 * float(np.dot(y, y)), grad=lambda y: y)
        abs_fn = ConvexFn(fn=lambda y: float(np.abs(y).sum()))
        smooth = ConvexFn(
            fn=lambda y: float(np.sum(np.abs(y) + np.log1p(np.exp(-2 * np.abs(y))))),
            grad=lambda y: np.tanh(y),
        )
        ok = True
        # closed forms to 1e-6
        for xv, lam in [(2.0, 0.5), (0.3, 0.5), (-1.7, 1.0)]:
            soft = np.sign(xv) * max(abs(xv) - lam, 0.0)
            huber = xv * xv / (2 * lam) if abs(xv) <= lam else abs(xv) - lam / 2
            if abs(prox(abs_fn, lam, np.array([xv]))[0] - soft) > 1e-6:
                ok = False
            if abs(envelope(abs_fn, lam, np.array([xv])) - huber) > 1e-6:
                ok = False
        # prox contraction on 1000 random pairs
        for _ in range(1000):
            a, b = rng.standard_normal((2, 4)) * 2
            lam = float(rng.uniform(0.05, 1.5))
            if np.linalg.norm(prox(smooth, lam, a) - prox(smooth, lam, b)) > np.linalg.norm(
                a - b
            ) * (1 + 1e-7):
                ok = False
                break
        # envelope monotone in lambda
        xs = rng.standard_normal(5)
        vals = [envelope(smooth, lam, xs) for lam in (1.0, 0.3, 0.05)]
        if not (vals[0] <= vals[1] <= vals[2] <= smooth(xs) + 1e-9):
            ok = False
        # Yosida gradient Lipschitz ratio <= (1/lam)(1 + 1e-6)
        lam = 0.25
        for _ in range(400):
            a, b = rng.standard_normal((2, 4)) * 2
            dn = np.linalg.norm(a - b)
            if dn < 1e-9:
                continue
            r = np.linalg.norm(
                yosida_gradient(smooth, lam, a) - yosida_gradient(smooth, lam, b)
            ) / dn
            if r > (1 / lam) * (1 + 1e-6):
                ok = False
                break
        # quadratic sanity
        xq = rng.standard_normal(6)
        if np.abs(prox(half_sq, 0.7, xq) - xq / 1.7).max() > 1e-6:
            ok = False
        criterion("6. Moreau-Yosida suite", ok)
        assert ok


class TestCriterion7EntropyEquality:
    @pytest.fixture(scope="class")
    def const(self):
        # shared by both tests: the same calibration from the same fresh stream
        return calibrate_universal_constant(n=16, paths=64, grid_steps=32, inner=96, rng=stream(211))

    def test_chi_equals_chi_star(self, criterion, const):
        c, n = 0.5, 32
        target_chi_g = 0.25 - 0.5 * np.log(2.0)
        # spectral-oracle calibration: standard semicircular to 1e-4
        t_grid = np.concatenate([np.linspace(0, 4, 41), np.linspace(4.5, 40, 72)])
        flow_std, _ = fisher_semicircular_flow(quadratic_spec(0.0, floor=1.0), t_grid)
        star_std = chi_star(flow_std)
        cal_ok = abs(star_std - 0.5 * np.log(2 * np.pi * np.e)) < 1e-4

        est = chi_microstates_control(
            quadratic_spec(c), n=n, paths=48, grid_steps=32, inner=80, rng=stream(212),
            constant=const,
        )
        chi_g = est["chi_gauss"]
        rel_g = abs(chi_g.value - target_chi_g) / abs(target_chi_g)
        flow_c, _ = fisher_semicircular_flow(quadratic_spec(c), t_grid)
        star_c = chi_star(flow_c)
        rel_star = abs(est["chi"] - star_c) / abs(star_c)
        ok = cal_ok and rel_g <= 0.05 and rel_star <= 0.05
        criterion(
            "7. Entropy equality witness (n=32)",
            ok,
            f"chi_g={chi_g.value:.5f} (target {target_chi_g:.5f}, rel {rel_g:.3f}); "
            f"chi={est['chi']:.5f} vs chi*={star_c:.5f} (rel {rel_star:.3f}); "
            f"calibration err={abs(star_std - 0.5 * np.log(2 * np.pi * np.e)):.2e}",
        )
        assert ok

    def test_quadratic_family_consistency(self, criterion, const):
        # the rest of the c family at n=32: converted chi vs spectral chi*
        t_grid = np.concatenate([np.linspace(0, 4, 41), np.linspace(4.5, 40, 72)])
        ok = True
        details = []
        for c in (0.25, 1.0):
            est = chi_microstates_control(
                quadratic_spec(c), n=32, paths=48, grid_steps=32, inner=80,
                rng=stream(213, worker=int(c * 100)), constant=const,
            )
            flow_c, _ = fisher_semicircular_flow(quadratic_spec(c), t_grid)
            star_c = chi_star(flow_c)
            rel = abs(est["chi"] - star_c) / abs(star_c)
            want_g = chi_g_quadratic(c)
            rel_g = abs(est["chi_gauss"].value - want_g) / max(abs(want_g), 1e-6)
            ok = ok and rel <= 0.05 and rel_g <= 0.05
            details.append(f"c={c}: chi={est['chi']:.4f} vs chi*={star_c:.4f} (rel {rel:.3f})")
        criterion("7b. Entropy family consistency (n=32)", ok, "; ".join(details))
        assert ok


class TestCriterion8FisherFlow:
    def test_monotone_and_holder(self, criterion):
        spec = quadratic_spec(0.5)
        ts = [0.0, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0]
        points, report = fisher_semicircular_flow(spec, ts, n=24, samples=800, rng=stream(214))
        vals = np.array([p.fisher.value for p in points])
        errs = np.array([p.fisher.stderr for p in points])
        mono = np.all(np.diff(vals) <= 3 * (errs[:-1] + errs[1:]))
        ok = bool(mono) and report["holder_slope"] >= 0.45
        criterion(
            "8. Fisher flow monotone + Hoelder",
            ok,
            f"slope={report['holder_slope']:.2f}, monotone={bool(mono)}",
        )
        assert ok


class TestCriterion9Concentration:
    def test_variance_scaling_word_spec(self, criterion):
        word = parse_word("u1 u1 u1 u1")
        comp = PotentialComponent(offset=1.0, quad=0.5, coupling=0.08, word=word)
        spec = PotentialSpec(times=(1.0,), components=(comp,), p=2.0, m=1)
        obs = NCPolynomial.x(1) * NCPolynomial.x(1)
        xs, ys = [], []
        for n in (8, 16, 32, 64):
            ens = GibbsEnsemble(spec, n, step=0.25 / np.sqrt(n))
            samples, diag = mala_sample(
                ens, 4000, stream(215, worker=n), thin=4
            )
            flat = samples[:, 0]
            tr = np.einsum("smij,smji->s", flat, flat).real / n
            # thin to roughly independent draws using the measured ESS
            keep = max(1, int(round(len(tr) / max(len(tr) / max(diag["ess"], 1.0), 1.0))))
            idx = np.linspace(0, len(tr) - 1, keep).astype(int)
            xs.append(np.log(n))
            ys.append(np.log(tr[idx].var(ddof=1)))
        slope = float(np.polyfit(xs, ys, 1)[0])
        ok = -2.3 <= slope <= -1.7
        criterion("9. Concentration scaling (word spec)", ok, f"log-log slope = {slope:.2f}")
        assert ok


class TestCriterion10PropertySuites:
    def test_picard_decay(self, criterion):
        spec = quadratic_spec(0.5, times=(0.25,))
        path, report = picard_fbsde(
            spec, horizon=0.25, tol=1e-4, max_iter=2, rng=stream(216), n=4,
            budgets=[96, 24, 8],
        )
        ratios = report["decay_ratios"]
        ok = (report["converged_at"] is not None) or (ratios and all(r < 1.0 for r in ratios))
        criterion(
            "10a. FBSDE Picard geometric decay",
            ok,
            f"sup diffs={['%.4f' % d for d in report['sup_differences']]}",
        )
        assert ok

    def test_cyclic_gradient_finite_differences(self, criterion):
        rng = stream(217)
        fails = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = 2
            x = rand_tuple(n, m, rng)
            h = rand_tuple(n, m, rng)
            deg = int(rng.integers(1, 5))
            wordt = tuple(("x", int(rng.integers(1, m + 1)), 1) for _ in range(deg))
            p = NCPolynomial.monomial(wordt, complex(rng.standard_normal(), rng.standard_normal()))
            i = int(rng.integers(1, m + 1))
            g = nc_eval(cyclic_gradient(p, i), x)
            pair = np.real(np.trace(g @ h.data[i - 1])) / n
            eps = 1e-5

            def f(tt):
                xs = x.data.copy()
                xs[i - 1] = xs[i - 1] + tt * h.data[i - 1]
                return np.real(np.trace(nc_eval(p, HermitianTuple(xs)))) / n

            fd = (f(eps) - f(-eps)) / (2 * eps)
            if abs(pair - fd) > 1e-6 * max(1.0, abs(fd)):
                fails += 1
        ok = fails == 0
        criterion("10b. Cyclic gradient vs finite differences (200 cases)", ok, f"fails={fails}")
        assert ok

    def test_value_semigroup(self, criterion):
        # lambda_s(f) = lambda_s(lambda_{s+delta}(f)) within MC error
        c, n = 0.5, 6
        spec = quadratic_spec(c)
        s, delta = 0.3, 0.2
        x = rand_tuple(n, 1, stream(218), 0.5)
        direct = value_h(ValueQuery(spec, s, [], x, 20000, stream(219), tilt=0.3))
        # outer layer: increments over [s, s+delta]; inner values with the
        # exact tilt have zero variance for the quadratic
        rng = stream(220)
        outer = 300
        inc = sample_increment_array(n, 1, delta, rng, batch=(outer,)) / np.sqrt(n)
        inner_vals = np.empty(outer)
        for j in range(outer):
            xj = HermitianTuple(x.data + inc[j])
            inner_vals[j] = value_h(
                ValueQuery(spec, s + delta, [], xj, 400, stream(221, worker=j), tilt=c)
            ).value
        w = np.exp(-(n * n) * (inner_vals - inner_vals.min()))
        composed = inner_vals.min() - np.log(w.mean()) / (n * n)
        stderr_comp = w.std(ddof=1) / (w.mean() * np.sqrt(outer) * n * n)
        gap = abs(direct.value - composed)
        tol = 3 * np.hypot(direct.stderr, stderr_comp)
        ok = gap <= tol
        criterion(
            "10c. Value-function semigroup identity",
            ok,
            f"direct={direct.value:.5f} composed={composed:.5f} gap={gap:.5f} tol={tol:.5f}",
        )
        assert ok
