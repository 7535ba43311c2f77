import numpy as np
import pytest

from hermflow.laplace import (
    _TIME_TOL,
    LaplaceReport,
    _controlled_grid,
    lhs_log_laplace,
    n_convergence,
    rhs_control_cost,
    simulate_controlled_paths,
    spread_nats,
)
from hermflow.matrix_core import HermitianTuple, hs_norm2, stream
from hermflow.nc_poly import parse_word
from hermflow.potentials import PotentialComponent, PotentialSpec, quadratic_spec
from hermflow.value_function import EstimatorUnderflow

from oracles import bridge_control_cost, quad_drift_coeff


def zero_spec():
    comp = PotentialComponent(offset=1.0, quad=0.0)
    return PotentialSpec(times=(1.0,), components=(comp,), p=2.0, offset=-1.0, m=1)


class TestLhs:
    def test_zero_functional(self):
        est = lhs_log_laplace(zero_spec(), 8, 200, stream(140))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_closed_form(self):
        # c = 0.5, m = 1 -> (1/2) log 2, detuned tilt keeps genuine MC noise
        est = lhs_log_laplace(quadratic_spec(0.5), 16, 20000, stream(141), tilt=0.35)
        assert est.stderr < 0.01
        assert abs(est.value - 0.5 * np.log(2.0)) <= 3 * est.stderr

    def test_plain_estimator_small_n(self):
        est = lhs_log_laplace(quadratic_spec(0.5), 4, 40000, stream(142), tilt=0.0)
        assert abs(est.value - 0.5 * np.log(2.0)) <= 3 * est.stderr + 5e-3

    def test_constant_shift(self):
        # f + a shifts the value by a exactly (same seed, same samples)
        spec = quadratic_spec(0.5)
        shifted = PotentialSpec(
            times=spec.times, components=spec.components, p=spec.p, offset=spec.offset + 0.7, m=1
        )
        a = lhs_log_laplace(spec, 8, 2000, stream(143), tilt=0.4)
        b = lhs_log_laplace(shifted, 8, 2000, stream(143), tilt=0.4)
        assert b.value - a.value == pytest.approx(0.7, abs=1e-12)

    def test_underflow_advises_rhs(self):
        with pytest.raises(EstimatorUnderflow, match="control-cost"):
            lhs_log_laplace(quadratic_spec(1.0), 32, 100, stream(144), tilt=0.0)

    def test_spread_diagnostic_grows_with_n(self):
        s8 = spread_nats(quadratic_spec(0.5), 8, stream(145))
        s16 = spread_nats(quadratic_spec(0.5), 16, stream(146))
        assert s16 > s8 > 0


class TestRhs:
    def test_zero_functional_zero_cost(self):
        est = rhs_control_cost(zero_spec(), 6, 16, 16, 32, stream(147))
        assert est.value == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_identity_small_n(self):
        n = 8
        est = rhs_control_cost(quadratic_spec(0.5), n, 64, 48, 128, stream(148))
        want = 0.5 * np.log(2.0)
        assert abs(est.value - want) <= 3 * est.stderr + 0.01  # Euler bias margin

    def test_control_cost_term_matches_path_integral_oracle(self):
        # (1/2) int E||b||^2 dt for c = 0.5 equals (log 2 - 1/2)/2
        n = 8
        est = rhs_control_cost(quadratic_spec(0.5), n, 96, 64, 128, stream(149))
        want_cost = 0.5 * bridge_control_cost(0.5)
        # the moment-ODE oracle reproduces the closed form (log 2 - 1/2) / 2
        assert want_cost == pytest.approx(0.5 * (np.log(2.0) - 0.5), abs=1e-4)
        assert abs(est.meta["control_cost_mean"] - want_cost) < 0.02

    def test_suboptimal_drift_increases_cost(self):
        n = 8
        opt = rhs_control_cost(quadratic_spec(0.5), n, 72, 40, 128, stream(150))
        sub = rhs_control_cost(quadratic_spec(0.5), n, 72, 40, 128, stream(151), perturb=0.35)
        assert sub.value - opt.value > 3 * np.hypot(opt.stderr, sub.stderr)

    def test_endpoint_matches_gibbs_variance(self):
        # slot marginal of the controlled path: tau(X(1)^2) -> 1/(1+2c)
        n = 12
        sim = simulate_controlled_paths(quadratic_spec(0.5), n, 96, 48, 128, stream(152))
        t2 = np.sum(np.abs(sim["slot_states"][:, 0]) ** 2, axis=(-1, -2, -3)) / n
        stderr = t2.std(ddof=1) / np.sqrt(t2.size)
        assert abs(t2.mean() - 0.5) <= 3 * stderr + 0.02

    def test_recorded_drift_consistent_with_closed_form(self):
        # spot-check: node drift along the path tracks -2c x/(1+2c(1-t))
        c, n = 0.5, 8
        spec = quadratic_spec(c)
        sim = simulate_controlled_paths(spec, n, 1, 32, 512, stream(153), heun=False)
        grid = sim["grid"]
        for idx in (8, 16, 24):
            t = grid[idx]
            want = -quad_drift_coeff(c, t) * sim["states"][0, idx]
            err = np.sqrt(hs_norm2(HermitianTuple(sim["drifts"][0, idx] - want)))
            scale = np.sqrt(hs_norm2(HermitianTuple(want))) + 0.05
            assert err < 0.25 * scale + 0.03

    def test_slot_states_are_recorded_node_states_off_grid(self):
        # slot time 0.3 is off the uniform 4-step grid, so the grid gains a node for it
        comp = PotentialComponent(offset=1.0, quad=0.5)
        spec = PotentialSpec(times=(0.3, 1.0), components=(comp,), p=2.0, offset=-1.0, m=1)
        sim = simulate_controlled_paths(spec, 4, 3, 4, 16, stream(155), heun=False)
        grid = sim["grid"]
        assert sim["states"].shape == sim["drifts"].shape == (3, grid.size, 1, 4, 4)
        for j, t in enumerate(spec.times):
            node = int(np.flatnonzero(grid == t)[0])
            assert np.array_equal(sim["slot_states"][:, j], sim["states"][:, node])

    @pytest.mark.parametrize("times, steps", [((0.6, 1.0), 5), ((0.3, 0.7, 1.0), 10), ((0.2, 1.0), 35)])
    def test_grid_has_no_near_duplicate_nodes(self, times, steps):
        # linspace puts a node one ulp from each of these slot times
        grid = _controlled_grid(PotentialSpec(times=times, components=(PotentialComponent(1.0, 0.5),)), steps)
        assert grid[0] == 0.0 and np.diff(grid).min() > _TIME_TOL
        assert all(t in grid for t in times)


class TestReport:
    def test_quadratic_report_passes(self):
        budgets = {"samples": 6000, "paths": 48, "inner": 96, "grid_steps": 32}
        report = n_convergence(quadratic_spec(0.5), [4, 8], budgets, seed=42)
        assert report.flags == ["pass", "pass"]
        assert abs(report.extrapolated - 0.5 * np.log(2.0)) < 0.05
        d = report.as_dict()
        assert set(d) >= {"n_list", "lhs", "rhs", "gaps", "flags", "config"}
        rows = report.csv_rows()
        assert rows[0][0] == "n" and len(rows) == 3

    def test_zero_spec_all_zero(self):
        budgets = {"samples": 500, "paths": 8, "inner": 16, "grid_steps": 8}
        report = n_convergence(zero_spec(), [4, 6], budgets, seed=7)
        for le, re in zip(report.lhs, report.rhs):
            assert abs(le.value) < 1e-10 and abs(re.value) < 1e-8


class TestRegressionSuite:
    def test_two_slot_quadratic_identity(self):
        # lhs oracle: (m/2) logdet(I + 2c Sigma) with Sigma the slot-time
        # covariance [[t1, t1], [t1, t2]]  [2-D Gaussian determinant]
        c, n = 0.5, 8
        comp = PotentialComponent(offset=1.0, quad=c)
        spec = PotentialSpec(times=(0.5, 1.0), components=(comp,), p=2.0, offset=-1.0, m=1)
        sigma = np.array([[0.5, 0.5], [0.5, 1.0]])
        want = 0.5 * np.log(np.linalg.det(np.eye(2) + 2 * c * sigma))
        lhs = lhs_log_laplace(spec, n, 30000, stream(170), tilt=0.3)
        assert abs(lhs.value - want) <= 3 * lhs.stderr + 1e-3
        rhs = rhs_control_cost(spec, n, 64, 32, 128, stream(171))
        gap = abs(lhs.value - rhs.value)
        assert gap <= 3 * np.hypot(lhs.stderr, rhs.stderr) + 3e-3

    def test_word_spec_identity_and_n_trend(self):
        # convex word spec with small coupling: identity at n=8 and a
        # Cauchy-within-error-bars lhs sequence across n
        word = parse_word("u1 u1 u1 u1")
        comp = PotentialComponent(offset=1.0, quad=0.5, coupling=0.06, word=word)
        spec = PotentialSpec(times=(1.0,), components=(comp,), p=2.0, m=1)
        lhs8 = lhs_log_laplace(spec, 8, 30000, stream(172), tilt="auto")
        rhs8 = rhs_control_cost(spec, 8, 64, 32, 128, stream(173))
        gap = abs(lhs8.value - rhs8.value)
        assert gap <= 3 * np.hypot(lhs8.stderr, rhs8.stderr) + 3e-3
        vals = [lhs8]
        for n in (16, 32):
            vals.append(lhs_log_laplace(spec, n, 30000, stream(174, worker=n), tilt="auto"))
        # successive gaps shrink within combined error bars (1/n^2 trend)
        g1 = abs(vals[0].value - vals[1].value)
        g2 = abs(vals[1].value - vals[2].value)
        tol = 3 * (vals[0].stderr + vals[1].stderr + vals[2].stderr)
        assert g2 <= g1 + tol
