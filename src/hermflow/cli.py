"""Config-driven experiment runner.

Usage:  hermflow <command> --config cfg.json [--seed u64] [--out dir] [--threads 1]

Commands: laplace-verify, gibbs-sample, sd-check, sde-run, entropy-estimate,
yosida-test.  Exit codes: 0 all checks pass, 1 numerical-check failure,
2 config error.  Verbosity via the APP_LOG environment variable.  Chains and
sizes run one after another; ``--threads`` accepts only 1 and is kept for
existing command lines.

Each run writes ``report.json`` (estimates with stderr and pass/fail check
entries, plus the resolved config echo) and plot-ready ``tables/*.csv``.
Reports are byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import free_entropy, gibbs, laplace, sde, yosida
from .matrix_core import norm2_array, stream
from .nc_poly import NCPolynomial
from .potentials import (
    PotentialSpec,
    SpecFieldError,
    ensure_component_floor,
    spec_from_dict,
    spec_to_dict,
)
from .value_function import EstimatorUnderflow, resolve_tilt

log = logging.getLogger("hermflow")

COMMANDS = (
    "laplace-verify",
    "gibbs-sample",
    "sd-check",
    "sde-run",
    "entropy-estimate",
    "yosida-test",
)

DEFAULT_BUDGETS = {
    "samples": 20000,
    "paths": 64,
    "inner": 128,
    "grid_steps": 48,
    "chain_steps": 4000,
    "chains": 2,
}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class ExperimentConfig:
    command: str
    spec: PotentialSpec
    n_list: list
    budgets: dict
    seed: int
    out_dir: Path
    tilt: object = "auto"  # raw config value, resolved by resolve_tilt at run time
    raw: dict = field(default_factory=dict)


def _positive_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val > 0


def load_config(command: str, doc: dict, seed_override=None, out_override=None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("$", "config must be a JSON object")
    cfg_command = doc.get("command", command)
    if cfg_command != command:
        raise ConfigError("command", f"config says {cfg_command!r}, CLI says {command!r}")
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}")
    if "spec" not in doc and command != "yosida-test":
        raise ConfigError("spec", "missing potential spec document")
    spec = None
    if "spec" in doc:
        try:
            spec = spec_from_dict(doc["spec"])
        except SpecFieldError as exc:
            raise ConfigError(f"spec.{exc.field}" if exc.field else "spec", str(exc)) from exc
        for i, comp in enumerate(spec.components):
            if comp.word is not None and comp.word.letter_indices("v"):
                raise ConfigError(
                    f"spec.components[{i}].word",
                    "external unitaries (v letters) cannot be supplied by a config",
                )
    n_list = doc.get("n_list", doc.get("N", [8]))
    if not isinstance(n_list, list) or not n_list or not all(_positive_int(v) for v in n_list):
        raise ConfigError("n_list", "must be a nonempty list of positive integers")
    budgets = dict(DEFAULT_BUDGETS)
    user_budgets = doc.get("budgets", {})
    if not isinstance(user_budgets, dict):
        raise ConfigError("budgets", "must be an object")
    for key, val in user_budgets.items():
        if key not in DEFAULT_BUDGETS:
            raise ConfigError(f"budgets.{key}", "unknown budget field")
        if not _positive_int(val):
            raise ConfigError(f"budgets.{key}", "must be a positive integer")
        budgets[key] = val
    if "grid_steps" in doc:
        if not _positive_int(doc["grid_steps"]):
            raise ConfigError("grid_steps", "must be a positive integer")
        budgets["grid_steps"] = doc["grid_steps"]
    tilt = doc.get("tilt", "auto")
    if spec is not None or tilt != "auto":  # without a spec only the form is checked
        try:
            resolve_tilt(spec, tilt)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("tilt", str(exc)) from exc
    seed = seed_override if seed_override is not None else doc.get("seed")
    if seed is None:
        raise ConfigError("seed", "seed is mandatory (reproducibility)")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed", "must be a nonnegative integer")
    output = out_override or doc.get("output", "out")
    if not isinstance(output, str):
        raise ConfigError("output", f"must be a path string, got {output!r}")
    return ExperimentConfig(
        command=command,
        spec=spec,
        n_list=n_list,
        budgets=budgets,
        seed=int(seed),
        out_dir=Path(output),
        tilt=tilt,
        raw=doc,
    )


def _check(name: str, passed: bool, witnesses: str, **detail) -> dict:
    entry = {"name": name, "passed": bool(passed), "witnesses": witnesses}
    entry.update(detail)
    return entry


def _ve(e) -> dict | None:
    if e is None:
        return None
    return {"value": e.value, "stderr": e.stderr, "samples": e.samples}


# -- command implementations --------------------------------------------------


def run_laplace_verify(cfg: ExperimentConfig) -> tuple[dict, list]:
    report = laplace.n_convergence(
        cfg.spec, cfg.n_list, cfg.budgets, seed=cfg.seed, tilt=cfg.tilt
    )
    checks = []
    for nv, flag, gap in zip(report.n_list, report.flags, report.gaps):
        checks.append(
            _check(
                f"laplace-gap-n{nv}",
                flag in ("pass", "skipped"),
                "laplace-identity",
                gap=gap,
                flag=flag,
            )
        )
    tables = [("laplace.csv", report.csv_rows())]
    return {"laplace": report.as_dict(), "tables": dict(tables)}, checks


def _chain_moments(samples: np.ndarray, n: int) -> dict:
    x = samples[:, 0]
    t2 = np.einsum("smij,smji->s", x, x).real / n
    sq = np.einsum("smij,smjk->smik", x, x)
    t4 = np.einsum("smij,smji->s", sq, sq).real / n
    return {
        "tau2": float(t2.mean()),
        "tau2_err": float(t2.std(ddof=1) / np.sqrt(t2.size)),
        "tau4": float(t4.mean()),
        "tau4_err": float(t4.std(ddof=1) / np.sqrt(t4.size)),
    }


def run_gibbs_sample(cfg: ExperimentConfig) -> tuple[dict, list]:
    results = {}
    checks = []
    rows = [("n", "chain", "tau2", "tau2_err", "tau4", "tau4_err", "acceptance", "ess")]

    for nv in cfg.n_list:
        per_chain = []
        traces = []
        chains = range(cfg.budgets["chains"])
        samples, batch = gibbs.mala_sample(
            [gibbs.GibbsEnsemble(cfg.spec, nv, step=0.3 / np.sqrt(nv)) for _ in chains],
            cfg.budgets["chain_steps"],
            [stream(cfg.seed, worker=101 * nv + idx) for idx in chains],
        )
        for idx, diag in zip(chains, batch["chains"]):
            mom = _chain_moments(samples[idx], nv)
            traces.append(diag.pop("trace_norm2"))
            per_chain.append({"moments": mom, "diagnostics": diag})
            rows.append(
                (nv, idx, mom["tau2"], mom["tau2_err"], mom["tau4"], mom["tau4_err"],
                 round(diag["acceptance"], 4), round(diag["ess"], 1))
            )
        t2s = [c["moments"]["tau2"] for c in per_chain]
        spread = max(t2s) - min(t2s)
        tol = 6 * max(c["moments"]["tau2_err"] for c in per_chain) + 1e-9
        psrf = gibbs.rhat(traces) if len(traces) >= 2 else float("nan")
        checks.append(
            _check(
                f"chain-agreement-n{nv}", spread <= tol, "gibbs-endpoint-law",
                spread=spread, tol=tol, rhat=psrf,
            )
        )
        results[str(nv)] = {"chains": per_chain, "rhat": psrf}
    return {"gibbs": results, "tables": {"gibbs_moments.csv": rows}}, checks


def _battery(max_degree: int = 3):
    x = NCPolynomial.x(1)
    polys = [NCPolynomial.one()]
    acc = NCPolynomial.one()
    for _ in range(max_degree):
        acc = acc * x
        polys.append(acc)
    return polys


def run_sd_check(cfg: ExperimentConfig) -> tuple[dict, list]:
    checks = []
    rows = [("n", "poly_degree", "residual", "stderr", "flag")]
    results = {}
    for nv in cfg.n_list:
        ens = gibbs.GibbsEnsemble(cfg.spec, nv, step=0.3 / np.sqrt(nv))
        samples, diag = gibbs.mala_sample(
            ens, cfg.budgets["chain_steps"], stream(cfg.seed, worker=7 * nv)
        )
        infl = np.sqrt(max(1.0, samples.shape[0] / max(diag["ess"], 1.0)))
        entries = []
        for deg, poly in enumerate(_battery()):
            est = gibbs.sd_residual(samples, cfg.spec, poly, 1)
            ok = abs(est.value) <= 3 * est.stderr * infl + 1e-9
            entries.append({"degree": deg, "residual": est.value, "stderr": est.stderr, "pass": ok})
            rows.append((nv, deg, est.value, est.stderr, "pass" if ok else "fail"))
            checks.append(
                _check(
                    f"sd-residual-n{nv}-deg{deg}", ok, "schwinger-dyson-residual",
                    residual=est.value, stderr=est.stderr,
                )
            )
        results[str(nv)] = {"battery": entries, "diagnostics": diag}
    return {"sd": results, "tables": {"sd_residuals.csv": rows}}, checks


def run_sde_run(cfg: ExperimentConfig) -> tuple[dict, list]:
    nv = cfg.n_list[0]
    sim = laplace.simulate_controlled_paths(
        cfg.spec, nv, 1, cfg.budgets["grid_steps"], cfg.budgets["inner"],
        stream(cfg.seed, worker=1), tilt=cfg.tilt, heun=False,
    )
    grid, states = sim["grid"], sim["states"][0]
    stride = max(1, len(grid) // 32)
    rows = [("time", "matrix", "row", "col", "re", "im")]
    for i in range(0, len(grid), stride):
        for l in range(cfg.spec.m):
            for r in range(nv):
                for c in range(nv):
                    z = states[i, l, r, c]
                    rows.append((float(grid[i]), l, r, c, float(z.real), float(z.imag)))
    tau2 = norm2_array(states)
    moments = [{"time": float(t), "tau2": float(v)} for t, v in zip(grid, tau2)]
    results = {"n": nv, "moments": moments}
    checks = [
        _check(
            "path-finite", bool(np.isfinite(states).all()), "controlled-dynamics",
            final_tau2=moments[-1]["tau2"],
        )
    ]
    return {"sde": results, "tables": {"path.csv": rows}}, checks


def run_entropy_estimate(cfg: ExperimentConfig) -> tuple[dict, list]:
    nv = cfg.n_list[0]
    t_grid = np.concatenate([np.linspace(0.0, 4.0, 41), np.linspace(4.5, 40.0, 72)])
    flow, flow_report = free_entropy.fisher_semicircular_flow(cfg.spec, t_grid)
    star = free_entropy.chi_star(flow, m=cfg.spec.m)
    const = free_entropy.calibrate_universal_constant(
        n=nv,
        paths=cfg.budgets["paths"],
        grid_steps=cfg.budgets["grid_steps"],
        inner=cfg.budgets["inner"],
        rng=stream(cfg.seed, worker=3),
    )
    ctl = free_entropy.chi_microstates_control(
        cfg.spec,
        n=nv,
        paths=cfg.budgets["paths"],
        grid_steps=cfg.budgets["grid_steps"],
        inner=cfg.budgets["inner"],
        rng=stream(cfg.seed, worker=4),
        constant=const,
    )
    gap = abs(ctl["chi"] - star)
    rel = gap / max(abs(star), 1e-12)
    checks = [
        _check("fisher-monotone", flow_report["monotone_nonincreasing"], "fisher-flow"),
        _check("entropy-agreement", rel <= 0.05, "entropy-equality", chi_star=star,
               chi_control=ctl["chi"], relative_gap=rel),
    ]
    rows = [("t", "fisher", "residual")]
    for p in flow:
        rows.append((p.t, p.density_value, p.residual))
    results = {
        "chi_star": star,
        "chi_control": ctl["chi"],
        "chi_gauss": _ve(ctl["chi_gauss"]),
        "tau2_endpoint": ctl["tau2_endpoint"],
        "constant": const,
        "flow_report": flow_report,
    }
    return {"entropy": results, "tables": {"fisher_flow.csv": rows}}, checks


def run_yosida_test(cfg: ExperimentConfig) -> tuple[dict, list]:
    rng = stream(cfg.seed, worker=5)
    half_sq = yosida.ConvexFn(fn=lambda y: 0.5 * float(np.dot(y, y)), grad=lambda y: y)
    abs_fn = yosida.ConvexFn(fn=lambda y: float(np.abs(y).sum()))
    checks = []
    # closed forms
    worst_q = 0.0
    for _ in range(50):
        x = rng.standard_normal(6)
        lam = float(rng.uniform(0.05, 2.0))
        worst_q = max(worst_q, float(np.abs(yosida.prox(half_sq, lam, x) - x / (1 + lam)).max()))
    checks.append(_check("prox-quadratic-closed-form", worst_q < 1e-6, "moreau-prox-suite", err=worst_q))
    worst_s = 0.0
    for x in (-2.0, -0.4, 0.3, 1.7):
        lam = 0.5
        j = yosida.prox(abs_fn, lam, np.array([x]))[0]
        worst_s = max(worst_s, abs(j - np.sign(x) * max(abs(x) - lam, 0.0)))
    checks.append(_check("prox-soft-threshold", worst_s < 1e-6, "moreau-prox-suite", err=worst_s))
    # contraction
    smooth = yosida.ConvexFn(
        fn=lambda y: float(np.sum(np.abs(y) + np.log1p(np.exp(-2 * np.abs(y))))),
        grad=lambda y: np.tanh(y),
    )
    ok = True
    for _ in range(1000):
        x, y = rng.standard_normal((2, 4)) * 2
        lam = float(rng.uniform(0.05, 1.0))
        jx = yosida.prox(smooth, lam, x)
        jy = yosida.prox(smooth, lam, y)
        if np.linalg.norm(jx - jy) > np.linalg.norm(x - y) * (1 + 1e-7):
            ok = False
            break
    checks.append(_check("prox-contraction", ok, "moreau-prox-suite"))
    # envelope monotone in lambda, Lipschitz gradient
    x = rng.standard_normal(4)
    vals = [yosida.envelope(smooth, lam, x) for lam in (1.0, 0.1, 0.01)]
    checks.append(
        _check("envelope-monotone", vals[0] <= vals[1] <= vals[2] <= smooth(x) + 1e-9,
               "moreau-prox-suite")
    )
    lam = 0.3
    worst_l = 0.0
    for _ in range(300):
        a, b = rng.standard_normal((2, 4)) * 2
        ga = yosida.yosida_gradient(smooth, lam, a)
        gb = yosida.yosida_gradient(smooth, lam, b)
        dn = np.linalg.norm(a - b)
        if dn > 1e-9:
            worst_l = max(worst_l, float(np.linalg.norm(ga - gb) / dn))
    checks.append(
        _check("yosida-gradient-lipschitz", worst_l <= (1 / lam) * (1 + 1e-6),
               "moreau-prox-suite", ratio=worst_l, bound=1 / lam)
    )
    return {"yosida": {"checks": len(checks)}, "tables": {}}, checks


RUNNERS = {
    "laplace-verify": run_laplace_verify,
    "gibbs-sample": run_gibbs_sample,
    "sd-check": run_sd_check,
    "sde-run": run_sde_run,
    "entropy-estimate": run_entropy_estimate,
    "yosida-test": run_yosida_test,
}


_NUMERICAL_FAILURES = (
    EstimatorUnderflow,
    gibbs.AcceptanceCollapse,
    sde.PathExplosion,
    sde.PicardNonContraction,
    yosida.ProxFailure,
    np.linalg.LinAlgError,
)


def run(cfg: ExperimentConfig) -> int:
    """Execute a command; write report.json and tables; return the exit code."""
    try:
        if cfg.spec is not None:
            cfg.spec = ensure_component_floor(
                cfg.spec, max(cfg.n_list), stream(cfg.seed, worker=999)
            )[0]
        results, checks = RUNNERS[cfg.command](cfg)
    except _NUMERICAL_FAILURES as exc:
        log.error("numerical failure: %s", exc)
        _write_report(cfg, {"error": str(exc)}, [], ok=False)
        return 1
    ok = all(c["passed"] for c in checks)
    _write_report(cfg, results, checks, ok=ok)
    return 0 if ok else 1


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_report(cfg: ExperimentConfig, results: dict, checks: list, ok: bool):
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    tables = results.pop("tables", {})
    report = {
        "command": cfg.command,
        "seed": cfg.seed,
        "config": {
            "spec": spec_to_dict(cfg.spec) if cfg.spec is not None else None,
            "n_list": cfg.n_list,
            "budgets": cfg.budgets,
            "tilt": cfg.tilt,
        },
        "results": results,
        "checks": checks,
        "all_passed": ok,
    }
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    )
    if tables:
        tdir = out / "tables"
        tdir.mkdir(exist_ok=True)
        for name, rows in tables.items():
            with open(tdir / name, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
    log.info("wrote %s (all_passed=%s)", out / "report.json", ok)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hermflow", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, default=1, choices=(1,))
    args = parser.parse_args(argv)

    logging.basicConfig(level=os.environ.get("APP_LOG", "INFO").upper())
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.command, doc, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
