"""hermflow benchmark: end-to-end CLI runs and an outside-in per-layer split.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a hermflow source tree.  Each workload is one fresh
``hermflow`` CLI process at a time on a config generated from the seed
(``--threads`` stays 1).  With ``--trace 0`` the benchmark times set-up
(five fresh interpreters importing ``hermflow.cli`` and loading the
config), then repeats the CLI run until ``--seconds`` have passed (at least
once) and reports the medians of wall time, CPU time and peak RSS.  With
``--trace 1`` it runs the CLI once in-process under ``tracer.Tracer`` and
reports the per-layer split.  Every run is gated on the CLI's own checks
and on its ``report.json`` digest, which must match every other run of the
same (workload, seed) on the same ``src/hermflow`` sources, traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Why each workload
was chosen and what each layer metric should move is in NOTES.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, TIMED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPS = 5
CHILD_DEADLINE_S = 170.0  # the whole benchmark run must end within 180 s

README_SPEC = {
    "times": [1.0],
    "p": 2.0,
    "D": -1.0,
    "m": 1,
    "components": [{"D": 1.0, "C": 0.5, "lambda_re": 0.0, "lambda_im": 0.0, "word": ""}],
}
WORD_SPEC = {
    **README_SPEC,
    "components": [{"D": 1.0, "C": 0.5, "lambda_re": 0.06, "lambda_im": 0.0, "word": "u1 u1 u1 u1"}],
}
CONTROL_BUDGETS = {"samples": 100000, "paths": 32, "inner": 128, "grid_steps": 48}

# name -> (CLI command, config document without the seed)
WORKLOADS = {
    "control-quadratic": (
        "laplace-verify",
        {"spec": README_SPEC, "n_list": [8, 16], "budgets": CONTROL_BUDGETS, "tilt": "auto"},
    ),
    "control-word": (
        "laplace-verify",
        {"spec": WORD_SPEC, "n_list": [8], "budgets": CONTROL_BUDGETS, "tilt": "auto"},
    ),
    # chain_steps must stay >= 4000: at 2000 the chain-agreement check
    # fails at seed 1 (see NOTES.md).
    "mala-word": (
        "gibbs-sample",
        {"spec": WORD_SPEC, "n_list": [32], "budgets": {"chains": 4, "chain_steps": 4000}},
    ),
}

FIELD_UNITS = {"calls": "count", "s": "s", "normals": "count", "matrices": "count"}


class BenchmarkError(RuntimeError):
    pass


# -- inputs ------------------------------------------------------------------


@functools.cache
def source_sha256() -> str:
    """SHA-256 over the path and contents of every ``src/hermflow`` Python file."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hermflow").rglob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.relative_to(SRC).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def write_config(work: Path, workload: str, seed: int, budgets: dict | None = None) -> tuple:
    """Config file for (workload, seed); ``budgets`` overrides budget fields.

    Returns the CLI command, the file, the document and the key under which
    the digests of this config's reports are kept.  The key names the
    sources too, so reports of other code are never compared.
    """
    command, base = WORKLOADS[workload]
    doc = json.loads(json.dumps(base))
    if budgets:
        doc["budgets"] = {**doc["budgets"], **budgets}
        if "n_list" in budgets:
            doc["n_list"] = doc["budgets"].pop("n_list")
    doc["seed"] = seed
    path = work / f"{workload}-seed{seed}.json"
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    path.write_text(text)
    key = f"{workload}:{seed}:{hashlib.sha256(text.encode()).hexdigest()[:16]}:{source_sha256()[:16]}"
    return command, path, doc, key


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["APP_LOG"] = "WARNING"
    return env


# -- child processes -----------------------------------------------------------


def spawn(argv: list, log: Path, deadline: float) -> dict:
    """Run ``argv`` to completion; return exit code, wall, CPU and peak RSS."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    wall = time.perf_counter() - t0
                    break
                if time.perf_counter() > deadline:
                    raise BenchmarkError(f"{argv[1:3]} did not finish before the deadline")
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def cli_argv(command: str, config: Path, seed: int, out: Path) -> list:
    return [command, "--config", str(config), "--seed", str(seed), "--out", str(out), "--threads", "1"]


def setup_probe(command: str, config: Path, log: Path, deadline: float) -> dict:
    res = spawn([sys.executable, str(BENCH / "child.py"), "setup", command, str(config)], log, deadline)
    lines = log.read_text().strip().splitlines()
    if res["exit_code"] != 0 or not lines:
        raise BenchmarkError(f"set-up probe failed, see {log}")
    return json.loads(lines[-1])


# -- correctness gate ----------------------------------------------------------


def gate(out: Path, exit_code: int, expected_checks: int, digests: dict, key: str) -> dict:
    """Checks attempted and failed for one CLI run.

    A run passes when it exits 0, reports ``all_passed`` and writes a
    ``report.json`` whose digest matches every earlier run under ``key``:
    the same (workload, seed), config and sources.  A run that exits
    non-zero, writes no report, or whose digest differs counts all of its
    checks as failed.
    """
    report_path = out / "report.json"
    raw = report_path.read_bytes() if report_path.exists() else None
    report = json.loads(raw) if raw else None
    digest = hashlib.sha256(raw).hexdigest() if raw else None
    checks = (report or {}).get("checks", [])
    attempted = max(len(checks), expected_checks)
    failed, reason = 0, None
    if digest is None:
        failed, reason = attempted, f"exit code {exit_code}, no report"
    else:
        known = digests.setdefault(key, digest)
        if known != digest:
            failed, reason = attempted, f"report digest {digest[:12]} differs from {known[:12]}"
        elif exit_code != 0 or not report.get("all_passed") or len(checks) < attempted or not all(
            c.get("passed") for c in checks
        ):
            failed, reason = attempted, f"exit code {exit_code}, all_passed {report.get('all_passed')}"
    return {"attempted": attempted, "failed": failed, "digest": digest, "report": report, "reason": reason}


def load_digests(work: Path) -> dict:
    path = work / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_digests(work: Path, digests: dict) -> None:
    tmp = work / "digests.json.tmp"
    tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
    tmp.replace(work / "digests.json")


# -- metrics -------------------------------------------------------------------


def chain_agreement_margin(report: dict | None) -> float:
    margins = [
        c["spread"] / c["tol"]
        for c in (report or {}).get("checks", [])
        if c.get("witnesses") == "gibbs-endpoint-law" and c.get("tol")
    ]
    return max(margins, default=0.0)


def per_layer_metrics(summary: dict, report: dict | None, fail_ratio: float) -> dict:
    """Per-layer metrics from a tracer summary.

    Module-level metrics exist whatever the functions inside a module are
    called.  A function-level metric whose function no longer exists in the
    package is left out, not reported as 0.
    """
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        lay = summary["layers"][layer]
        put(f"{layer}.calls", lay["calls"], "count")
        put(f"{layer}.s", lay["s"], "s")
        put(f"{layer}.self_s", lay["self_s"], "s")

    fns = summary["functions"]
    for name, fields in TIMED.items():
        if name in fns:
            for field in fields:
                put(f"{name}.{field}", fns[name].get(field, 0), FIELD_UNITS[field])

    drift = fns.get("value_function.drift_core_array")
    if drift:
        count = drift.get("ess_count", 0)
        put("value_function.ess_ratio_mean", drift["ess_sum"] / count if count else 0.0, "ratio")
        put("value_function.ess_ratio_min", drift["ess_min"] if count else 0.0, "ratio")
        if "matrix_core.cayley" in fns:
            per = summary["nested"]["cayley_in_drift"] / drift["calls"] if drift["calls"] else 0.0
            put("value_function.cayley_per_drift", per, "calls/call")

    mala = fns.get("gibbs.mala_sample")
    if mala:
        steps = mala.get("steps", 0)
        put("gibbs.mala_steps", steps, "count")
        put("gibbs.step_us", 1e6 * mala["s"] / steps if steps else 0.0, "us")
        put("gibbs.acceptance_mean", mala["acceptance"] / mala["calls"] if mala["calls"] else 0.0, "ratio")
        per = summary["nested"]["potential_calls_in_mala"] / steps if steps else 0.0
        put("gibbs.potential_calls_per_step", per, "calls/step")
    put("gibbs.chain_agreement_margin", chain_agreement_margin(report), "ratio")

    put("trace.overhead_s", summary["overhead_s"], "s")
    put("trace.uncovered_s", summary["uncovered_s"], "s")
    put("check_fail_ratio", fail_ratio, "ratio")
    return out


# -- environment ---------------------------------------------------------------


def environment(seed: int, configs: dict, runtime: dict) -> dict:
    """The run's inputs and machine; ``runtime`` comes from a child interpreter."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "seed": seed,
        "config_sha256": {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in configs.items()},
        "commit": commit,
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        **runtime,
    }


# -- runs ----------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float, work: Path, budgets=None) -> dict:
    deadline = time.perf_counter() + CHILD_DEADLINE_S
    command, config, doc, key = write_config(work, workload, seed, budgets)
    digests = load_digests(work)
    probes = [setup_probe(command, config, work / f"setup{i}.log", deadline) for i in range(SETUP_REPS)]
    setups = [p["setup_s"] for p in probes]
    runs, attempted, failed, reasons = [], 0, 0, []
    t_runs = time.perf_counter()
    while not runs or time.perf_counter() - t_runs < seconds:
        out = work / f"{workload}-seed{seed}-run{len(runs)}"
        shutil.rmtree(out, ignore_errors=True)  # a stale report must not pass the gate
        res = spawn([sys.executable, "-m", "hermflow.cli", *cli_argv(command, config, seed, out)],
                    work / f"{out.name}.log", deadline)
        g = gate(out, res["exit_code"], len(doc["n_list"]), digests, key)
        attempted += g["attempted"]
        failed += g["failed"]
        if g["reason"]:
            reasons.append(g["reason"])
        runs.append(res)
    save_digests(work, digests)
    metrics = {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in runs), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in runs), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs), "unit": "MB"},
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "runs": runs,
            "setups": setups, "reasons": reasons, "configs": {workload: config},
            "runtime": probes[0]["runtime"]}


def run_traced(workload: str, seed: int, work: Path, budgets=None) -> dict:
    deadline = time.perf_counter() + CHILD_DEADLINE_S
    command, config, doc, key = write_config(work, workload, seed, budgets)
    digests = load_digests(work)
    out = work / f"{workload}-seed{seed}-traced"
    shutil.rmtree(out, ignore_errors=True)
    trace_path = work / f"{workload}-seed{seed}-trace.json"
    trace_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), "traced", str(trace_path), *cli_argv(command, config, seed, out)]
    res = spawn(argv, work / f"{out.name}.log", deadline)
    g = gate(out, res["exit_code"], len(doc["n_list"]), digests, key)
    save_digests(work, digests)
    reasons = [g["reason"]] if g["reason"] else []
    if not trace_path.exists():
        raise BenchmarkError(f"traced run wrote no trace, see {work / (out.name + '.log')}")
    summary = json.loads(trace_path.read_text())
    if summary["not_restored"]:
        reasons.append(f"attributes not restored: {summary['not_restored']}")
    failed = g["attempted"] if summary["not_restored"] else g["failed"]
    metrics = per_layer_metrics(summary, g["report"], failed / g["attempted"])
    return {"attempted": g["attempted"], "failed": failed, "metrics": metrics, "summary": summary,
            "digest": g["digest"], "reasons": reasons, "configs": {workload: config},
            "runtime": summary["runtime"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hermflow" / "cli.py").is_file():
        print(f"benchmark error: no hermflow sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            res = run_traced(args.workload, args.seed, WORK)
        else:
            res = run_untraced(args.workload, args.seed, args.seconds, WORK)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(environment(args.seed, res["configs"], res["runtime"]), sort_keys=True))
    for reason in res["reasons"]:
        print(f"check failure: {reason}")
    if not args.trace:
        print("runs " + json.dumps({"cli": res["runs"], "setup_s": res["setups"]}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
