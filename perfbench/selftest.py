"""Self-test of the benchmark on tiny budgets (about 30 s on 2 CPUs).

    python3 perfbench/selftest.py

For each workload it runs the CLI once untraced and once traced with n=4
and a handful of draws, then asserts that the two ``report.json`` digests
match, that a digest stored for other sources is not compared, that the
tracer restored every module attribute, that the traced layer self times
add up to the traced wall time with little of it left in ``cli``'s own
frames, and that every metric named in BENCHMARK.json appears with its
unit.  It does not assert that the CLI's statistical checks pass: at these
budgets they need not.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "laplace-verify": {"n_list": [4], "samples": 50000, "paths": 16, "inner": 16, "grid_steps": 8},
    "gibbs-sample": {"n_list": [4], "chains": 2, "chain_steps": 200},
}


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS), spec["workloads"]
    return end, layer


def check_metrics(got: dict, declared: dict, what: str) -> None:
    for name, unit in declared.items():
        assert name in got, f"{what}: metric {name} missing"
        assert got[name]["unit"] == unit, f"{what}: {name} has unit {got[name]['unit']}, not {unit}"
        assert isinstance(got[name]["value"], (int, float)) and math.isfinite(got[name]["value"]), (what, name)
    extra = sorted(set(got) - set(declared))
    assert not extra, f"{what}: metrics not in BENCHMARK.json: {extra}"


def main() -> int:
    end, layer = declared_metrics()
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for workload, (command, _) in run.WORKLOADS.items():
        # A digest kept for the same config on other sources must be ignored.
        key = run.write_config(work, workload, 1, TINY[command])[3]
        stale = key.rsplit(":", 1)[0] + ":" + "0" * 16
        run.save_digests(work, {**run.load_digests(work), stale: "0" * 64})
        plain = run.run_untraced(workload, 1, 0.0, work, budgets=TINY[command])
        traced = run.run_traced(workload, 1, work, budgets=TINY[command])
        assert len(plain["runs"]) == 1 and plain["runs"][0]["exit_code"] in (0, 1), plain["runs"]
        digests = run.load_digests(work)
        assert len([k for k in digests if k.startswith(workload + ":") and k != stale]) == 1, digests
        assert not any("digest" in r for r in plain["reasons"] + traced["reasons"]), (
            plain["reasons"], traced["reasons"])
        summary = traced["summary"]
        assert summary["not_restored"] == [], summary["not_restored"]
        # Outside-in spans must cover the whole run: cli.main is the root span.
        assert all(v["self_s"] >= 0.0 for v in summary["layers"].values()), summary["layers"]
        assert 0.0 <= summary["uncovered_s"] < 0.05 * summary["wall_s"], summary["uncovered_s"]
        # Work that escapes the wrappers lands in cli's self time; cli's own
        # frames (config, report) take about 1-4% of these runs.
        cli_share = summary["layers"]["cli"]["self_s"] / summary["wall_s"]
        assert cli_share < 0.1, f"cli.self_s is {cli_share:.3f} of the traced wall time"
        check_metrics(plain["metrics"], end, f"{workload} untraced")
        check_metrics(traced["metrics"], layer, f"{workload} traced")
        if command == "laplace-verify":
            # Reached only through value_function's own `from .matrix_core import` binding.
            assert traced["metrics"]["matrix_core.sample_increment_array.calls"]["value"] > 0
        # A function that no longer exists is reported as absent, not as 0.
        gone = dict(summary, functions={k: v for k, v in summary["functions"].items()
                                        if k != "value_function.value_h"})
        assert "value_function.value_h.s" not in run.per_layer_metrics(gone, None, 0.0)
        print(f"{workload}: ok ({summary['spans']} spans, cli.self_s share {cli_share:.3f}, "
              f"digest {traced['digest'][:12]})")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
