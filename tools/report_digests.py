"""Digests of CLI reports on small configs, for comparing two source trees.

    python3 tools/report_digests.py [--src DIR]

Runs every ``hermflow`` command on the small configs below at seeds 1 and 2,
each in a fresh interpreter inside a temporary directory, on the sources of
the tree DIR (``DIR/src/hermflow``; default: the tree holding this script).
Prints one line per (config, seed): the exit code and the first 12 hex
digits of the SHA-256 of ``report.json`` and of each ``tables/*.csv``.
Run it on two trees and diff the outputs: a change that keeps every number
keeps every line.  Nothing is written inside either tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2)


def _spec(times, components, p=2.0, m=1):
    return {"times": list(times), "p": p, "D": -1.0, "m": m, "components": components}


def _comp(c, lam=0.0, word="", d=1.0):
    return {"D": d, "C": c, "lambda_re": lam, "lambda_im": 0.0, "word": word}


QUAD = _spec([1.0], [_comp(0.5)])
WORD = _spec([1.0], [_comp(0.5, 0.06, "u1 u1 u1 u1")])
TWO_INF = _spec([0.5, 1.0], [_comp(0.5, 0.05, "u1 u2^-1"), _comp(0.3, d=2.0)], p="inf", m=2)
TWO_QUAD = _spec([0.5, 1.0], [_comp(0.5)])
LV = {"samples": 2000, "paths": 12, "inner": 32, "grid_steps": 12}
CHAIN = {"chains": 2, "chain_steps": 400}

# name -> (command, config document without the seed)
CONFIGS = {
    "lv-quad": ("laplace-verify", {"spec": QUAD, "n_list": [4], "budgets": LV}),
    "lv-word": ("laplace-verify", {"spec": WORD, "n_list": [4], "budgets": LV}),
    "lv-two-inf": ("laplace-verify", {"spec": TWO_INF, "n_list": [4], "budgets": LV}),
    "lv-tilt-num": ("laplace-verify", {"spec": QUAD, "n_list": [4], "budgets": LV, "tilt": 0.25}),
    "lv-tilt-none": ("laplace-verify", {"spec": QUAD, "n_list": [4], "budgets": LV, "tilt": None}),
    "gibbs-sample": ("gibbs-sample", {"spec": WORD, "n_list": [6], "budgets": CHAIN}),
    "sd-check": ("sd-check", {"spec": WORD, "n_list": [6], "budgets": CHAIN}),
    "sde-two": ("sde-run", {"spec": TWO_QUAD, "n_list": [4], "budgets": {"inner": 16}, "grid_steps": 8}),
    "sde-word": ("sde-run", {"spec": WORD, "n_list": [4], "budgets": {"inner": 16, "grid_steps": 8}}),
    "entropy-estimate": (
        "entropy-estimate",
        {"spec": QUAD, "n_list": [4], "budgets": {"paths": 8, "inner": 16, "grid_steps": 8}},
    ),
    "yosida-test": ("yosida-test", {}),
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12] if path.exists() else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    src = args.src.resolve() / "src"
    if not (src / "hermflow" / "cli.py").is_file():
        print(f"no hermflow sources under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", "APP_LOG": "ERROR"}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, (command, doc) in CONFIGS.items():
            config = work / f"{name}.json"
            config.write_text(json.dumps(doc))
            for seed in SEEDS:
                out = work / f"{name}-seed{seed}"
                argv_cli = [sys.executable, "-m", "hermflow.cli", command, "--config", str(config),
                            "--seed", str(seed), "--out", str(out)]
                code = subprocess.run(argv_cli, cwd=work, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL).returncode
                tables = sorted((out / "tables").glob("*.csv"))
                parts = [f"report.json={_digest(out / 'report.json')}"]
                parts += [f"{t.name}={_digest(t)}" for t in tables]
                print(f"{name} seed={seed} exit={code} " + " ".join(parts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
