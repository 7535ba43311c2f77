"""Child processes of the benchmark; each runs in a fresh interpreter.

    python3 perfbench/child.py setup <command> <config.json>
        Time importing hermflow.cli, load_config and ensure_component_floor,
        and print the seconds and the interpreter's environment as JSON.

    python3 perfbench/child.py traced <trace.json> <hermflow CLI arguments...>
        Run hermflow.cli.main under the span tracer and write its summary.

Both expect the hermflow sources on PYTHONPATH.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def runtime() -> dict:
    """Python, numpy and scipy versions and BLAS details of this interpreter.

    Nothing is changed: the thread count is what OpenBLAS reports it starts
    by default.
    """
    import ctypes
    import glob
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
        "env_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                info["default_threads"] = getattr(lib, sym)()
                break
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__, "blas": info}


def setup(command: str, config: str) -> None:
    from hermflow import cli
    from hermflow.matrix_core import stream
    from hermflow.potentials import ensure_component_floor

    cfg = cli.load_config(command, json.loads(Path(config).read_text()))
    ensure_component_floor(cfg.spec, max(cfg.n_list), stream(cfg.seed, worker=999))
    elapsed = time.perf_counter() - T0
    print(json.dumps({"setup_s": elapsed, "runtime": runtime()}))


def traced(trace_path: str, argv: list) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hermflow.cli

    from tracer import Tracer

    with Tracer() as tracer:
        t0 = time.perf_counter()
        code = hermflow.cli.main(argv)
        wall = time.perf_counter() - t0
    summary = tracer.summary(wall)
    summary["exit_code"] = code
    summary["not_restored"] = tracer.not_restored
    summary["runtime"] = runtime()
    Path(trace_path).write_text(json.dumps(summary, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "traced":
        sys.exit(traced(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
