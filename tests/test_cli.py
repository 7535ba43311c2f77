import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermflow import cli, gibbs, sde, yosida
from hermflow.cli import ConfigError, load_config, main
from hermflow.potentials import quadratic_spec, spec_to_dict
from hermflow.value_function import EstimatorUnderflow


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def quad_doc(c=0.5, seed=1, n_list=(4, 6), budgets=None):
    return {
        "spec": spec_to_dict(quadratic_spec(c)),
        "n_list": list(n_list),
        "seed": seed,
        "budgets": budgets or {"samples": 2000, "paths": 24, "inner": 48, "grid_steps": 16},
    }


def _full_doc():
    """A valid config that sets every field a config can hold."""
    spec = {
        "times": [0.5, 1.0],
        "p": 2.5,
        "D": -1.0,
        "m": 1,
        "components": [
            {"D": 1.0, "C": 0.5, "lambda_re": 0.05, "lambda_im": 0.01, "word": "u1 u2^-1"},
            {"D": 2.0, "C": 0.3},
        ],
    }
    return {
        "command": "laplace-verify",
        "spec": spec,
        "n_list": [4, 6],
        "budgets": {"samples": 200, "paths": 4},
        "grid_steps": 8,
        "tilt": 0.25,
        "seed": 3,
        "output": "out",
    }


def _field_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


_FIELD_PATHS = list(_field_paths(_full_doc()))
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, int) else type(value)


class TestValidation:
    def test_invalid_p_exit_2(self, tmp_path, capsys):
        doc = quad_doc()
        doc["spec"]["p"] = 1.5
        cfg = write_config(tmp_path, doc)
        rc = main(["laplace-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "spec.p" in capsys.readouterr().err

    def test_missing_seed_exit_2(self, tmp_path, capsys):
        doc = quad_doc()
        del doc["seed"]
        cfg = write_config(tmp_path, doc)
        rc = main(["laplace-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_boolean_budget_exit_2(self, tmp_path, capsys):
        doc = quad_doc()
        doc["budgets"]["paths"] = True
        cfg = write_config(tmp_path, doc)
        rc = main(["laplace-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "budgets.paths" in capsys.readouterr().err

    def test_boolean_seed_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quad_doc(seed=True))
        rc = main(["laplace-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_boolean_n_list_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quad_doc(n_list=(True,)))
        rc = main(["laplace-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "n_list" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_budget_field_named(self, tmp_path, capsys):
        doc = quad_doc()
        doc["budgets"]["bogus"] = 3
        cfg = write_config(tmp_path, doc)
        rc = main(["laplace-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "budgets.bogus" in capsys.readouterr().err

    def test_external_unitary_letter_exit_2(self, tmp_path, capsys):
        doc = quad_doc()
        doc["spec"]["components"][0].update(lambda_re=0.05, word="u1 v1")
        cfg = write_config(tmp_path, doc)
        rc = main(["laplace-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "spec.components[0].word" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        rc = main(["laplace-verify", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize("tilt", ["bogus", -0.5, [0.3]])
    def test_bad_tilt_exit_2(self, tmp_path, capsys, tilt):
        doc = quad_doc()
        doc["tilt"] = tilt
        cfg = write_config(tmp_path, doc)
        rc = main(["laplace-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "tilt" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_tilt_without_spec_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 5, "tilt": "bogus"})
        rc = main(["yosida-test", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "tilt" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [0, -4, 2.5, "8", True])
    def test_bad_grid_steps_exit_2(self, tmp_path, capsys, steps):
        doc = quad_doc()
        doc["grid_steps"] = steps
        cfg = write_config(tmp_path, doc)
        rc = main(["sde-run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "grid_steps" in capsys.readouterr().err

    def test_grid_steps_sets_budget(self):
        cfg = load_config("sde-run", {**quad_doc(), "grid_steps": 12})
        assert cfg.budgets["grid_steps"] == 12

    def test_threads_other_than_1_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quad_doc())
        with pytest.raises(SystemExit) as exc:
            main(["laplace-verify", "--config", cfg, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d.update(spec=[]), "spec"),
            (lambda d: d["spec"].update(components=[5]), "spec.components[0]"),
            (lambda d: d["spec"]["components"][0].update(word=5), "spec.components[0].word"),
            (lambda d: d.update(output=5), "output"),
            (lambda d: d["spec"].update(m=1.5), "spec.m"),
            (lambda d: d["spec"]["components"][0].update(C=float("nan")), "spec.components[0].C"),
            (lambda d: d["spec"]["components"][0].update(D=None), "spec.components[0].D"),
            (lambda d: d["spec"].update(p=None), "spec.p"),
        ],
        ids=["spec-list", "component-int", "word-int", "output-int", "m-float", "C-nan", "D-null",
             "p-null"],
    )
    def test_malformed_field_exit_2_named(self, tmp_path, capsys, edit, field):
        doc = {**quad_doc(), "output": str(tmp_path / "o")}
        edit(doc)
        rc = main(["laplace-verify", "--config", write_config(tmp_path, doc)])
        assert rc == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{")
        assert main(["laplace-verify", "--config", str(cfg)]) == 2

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mistyped_field_raises_only_config_error(self, data):
        doc = _full_doc()
        path = data.draw(st.sampled_from(_FIELD_PATHS))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        new = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
        parent[path[-1]] = new
        try:
            load_config("laplace-verify", doc)
        except ConfigError:
            pass

    def test_report_echoes_raw_tilt(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 5, "tilt": 1})
        out = tmp_path / "out"
        assert main(["yosida-test", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        echo = json.loads((out / "report.json").read_text())["config"]["tilt"]
        assert echo == 1 and isinstance(echo, int)


@pytest.mark.parametrize(
    "exc",
    [
        EstimatorUnderflow("all weights underflowed"),
        gibbs.AcceptanceCollapse("acceptance rate 0.010 < 5%"),
        sde.PathExplosion("state norm exploded"),
        sde.PicardNonContraction(1.2, [0.5, 0.6]),
        yosida.ProxFailure(0.25, 7),
        np.linalg.LinAlgError("Singular matrix"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_numerical_failure_writes_report(tmp_path, monkeypatch, exc):
    def fail(cfg):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "laplace-verify", fail)
    out = tmp_path / "o"
    assert main(["laplace-verify", "--config", write_config(tmp_path, quad_doc()), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is False
    assert report["results"]["error"] == str(exc)


def test_floor_failure_writes_report(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "ensure_component_floor", fail)
    out = tmp_path / "o"
    assert main(["laplace-verify", "--config", write_config(tmp_path, quad_doc()), "--out", str(out)]) == 1
    assert json.loads((out / "report.json").read_text())["results"]["error"] == "Singular matrix"


class TestLaplaceVerify:
    def test_quadratic_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, quad_doc())
        out = tmp_path / "out"
        rc = main(["laplace-verify", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"]
        assert all(c["passed"] for c in report["checks"])
        assert all("witnesses" in c for c in report["checks"])
        table = (out / "tables" / "laplace.csv").read_text()
        assert table.splitlines()[0].startswith("n,lhs")

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, quad_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["laplace-verify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["laplace-verify", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        cfg = write_config(tmp_path, quad_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["laplace-verify", "--config", cfg, "--out", str(out1)])
        main(["laplace-verify", "--config", cfg, "--out", str(out2), "--seed", "99"])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["seed"] != r2["seed"]


class TestOtherCommands:
    def test_cli_import_leaves_scipy_out(self):
        # only entropy-estimate and yosida-test need scipy; they import it when they run
        code = "import sys, hermflow.cli; assert 'scipy' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_sd_check_gaussian(self, tmp_path):
        doc = {
            "spec": spec_to_dict(quadratic_spec(0.0, floor=1.0)),
            "n_list": [16],
            "seed": 3,
            "budgets": {"chain_steps": 2500},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["sd-check", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = (out / "tables" / "sd_residuals.csv").read_text().splitlines()
        assert rows[0] == "n,poly_degree,residual,stderr,flag"
        assert len(rows) == 5  # header + degrees 0..3

    def test_gibbs_sample(self, tmp_path):
        doc = quad_doc(n_list=(6,))
        doc["budgets"] = {"chain_steps": 1500, "chains": 2}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["gibbs-sample", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["results"]["gibbs"]["6"]
        assert len(entry["chains"]) == 2
        assert 0.2 < entry["chains"][0]["diagnostics"]["acceptance"] < 0.95
        assert 0.8 < entry["rhat"] < 1.3

    def test_sde_run_path_dump(self, tmp_path):
        doc = quad_doc(n_list=(4,))
        doc["budgets"] = {"inner": 64, "grid_steps": 16}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["sde-run", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = (out / "tables" / "path.csv").read_text().splitlines()
        assert rows[0] == "time,matrix,row,col,re,im"
        assert len(rows) > 16

    def test_sde_run_slot_off_grid(self, tmp_path):
        # slot time 0.3 is not a node of the uniform 4-step grid
        doc = {
            "spec": spec_to_dict(quadratic_spec(0.5, times=(0.3, 1.0))),
            "n_list": [4],
            "seed": 1,
            "budgets": {"inner": 16},
            "grid_steps": 4,
        }
        out = tmp_path / "out"
        assert main(["sde-run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.3 in [mom["time"] for mom in report["results"]["sde"]["moments"]]

    def test_yosida_test(self, tmp_path):
        doc = {"seed": 5}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["yosida-test", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert {"prox-soft-threshold", "prox-contraction", "envelope-monotone"} <= names

    def test_entropy_estimate(self, tmp_path):
        doc = quad_doc(n_list=(8,))
        doc["budgets"] = {"paths": 48, "inner": 96, "grid_steps": 48}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["entropy-estimate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        res = report["results"]["entropy"]
        assert abs(res["chi_star"] - (0.5 * np.log(2 * np.pi * np.e) - 0.5 * np.log(2))) < 1e-3
        assert (out / "tables" / "fisher_flow.csv").exists()
