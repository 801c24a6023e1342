import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fragdiff as fd
from fragdiff import cli
from fragdiff.config import (
    SimConfig,
    load_config,
    make_grid,
    make_initial_condition,
    make_kernel_set,
    reference_scenario_dict,
)
from fragdiff.errors import ConfigError, ContractViolationError
from fragdiff.grid import write_species_csv


def small_doc(**over):
    """A fast variant of the reference scenario for CLI round trips."""
    doc = reference_scenario_dict()
    doc["kernel"]["n"] = 8
    doc["grid"]["cells"] = [16]
    doc["stepper"]["t_end"] = 0.01
    doc["monitors"]["cadence"] = 5
    doc["monitors"]["tail_levels"] = [2, 4, 6]
    for key, val in over.items():
        if isinstance(val, dict):
            doc[key].update(val)
        else:
            doc[key] = val
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestConfigParsing:
    def test_scenario_dict_parses_and_round_trips(self):
        cfg = SimConfig.from_dict(reference_scenario_dict())
        assert cfg.kernel.n == 32
        assert cfg.kernel.lam == 4.0
        assert cfg.eps == 0.01
        assert SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_defaults(self):
        cfg = SimConfig.from_dict({})
        assert cfg.stepper.scheme == "imex_euler"
        assert cfg.monitors.tail_levels == [8, 16, 24]
        assert cfg.output_dir is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"kernle": {}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"kernel": {"lambda": 4.0}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"stepper": {"cfl": 0.5}})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"eps": 1.0})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"stepper": {"dt": 0.0}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"stepper": {"scheme": "verlet"}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"kernel": {"n": 4.5}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"eps": True})  # bools are not numbers here
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"grid": {"cells": [2]}})

    def test_monitor_validation(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"monitors": {"tail_levels": [8, 4]}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"monitors": {"energy_specs": [[1]]}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"monitors": {"energy_specs": [[1.5, 1.0]]}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"monitors": {"envelope_family": "gaussian"}})
        cfg = SimConfig.from_dict({"monitors": {"envelope_family": None}})
        assert cfg.monitors.envelope_family is None

    def test_table_family_needs_tables(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"kernel": {"family": "table", "n": 4}})

    def test_custom_csv_gate(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"ic": {"family": "custom_csv", "path": "x.csv"}})
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"ic": {"family": "custom_csv", "allow_custom": True}})

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)


def _key(key, default, valid, parsed, wrong_types, out_of_range, base=None):
    """One row of the per-key table: the default, a valid value and what it
    parses to, values of a wrong JSON type, and out-of-range values.  ``base``
    is a document the key is set in (for keys that need a companion key)."""
    return pytest.param(key, default, valid, parsed, wrong_types, out_of_range, base,
                        id=key)


NAN = float("nan")  # JSON documents may hold NaN, and json.load reads it
INF = float("inf")  # likewise Infinity, -Infinity, and 1e400 as infinity
NON_FINITE = [INF, -INF]  # with NAN, rejected for every float key
_CUSTOM = {"ic": {"allow_custom": True, "path": "ic.csv"}}

KEY_TABLE = [
    _key("kernel.family", "power_law_uniform", "cheng_redner_uniform",
         "cheng_redner_uniform", [1, True, None, ["table"]], ["gaussian"]),
    _key("kernel.n", 32, 8, 8, [4.5, 8.0, "8", True, None], [0, -1]),
    _key("kernel.lam", 4.0, 5, 5.0, ["4", True, None, [4.0]], [0, -1.0, NAN, *NON_FINITE, 10**400]),
    _key("kernel.alpha", 0.5, 1, 1.0, ["0.5", False], [-0.5, NAN, *NON_FINITE]),
    _key("kernel.profile", "weaker", "stronger", "stronger", [1, True], ["weak"]),
    _key("kernel.reg_tol", 1e-10, 1e-8, 1e-8, ["1e-8", True], [0, 1, -1e-10, 1.5, NAN, *NON_FINITE]),
    _key("kernel.a_table", None, "a.csv", "a.csv", [1, True, ["a.csv"]], []),
    _key("kernel.b_table", None, "b.csv", "b.csv", [1, True, ["b.csv"]], []),
    _key("kernel.d_table", None, "d.csv", "d.csv", [1, True, ["d.csv"]], []),
    _key("grid.cells", [128], [8, 6], [8, 6], ["8", 8, {"x": 8}, None, [8.0], [True]],
         [[2], [], [4, 4, 4]]),
    _key("grid.lengths", [1.0], [2], [2.0], ["1", 1.0, [True], ["1"]],
         [[0], [-1.0], [NAN], [1.0, 1.0], [INF], [-INF], [10**400]]),
    _key("ic.family", "exponential", "custom_csv", "custom_csv", [1, True, None],
         ["gaussian"], base=_CUSTOM),
    _key("ic.gamma", 1.0, 2, 2.0, ["1", True, None], [0, -1, NAN, *NON_FINITE]),
    _key("ic.amplitude", 1.0, 0, 0.0, ["1", True, None], [-1e-3, NAN, *NON_FINITE]),
    _key("ic.profile", "constant", "gaussian_bump", "gaussian_bump", [1, True],
         ["square"]),
    _key("ic.depth", 0.5, 0, 0.0, ["0.5", True], [1, 1.5, -0.1, NAN, *NON_FINITE]),
    _key("ic.center", None, [0.25], [0.25], ["0.5", 0.5, {"x": 0.5}, ["a"], [True]],
         [[], [0.25, 0.25], [NAN], [INF], [-INF], [10**400]]),
    _key("ic.width", 0.1, 0.2, 0.2, ["0.1", True], [0, -0.1, NAN, *NON_FINITE]),
    _key("ic.path", None, "ic.csv", "ic.csv", [1, True], []),
    _key("ic.allow_custom", False, True, True, [1, 0, "true", None], []),
    _key("stepper.scheme", "imex_euler", "imex_euler", "imex_euler", [1, True],
         ["verlet", "rk4_explicit"]),
    _key("stepper.dt", 1e-3, 0.01, 0.01, ["1e-3", True, None], [0, -1e-3, NAN, *NON_FINITE]),
    _key("stepper.t_end", 1.0, 0, 0.0, ["1", True], [-1, NAN, *NON_FINITE]),
    _key("stepper.negativity_policy", "reject_and_halve", "reject_and_halve",
         "reject_and_halve", [1, True], ["ignore", "clip_to_zero"]),
    _key("stepper.dt_min", 1e-9, 1e-6, 1e-6, ["1e-9", True], [0, -1e-9, NAN, *NON_FINITE]),
    _key("monitors.cadence", 10, 5, 5, [5.0, "5", True, None], [0, -1]),
    _key("monitors.tail_levels", [8, 16, 24], [0, 4], [0, 4],
         ["8", 8, [8.0], [True]], [[-1], [8, 4]]),
    _key("monitors.energy_specs", [], [[1, 2]], [[1, 2.0]],
         ["x", [1, 2], [[1.5, 1.0]], [[True, 1.0]], [[1, "1"]], [[1, True]], [[1]]],
         [[[1, 0]], [[1, -1.0]], [[1, NAN]], [[0, 1.0]], [[33, 1.0]], [[1, INF]],
          [[1, -INF]]]),
    _key("monitors.envelope_family", None, "exponential", "exponential", [1, True],
         ["gaussian"]),
    _key("eps", 0.0, 0, 0.0, ["0.01", True, None], [1, -0.01, NAN, *NON_FINITE]),
    _key("output_dir", None, "out", "out", [1, True], []),
]


def _doc_with(key, value, base=None):
    doc = json.loads(json.dumps(base or {}))
    *sections, name = key.split(".")
    target = doc
    for sec in sections:
        target = target.setdefault(sec, {})
    target[name] = value
    return doc


def _value_of(cfg, key):
    for part in key.split("."):
        cfg = getattr(cfg, part)
    return cfg


@pytest.mark.parametrize("key,default,valid,parsed,wrong_types,out_of_range,base",
                         KEY_TABLE)
def test_every_config_key(key, default, valid, parsed, wrong_types, out_of_range, base):
    # json.dumps tells 2 from 2.0, so the parsed types are checked too
    assert json.dumps(_value_of(SimConfig(), key)) == json.dumps(default)
    assert json.dumps(_value_of(SimConfig.from_dict({}), key)) == json.dumps(default)
    cfg = SimConfig.from_dict(_doc_with(key, valid, base))
    assert json.dumps(_value_of(cfg, key)) == json.dumps(parsed)
    assert SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    if default is None:  # an explicit null is the default
        assert _value_of(SimConfig.from_dict(_doc_with(key, None)), key) is None
    for bad in wrong_types + out_of_range:
        with pytest.raises(ConfigError):
            SimConfig.from_dict(_doc_with(key, bad, base))


def test_key_table_covers_every_key():
    keys = set()
    for sec, section in SimConfig().to_dict().items():
        if isinstance(section, dict):
            keys |= {f"{sec}.{name}" for name in section}
        else:
            keys.add(sec)
    assert len(keys) == 31
    assert {row.values[0] for row in KEY_TABLE} == keys


def test_readme_configs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        SimConfig.from_dict(json.loads(block))


class TestInitialConditionBuilders:
    def test_cosine_profile_formula(self):
        cfg = SimConfig.from_dict(small_doc())
        grid = make_grid(cfg.grid)
        F0 = make_initial_condition(cfg.ic, grid, 8)
        x = grid.centers()
        for i in range(1, 9):
            expect = math.exp(-i) * (1.0 + 0.5 * np.cos(2.0 * np.pi * x))
            np.testing.assert_allclose(F0[i - 1], expect, rtol=1e-14)

    def test_gaussian_default_center(self):
        doc = small_doc(ic={"profile": "gaussian_bump", "depth": 0.0, "gamma": 2.0})
        cfg = SimConfig.from_dict(doc)
        grid = make_grid(cfg.grid)
        F0 = make_initial_condition(cfg.ic, grid, 4)
        x = grid.centers()
        peak = np.argmax(F0[0])
        assert abs(x[peak] - 0.5) <= grid.h[0]  # bump sits at mid-domain
        assert F0[0][0] < F0[0][peak]

    def test_custom_csv_round_trip(self, tmp_path):
        grid = fd.make_grid_1d(16)
        data = np.vstack([np.full(16, 2.0), np.zeros(16), np.ones(16), np.zeros(16)])
        ic_path = tmp_path / "ic.csv"
        write_species_csv(ic_path, grid, data)
        doc = small_doc(
            kernel={"n": 4},
            ic={"family": "custom_csv", "path": str(ic_path), "allow_custom": True},
        )
        cfg = SimConfig.from_dict(doc)
        F0 = make_initial_condition(cfg.ic, make_grid(cfg.grid), 4)
        np.testing.assert_array_equal(F0, data)

    def test_custom_csv_shape_mismatch(self, tmp_path):
        grid = fd.make_grid_1d(8)
        ic_path = tmp_path / "ic.csv"
        write_species_csv(ic_path, grid, np.ones((4, 8)))
        doc = small_doc(
            kernel={"n": 4},
            ic={"family": "custom_csv", "path": str(ic_path), "allow_custom": True},
        )
        cfg = SimConfig.from_dict(doc)  # grid has 16 cells, file has 8
        with pytest.raises(ConfigError):
            make_initial_condition(cfg.ic, make_grid(cfg.grid), 4)

    def test_2d_grid_from_config(self):
        cfg = SimConfig.from_dict(
            small_doc(grid={"cells": [8, 12], "lengths": [1.0, 2.0]})
        )
        grid = make_grid(cfg.grid)
        assert grid.shape == (8, 12)
        assert grid.lengths == (1.0, 2.0)
        F0 = make_initial_condition(cfg.ic, grid, 4)
        assert F0.shape == (4, 8, 12)


def test_thread_cap(monkeypatch, capsys):
    monkeypatch.delenv("FRAGDIFF_THREADS", raising=False)
    assert cli._thread_cap() == 1
    monkeypatch.setenv("FRAGDIFF_THREADS", "4")
    assert cli._thread_cap() == 4
    monkeypatch.setenv("FRAGDIFF_THREADS", "0")
    assert cli._thread_cap() == 1
    monkeypatch.setenv("FRAGDIFF_THREADS", "lots")
    assert cli._thread_cap() == 1
    assert "FRAGDIFF_THREADS" in capsys.readouterr().err


def _bad_custom_doc(tmp_path, bad):
    """An 8-cell, n=3 custom initial field that holds one ``bad`` value."""
    data = np.ones((3, 8))
    data[1, 2] = bad
    ic_path = tmp_path / "ic.csv"
    write_species_csv(ic_path, fd.make_grid_1d(8), data)
    return small_doc(kernel={"n": 3}, grid={"cells": [8]},
                     ic={"family": "custom_csv", "path": str(ic_path), "allow_custom": True})


@pytest.mark.parametrize("bad", [-1.0, INF, NAN], ids=["negative", "inf", "nan"])
@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_bad_custom_data_refused_before_anything_is_written(tmp_path, capsys, command, bad):
    out = tmp_path / "o"
    cfg_path = write_cfg(tmp_path, _bad_custom_doc(tmp_path, bad))
    rc = cli.main([command, "--config", cfg_path, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ic.path: stored field must be finite"), err
    assert not out.exists()


def _unreadable_input_doc(tmp_path, case):
    """A config whose ``ic.path`` or ``kernel.d_table`` file cannot be read."""
    if case == "missing_table":
        (tmp_path / "a.csv").write_text("i,j,a\n1,1,1.0\n")
        (tmp_path / "b.csv").write_text("i,j,k,b\n1,1,1,2.0\n")
        return small_doc(kernel={"family": "table", "n": 1, "a_table": str(tmp_path / "a.csv"),
                                 "b_table": str(tmp_path / "b.csv"),
                                 "d_table": str(tmp_path / "d.csv")})
    ic_path = tmp_path / "ic.csv"
    if case != "missing_ic":
        write_species_csv(ic_path, fd.make_grid_1d(8), np.ones((3, 8)))
        lines = ic_path.read_text().splitlines()
        header = [k for k, line in enumerate(lines) if not line.startswith("#")][0]
        if case == "abc_token":
            x, _, *rest = lines[header + 1].split(",")
            lines[header + 1] = ",".join([x, "abc", *rest])
        else:  # headers only
            del lines[header + 1:]
        ic_path.write_text("\n".join(lines) + "\n")
    return small_doc(kernel={"n": 3}, grid={"cells": [8]},
                     ic={"family": "custom_csv", "path": str(ic_path), "allow_custom": True})


@pytest.mark.parametrize("case, key", [("missing_ic", "ic.path"), ("abc_token", "ic.path"),
                                       ("no_rows", "ic.path"), ("missing_table", "kernel.d_table")])
@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_unreadable_input_file_is_a_config_error(tmp_path, capsys, command, case, key):
    out = tmp_path / "o"
    cfg_path = write_cfg(tmp_path, _unreadable_input_doc(tmp_path, case))
    rc = cli.main([command, "--config", cfg_path, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: {key} ("), err
    assert "Traceback" not in err
    assert not out.exists()


def test_unreadable_input_file_fails_each_sweep_point(tmp_path, capsys):
    out = tmp_path / "o"
    cfg_path = write_cfg(tmp_path, _unreadable_input_doc(tmp_path, "missing_ic"))
    rc = cli.main(["sweep", "--config", cfg_path, "--axis", "eps", "--values", "0.01,0.02",
                   "--out", str(out), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.count("config error in ") == 2
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]
    with open(out / "sweep.csv", newline="") as fh:
        assert [r["exit_code"] for r in csv.DictReader(fh)] == ["2", "2"]


class TestSimulateCommand:
    def test_artifacts_and_exit(self, tmp_path):
        cfg_path = write_cfg(tmp_path, small_doc())
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 0
        for name in ("config.json", "monitors.csv", "summary.json",
                     "fields_final.csv"):
            assert (out / name).exists(), name
        assert not (out / "checkpoint.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert doc["all_pass"] is True
        assert doc["run"]["aborted"] is False
        assert doc["run"]["steps"] == 10
        assert doc["config"]["kernel"]["n"] == 8
        # fields_final.csv is the checkpoint: it restores the terminal state
        grid, F, t, echo = fd.checkpoint_load(out / "fields_final.csv")
        assert grid.shape == (16,)
        assert t == doc["final"]["t"] == doc["run"]["final_t"]
        assert echo is None
        cfg = SimConfig.from_dict(json.loads((out / "config.json").read_text()))
        traj = fd.run_simulation(
            grid, make_kernel_set(cfg.kernel), make_initial_condition(cfg.ic, grid, 8),
            fd.StepperConfig(dt=cfg.stepper.dt, t_end=cfg.stepper.t_end),
            eps=cfg.eps, cadence=cfg.monitors.cadence)
        np.testing.assert_array_equal(F, traj.terminal)

    def test_zero_duration(self, tmp_path):
        cfg_path = write_cfg(tmp_path, small_doc(stepper={"t_end": 0.0}))
        out = tmp_path / "run0"
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["run"]["steps"] == 0
        assert doc["final"]["t"] == 0.0

    def test_byte_identical_rerun(self, tmp_path):
        cfg_path = write_cfg(tmp_path, small_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out1), "--quiet"]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out2), "--quiet"]) == 0
        for name in ("monitors.csv", "summary.json", "fields_final.csv",
                     "config.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_missing_config_flag(self):
        assert cli.main(["simulate"]) == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_config(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"kernel": {"n": 8}, "bogus": 1})
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_no_output_dir(self, tmp_path):
        cfg_path = write_cfg(tmp_path, small_doc())
        assert cli.main(["simulate", "--config", cfg_path]) == 2

    def test_energy_species_out_of_range(self, tmp_path):
        doc = small_doc(monitors={"energy_specs": [[9, 1.0]]})
        cfg_path = write_cfg(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("ic,monitors", [
        ({"profile": "gaussian_bump", "center": ["a"]}, {}),
        ({"profile": "gaussian_bump", "center": [True]}, {}),
        ({"profile": "gaussian_bump", "center": [0.5, 0.5]}, {}),
        ({}, {"energy_specs": [[1, 0]]}),
        ({}, {"energy_specs": [[1, True]]}),
        ({}, {"energy_specs": [[9, 1.0]]}),
    ], ids=["center-str", "center-bool", "center-2-axes", "level-0", "level-bool",
            "species-9-of-8"])
    def test_bad_value_refused_before_the_run(self, tmp_path, capsys, ic, monitors):
        doc = small_doc(ic=ic, monitors=monitors)
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        key = "ic.center" if ic else "monitors.energy_specs"
        assert err.startswith(f"config error: {key}"), err
        assert "Traceback" not in err
        assert not out.exists()  # nothing was written

    @pytest.mark.parametrize("key,over", [pytest.param(key, over, id=key) for key, over in [
        ("stepper.t_end", {"stepper": {"t_end": INF}}),
        ("kernel.alpha", {"kernel": {"alpha": INF}}),
        ("kernel.lam", {"kernel": {"lam": 10**400}}),
        ("grid.lengths", {"grid": {"lengths": [-INF]}}),
        ("ic.center", {"ic": {"profile": "gaussian_bump", "center": [NAN]}}),
        ("monitors.energy_specs", {"monitors": {"energy_specs": [[1, INF]]}}),
        ("config.eps", {"eps": NAN}),
    ]])
    def test_non_finite_number_refused_before_the_run(self, tmp_path, capsys, key, over):
        # json.dumps writes Infinity, -Infinity and NaN, which json.load reads back
        cfg_path = write_cfg(tmp_path, small_doc(**over))
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: {key}: invalid value"), err
        assert "must be finite" in err and "Traceback" not in err
        assert not out.exists()  # nothing was written

    def test_abort_writes_partial_outputs(self, tmp_path):
        # custom data with a fast-decaying species and an oversized step:
        # rejected twice, then dt underflows dt_min
        grid = fd.make_grid_1d(16)
        data = np.zeros((4, 16))
        data[0] = 300.0
        data[2] = 1.0
        ic_path = tmp_path / "stiff.csv"
        write_species_csv(ic_path, grid, data)
        doc = small_doc(
            kernel={"n": 4, "lam": 1.5, "alpha": 0.0, "profile": "stronger"},
            ic={"family": "custom_csv", "path": str(ic_path), "allow_custom": True,
                "profile": "constant", "depth": 0.0},
            stepper={"dt": 0.2, "t_end": 100.0, "dt_min": 0.06},
            monitors={"cadence": 5, "tail_levels": [2], "energy_specs": [],
                      "envelope_family": None},
            eps=0.0,
        )
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "aborted"
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["run"]["aborted"] is True
        assert summary["run"]["rejected_steps"] == 2
        assert summary["run"]["steps"] == 0
        assert (out / "monitors.csv").exists()
        assert (out / "fields_final.csv").exists()


    def test_failed_solve_contract_keeps_partial_outputs(self, tmp_path):
        # the residual contract fails down to dt = 1.17 and the next
        # halving undercuts dt_min, so the run aborts before its first step
        grid = fd.make_grid_1d(64)
        data = np.ones((4, 64))
        data[:, ::3] = 0.0
        ic_path = tmp_path / "stage.csv"
        write_species_csv(ic_path, grid, data)
        doc = small_doc(
            kernel={"n": 4},
            grid={"cells": [64]},
            ic={"family": "custom_csv", "path": str(ic_path), "allow_custom": True,
                "profile": "constant", "depth": 0.0},
            stepper={"dt": 37.5, "t_end": 100.0, "dt_min": 1.0},
            monitors={"cadence": 5, "tail_levels": [2], "energy_specs": [],
                      "envelope_family": None},
            eps=0.0,
        )
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "aborted"
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["run"]["aborted"] is True
        assert summary["run"]["rejected_steps"] == 6
        assert summary["run"]["steps"] == 0
        assert (out / "monitors.csv").exists()
        assert (out / "fields_final.csv").exists()

    @pytest.mark.parametrize("key, value, refusal", [
        ("scheme", "rk4_explicit",
         "scheme 'rk4_explicit' was removed; 'imex_euler' is the only scheme"),
        ("negativity_policy", "clip_to_zero",
         "negativity policy 'clip_to_zero' was removed; 'reject_and_halve' is the only policy"),
    ], ids=["scheme", "policy"])
    def test_removed_value_refused_before_any_write(self, tmp_path, capsys, key, value, refusal):
        doc = small_doc(stepper={key: value})
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: stepper: {refusal}"), err
        assert not out.exists()

    def test_non_finite_stage_keeps_partial_outputs(self, tmp_path, capsys):
        # Q overflows on data of 1e200, so every stage is non-finite; every
        # attempt from the state shares that Q, so the first failed solve
        # aborts instead of halving to dt_min
        grid = fd.make_grid_1d(16)
        ic_path = tmp_path / "huge.csv"
        write_species_csv(ic_path, grid, np.full((4, 16), 1e200))
        doc = small_doc(
            kernel={"n": 4},
            ic={"family": "custom_csv", "path": str(ic_path), "allow_custom": True,
                "profile": "constant", "depth": 0.0},
            stepper={"dt": 1e-3, "t_end": 0.01, "dt_min": 2e-4},
            monitors={"cadence": 5, "tail_levels": [2], "energy_specs": [],
                      "envelope_family": None},
            eps=0.0,
        )
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "aborted"
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "non-finite reaction term at t=0" in err
        assert "RuntimeWarning" not in err

        def strict(token):
            raise ValueError(f"summary.json holds {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
        assert summary["run"]["aborted"] is True
        assert summary["run"]["rejected_steps"] == 0
        assert summary["run"]["steps"] == 0
        assert (out / "monitors.csv").exists()
        assert (out / "fields_final.csv").exists()

    def test_contract_violation_exit_code(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ContractViolationError("weighted null sum breached")

        monkeypatch.setattr(cli.stepmod, "run_simulation", broken)
        cfg_path = write_cfg(tmp_path, small_doc())
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o"),
                       "--quiet"])
        assert rc == 1


class TestAuditCommand:
    def _doc(self, lam, alpha):
        return small_doc(kernel={"lam": lam, "alpha": alpha, "profile": "stronger"})

    def test_all_certified(self, tmp_path):
        cfg_path = write_cfg(tmp_path, self._doc(4.0, 0.0))
        out = tmp_path / "audit0"
        rc = cli.main(["audit", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 0
        doc = json.loads((out / "audit.json").read_text())
        assert doc["kernel_validation"]["ok"] is True
        assert doc["summability"]["worst_verdict"] == "CONVERGES"
        for cond in doc["summability"]["conditions"]:
            assert set(cond) == {"condition", "lower", "upper", "verdict",
                                 "truncation", "note"}
            assert cond["verdict"] == "CONVERGES"
            assert cond["lower"] <= cond["upper"]
        assert doc["initial_data"]["judgment"] == "finite"

    def test_divergent(self, tmp_path):
        cfg_path = write_cfg(tmp_path, self._doc(2.0, 1.0))
        rc = cli.main(["audit", "--config", cfg_path, "--quiet"])
        assert rc == 1

    def test_inconclusive(self, tmp_path):
        cfg_path = write_cfg(tmp_path, self._doc(4.0, 1.0))
        out = tmp_path / "audit4"
        rc = cli.main(["audit", "--config", cfg_path, "--out", str(out), "--quiet"])
        assert rc == 4
        doc = json.loads((out / "audit.json").read_text())
        verdicts = {c["condition"]: c["verdict"] for c in doc["summability"]["conditions"]}
        assert verdicts["A4_term1"] == "INCONCLUSIVE"
        assert verdicts["A1"] == "CONVERGES"

    def test_weaker_profile_near_one_exponent_certifies(self, tmp_path):
        # lam=4, alpha=0.95 lies in the weaker profile; A4 term 1's majorant
        # exponents are u = 1.05 and v = 1.525, so it converges
        doc = small_doc(kernel={"n": 32, "lam": 4.0, "alpha": 0.95, "profile": "weaker"})
        out = tmp_path / "audit095"
        rc = cli.main(["audit", "--config", write_cfg(tmp_path, doc), "--out", str(out),
                       "--quiet"])
        assert rc == 0
        doc = json.loads((out / "audit.json").read_text())
        term1 = next(c for c in doc["summability"]["conditions"]
                     if c["condition"] == "A4_term1")
        assert term1["verdict"] == "CONVERGES"
        assert math.isfinite(term1["upper"]) and term1["upper"] >= term1["lower"]

    def test_unreachable_reg_tol_fails_at_once(self, tmp_path, capsys):
        doc = small_doc(kernel={"reg_tol": 1e-20})
        rc = cli.main(["audit", "--config", write_cfg(tmp_path, doc), "--quiet"])
        assert rc == 2
        assert "above tol 1e-20" in capsys.readouterr().err

    def test_stdout_json(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, self._doc(4.0, 0.0))
        rc = cli.main(["audit", "--config", cfg_path])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"summability", "kernel_validation", "initial_data"}


class TestSweepCommand:
    def test_values_must_be_monotone(self, tmp_path):
        cfg_path = write_cfg(tmp_path, small_doc(output_dir=None))
        rc = cli.main(["sweep", "--config", cfg_path, "--axis", "eps",
                       "--values", "0.01,0.03,0.02", "--out", str(tmp_path / "s")])
        assert rc == 2

    def test_eps_sweep(self, tmp_path):
        doc = small_doc(stepper={"t_end": 0.005})
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", cfg_path, "--axis", "eps",
                       "--values", "0.02,0.01", "--out", str(out), "--quiet"])
        assert rc == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["0.02", "0.01"]
        assert all(r["exit_code"] == "0" for r in rows)
        assert float(rows[0]["l1_diff_ref"]) > 0.0
        assert rows[1]["l1_diff_ref"] == ""  # the reference run itself
        for r in rows:
            assert (Path(r["run_dir"]) / "summary.json").exists()

    def test_thread_pool_equivalence(self, tmp_path, monkeypatch):
        doc = small_doc(stepper={"t_end": 0.005})
        cfg_path = write_cfg(tmp_path, doc)
        outs = {}
        for threads, name in (("1", "serial"), ("2", "pool")):
            monkeypatch.setenv("FRAGDIFF_THREADS", threads)
            out = tmp_path / name
            rc = cli.main(["sweep", "--config", cfg_path, "--axis", "n",
                           "--values", "6,8", "--out", str(out), "--quiet"])
            assert rc == 0
            with open(out / "sweep.csv", newline="") as fh:
                outs[name] = list(csv.DictReader(fh))
        for a, b in zip(outs["serial"], outs["pool"]):
            for key in ("axis", "value", "exit_code", "mass_final",
                        "l1_diff_prev", "order_est"):
                assert a[key] == b[key], key

    def test_contract_violation_exit_code(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ContractViolationError("weighted null sum breached")

        monkeypatch.delenv("FRAGDIFF_THREADS", raising=False)
        monkeypatch.setattr(cli.stepmod, "run_simulation", broken)
        cfg_path = write_cfg(tmp_path, small_doc())
        rc = cli.main(["sweep", "--config", cfg_path, "--axis", "eps",
                       "--values", "0.02,0.01", "--out", str(tmp_path / "s"),
                       "--quiet"])
        assert rc == 1

    def test_grid_axis_requires_1d(self, tmp_path):
        doc = small_doc(grid={"cells": [8, 8], "lengths": [1.0, 1.0]})
        cfg_path = write_cfg(tmp_path, doc)
        rc = cli.main(["sweep", "--config", cfg_path, "--axis", "grid",
                       "--values", "8,16", "--out", str(tmp_path / "g")])
        assert rc == 2


class TestPlotCommand:
    def test_missing_monitors(self, tmp_path):
        assert cli.main(["plot", "--out", str(tmp_path)]) == 2

    def test_plots_written(self, tmp_path):
        cfg_path = write_cfg(tmp_path, small_doc())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out),
                         "--quiet"]) == 0
        rc = cli.main(["plot", "--out", str(out), "--quiet"])
        assert rc == 0
        made = {p.name for p in out.iterdir() if p.suffix in (".png", ".dat")}
        stems = {Path(name).stem for name in made}
        assert stems == {"mass_vs_t", "minmax_vs_t", "tail_vs_t", "spectrum_final"}
