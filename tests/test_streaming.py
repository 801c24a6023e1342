"""Streamed monitors.

A ``simulate`` run folds each sample into a ``MonitorAccumulator`` as it
is taken and reuses the step's ``Q``; ``compute_monitors`` folds the same
accumulator over states that a library run's sampler kept as copies.
These differential checks hold the streamed CLI artifacts byte-equal to
that fold over kept copies, the fold to a whole-trajectory evaluation of
the same quadratures, and the run to one ``q_field`` per accepted state
and no stored field.
"""

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import fragdiff as fd
from fragdiff import cli, reaction
from fragdiff import config as cfgmod
from fragdiff import monitors as monmod
from fragdiff import stepper as stepmod
from fragdiff.config import (
    SimConfig,
    make_grid,
    make_initial_condition,
    make_kernel_set,
    reference_scenario_dict,
)
from fragdiff.errors import LinearSolveError, NumericalAbortError


def _doc(case, **stepper):
    """Small runs with eps != 0, energy specs and the exponential envelope."""
    doc = reference_scenario_dict()
    doc["kernel"]["n"] = 8
    doc["monitors"] = {"cadence": 3, "tail_levels": [2, 4, 6],
                       "energy_specs": [[1, 0.5], [2, 1.0]],
                       "envelope_family": "exponential"}
    if case == "1D":
        doc["grid"] = {"cells": [24], "lengths": [1.0]}
        doc["stepper"]["t_end"] = 0.02
    else:
        doc["grid"] = {"cells": [10, 12], "lengths": [1.0, 1.5]}
        doc["stepper"]["t_end"] = 0.011
    doc["stepper"].update(stepper)
    return doc


def _simulate(tmp_path, doc, name="streamed"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / name
    rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    return rc, out


def _setup(doc):
    cfg = SimConfig.from_dict(doc)
    grid = make_grid(cfg.grid)
    ks = make_kernel_set(cfg.kernel)
    return cfg, grid, ks, make_initial_condition(cfg.ic, grid, cfg.kernel.n)


def _kept_run(doc):
    """The library path: a sampler keeps a copy of every sampled state, and
    the monitors are folded over the copies afterwards.  Returns ``(traj,
    grid, ks, samples, report)``, ``samples`` the kept ``(t, F)`` pairs."""
    cfg, grid, ks, F0 = _setup(doc)
    samples = []
    try:
        traj = fd.run_simulation(grid, ks, F0, cfg.stepper, eps=cfg.eps,
                                 cadence=cfg.monitors.cadence,
                                 sample=lambda t, F, Q: samples.append((t, F.copy())))
    except NumericalAbortError as exc:
        traj = exc.trajectory
    report = fd.compute_monitors(
        grid, ks, samples, eps=cfg.eps, tail_levels=cfg.monitors.tail_levels,
        energy_specs=cfg.monitors.energy_specs,
        envelope_family=cfg.monitors.envelope_family,
    )
    return traj, grid, ks, samples, report


def _assert_artifacts_equal_stored(tmp_path, doc, out):
    traj, _grid, _ks, _samples, report = _kept_run(doc)
    stored = tmp_path / "stored"
    stored.mkdir()
    fd.write_monitors_csv(stored / "monitors.csv", report)
    streamed = json.loads((out / "summary.json").read_text())
    fd.write_summary_json(stored / "summary.json", report,
                          extra={"config": streamed["config"], "run": streamed["run"]})
    for name in ("monitors.csv", "summary.json"):
        assert (out / name).read_bytes() == (stored / name).read_bytes(), name
    _grid, F, meta = fd.read_species_csv(out / "fields_final.csv")
    np.testing.assert_array_equal(F, traj.terminal)
    assert float(meta["t"]) == traj.times[-1]
    return traj, report


@pytest.mark.parametrize("case", ["1D", "2D"])
def test_streamed_artifacts_equal_stored(tmp_path, case):
    doc = _doc(case)
    rc, out = _simulate(tmp_path, doc)
    assert rc == 0
    traj, report = _assert_artifacts_equal_stored(tmp_path, doc, out)
    assert report.all_pass
    assert len(traj.times) > 4


def _trapezoid(times, values):
    out = [0.0]
    for k in range(1, len(times)):
        out.append(out[-1] + 0.5 * (times[k] - times[k - 1]) * (values[k] + values[k - 1]))
    return out


def test_fold_matches_whole_trajectory_evaluation():
    # each series evaluated over the whole kept trajectory at once, with
    # the sample order of the quadratures; the fold must agree bit for bit
    doc = _doc("2D")
    traj, grid, ks, samples, report = _kept_run(doc)
    times, fields = traj.times, [F for _t, F in samples]
    assert [t for t, _F in samples] == times
    eps = doc["eps"]
    Qs = [reaction.q_field(F, ks, eps) for F in fields]
    i1 = np.arange(1, ks.n + 1, dtype=float)[:, None, None]

    dual = [fd.integrate(grid, np.sum(i1 * ks.d[:, None, None] * F, axis=0)
                        * np.sum(i1 * F, axis=0)) for F in fields]
    assert report.duality.series == _trapezoid(times, dual)
    rho0 = np.sum(i1 * fields[0], axis=0)
    assert report.duality.R == float(np.max(ks.d)) * fd.integrate(grid, rho0 * rho0)

    inv_d = 1.0 / ks.d
    per_t = [np.array([inv_d[i] * fd.integrate(grid, np.abs(Q[i])) for i in range(ks.n)])
             for Q in Qs]
    assert report.budget.series == _trapezoid(times, [math.fsum(map(float, v)) for v in per_t])
    per_species = np.zeros(ks.n)
    for k in range(1, len(times)):
        per_species += 0.5 * (times[k] - times[k - 1]) * (per_t[k] + per_t[k - 1])
    np.testing.assert_array_equal(report.budget.per_species, per_species)

    for rep in report.energy:
        i0, level = rep.species - 1, rep.level
        grads = [float(ks.d[i0]) * fd.gradient_sq_integral(grid, F[i0], level=level)
                 for F in fields]
        lhs = _trapezoid(times, grads)
        q_l1 = _trapezoid(times, [fd.integrate(grid, np.abs(Q[i0])) for Q in Qs])
        f0 = fd.integrate(grid, fields[0][i0])
        assert rep.slack_series == [level * (q + f0) - g for q, g in zip(q_l1, lhs)]
        assert (rep.lhs, rep.rhs) == (lhs[-1], level * (q_l1[-1] + f0))

    assert report.mass == [fd.total_mass(grid, F) for F in fields]
    assert report.linf.sup == max(float(F.max()) for F in fields)


def _count_q_field(monkeypatch):
    calls = []
    real = reaction.q_field

    def counted(F, ks, eps=0.0, **stacks):
        calls.append(None)
        return real(F, ks, eps, **stacks)

    monkeypatch.setattr(reaction, "q_field", counted)
    return calls


@pytest.mark.parametrize("case", ["1D", "2D"])
def test_one_q_field_per_accepted_state(tmp_path, monkeypatch, case):
    calls = _count_q_field(monkeypatch)
    rc, out = _simulate(tmp_path, _doc(case))
    assert rc == 0
    run = json.loads((out / "summary.json").read_text())["run"]
    assert run["rejected_steps"] == 0
    assert len(calls) == run["steps"] + 1


def test_sampler_receives_the_steps_q():
    cfg, grid, ks, F0 = _setup(_doc("1D"))
    seen = []

    def sample(t, F, Q):
        np.testing.assert_array_equal(Q, reaction.q_field(F, ks, cfg.eps))
        seen.append(t)

    traj = fd.run_simulation(grid, ks, F0, cfg.stepper, eps=cfg.eps, cadence=3,
                             sample=sample)
    assert seen == traj.times
    assert set(vars(traj)) == {"times", "state", "terminal"}  # no sampled state
    assert traj.terminal is not None


def test_streamed_run_stores_no_field(tmp_path):
    # 2D run with a sample every step: the samples would take several times
    # what the streamed run allocates at its peak
    doc = _doc("2D", t_end=0.04)
    doc["grid"]["cells"] = [16, 16]
    doc["monitors"]["cadence"] = 1
    tracemalloc.start()
    try:
        rc, out = _simulate(tmp_path, doc)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    samples = len((out / "monitors.csv").read_text().splitlines()) - 1
    assert samples == 41
    sample_bytes = samples * 8 * 16 * 16 * 8
    assert peak < sample_bytes, (peak, sample_bytes)


def test_simulate_frees_the_initial_stack(tmp_path, monkeypatch):
    # the CLI builds the initial stack before it writes anything and hands
    # the run its only reference, which the run frees once it has its own
    # copy: the stack is gone by the first sample
    refs, alive = [], []
    real_ic = cfgmod.make_initial_condition

    def initial_condition(*args):
        F0 = real_ic(*args)
        refs.append(weakref.ref(F0))
        return F0

    real_add = monmod.MonitorAccumulator.add

    def add(self, t, F, Q):
        alive.append(refs[0]() is not None)
        return real_add(self, t, F, Q)

    monkeypatch.setattr(cfgmod, "make_initial_condition", initial_condition)
    monkeypatch.setattr(monmod.MonitorAccumulator, "add", add)
    doc = _doc("2D")
    doc["monitors"]["cadence"] = 1
    rc, out = _simulate(tmp_path, doc)
    assert rc == 0 and len(refs) == 1
    assert len(alive) == 12 and not any(alive), alive


def test_dt_min_abort_keeps_monitors_to_abort_time(tmp_path, monkeypatch):
    # every solve after the seventh misses its contract: step 8 halves below
    # dt_min, between samples (cadence 3), and the run aborts at t = 7 dt
    real = stepmod.DiffusionSolver.solve
    solves = []

    def failing(self, stage, dt):
        solves.append(dt)
        if len(solves) > 7:
            raise LinearSolveError("forced failure")
        return real(self, stage, dt)

    monkeypatch.setattr(stepmod.DiffusionSolver, "solve", failing)
    doc = _doc("1D", dt_min=2e-4)
    rc, out = _simulate(tmp_path, doc)
    assert rc == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["run"]["aborted"] is True
    assert summary["run"]["steps"] == 7
    assert summary["run"]["rejected_steps"] == 3
    last = (out / "monitors.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == summary["run"]["final_t"] == summary["final"]["t"]
    assert summary["final"]["t"] == pytest.approx(7e-3, rel=1e-12)

    solves.clear()
    traj, _report = _assert_artifacts_equal_stored(tmp_path, doc, out)
    # samples at steps 0, 3 and 6, then the last accepted state
    assert len(traj.times) == 4
    assert traj.state.step_index == 7
