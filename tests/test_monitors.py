import csv
import math

import numpy as np
import pytest

import fragdiff as fd
from fragdiff.errors import DomainError
from fragdiff.grid import gradient_sq_integral, integrate, make_grid_1d, species_integrals
from fragdiff.monitors import (
    _mass_above,
    _particles,
    compute_monitors,
    moment0,
    tail_envelope_exponential,
    tail_mass,
    total_mass,
    write_monitors_csv,
    write_summary_json,
)
from fragdiff.stepper import StepperConfig, Trajectory, run_simulation
from oracles import stencil_eigenvalue


def constant_fields(grid, values):
    return np.array([np.full(grid.shape, v) for v in values])


def synthetic_traj(grid, times, fields):
    return Trajectory(grid=grid, times=list(times),
                      fields=[np.asarray(F, dtype=float) for F in fields])


def test_total_mass_exponential_oracle():
    # sum_{i>=1} i e^-i = e/(e-1)^2; the n=40 truncation error is ~4e-16
    g = make_grid_1d(16)
    F = constant_fields(g, [math.exp(-i) for i in range(1, 41)])
    assert total_mass(g, F) == pytest.approx(0.9206735942077924, rel=1e-13)


def test_mass_and_moment_small_case():
    g = make_grid_1d(8, 2.0)
    F = constant_fields(g, [1.0, 2.0, 3.0, 4.0])
    assert total_mass(g, F) == pytest.approx(60.0, rel=1e-15)
    assert moment0(g, F) == pytest.approx(20.0, rel=1e-15)
    assert tail_mass(g, F, 2) == pytest.approx(50.0, rel=1e-15)
    assert tail_mass(g, F, 0) == pytest.approx(60.0, rel=1e-15)
    assert tail_mass(g, F, 4) == 0.0
    assert tail_mass(g, F, 9) == 0.0
    with pytest.raises(DomainError):
        tail_mass(g, F, -1)


def test_tail_envelope_dominates_exact_tail():
    for M in range(0, 12):
        exact = math.fsum(i * math.exp(-i) for i in range(M + 1, 800))
        assert tail_envelope_exponential(M) >= exact
        # and it is not wildly loose either
        assert tail_envelope_exponential(M) <= 10.0 * exact + 1e-12


def test_duality_closed_form():
    # one immobile species constant in space and time: the integrand is
    # c^2 at every sample, so D = T c^2 and R = c^2 exactly
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(1, 4.0, 0.0)
    c = 2.0
    fields = [constant_fields(g, [c])] * 3
    traj = synthetic_traj(g, [0.0, 0.25, 0.5], fields)
    rep = compute_monitors(traj, ks).duality
    assert rep.D == 2.0
    assert rep.R == 4.0
    assert rep.ratio == 0.5
    assert rep.series == [0.0, 1.0, 2.0]


def test_duality_zero_initial_data():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(2, 4.0, 0.5)
    traj = synthetic_traj(g, [0.0, 1.0], [np.zeros((2, 16))] * 2)
    rep = compute_monitors(traj, ks).duality
    assert rep.D == 0.0 and rep.ratio == 0.0


def test_budget_zero_without_collisions():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(1, 4.0, 0.0)
    traj = synthetic_traj(g, [0.0, 0.5, 1.0], [constant_fields(g, [1.0])] * 3)
    rep = compute_monitors(traj, ks).budget
    assert rep.total == 0.0
    assert rep.series == [0.0, 0.0, 0.0]
    assert np.all(rep.per_species == 0.0)


def test_budget_nondecreasing_on_real_run():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    F0 = constant_fields(g, [math.exp(-i) for i in range(1, 9)])
    traj = run_simulation(g, ks, F0, StepperConfig(dt=1e-3, t_end=0.02), eps=0.01,
                          cadence=2)
    rep = compute_monitors(traj, ks, eps=0.01).budget
    assert rep.total > 0.0
    assert all(b - a >= 0.0 for a, b in zip(rep.series, rep.series[1:]))
    assert rep.total == pytest.approx(math.fsum(map(float, rep.per_species)), rel=1e-12)


def test_energy_fully_masked_constant():
    # constant above the level: every face is masked out, LHS = 0 and the
    # slack equals the full RHS
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(1, 4.0, 0.0)
    traj = synthetic_traj(g, [0.0, 1.0], [constant_fields(g, [2.0])] * 2)
    (rep,) = compute_monitors(traj, ks, energy_specs=[(1, 1.0)]).energy
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(1.0 * (0.0 + 2.0), rel=1e-15)
    assert rep.slack == rep.rhs


def test_energy_wiring_against_manual_quadrature():
    # single diffusing species: recompute both sides by hand from the
    # sampled states and compare
    g = make_grid_1d(32)
    ks = fd.power_law_uniform(1, 4.0, 0.5)
    x = g.centers()
    times = [0.0, 0.1, 0.2]
    lam = stencil_eigenvalue(g, 2)
    fields = [
        np.array([1.0 + 0.5 * math.exp(lam * t) * np.cos(2 * np.pi * x)])
        for t in times
    ]
    traj = synthetic_traj(g, times, fields)
    level = 10.0  # far above the range: no masking
    (rep,) = compute_monitors(traj, ks, energy_specs=[(1, level)]).energy
    grads = [gradient_sq_integral(g, F[0]) for F in fields]
    lhs_manual = float(ks.d[0]) * np.trapezoid(grads, times)
    assert rep.lhs == pytest.approx(lhs_manual, rel=1e-12)
    assert rep.rhs == pytest.approx(level * integrate(g, fields[0][0]), rel=1e-12)
    assert rep.slack >= 0.0

    # a level inside the range masks crests and can only shrink the LHS
    (rep_low,) = compute_monitors(traj, ks, energy_specs=[(1, 1.2)]).energy
    assert rep_low.lhs < rep.lhs


def test_energy_input_validation():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(2, 4.0, 0.5)
    traj = synthetic_traj(g, [0.0, 1.0], [np.ones((2, 16))] * 2)
    with pytest.raises(DomainError):
        compute_monitors(traj, ks, energy_specs=[(3, 1.0)])
    with pytest.raises(DomainError):
        compute_monitors(traj, ks, energy_specs=[(1, 0.0)])


def test_linf_report():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(2, 4.0, 0.5)
    F = constant_fields(g, [1.0, 3.7])
    traj = synthetic_traj(g, [0.0, 1.0], [F, 0.5 * F])
    rep = compute_monitors(traj, ks, eps=0.01).linf
    assert rep.sup == 3.7
    assert rep.ratio == pytest.approx(0.037)
    assert compute_monitors(traj, ks).linf.ratio == 0.0


@pytest.fixture(scope="module")
def small_run():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    x = g.centers()
    F0 = np.array([math.exp(-i) * (1.0 + 0.5 * np.cos(2 * np.pi * x))
                   for i in range(1, 9)])
    traj = run_simulation(g, ks, F0, StepperConfig(dt=1e-3, t_end=0.02),
                          eps=0.01, cadence=5)
    report = compute_monitors(traj, ks, eps=0.01, tail_levels=(2, 4, 6),
                              energy_specs=((1, 0.5), (2, 1.0)),
                              envelope_family="exponential")
    return traj, report


def test_monitor_report_passes(small_run):
    _, report = small_run
    assert set(report.invariants) == {
        "mass_conservation",
        "moment0_nondecreasing",
        "tail_monotone_in_level",
        "tail_envelope",
        "energy_slack@(1,0.5)",
        "energy_slack@(2,1)",
        "nonnegativity",
    }
    assert report.all_pass, report.invariants
    assert report.invariants["mass_conservation"]["value"] <= 1e-11
    for entry in report.invariants.values():
        assert set(entry) == {"pass", "value", "tolerance", "detail"}


def test_monitor_series_shapes(small_run):
    traj, report = small_run
    k = len(traj.times)
    assert len(report.times) == k
    assert len(report.mass) == len(report.moment0) == k
    assert all(len(s) == k for s in report.tails.values())
    assert len(report.duality.series) == k
    assert len(report.budget.series) == k
    for rep in report.energy:
        assert len(rep.slack_series) == k


def test_monitors_csv_layout(small_run, tmp_path):
    _, report = small_run
    p = tmp_path / "monitors.csv"
    write_monitors_csv(p, report)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:5] == ["t", "M", "moment0", "min", "max"]
    assert header[5:8] == ["tail@2", "tail@4", "tail@6"]
    assert header[8:10] == ["D_cum", "B_cum"]
    assert header[10:] == ["energy_slack@(1,0.5)", "energy_slack@(2,1)"]
    # the comma inside the energy names must survive the csv round trip
    raw = p.read_text()
    assert '"energy_slack@(1,0.5)"' in raw.splitlines()[0]
    assert len(rows) == 1 + len(report.times)
    for row in rows[1:]:
        assert len(row) == len(header)
        assert all(math.isfinite(float(tok)) for tok in row)
    assert float(rows[1][0]) == 0.0
    # repr round trip: values reparse bit-identically
    assert [float(r[1]) for r in rows[1:]] == report.mass


def test_summary_json_deterministic(small_run, tmp_path):
    _, report = small_run
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    write_summary_json(p1, report, extra={"run": {"steps": 20}})
    write_summary_json(p2, report, extra={"run": {"steps": 20}})
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n")
    import json

    doc = json.loads(b1)
    assert doc["all_pass"] is True
    assert doc["run"] == {"steps": 20}
    assert set(doc["final"]["tails"]) == {"2", "4", "6"}


def test_moment0_nondecreasing_catches_violation():
    # fabricated shrinking particle count must fail the audit
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(2, 4.0, 0.5)
    traj = synthetic_traj(g, [0.0, 1.0],
                          [constant_fields(g, [1.0, 1.0]),
                           constant_fields(g, [0.5, 1.0])])
    report = compute_monitors(traj, ks, tail_levels=(1,))
    assert not report.invariants["moment0_nondecreasing"]["pass"]
    assert not report.all_pass


def test_mass_sums_match_the_per_element_form():
    # one vectorized product holds the floats of the per-element products
    # (i + 1) * ints[i], so fsum returns the same bits
    rng = np.random.default_rng(41)
    g = make_grid_1d(16)
    for n in (1, 5, 64):
        wide = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n)
        for ints in (wide, species_integrals(g, rng.uniform(0.0, 2.0, size=(n, 16)))):
            for M in (0, 1, n // 2, n - 1, n, n + 3):
                want = math.fsum(float((i + 1) * ints[i]) for i in range(M, n))
                assert _mass_above(ints, M).hex() == want.hex(), (n, M)
            assert _particles(ints).hex() == math.fsum(float(v) for v in ints).hex()
