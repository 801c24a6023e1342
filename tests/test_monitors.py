import copy
import csv
import math

import numpy as np
import pytest

import fragdiff as fd
from fragdiff import grid as gridmod
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
from fragdiff.stepper import StepperConfig, run_simulation
from oracles import fsum_keeping_negative_zero, gradient_sq_by_axis, stencil_eigenvalue


def constant_fields(grid, values):
    return np.array([np.full(grid.shape, v) for v in values])


def synthetic_traj(times, fields):
    """The ``(t, F)`` pairs that :func:`compute_monitors` folds."""
    return [(t, np.asarray(F, dtype=float)) for t, F in zip(times, fields)]


def kept_run(grid, ks, F0, cfg, **kwargs):
    """A run whose sampler keeps a copy of every sampled state: ``(traj,
    pairs)``, the pairs as :func:`synthetic_traj` gives them."""
    pairs = []
    traj = run_simulation(grid, ks, F0, cfg, sample=lambda t, F, Q: pairs.append((t, F.copy())),
                          **kwargs)
    return traj, pairs


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
    traj = synthetic_traj([0.0, 0.25, 0.5], fields)
    rep = compute_monitors(g, ks, traj).duality
    assert rep.D == 2.0
    assert rep.R == 4.0
    assert rep.ratio == 0.5
    assert rep.series == [0.0, 1.0, 2.0]


def test_duality_zero_initial_data():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(2, 4.0, 0.5)
    traj = synthetic_traj([0.0, 1.0], [np.zeros((2, 16))] * 2)
    rep = compute_monitors(g, ks, traj).duality
    assert rep.D == 0.0 and rep.ratio == 0.0


def test_budget_zero_without_collisions():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(1, 4.0, 0.0)
    traj = synthetic_traj([0.0, 0.5, 1.0], [constant_fields(g, [1.0])] * 3)
    rep = compute_monitors(g, ks, traj).budget
    assert rep.total == 0.0
    assert rep.series == [0.0, 0.0, 0.0]
    assert np.all(rep.per_species == 0.0)


def test_budget_nondecreasing_on_real_run():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    F0 = constant_fields(g, [math.exp(-i) for i in range(1, 9)])
    _traj, pairs = kept_run(g, ks, F0, StepperConfig(dt=1e-3, t_end=0.02), eps=0.01,
                            cadence=2)
    rep = compute_monitors(g, ks, pairs, eps=0.01).budget
    assert rep.total > 0.0
    assert all(b - a >= 0.0 for a, b in zip(rep.series, rep.series[1:]))
    assert rep.total == pytest.approx(math.fsum(map(float, rep.per_species)), rel=1e-12)


def test_energy_fully_masked_constant():
    # constant above the level: every face is masked out, LHS = 0 and the
    # slack equals the full RHS
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(1, 4.0, 0.0)
    traj = synthetic_traj([0.0, 1.0], [constant_fields(g, [2.0])] * 2)
    (rep,) = compute_monitors(g, ks, traj, energy_specs=[(1, 1.0)]).energy
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
    traj = synthetic_traj(times, fields)
    level = 10.0  # far above the range: no masking
    (rep,) = compute_monitors(g, ks, traj, energy_specs=[(1, level)]).energy
    grads = [gradient_sq_integral(g, F[0]) for F in fields]
    lhs_manual = float(ks.d[0]) * np.trapezoid(grads, times)
    assert rep.lhs == pytest.approx(lhs_manual, rel=1e-12)
    assert rep.rhs == pytest.approx(level * integrate(g, fields[0][0]), rel=1e-12)
    assert rep.slack >= 0.0

    # a level inside the range masks crests and can only shrink the LHS
    (rep_low,) = compute_monitors(g, ks, traj, energy_specs=[(1, 1.2)]).energy
    assert rep_low.lhs < rep.lhs


def test_energy_input_validation():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(2, 4.0, 0.5)
    traj = synthetic_traj([0.0, 1.0], [np.ones((2, 16))] * 2)
    with pytest.raises(DomainError):
        compute_monitors(g, ks, traj, energy_specs=[(3, 1.0)])
    with pytest.raises(DomainError):
        compute_monitors(g, ks, traj, energy_specs=[(1, 0.0)])


def test_linf_report():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(2, 4.0, 0.5)
    F = constant_fields(g, [1.0, 3.7])
    traj = synthetic_traj([0.0, 1.0], [F, 0.5 * F])
    rep = compute_monitors(g, ks, traj, eps=0.01).linf
    assert rep.sup == 3.7
    assert rep.ratio == pytest.approx(0.037)
    assert compute_monitors(g, ks, traj).linf.ratio == 0.0


@pytest.fixture(scope="module")
def small_run():
    g = make_grid_1d(16)
    ks = fd.power_law_uniform(8, 4.0, 0.5)
    x = g.centers()
    F0 = np.array([math.exp(-i) * (1.0 + 0.5 * np.cos(2 * np.pi * x))
                   for i in range(1, 9)])
    traj, pairs = kept_run(g, ks, F0, StepperConfig(dt=1e-3, t_end=0.02),
                           eps=0.01, cadence=5)
    report = compute_monitors(g, ks, pairs, eps=0.01, tail_levels=(2, 4, 6),
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
    traj = synthetic_traj([0.0, 1.0],
                          [constant_fields(g, [1.0, 1.0]),
                           constant_fields(g, [0.5, 1.0])])
    report = compute_monitors(g, ks, traj, tail_levels=(1,))
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


@pytest.mark.parametrize("cells", [(128,), (16, 16), (128, 128), (256, 256)],
                         ids=["1D", "2D-16", "2D", "2D-256"])
def test_sample_has_the_bits_of_the_whole_stack_forms(cells):
    # 1D and 16x16, n=32: the stack fits one block, is weighted whole and
    # every integral is summed in one exact-sum pass; 128x128 and
    # 256x256, n=32: every integrand is formed one block of whole rows at a
    # time, in buffers of a fixed size.  Every integrand has the bits of the
    # whole-stack expressions, and a 2D sample's temporaries stay below a
    # bound that does not grow with the grid: five blocks (three for v, w
    # and a product, two for the split) and 32 kB for the rest
    import tracemalloc

    g = fd.make_grid_2d(*cells) if len(cells) == 2 else make_grid_1d(*cells)
    n = 32
    ks = fd.power_law_uniform(n, 4.0, 0.5)
    rng = np.random.default_rng(42)
    F = rng.uniform(0.0, 1.0, size=(n,) + g.shape) * np.exp(-np.arange(1.0, n + 1.0)).reshape(
        (n,) + (1,) * g.dim)
    F[3] = -0.0
    F[:, ::4] = 0.0
    Q = fd.q_field(F, ks, 0.01)
    acc = fd.MonitorAccumulator(g, ks, eps=0.01, energy_specs=[(1, 0.5), (2, 1.0)])
    for _ in range(2):  # the first sample, which also forms R, and a steady one
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            acc.add(0.0, F, Q)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        if g.dim == 2:
            assert peak < 5 * 8 * gridmod._SUM_BLOCK + 2 ** 15, peak
    # the steady sample repeats the first one's integrands
    for series in (acc._ints, acc._per_t, acc._dual, acc._minv, acc._maxv,
                   *acc._grads, *acc._qnorm):
        assert len(series) == 2 and np.array_equal(series[0], series[1])
        del series[1]
    assert acc._minv == [float(np.min(F))] and acc._maxv == [float(np.max(F))]
    assert acc._grads == [[float(ks.d[s - 1])
                           * gradient_sq_by_axis(g, F[s - 1], np.abs(F[s - 1]) <= level)]
                          for s, level in acc.energy_specs]
    shape = (n,) + (1,) * g.dim
    i1 = np.arange(1.0, n + 1.0).reshape(shape)
    v = np.sum(i1 * F, axis=0)
    assert acc._dual == [integrate(g, np.sum(i1 * ks.d.reshape(shape) * F, axis=0) * v)]
    assert acc._R == float(np.max(ks.d)) * integrate(g, v * v)
    np.testing.assert_array_equal(acc._ints[0], [integrate(g, f) for f in F])
    q_ints = np.array([integrate(g, np.abs(q)) for q in Q])
    np.testing.assert_array_equal(acc._per_t[0], (1.0 / ks.d) * q_ints)
    assert acc._qnorm == [[q_ints[0]], [q_ints[1]]]


def _sample_stack(g, n, seed):
    rng = np.random.default_rng(seed)
    F = rng.uniform(0.0, 1.0, size=(n,) + g.shape) * np.exp(-np.arange(1.0, n + 1.0)).reshape(
        (n,) + (1,) * g.dim)
    return F, rng.standard_normal(F.shape) * 1e-3


def _count_row_fsums(monkeypatch, grid):
    # the values of each fsum in grid over more than one value per axis: a
    # row read again from its blocks (the face weights take one per axis)
    calls = []

    def counted(values):
        values = list(values)
        if len(values) > grid.dim:
            calls.append(values)
        return math.fsum(values)

    monkeypatch.setattr(gridmod, "fsum", counted)
    return calls


@pytest.mark.parametrize("cells", [(128,), (16, 16), (128, 128), (256, 256)],
                         ids=["1D", "2D-16", "2D", "2D-256"])
def test_a_sample_takes_one_exact_sum_pass(monkeypatch, cells):
    # with two energy specs, a first and a steady sample each form every
    # integral in one exact sum, whether the stack fits one block (1D and
    # 16x16 with n=32) or not
    g = fd.make_grid_2d(*cells) if len(cells) == 2 else make_grid_1d(*cells)
    n = 32
    ks = fd.power_law_uniform(n, 4.0, 0.5)
    F, Q = _sample_stack(g, n, 43)
    acc = fd.MonitorAccumulator(g, ks, eps=0.01, energy_specs=[(1, 0.5), (2, 1.0)])
    calls, exact_sums = [], gridmod._exact_sums

    def counted(blocks, nrows, N):
        calls.append(nrows)
        return exact_sums(blocks, nrows, N)

    monkeypatch.setattr(gridmod, "_exact_sums", counted)
    acc.add(0.0, F, Q)
    acc.add(1.0, F, Q)
    # rows: F, |Q|, w v, v v (first sample only), two specs' face squares
    assert calls == [2 * n + 2 + 2 * g.dim, 2 * n + 1 + 2 * g.dim]


def test_steady_samples_of_the_grid2d_64_run_send_no_row_to_fsum(monkeypatch):
    # the benchmark's grid2d_64 and ref1d workloads at seed 3 (their
    # initial depth as perfbench/run.py draws it): every sample, the first
    # included, is decided by the split without fsum
    import random

    doc = fd.reference_scenario_dict()
    doc["ic"]["depth"] = random.Random(3).uniform(0.25, 0.75)
    wide = copy.deepcopy(doc)
    wide["grid"] = {"cells": [64, 64], "lengths": [1.0, 1.0]}
    wide["stepper"]["t_end"] = 0.05
    for doc, samples in ((wide, 6), (doc, 101)):
        cfg = fd.SimConfig.from_dict(doc)
        g, ks = fd.make_grid(cfg.grid), fd.make_kernel_set(cfg.kernel)
        F0 = fd.make_initial_condition(cfg.ic, g, cfg.kernel.n)
        acc = fd.MonitorAccumulator(g, ks, eps=cfg.eps, tail_levels=cfg.monitors.tail_levels,
                                    energy_specs=cfg.monitors.energy_specs)
        calls = _count_row_fsums(monkeypatch, g)
        run_simulation(g, ks, F0, cfg.stepper, eps=cfg.eps, cadence=cfg.monitors.cadence,
                       sample=acc.add)
        assert len(acc.times) == samples and calls == [], g.shape


@pytest.mark.parametrize("cells", [(64,), (32, 32)], ids=["one-block", "streamed"])
def test_a_level_below_every_value_is_decided_without_fsum(monkeypatch, cells):
    # every face of species 1 is masked: its rows of squares are zeros,
    # which the split decides without a second pass
    g = fd.make_grid_2d(*cells) if len(cells) == 2 else make_grid_1d(*cells)
    n = 16 if g.dim == 2 else 8
    ks = fd.power_law_uniform(n, 4.0, 0.5)
    F, Q = _sample_stack(g, n, 44)
    F[0] += 1.0
    acc = fd.MonitorAccumulator(g, ks, eps=0.01, energy_specs=[(1, 0.5), (2, 1.0)])
    assert (F.size <= gridmod._SUM_BLOCK) == (g.dim == 1)
    calls = _count_row_fsums(monkeypatch, g)
    acc.add(0.0, F, Q)
    assert calls == []
    assert acc._grads[0] == [0.0]
    assert acc._grads[1] == [float(ks.d[1]) * gradient_sq_by_axis(g, F[1])]


def _count_passes(monkeypatch):
    """The ``first`` argument of each ``_products`` pass, and the rows that
    ``grid._row`` opens."""
    passes, products = [], fd.MonitorAccumulator._products
    opened, row = [], gridmod._row

    def counted_products(self, F, first):
        passes.append(first)
        return products(self, F, first)

    def counted_row(blocks, i):
        opened.append(i)
        return row(blocks, i)

    monkeypatch.setattr(fd.MonitorAccumulator, "_products", counted_products)
    monkeypatch.setattr(gridmod, "_row", counted_row)
    return passes, opened


def test_underflowing_species_are_decided_in_the_samples_pass(monkeypatch):
    # a 1D stack of 256 species on 64 cells, two blocks, whose last 40
    # species underflow: their tiny rows of F and |Q| are scaled up and
    # decided in the sample's split, no row opens, the products are formed
    # once for the scan and once for the split, and every sum has fsum's
    # bits
    g = make_grid_1d(64)
    n = 256
    ks = fd.cheng_redner_uniform(n, 4.0, 0.5)
    F, Q = _sample_stack(g, n, 46)
    F[-40:] = np.random.default_rng(47).uniform(0.0, 1.0, size=(40, 64)) * 1e-310
    Q[-40:] *= 1e-300
    assert F.size > gridmod._SUM_BLOCK
    acc = fd.MonitorAccumulator(g, ks, eps=0.01, energy_specs=[(1, 0.5)])
    passes, opened = _count_passes(monkeypatch)
    acc.add(0.0, F, Q)
    acc.add(1.0, F, Q)
    assert passes == [True, True, False, False] and opened == []
    vol = g.cell_volume
    q_ints = np.array([vol * math.fsum(np.abs(q)) for q in Q])
    for ints, per_t in zip(acc._ints, acc._per_t):
        assert [v.hex() for v in ints] == [(vol * math.fsum(f)).hex() for f in F]
        assert per_t.tobytes() == ((1.0 / ks.d) * q_ints).tobytes()


def test_zero_rows_take_fsums_sign_in_a_streamed_sample(monkeypatch):
    # as on a Python whose fsum of -0.0 alone is -0.0: a streamed uniform
    # sample has the zero row |Q_n| and here the -0.0 row F_4; each opens
    # for fsum, over a new pass of the blocks, and keeps fsum's sign
    calls = []

    def counted(values):
        values = list(values)
        calls.append(values)
        return fsum_keeping_negative_zero(values)

    monkeypatch.setattr(gridmod, "_FSUM_KEEPS_NEGATIVE_ZERO", True)
    monkeypatch.setattr(gridmod, "fsum", counted)
    g = fd.make_grid_2d(32, 32)
    n = 16
    ks = fd.power_law_uniform(n, 4.0, 0.5)
    F, _ = _sample_stack(g, n, 48)
    F[3] = -0.0
    Q = fd.q_field(F, ks, 0.01)
    assert F.size > gridmod._SUM_BLOCK and not Q[-1].any()
    acc = fd.MonitorAccumulator(g, ks, eps=0.01, energy_specs=[(1, 0.5)])
    passes, opened = _count_passes(monkeypatch)
    acc.add(0.0, F, Q)
    assert opened == [3, 2 * n - 1] and passes == [True] * 4
    assert [len(v) for v in calls if len(v) > g.dim] == [g.ncells] * 2
    assert math.copysign(1.0, acc._ints[0][3]) == -1.0
    assert math.copysign(1.0, acc._per_t[0][-1]) == 1.0


@pytest.mark.parametrize("cells", [(128, 128), (256, 256)], ids=["2D", "2D-256"])
def test_rows_left_to_fsum_keep_a_sample_in_its_bound(monkeypatch, cells):
    # species 6 sums to a rounding midpoint, so its row goes to fsum over a
    # new pass of the sample's blocks; that pass holds no block of the
    # first one, and the sample keeps the bound of the whole-stack test
    import tracemalloc

    g = fd.make_grid_2d(*cells)
    n = 32
    ks = fd.power_law_uniform(n, 4.0, 0.5)
    F, Q = _sample_stack(g, n, 45)
    F[5] = 0.0
    F[5, 0, :2] = [1.0, 2.0 ** -53]
    acc = fd.MonitorAccumulator(g, ks, eps=0.01, energy_specs=[(1, 0.5), (2, 1.0)])
    acc.add(0.0, F, Q)
    opened, row = [], gridmod._row

    def counted(blocks, i):
        opened.append(i)
        return row(blocks, i)

    monkeypatch.setattr(gridmod, "_row", counted)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        acc.add(0.0, F, Q)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 5 in opened
    assert peak < 5 * 8 * gridmod._SUM_BLOCK + 2 ** 15, peak
    assert acc._ints[1][5] == g.cell_volume * math.fsum(F[5].ravel().tolist())
