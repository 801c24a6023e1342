"""Acceptance gate: thirteen numbered certification criteria.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line with the measured
quantities, then asserts.  All oracles here are written from scratch
(naive loops, closed forms, integral brackets) so they cannot share bugs
with the library code they certify.
"""

import csv
import json
import math
import time
from math import fsum

import numpy as np
import pytest

import fragdiff as fd
from fragdiff import cli
from fragdiff.config import (
    SimConfig,
    make_grid,
    make_initial_condition,
    make_kernel_set,
    reference_scenario_dict,
)
from oracles import _exact_mass_ok_by_pair, spectral_heat_solve_1d, stencil_eigenvalue


def _certify(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared reference runs (module-scoped, computed once) ------------------


def _reference_cfg(**over):
    doc = reference_scenario_dict()
    for key, val in over.items():
        if isinstance(val, dict):
            doc[key].update(val)
        else:
            doc[key] = val
    return SimConfig.from_dict(doc)


def _run_reference(n=32, eps=0.01, cells=128):
    cfg = _reference_cfg(kernel={"n": n}, grid={"cells": [cells]}, eps=eps)
    grid = make_grid(cfg.grid)
    ks = make_kernel_set(cfg.kernel)
    F0 = make_initial_condition(cfg.ic, grid, n)
    samples = []  # (t, F) of every sample, kept as copies
    t0 = time.perf_counter()
    traj = fd.run_simulation(grid, ks, F0, cfg.stepper, eps=eps,
                             cadence=cfg.monitors.cadence,
                             sample=lambda t, F, Q: samples.append((t, F.copy())))
    return {
        "cfg": cfg, "grid": grid, "ks": ks, "F0": F0, "traj": traj, "samples": samples,
        "runtime": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def reference_runs():
    cache = {}

    def get(n=32, eps=0.01, cells=128):
        key = (n, eps, cells)
        if key not in cache:
            cache[key] = _run_reference(n=n, eps=eps, cells=cells)
        return cache[key]

    return get


# -- 1: weighted null sum --------------------------------------------------


def test_criterion_01_weighted_null_sum():
    rng = np.random.default_rng(11)
    sizes = [2, 3, 4, 5, 8, 13, 16, 24, 32, 48, 64]
    kernel_cache = {}
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice(sizes))
        lam = float(rng.choice([2.0, 4.0, 6.0]))
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        eps = float(rng.choice([0.0, 0.1]))
        key = (n, lam, alpha)
        if key not in kernel_cache:
            kernel_cache[key] = fd.KernelSet.power_law_uniform(
                n, lam, alpha, profile="stronger")
        ks = kernel_cache[key]
        f = rng.uniform(0.0, 10.0, size=n)
        f[rng.random(n) < 0.2] = 0.0
        q = fd.q_field(f, ks, eps)
        i1 = np.arange(1, n + 1, dtype=float)
        resid = abs(fsum(i1 * q))
        budget = 1e-12 * fsum(np.abs(i1 * q)) + 1e-300
        worst = max(worst, resid / budget)
        assert resid <= budget, (n, lam, alpha, eps, resid, budget)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    _certify(1, ok,
             f"|sum i*Q_i| <= 1e-12*sum|i*Q_i| on 1000 draws "
             f"(worst ratio {worst:.3g}, {elapsed:.2f}s < 10s)")


# -- 2: oracle equivalence -------------------------------------------------


def _oracle_q(f, n, lam):
    """From-scratch evaluation of the truncated operator, uniform family.

    Ordered pairs with p+q <= n; pairs re-emitting exactly their colliders
    (p+q <= 3 for the uniform fragment rule) drop out of gain and loss
    alike.  Accumulation via exactly-rounded fsum.
    """
    gains = [[] for _ in range(n)]
    losses = [[] for _ in range(n)]
    for p in range(1, n + 1):
        for q in range(1, n + 1 - p):
            if p + q <= 3:
                continue
            rate = float(p * q) ** (-lam) * f[p - 1] * f[q - 1]
            frag = 2.0 / (p + q - 1)
            for k in range(1, min(n, p + q - 1) + 1):
                gains[k - 1].append(0.5 * frag * rate)
            losses[p - 1].append(rate)
    return np.array([fsum(gains[i]) - fsum(losses[i]) for i in range(n)])


def test_criterion_02_independent_oracle():
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 33))
        lam = float(rng.choice([2.0, 4.0, 6.0]))
        ks = fd.KernelSet.power_law_uniform(n, lam, 0.5, profile="stronger")
        f = rng.uniform(0.0, 3.0, size=n)
        f[rng.random(n) < 0.25] = 0.0
        q = fd.q_field(f, ks)
        ref = _oracle_q(f, n, lam)
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        err = float(np.max(np.abs(q - ref))) / scale
        worst = max(worst, err)
        assert err <= 1e-14, (n, lam, err)

    ks4 = fd.KernelSet.power_law_uniform(4, 4.0, 0.5, profile="stronger")
    hand = fd.q_field(np.array([1.0, 1.0, 0.0, 0.0]), ks4)
    expect = np.array([1.0 / 768.0, -1.0 / 384.0, 1.0 / 768.0, 0.0])
    hand_err = float(np.max(np.abs(hand - expect)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and hand_err <= 1e-15 and elapsed < 5.0
    _certify(2, ok,
             f"naive-loop match rel {worst:.3g} <= 1e-14 on 200 draws; "
             f"hand case (1/768, -1/384, 1/768, 0) err {hand_err:.3g} <= 1e-15 "
             f"({elapsed:.2f}s < 5s)")


# -- 3: local breakage mass conservation -----------------------------------


def _exact_pairs(ks, i_max, limit=64):
    """``(pairs, ok)``: the pairs ``i <= j <= i_max`` with ``i + j <= limit``,
    and whether the family's closed form conserves mass exactly at each."""
    pairs = [(i, j) for i in range(1, i_max + 1) for j in range(i, min(i_max, limit - i) + 1)]
    return len(pairs), all(_exact_mass_ok_by_pair(ks, i, j) for i, j in pairs)


def test_criterion_03_fragment_mass_conservation():
    t0 = time.perf_counter()
    uni = fd.KernelSet.power_law_uniform(200, 4.0, 0.5, profile="stronger")
    rep_uni = fd.validate_kernel_set(uni, i_max=200, rel_tol=1e-12)
    exact_uni, exact_uni_ok = _exact_pairs(uni, 200)
    cr = fd.KernelSet.cheng_redner_uniform(64, 4.0, 0.0, profile="stronger")
    rep_cr = fd.validate_kernel_set(cr, i_max=64, rel_tol=1e-12)
    exact_cr, exact_cr_ok = _exact_pairs(cr, 64)
    elapsed = time.perf_counter() - t0
    ok = (rep_uni.ok and rep_cr.ok and exact_uni_ok and exact_cr_ok
          and exact_uni > 0 and exact_cr > 0
          and elapsed < 5.0)
    _certify(3, ok,
             f"sum k b^k_ij = i+j exact on {exact_uni}"
             f"+{exact_cr} rational pairs, float residual "
             f"{max(rep_uni.max_mass_residual, rep_cr.max_mass_residual):.3g} "
             f"<= 1e-12 on {rep_uni.pairs_checked}+{rep_cr.pairs_checked} pairs "
             f"({elapsed:.2f}s < 5s)")


# -- 4: quasipositivity ----------------------------------------------------


def test_criterion_04_quasipositivity():
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()
    worst = 0.0
    kernel_cache = {}
    for _ in range(1000):
        n = int(rng.integers(3, 33))
        lam = float(rng.choice([2.0, 4.0, 6.0]))
        eps = float(rng.choice([0.0, 0.1]))
        key = (n, lam)
        if key not in kernel_cache:
            kernel_cache[key] = fd.KernelSet.power_law_uniform(
                n, lam, 1.0, profile="stronger")
        ks = kernel_cache[key]
        f = rng.uniform(0.0, 5.0, size=n)
        i = int(rng.integers(1, n + 1))
        f[i - 1] = 0.0
        q_i, gain_i = fd.check_quasipositivity(f, ks, eps, i)
        floor = -1e-14 * gain_i
        margin = q_i - floor
        worst = min(worst, margin)
        assert q_i >= floor, (n, lam, i, q_i, gain_i)
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.0 and elapsed < 5.0
    _certify(4, ok,
             f"Q_i >= -1e-14*gain at 1000 zeroed coordinates "
             f"(worst margin {worst:.3g}, {elapsed:.2f}s < 5s)")


# -- 5: reference scenario run ---------------------------------------------


def test_criterion_05_reference_run(reference_runs):
    run = reference_runs()
    samples, grid = run["samples"], run["grid"]
    masses = [fd.total_mass(grid, F) for _t, F in samples]
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    min_f = min(float(F.min()) for _t, F in samples)
    ok = drift <= 1e-10 and min_f >= 0.0 and run["runtime"] < 120.0
    _certify(5, ok,
             f"mass drift {drift:.3g} <= 1e-10, min f {min_f:.3g} >= 0 "
             f"({run['runtime']:.2f}s < 120s)")


# -- 6: spatial convergence ------------------------------------------------


def test_criterion_06_spatial_order(tmp_path):
    cfg_path = tmp_path / "ref.json"
    cfg_path.write_text(json.dumps(reference_scenario_dict()))
    out = tmp_path / "grids"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--axis", "grid",
                   "--values", "64,128,256", "--out", str(out), "--quiet"])
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    order = float(rows[2]["order_est"])
    ok = 1.7 <= order <= 2.3
    _certify(6, ok,
             f"Richardson order {order:.4f} in [1.7, 2.3] over cells 64/128/256")


# -- 7: spectral-vs-stencil diffusion --------------------------------------


def _pure_diffusion_error(m):
    grid = fd.make_grid_1d(m, 1.0)
    ks = fd.KernelSet.power_law_uniform(1, 4.0, 0.0)  # n=1: no collisions
    x = grid.centers()
    F0 = (1.0 + 0.5 * np.cos(np.pi * x))[None, :]
    cfg = fd.StepperConfig(scheme="imex_euler", dt=1e-5, t_end=0.1)
    traj = fd.run_simulation(grid, ks, F0, cfg, eps=0.0, cadence=10_000)
    exact = spectral_heat_solve_1d(grid, F0[0], 1.0, 0.1)
    return float(np.max(np.abs(traj.terminal[0] - exact)))


def test_criterion_07_heat_benchmark():
    err_fine = _pure_diffusion_error(256)
    err_coarse = _pure_diffusion_error(128)
    ok = err_fine <= 1e-4 and err_fine < err_coarse
    _certify(7, ok,
             f"collisionless solve vs cosine-series solution: Linf "
             f"{err_fine:.3g} <= 1e-4 at 256 cells, improving from "
             f"{err_coarse:.3g} at 128")


# -- 8: duality functional across truncation sizes -------------------------


def test_criterion_08_duality_stability(reference_runs):
    runs = {n: reference_runs(n=n) for n in (16, 32, 64)}
    reports = {n: fd.compute_monitors(run["grid"], run["ks"], run["samples"], eps=0.01).duality
               for n, run in runs.items()}
    finite = all(math.isfinite(r.D) and r.D > 0 for r in reports.values())
    rel = abs(reports[32].D - reports[64].D) / reports[64].D
    ratios = [reports[n].ratio for n in (16, 32, 64)]
    no_divergence = (max(ratios) <= 10.0
                     and reports[64].ratio <= 1.05 * reports[32].ratio)
    ok = finite and rel <= 0.05 and no_divergence
    _certify(8, ok,
             f"D finite on sizes 16/32/64, drift(32->64) {rel:.3g} <= 5%, "
             f"D/R ratios {[f'{r:.4f}' for r in ratios]} bounded")


# -- 9: truncation energy inequality ---------------------------------------


def test_criterion_09_energy_inequality(reference_runs):
    run = reference_runs()
    specs = [(species, level) for species in (1, 2) for level in (0.5, 1.0)]
    checks = fd.compute_monitors(run["grid"], run["ks"], run["samples"], eps=0.01,
                                 energy_specs=specs).energy
    worst = min(r.slack / (1e-3 * r.rhs) for r in checks)
    ok = all(r.slack >= -1e-3 * r.rhs for r in checks)
    _certify(9, ok,
             f"RHS - LHS >= -1e-3*RHS at levels 0.5/1.0, species 1/2 "
             f"(worst slack/budget {worst:.3g} >= -1)")


# -- 10: tail summability --------------------------------------------------


def test_criterion_10_tail_bounds(reference_runs):
    run = reference_runs()
    grid, final = run["grid"], run["traj"].terminal
    tails = {M: fd.tail_mass(grid, final, M) for M in (8, 16, 24)}
    envs = {M: fd.tail_envelope_exponential(M) for M in (8, 16, 24)}
    decreasing = tails[8] > tails[16] > tails[24] > 0.0
    dominated = all(tails[M] <= 2.0 * envs[M] for M in (8, 16, 24))
    ok = decreasing and dominated
    _certify(10, ok,
             "tail mass decreasing in level and within 2x analytic envelope: "
             + ", ".join(f"tau_{M}={tails[M]:.3g}<= 2*{envs[M]:.3g}"
                         for M in (8, 16, 24)))


# -- 11: regularization sweep ----------------------------------------------


def test_criterion_11_eps_limit(tmp_path):
    cfg_path = tmp_path / "ref.json"
    cfg_path.write_text(json.dumps(reference_scenario_dict()))
    out = tmp_path / "eps"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--axis", "eps",
                   "--values", "0.1,0.01,0.001,0", "--out", str(out),
                   "--quiet"])
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    dists = [float(rows[k]["l1_diff_ref"]) for k in range(3)]
    assert rows[3]["l1_diff_ref"] == ""  # the limit run is the reference
    ok = dists[0] > dists[1] > dists[2] > 0.0
    _certify(11, ok,
             "terminal L1 distance to the eps=0 run strictly decreasing: "
             + " > ".join(f"{d:.4g}" for d in dists))


# -- 12: summability auditor -----------------------------------------------


def _a1_oracle_bracket(lam):
    """Independent bracket for the first summability series.

    Literal double sum over colliders p, q <= 100 (10^4 terms) plus
    integral brackets for the three tail blocks of the factorized form.
    """
    N = 100
    core = fsum(2.0 * p ** (1.0 - lam) * float(q) ** (-lam)
                for p in range(1, N + 1) for q in range(1, N + 1))
    s_a = fsum(float(p) ** (1.0 - lam) for p in range(1, N + 1))
    s_b = fsum(float(q) ** (-lam) for q in range(1, N + 1))

    def tail(s):  # integral bracket for sum_{i>N} i**-s
        return (N + 1) ** (1.0 - s) / (s - 1.0), N ** (1.0 - s) / (s - 1.0)

    ta = tail(lam - 1.0)
    tb = tail(lam)
    lo = core + 2.0 * (s_a * tb[0] + ta[0] * s_b + ta[0] * tb[0])
    hi = core + 2.0 * (s_a * tb[1] + ta[1] * s_b + ta[1] * tb[1])
    return lo, hi


def test_criterion_12_auditor_verdicts(tmp_path):
    t0 = time.perf_counter()
    rcs = {}
    for tag, (lam, alpha) in {"ok": (4.0, 0.0), "bad": (2.0, 1.0),
                              "edge": (4.0, 1.0)}.items():
        doc = reference_scenario_dict()
        doc["kernel"].update({"lam": lam, "alpha": alpha, "profile": "stronger"})
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / f"audit_{tag}"
        rcs[tag] = cli.main(["audit", "--config", str(cfg_path),
                             "--out", str(out), "--quiet"])

    report = json.loads((tmp_path / "audit_ok" / "audit.json").read_text())
    a1 = next(c for c in report["summability"]["conditions"]
              if c["condition"] == "A1")
    o_lo, o_hi = _a1_oracle_bracket(4.0)
    frozen = 2.602028229064977  # 2*zeta(3)*zeta(4)
    contains = (o_lo <= a1["lower"] <= frozen <= a1["upper"] <= o_hi)
    elapsed = time.perf_counter() - t0
    ok = (rcs == {"ok": 0, "bad": 1, "edge": 4} and contains and elapsed < 30.0)
    _certify(12, ok,
             f"exit codes {rcs} == (0, 1, 4); A1 enclosure "
             f"[{a1['lower']:.12f}, {a1['upper']:.12f}] inside oracle bracket "
             f"[{o_lo:.9f}, {o_hi:.9f}] and contains 2*zeta(3)*zeta(4) "
             f"({elapsed:.1f}s < 30s)")


# -- 13: 2D split diffusion step against exact discrete modes ---------------


def test_criterion_13_2d_discrete_oracle():
    # On a non-square grid, the product of cosine modes is an eigenvector
    # of each axis stencil, so the x sweep and then the y sweep multiply it
    # by exactly 1/((1 - dt*d*mu_x)(1 - dt*d*mu_y)).
    grid = fd.make_grid_2d(16, 24, 1.0, 2.0)
    ks = fd.KernelSet.power_law_uniform(3, 4.0, 0.5)
    solver = fd.DiffusionSolver(grid, ks)
    X, Y = grid.meshgrid()
    worst = 0.0
    for dt in (1e-3, 0.5):
        for kx, ky in ((1, 0), (3, 5), (15, 23), (7, 2)):
            mode = (np.cos(kx * np.pi * X / grid.lengths[0])
                    * np.cos(ky * np.pi * Y / grid.lengths[1]))
            mu_x = stencil_eigenvalue(grid, kx, axis=0)
            mu_y = stencil_eigenvalue(grid, ky, axis=1)
            out = solver.solve(np.stack([mode] * ks.n), dt)
            for i in range(ks.n):
                dd = dt * float(ks.d[i])
                expect = mode / ((1.0 - dd * mu_x) * (1.0 - dd * mu_y))
                worst = max(worst, float(np.max(np.abs(out[i] - expect))))

    rng = np.random.default_rng(13)
    stage = rng.uniform(0.0, 1.0, size=(ks.n,) + grid.shape)
    stage[stage < 0.3] = 0.0
    out = solver.solve(stage.copy(), 0.5)
    drift = max(abs(fd.integrate(grid, out[i]) - fd.integrate(grid, stage[i]))
                / fd.integrate(grid, stage[i]) for i in range(ks.n))
    ok = worst <= 1e-14 and drift <= 1e-13 and bool(np.all(out >= 0.0))
    _certify(13, ok,
             f"16x24 split step on cosine modes: max error {worst:.3g} <= 1e-14 "
             f"(dt 1e-3, 0.5); per-species mass drift {drift:.3g} <= 1e-13")
