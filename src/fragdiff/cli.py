"""Command-line front end: simulate / sweep / audit / plot.

Exit codes are part of the contract:

* 0 — success, every checked invariant passed / every series certified
* 1 — an invariant failed, a series diverges, or a kernel table is invalid
* 2 — configuration error (bad file, unknown keys, values of the wrong type
  or out of range, missing inputs)
* 3 — numerical abort (step-size collapse, non-finite state)
* 4 — audit inconclusive (no certificate either way)

All data artifacts (CSV/JSON/dat) are written with repr-precision floats,
'\\n' line ends and sorted JSON keys, so a re-run of the same config
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import grid as gridmod
from . import monitors as monmod
from . import stepper as stepmod
from .errors import (
    ConfigError,
    ContractViolationError,
    DivergentSeriesError,
    FragdiffError,
    NumericalAbortError,
)
from .kernels import validate_kernel_set
from .summability import DIVERGES, INCONCLUSIVE, audit_summability, check_initial_data

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def _exit_code(exc):
    """``(exit code, message prefix)`` for a package error that ends a run."""
    if isinstance(exc, NumericalAbortError):
        return EXIT_NUMERICAL, "numerical abort"
    if isinstance(exc, ContractViolationError):
        return EXIT_INVARIANT, "invariant failure"
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG, "config error"
    return EXIT_CONFIG, "error"


def _thread_cap():
    raw = os.environ.get("FRAGDIFF_THREADS", "")
    if not raw:
        return 1
    try:
        k = int(raw)
    except ValueError:
        print(f"warning: ignoring malformed FRAGDIFF_THREADS={raw!r}", file=sys.stderr)
        return 1
    return max(1, k)


def _write_json(path, doc):
    with open(path, "w", newline="\n") as fh:
        fh.write(monmod.json_text(doc) + "\n")


# -- simulate --------------------------------------------------------------


def _run_single(cfg, outdir, quiet):
    """Execute one configured run, writing all artifacts into ``outdir``.

    Nothing is written before the kernel set, the grid and the initial
    condition are built, so a rejected kernel table leaves ``outdir`` alone.
    """
    ks = cfgmod.make_kernel_set(cfg.kernel)
    grid = cfgmod.make_grid(cfg.grid)
    F0 = cfgmod.make_initial_condition(cfg.ic, grid, cfg.kernel.n)

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", cfg.to_dict())

    # the monitors fold each sample in as it is taken: no field is stored
    monitors = monmod.MonitorAccumulator(
        grid, ks, eps=cfg.eps, tail_levels=cfg.monitors.tail_levels,
        energy_specs=[tuple(sp) for sp in cfg.monitors.energy_specs],
        envelope_family=cfg.monitors.envelope_family,
    )
    # data that overflow end in a numerical abort that names the fault;
    # numpy's warnings on stderr would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        aborted = None
        try:
            traj = stepmod.run_simulation(grid, ks, F0, cfg.stepper, eps=cfg.eps,
                                          cadence=cfg.monitors.cadence, sample=monitors.add)
        except NumericalAbortError as exc:
            traj, aborted = exc.trajectory, exc

        report = monitors.report()
        monmod.write_monitors_csv(out / "monitors.csv", report)

        state = traj.state
        extra = {
            "config": cfg.to_dict(),
            "run": {
                "steps": state.step_index,
                "rejected_steps": state.rejected_steps,
                "clip_events": 0,
                "clipped_mass": 0.0,
                "final_t": state.t,
                "aborted": bool(aborted),
            },
        }
        monmod.write_summary_json(out / "summary.json", report, extra=extra)
        stepmod.checkpoint_save(out / "fields_final.csv", grid, traj.terminal, traj.times[-1])

    for name, entry in report.invariants.items():
        _say(quiet, f"[{'PASS' if entry['pass'] else 'FAIL'}] {name}: "
                    f"value={entry['value']:.6g} tol={entry['tolerance']:.6g}")
    if aborted is not None:
        print(f"numerical abort: {aborted} (partial outputs in {out})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if report.all_pass else EXIT_INVARIANT


def cmd_simulate(args):
    cfg = cfgmod.load_config(args.config)
    outdir = args.out or cfg.output_dir
    if outdir is None:
        raise ConfigError("no output directory: pass --out or set output_dir")
    code = _run_single(cfg, outdir, args.quiet)
    _say(args.quiet, f"simulate: exit {code}")
    return code


# -- audit -----------------------------------------------------------------


def cmd_audit(args):
    cfg = cfgmod.load_config(args.config)
    try:
        ks = cfgmod.make_kernel_set(cfg.kernel)
    except DivergentSeriesError as exc:
        doc = {"error": str(exc), "verdict": DIVERGES}
        print(monmod.json_text(doc))
        return EXIT_INVARIANT

    vr = validate_kernel_set(ks)
    rep = audit_summability(ks, profile=cfg.kernel.profile)
    grid = cfgmod.make_grid(cfg.grid)
    F0 = cfgmod.make_initial_condition(cfg.ic, grid, cfg.kernel.n)
    adm = check_initial_data(grid, F0, ks)

    doc = {
        "summability": rep.to_json_dict(),
        "kernel_validation": {
            "ok": vr.ok,
            "max_mass_residual": vr.max_mass_residual,
            "pairs_checked": vr.pairs_checked,
            "failures": vr.failures,
        },
        "initial_data": adm.to_json_dict(),
    }
    if not args.quiet:
        print(monmod.json_text(doc))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "audit.json", doc)

    verdicts = [c.verdict for c in rep.conditions]
    if not vr.ok or DIVERGES in verdicts or adm.judgment == "infinite":
        return EXIT_INVARIANT
    if INCONCLUSIVE in verdicts or adm.judgment == "unclear":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -- sweep -----------------------------------------------------------------


def _parse_values(axis, raw):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError("--values: empty list")
    try:
        if axis in ("n", "grid"):
            vals = [int(s) for s in items]
        else:
            vals = [float(s) for s in items]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    asc = all(vals[k] < vals[k + 1] for k in range(len(vals) - 1))
    desc = all(vals[k] > vals[k + 1] for k in range(len(vals) - 1))
    if not (asc or desc):
        raise ConfigError("--values: must be strictly monotone")
    return vals


def _derived_config(base_doc, axis, value):
    doc = json.loads(json.dumps(base_doc))  # deep copy
    if axis == "n":
        doc["kernel"]["n"] = int(value)
    elif axis == "eps":
        doc["eps"] = float(value)
    else:
        doc["grid"]["cells"] = [int(value)]
    return doc


def _sweep_worker(packed):
    doc, rundir, quiet = packed
    try:
        cfg = cfgmod.SimConfig.from_dict(doc)
        return _run_single(cfg, rundir, quiet)
    except FragdiffError as exc:
        code, what = _exit_code(exc)
        print(f"{what} in {rundir}: {exc}", file=sys.stderr)
        return code


def _l1_between(grid, a, b):
    """Species-summed L1 distance; species counts may differ (zero padding)."""
    n = max(a.shape[0], b.shape[0])
    a, b = (np.concatenate([F, np.zeros((n - F.shape[0],) + grid.shape)]) for F in (a, b))
    return math.fsum(gridmod.species_integrals(grid, np.abs(a - b)))


def _restrict_1d(values, factor):
    n, m = values.shape
    return values.reshape(n, m // factor, factor).mean(axis=2)


def cmd_sweep(args):
    cfg = cfgmod.load_config(args.config)
    if args.axis not in ("n", "eps", "grid"):
        raise ConfigError("--axis must be one of n, eps, grid")
    if args.out is None:
        raise ConfigError("sweep requires --out")
    if args.axis == "grid" and len(cfg.grid.cells) != 1:
        raise ConfigError("grid sweeps are defined for one spatial axis")
    values = _parse_values(args.axis, args.values)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base_doc = cfg.to_dict()
    jobs = []
    for v in values:
        tag = f"{v:g}" if isinstance(v, float) else str(v)
        rundir = out / f"run_{args.axis}_{tag}"
        jobs.append((_derived_config(base_doc, args.axis, v), str(rundir), True))

    cap = _thread_cap()
    if cap > 1 and len(jobs) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=cap) as pool:
            codes = list(pool.map(_sweep_worker, jobs))
    else:
        codes = [_sweep_worker(job) for job in jobs]

    # terminal states, aligned for comparison
    loaded = []
    for (_doc, rundir, _q), code in zip(jobs, codes):
        path = Path(rundir) / "fields_final.csv"
        if code in (EXIT_OK, EXIT_INVARIANT) and path.exists():
            loaded.append(gridmod.read_species_csv(path))
        else:
            loaded.append(None)

    rows = []
    ref_idx = None
    if args.axis == "eps":
        abs_eps = [abs(v) for v in values]
        ref_idx = abs_eps.index(min(abs_eps))
    for k, v in enumerate(values):
        row = {
            "axis": args.axis, "value": v, "run_dir": jobs[k][1],
            "exit_code": codes[k], "mass_final": "", "l1_diff_prev": "",
            "l1_diff_ref": "", "order_est": "",
        }
        if loaded[k] is not None:
            g_k, F_k, _ = loaded[k]
            row["mass_final"] = repr(monmod.total_mass(g_k, F_k))
        rows.append(row)

    diffs = {}
    for k in range(1, len(values)):
        if loaded[k] is None or loaded[k - 1] is None:
            continue
        g_a, F_a, _ = loaded[k - 1]
        g_b, F_b, _ = loaded[k]
        if args.axis == "grid":
            ma, mb = g_a.shape[0], g_b.shape[0]
            if max(ma, mb) % min(ma, mb) != 0:
                continue
            if ma < mb:
                F_b = _restrict_1d(F_b, mb // ma)
                g = g_a
            else:
                F_a = _restrict_1d(F_a, ma // mb)
                g = g_b
            diffs[k] = _l1_between(g, F_a, F_b)
        else:
            diffs[k] = _l1_between(g_a, F_a, F_b)
        rows[k]["l1_diff_prev"] = repr(diffs[k])

    if args.axis == "grid":
        for k in range(2, len(values)):
            if k in diffs and (k - 1) in diffs and diffs[k] > 0:
                ratio = values[k] / values[k - 1]
                rows[k]["order_est"] = repr(
                    math.log(diffs[k - 1] / diffs[k]) / math.log(ratio)
                )
    if ref_idx is not None:
        g_ref = loaded[ref_idx]
        for k, v in enumerate(values):
            if k == ref_idx or loaded[k] is None or g_ref is None:
                continue
            rows[k]["l1_diff_ref"] = repr(_l1_between(g_ref[0], loaded[k][1], g_ref[1]))

    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        w.writeheader()
        for row in rows:
            w.writerow(row)

    _say(args.quiet, f"sweep: {len(values)} runs, exit codes {codes}")
    if EXIT_NUMERICAL in codes:
        return EXIT_NUMERICAL
    if EXIT_CONFIG in codes:
        return EXIT_CONFIG
    if EXIT_INVARIANT in codes:
        return EXIT_INVARIANT
    return EXIT_OK


# -- plot ------------------------------------------------------------------


def _read_monitor_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ConfigError(f"{path}: no monitor samples to plot")
    header = rows[0]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return header, data


def _plot_datasets(rundir):
    header, data = _read_monitor_table(Path(rundir) / "monitors.csv")
    col = {name: k for k, name in enumerate(header)}
    t = data[:, col["t"]]
    sets = {
        "mass_vs_t": (("t", t), [("M", data[:, col["M"]]),
                                 ("moment0", data[:, col["moment0"]])]),
        "minmax_vs_t": (("t", t), [("min", data[:, col["min"]]),
                                   ("max", data[:, col["max"]])]),
    }
    tails = [(name, data[:, k]) for name, k in col.items() if name.startswith("tail@")]
    sets["tail_vs_t"] = (("t", t), tails or [("none", np.zeros_like(t))])

    fields_path = Path(rundir) / "fields_final.csv"
    if fields_path.exists():
        grid, F, _ = gridmod.read_species_csv(fields_path)
        sizes = np.arange(1, F.shape[0] + 1, dtype=float)
        spectrum = gridmod.species_integrals(grid, F)
        sets["spectrum_final"] = (("size", sizes), [("integral", spectrum)])
    else:
        sets["spectrum_final"] = (("size", np.array([1.0])), [("integral", np.array([0.0]))])
    return sets


def _write_dat(path, xlabel, x, series):
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + " ".join([xlabel] + [name for name, _ in series]) + "\n")
        for k in range(len(x)):
            fh.write(" ".join([repr(float(x[k]))] +
                              [repr(float(vals[k])) for _, vals in series]) + "\n")


def cmd_plot(args):
    rundir = args.out
    if rundir is None:
        raise ConfigError("plot requires --out pointing at a run directory")
    if not (Path(rundir) / "monitors.csv").exists():
        raise ConfigError(f"{rundir}: monitors.csv not found")
    sets = _plot_datasets(rundir)

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        backend = "png"
    except ImportError:
        backend = "dat"

    written = []
    for name, ((xlabel, x), series) in sets.items():
        if backend == "png":
            fig, ax = plt.subplots(figsize=(6, 4))
            for label, vals in series:
                if name in ("tail_vs_t", "spectrum_final") and np.all(np.asarray(vals) >= 0):
                    ax.semilogy(x, np.maximum(vals, 1e-300), label=label)
                else:
                    ax.plot(x, vals, label=label)
            ax.set_xlabel(xlabel)
            ax.set_title(name.replace("_", " "))
            ax.legend(loc="best", fontsize=8)
            fig.tight_layout()
            path = Path(rundir) / f"{name}.png"
            fig.savefig(path, dpi=110)
            plt.close(fig)
        else:
            path = Path(rundir) / f"{name}.dat"
            _write_dat(path, xlabel, x, series)
        written.append(str(path))
    _say(args.quiet, f"plot: wrote {len(written)} files ({backend})")
    return EXIT_OK


# -- entry point -----------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="fragdiff",
        description="Collision-induced fragmentation with size-dependent "
                    "diffusion: runs, sweeps, kernel audits, plots.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("sweep", cmd_sweep),
                     ("audit", cmd_audit), ("plot", cmd_plot)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="path to a JSON config document")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--quiet", action="store_true")
        if name == "sweep":
            sp.add_argument("--axis", required=True, choices=["n", "eps", "grid"])
            sp.add_argument("--values", required=True,
                            help="comma-separated monotone list")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command in ("simulate", "sweep", "audit") and not args.config:
        print("config error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except FragdiffError as exc:
        code, what = _exit_code(exc)
        print(f"{what}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
