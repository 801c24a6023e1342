"""fragdiff benchmark: four CLI workloads, end-to-end timings, traced layers.

    python3 perfbench/run.py --workload ref1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each repeat runs
``fragdiff.cli.main`` in a fresh process (``child.py``), one repeat at a
time: a closed loop with a single client.  BLAS/OpenMP threads are capped
at the number of usable cores.  Repeats continue until the next one would
end past ``--seconds``, after at least ``MIN_REPEATS`` repeats
(``MIN_TRACED_REPEATS`` of each kind with ``--trace 1``).

The end-to-end metrics are medians over the untraced repeats: ``setup_s``,
``peak_rss_mb`` and ``run_norm_s``, the wall time of ``cli.main`` times
``CALIB_REF_S`` over the calibration time measured around it in the same
process.  This host's speed changes by up to about 1.8x within minutes;
the calibration takes about half of that spread out (the raw ``run_s`` is
in the report).

Every repeat's outputs are checked: exit code 0, every invariant in
``summary.json`` passing (every audit verdict ``CONVERGES``), and the
artifacts byte-identical across the repeats of the run.  With ``--trace 1``
untraced and traced repeats alternate; the traced ones report per-layer
times and counts, the counts must repeat exactly and the traced artifacts
must equal the untraced ones.

A readable report (provenance, artifact digests, per-repeat figures, all
per-layer metrics) is printed first and written to ``.perfbench_work/``; the
last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2  # of each kind, with --trace 1
RUN_LIMIT_S = 170.0
CALIB_REF_S = 0.25
"""Scale of ``run_norm_s``: the child's calibration time (before plus after
the run) on the 2-core Xeon host where the benchmark was defined."""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

DEPTH_RANGE = (0.25, 0.75)
"""``ic.depth`` (cosine modulation) drawn from the seed for simulate runs."""


# -- workloads -------------------------------------------------------------


def _reference(depth):
    """Equal to ``fragdiff.config.reference_scenario_dict()`` at depth 0.5."""
    return {
        "kernel": {"family": "power_law_uniform", "n": 32, "lam": 4.0, "alpha": 0.5},
        "grid": {"cells": [128], "lengths": [1.0]},
        "ic": {"family": "exponential", "gamma": 1.0, "amplitude": 1.0,
               "profile": "cosine", "depth": depth},
        "stepper": {"scheme": "imex_euler", "dt": 1e-3, "t_end": 1.0,
                    "negativity_policy": "reject_and_halve"},
        "monitors": {"cadence": 10, "tail_levels": [8, 16, 24],
                     "energy_specs": [[1, 0.5], [1, 1.0]],
                     "envelope_family": "exponential"},
        "eps": 1e-2,
    }


def _grid2d_64(depth):
    doc = _reference(depth)
    doc["grid"] = {"cells": [64, 64], "lengths": [1.0, 1.0]}
    doc["stepper"]["t_end"] = 0.05
    return doc


def _cr_n64(depth):
    doc = _reference(depth)
    doc["kernel"] = {"family": "cheng_redner_uniform", "n": 64, "lam": 4.0, "alpha": 0.5}
    doc["grid"] = {"cells": [64], "lengths": [1.0]}
    doc["stepper"]["t_end"] = 0.5
    doc["monitors"]["tail_levels"] = [8, 16, 24, 48]
    return doc


def _audit_cr128(_depth):
    doc = _reference(0.5)
    doc["kernel"] = {"family": "cheng_redner_uniform", "n": 128, "lam": 5.0, "alpha": 0.5}
    return doc


WORKLOADS = {
    "ref1d": ("simulate", _reference),
    "grid2d_64": ("simulate", _grid2d_64),
    "cr_n64": ("simulate", _cr_n64),
    "audit_cr128": ("audit", _audit_cr128),
}

ARTIFACTS = {
    "simulate": ("summary.json", "monitors.csv", "fields_final.csv"),
    "audit": ("audit.json",),
}

BASELINE = {
    "ref1d": "ROADMAP re-anchor baseline, single perf_counter runs: run_simulation "
             "1.90 s and compute_monitors 0.35 s; per step 1135 us in "
             "DiffusionSolver.solve and 328 us in q_field.",
    "grid2d_64": "ROADMAP re-anchor baseline, single perf_counter runs: one factor set "
                 "at 64x64, n=32 takes 1.8 s and 134 MB; a solve takes 46 ms per step.",
    "cr_n64": "ROADMAP re-anchor baseline, single perf_counter runs: the first "
              "Cheng-Redner q_field at n=64 (which builds the gain tensor) takes 0.55 s; "
              "a warm one 8 to 39 ms.",
    "audit_cr128": "ROADMAP re-anchor baseline, single perf_counter runs: "
                   "validate_kernel_set takes 4.5 s for Cheng-Redner at n=128.",
}


def workload_config(name, seed):
    depth = random.Random(seed).uniform(*DEPTH_RANGE)
    return WORKLOADS[name][1](depth)


# -- environment and provenance ----------------------------------------------


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            k = int(env.get(var, nproc))
        except ValueError:
            k = nproc
        env[var] = str(min(max(k, 1), nproc))
    return env


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches():
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{d}/{f}") for f in ("level", "type", "size"))
        out[f"L{level} {kind}"] = size
    return out


def _commit(root):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(root, env, stack):
    return {
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        **stack,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "load": "closed loop, one client: one repeat at a time, each in a fresh process",
    }


# -- repeats -----------------------------------------------------------------


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_outputs(command, out):
    """Reasons the artifacts in ``out`` fail the output checks (empty: pass)."""
    missing = [a for a in ARTIFACTS[command] if not (out / a).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    if command == "simulate":
        doc = json.loads((out / "summary.json").read_text())
        return [f"invariant {name} failed"
                for name, entry in doc["invariants"].items() if entry["pass"] is not True]
    doc = json.loads((out / "audit.json").read_text())
    return [f"{c['condition']} verdict {c['verdict']}"
            for c in doc["summability"]["conditions"] if c["verdict"] != "CONVERGES"]


def run_repeat(k, traced, command, cfg_path, work, env, root, timeout):
    rdir = work / f"r{k:02d}"
    rdir.mkdir(parents=True)
    out = rdir / "out"
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(cfg_path),
           "--out", str(out), "--command", command, "--result", str(rdir / "result.json")]
    if traced:
        cmd += ["--trace", str(rdir / "spans.jsonl")]
    rep = {"repeat": k, "traced": traced, "reasons": []}
    start = time.monotonic()
    with open(rdir / "child.log", "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=root, stdout=log, stderr=log,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
    rep["wall_s"] = time.monotonic() - start
    if proc is None or proc.returncode != 0:
        rep["reasons"].append("child timed out" if proc is None
                              else f"child exited {proc.returncode}")
        return rep
    rep.update(json.loads((rdir / "result.json").read_text()))
    rep["run_norm_s"] = rep["run_s"] * CALIB_REF_S / rep["calib_s"]
    if rep["exit_code"] != 0:
        rep["reasons"].append(f"fragdiff exit code {rep['exit_code']}")
    rep["reasons"] += check_outputs(command, out)
    rep["digests"] = {a: sha256(out / a) for a in ARTIFACTS[command] if (out / a).is_file()}
    if command == "simulate" and (out / "summary.json").is_file():
        inv = json.loads((out / "summary.json").read_text())["invariants"]
        rep["margins"] = {"monitors.mass_drift": inv["mass_conservation"]["value"],
                          "monitors.min_value": inv["nonnegativity"]["value"]}
    return rep


def cross_check(reps):
    """Mark repeats whose artifacts or counts differ from the first repeat's."""
    ref = next((r for r in reps if "digests" in r), None)
    ref_layers = next((r["layers"] for r in reps if "layers" in r), None)
    for r in reps:
        if ref is not None and "digests" in r and r["digests"] != ref["digests"]:
            r["reasons"].append(f"artifacts differ from repeat {ref['repeat']}")
        if "layers" in r:
            counts, ref_counts = r["layers"]["counts"], ref_layers["counts"]
            diff = [c for c in counts if counts[c] != ref_counts[c]]
            if diff:
                r["reasons"].append(f"counts differ: {', '.join(diff)}")


def median_of(reps, key):
    vals = [r[key] for r in reps if key in r]
    return statistics.median(vals) if vals else None


def describe(vals):
    return {"median": statistics.median(vals), "min": min(vals), "max": max(vals),
            "n": len(vals)} if vals else None


# -- main ------------------------------------------------------------------


def measure(args, command, cfg_path, work, env, root, t_start):
    """Repeat the workload until ``--seconds`` is used up; one repeat at a time."""
    reps = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - t_start)
        reps.append(run_repeat(len(reps), traced, command, cfg_path, work, env, root,
                               timeout=max(remaining, 1.0)))
        n_traced = sum(r["traced"] for r in reps)
        if args.trace:
            needed = min(len(reps) - n_traced, n_traced) < MIN_TRACED_REPEATS
        else:
            needed = len(reps) < MIN_REPEATS
        next_wall = statistics.median(r["wall_s"] for r in reps)
        if time.monotonic() - t_start + next_wall > RUN_LIMIT_S:
            return reps
        if not needed and time.monotonic() + next_wall > deadline:
            return reps


def per_layer(plain, traced):
    """Per-layer metrics: medians of the traced repeats, counts as they repeat."""
    if not traced or "layers" not in traced[0]:
        return {}
    layers = dict(traced[0]["layers"]["counts"])
    for key in traced[0]["layers"]["times"]:
        layers[key] = statistics.median(r["layers"]["times"][key] for r in traced)
    if plain:
        layers["trace.overhead_s"] = median_of(traced, "run_s") - median_of(plain, "run_s")
    layers.update(traced[0].get("margins", {}))
    return layers


def main(argv=None):
    p = argparse.ArgumentParser(description="fragdiff benchmark runner")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    t_start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "fragdiff" / "cli.py").is_file():
        print(f"perfbench: no fragdiff sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = child_env(root)
    probe = subprocess.run([sys.executable, str(HERE / "child.py"), "--probe"],
                           env=env, cwd=root, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        print(f"perfbench: cannot import fragdiff:\n{probe.stderr}", file=sys.stderr)
        return 3
    stack = json.loads(probe.stdout.strip().splitlines()[-1])

    command = WORKLOADS[args.workload][0]
    cfg = workload_config(args.workload, args.seed)
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    reps = measure(args, command, cfg_path, work, env, root, t_start)
    cross_check(reps)
    failed = sum(bool(r["reasons"]) for r in reps)
    good = [r for r in reps if not r["reasons"]] or reps
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    described = end_to_end + [m for m in ("run_s", "calib_s") if m not in end_to_end]
    report = {
        "workload": args.workload, "command": command, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "config": cfg,
        "provenance": provenance(root, env, stack),
        "baseline_note": BASELINE[args.workload],
        "attempted": len(reps), "failed": failed,
        "fail_frac": failed / len(reps),
        "end_to_end": {m: describe([r[m] for r in plain if m in r]) for m in described},
        "digests": good[0].get("digests"),
        "repeats": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
    }
    if args.trace:
        report["per_layer"] = values = per_layer(plain, traced)
        wanted = spec["per_layer"]
    else:
        values = {m: median_of(plain, m) for m in end_to_end}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())

    (work.parent / f"{work.name}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for r in reps:
        shutil.rmtree(work / f"r{r['repeat']:02d}" / "out", ignore_errors=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
