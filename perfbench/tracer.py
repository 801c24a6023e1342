"""Span tracing of fragdiff's layers, installed from outside the package.

Each layer is wrapped where its caller looks it up, so the program itself
is unchanged:

* ``fragdiff.reaction.q_field`` (stepper and monitors call it through the
  module);
* ``fragdiff.stepper.DiffusionSolver.solve`` (a class attribute);
* ``fragdiff.stepper.run_simulation``, ``fragdiff.monitors.compute_monitors``
  and ``fragdiff.config.make_kernel_set`` (cli calls them through module
  aliases);
* ``scipy.sparse.linalg.splu`` (stepper looks it up on every call);
* ``KernelSet.gain_tensor`` and ``KernelSet.loss_matrix`` (first call per
  kernel set only, which is the one that builds the table);
* ``fragdiff.grid.write_species_csv``, ``fragdiff.monitors.write_monitors_csv``
  and ``fragdiff.monitors.write_summary_json``;
* ``validate_kernel_set``, ``audit_summability`` and ``check_initial_data``
  on ``fragdiff.cli``, which imports them by name.

Spans (id, name, start, end, parent, run id) are kept in memory and written
out once the run ends.  Work the tracer does to inspect a result runs in a
``trace.inspect`` span and is left out of every layer time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

import scipy.sparse.linalg

import fragdiff.cli
import fragdiff.config
import fragdiff.grid
import fragdiff.kernels
import fragdiff.monitors
import fragdiff.reaction
import fragdiff.stepper

MB = float(1 << 20)
ROOT = "cli.main"
INSPECT = "trace.inspect"


class Tracer:
    """Records the spans of one run; ``install`` wraps the layers."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._built = {}  # traced name -> objects it has already run on

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans), "name": name, "run": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, inspect=None, first_per_object=False):
        """Replace ``owner.attr`` by a traced call.

        ``inspect(span, args, result)`` records facts about the result in
        its own ``trace.inspect`` span.  With ``first_per_object`` only the
        first call per ``args[0]`` opens a span.
        """
        inner = getattr(owner, attr)
        built = self._built.setdefault(name, [])

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            if first_per_object:
                if any(obj is args[0] for obj in built):
                    return inner(*args, **kwargs)
                built.append(args[0])
            with self.span(name) as rec:
                out = inner(*args, **kwargs)
                if inspect is not None:
                    with self.span(INSPECT):
                        inspect(rec, args, out)
            return out

        setattr(owner, attr, traced)

    def install(self):
        cli, mon, step = fragdiff.cli, fragdiff.monitors, fragdiff.stepper
        KernelSet = fragdiff.kernels.KernelSet
        self.wrap(fragdiff.config, "make_kernel_set", "kernels.make_kernel_set")
        self.wrap(KernelSet, "gain_tensor", "kernels.gain_tensor", first_per_object=True)
        self.wrap(KernelSet, "loss_matrix", "kernels.loss_matrix", first_per_object=True)
        self.wrap(cli, "validate_kernel_set", "kernels.validate_kernel_set",
                  inspect=_record_pairs)
        self.wrap(cli, "audit_summability", "summability.audit_summability")
        self.wrap(cli, "check_initial_data", "summability.check_initial_data")
        self.wrap(fragdiff.reaction, "q_field", "reaction.q_field")
        self.wrap(step, "run_simulation", "stepper.run_simulation", inspect=_record_steps)
        self.wrap(step.DiffusionSolver, "solve", "stepper.solve")
        self.wrap(scipy.sparse.linalg, "splu", "stepper.splu", inspect=_record_factor)
        self.wrap(mon, "compute_monitors", "monitors.compute_monitors",
                  inspect=_record_samples)
        self.wrap(mon, "write_monitors_csv", "monitors.write_monitors_csv")
        self.wrap(mon, "write_summary_json", "monitors.write_summary_json")
        self.wrap(fragdiff.grid, "write_species_csv", "grid.write_species_csv",
                  inspect=_record_file_size)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# -- result inspectors -----------------------------------------------------


def _record_pairs(rec, args, report):
    rec["pairs"] = report.pairs_checked


def _record_steps(rec, args, traj):
    rec["steps"] = traj.state.step_index
    rec["rejected"] = traj.state.rejected_steps


def _record_factor(rec, args, lu):
    L, U = lu.L, lu.U
    rec["nnz"] = L.nnz + U.nnz
    rec["bytes"] = sum(a.nbytes for m in (L, U) for a in (m.data, m.indices, m.indptr))


def _record_samples(rec, args, report):
    traj = args[0]
    rec["samples"] = len(traj.times)
    rec["bytes"] = sum(F.nbytes for F in traj.fields)


def _record_file_size(rec, args, _out):
    rec["bytes"] = os.path.getsize(args[0])


# -- per-layer metrics -----------------------------------------------------


def layer_metrics(spans):
    """Per-layer times (seconds, tracer work excluded) and counts.

    Returns ``{"times": ..., "counts": ...}``; the counts are deterministic
    and must repeat exactly from one run to the next.
    """
    by_id = {rec["id"]: rec for rec in spans}
    children = {rec["id"]: [] for rec in spans}
    overhead = {rec["id"]: 0.0 for rec in spans}
    for rec in spans:
        if rec["parent"] is not None:
            children[rec["parent"]].append(rec)
    for rec in spans:
        if rec["name"] == INSPECT:
            dur = rec["end"] - rec["start"]
            pid = rec["parent"]
            while pid is not None:
                overhead[pid] += dur
                pid = by_id[pid]["parent"]

    def dur(rec):
        return rec["end"] - rec["start"] - overhead[rec["id"]]

    def self_time(rec):
        return dur(rec) - sum(dur(c) for c in children[rec["id"]] if c["name"] != INSPECT)

    def named(name):
        return [rec for rec in spans if rec["name"] == name]

    def total(name):
        return sum(dur(rec) for rec in named(name))

    def inside(rec, name):
        pid = rec["parent"]
        while pid is not None:
            if by_id[pid]["name"] == name:
                return True
            pid = by_id[pid]["parent"]
        return False

    q_calls = named("reaction.q_field")
    q_s = sum(self_time(rec) for rec in q_calls)
    solves = named("stepper.solve")
    cold = {rec["id"] for rec in solves
            if any(c["name"] == "stepper.splu" for c in children[rec["id"]])}
    splus = named("stepper.splu")
    loops = named("stepper.run_simulation")
    mons = named("monitors.compute_monitors")
    csvs = named("grid.write_species_csv")
    roots = named(ROOT)
    times = {
        "cli.self_s": sum(self_time(rec) for rec in roots),
        "kernels.build_s": total("kernels.make_kernel_set"),
        "kernels.gain_tensor_s": total("kernels.gain_tensor") + total("kernels.loss_matrix"),
        "kernels.validate_s": total("kernels.validate_kernel_set"),
        "summability.audit_s": total("summability.audit_summability"),
        "summability.initial_data_s": total("summability.check_initial_data"),
        "reaction.q_field_s": q_s,
        "reaction.q_field_ms_per_call": 1e3 * q_s / len(q_calls) if q_calls else 0.0,
        "stepper.loop_s": total("stepper.run_simulation"),
        "stepper.solve_warm_s": sum(dur(rec) for rec in solves if rec["id"] not in cold),
        "stepper.solve_cold_s": sum(dur(rec) for rec in solves if rec["id"] in cold),
        "stepper.splu_s": total("stepper.splu"),
        "monitors.compute_s": total("monitors.compute_monitors"),
        "monitors.write_s": total("monitors.write_monitors_csv") + total("monitors.write_summary_json"),
        "grid.csv_write_s": total("grid.write_species_csv"),
    }
    counts = {
        "kernels.validate_pairs": sum(rec["pairs"] for rec in named("kernels.validate_kernel_set")),
        "reaction.q_field_calls": len(q_calls),
        "stepper.steps": sum(rec["steps"] for rec in loops),
        "stepper.rejected_steps": sum(rec["rejected"] for rec in loops),
        "stepper.solve_calls": len(solves),
        "stepper.factor_sets": len(cold),
        "stepper.splu_calls": len(splus),
        "stepper.factor_nnz": sum(rec["nnz"] for rec in splus),
        "stepper.factor_mb_computed": sum(rec["bytes"] for rec in splus) / MB,
        "monitors.q_field_calls": sum(inside(rec, "monitors.compute_monitors") for rec in q_calls),
        "monitors.samples": sum(rec["samples"] for rec in mons),
        "monitors.stored_fields_mb_computed": sum(rec["bytes"] for rec in mons) / MB,
        "grid.csv_bytes": sum(rec["bytes"] for rec in csvs),
    }
    return {"times": times, "counts": counts}

