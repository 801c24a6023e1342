"""One repeat of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --config CFG --out DIR --command simulate \
        --result RESULT.json [--trace SPANS.jsonl]
    python3 perfbench/child.py --probe

The set-up time runs from just before ``import fragdiff`` until the run's
kernel set, grid and initial condition are built.  The run time is the
wall time of ``fragdiff.cli.main``, artifacts included.  Peak RSS is this
process's own ``ru_maxrss``.  A fixed calibration kernel is timed just
before and just after the run, so the runner can take out changes in the
host's speed.  ``--probe`` prints the versions of the program's stack as
JSON instead.
"""

import argparse
import json
import os
import resource
import sys
import time


def probe():
    import fragdiff.cli  # noqa: F401  (warms the bytecode cache)
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }))


def calibrate():
    """Seconds for fixed interpreter and small-array numpy work.

    The arrays are small so that the kernel leaves peak RSS alone.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 4096)
    t = time.perf_counter()
    s = 0
    for i in range(600_000):
        s += i * i % 7
    for _ in range(3000):
        float(np.max(np.abs(a * 2.0 - a)))
    return time.perf_counter() - t


def measure(args):
    t0 = time.perf_counter()
    import fragdiff.cli
    from fragdiff import config as cfgmod

    cfg = cfgmod.load_config(args.config)
    ks = cfgmod.make_kernel_set(cfg.kernel)
    grid = cfgmod.make_grid(cfg.grid)
    F0 = cfgmod.make_initial_condition(cfg.ic, grid, cfg.kernel.n)
    setup_s = time.perf_counter() - t0
    del cfg, ks, grid, F0

    tracer = None
    if args.trace:
        import tracer as tracemod

        tracer = tracemod.Tracer(run_id=os.getpid())
        tracer.install()
    argv = [args.command, "--config", args.config, "--out", args.out, "--quiet"]
    calib_before_s = calibrate()
    t1 = time.perf_counter()
    if tracer is None:
        code = fragdiff.cli.main(argv)
    else:
        with tracer.span(tracemod.ROOT):
            code = fragdiff.cli.main(argv)
    run_s = time.perf_counter() - t1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib_s = calib_before_s + calibrate()

    result = {"exit_code": code, "setup_s": setup_s, "run_s": run_s,
              "peak_rss_mb": rss_kb / 1024.0, "calib_s": calib_s}
    if tracer is not None:
        tracer.write(args.trace)
        result["layers"] = tracemod.layer_metrics(tracer.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--command", choices=["simulate", "audit"])
    p.add_argument("--result")
    p.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = p.parse_args()
    if args.probe:
        probe()
    else:
        measure(args)


if __name__ == "__main__":
    main()
