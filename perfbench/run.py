"""The repository's benchmark.

    python3 perfbench/run.py --workload stream-gt-tgcn --seed 7 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no wrapper installed; ``--trace 1`` runs a traced phase
and an untraced replay of the same calls and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the host and a readable table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: a run measures at least this many windows, so that ``window_p90_ms``
#: has at least ten samples beyond it; ``peak_rss_mb`` is read when the
#: loop reaches it
MIN_WINDOWS = 100


def cap_blas_threads() -> None:
    """Cap BLAS/OpenMP threads at the core count; must run before NumPy
    is imported."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(min(n, nproc))


def closed_loop(load, seconds: float, clock, *, min_windows: int,
                on_window=None, max_ops: int | None = None) -> list:
    """Call ``load.step`` back to back until ``seconds`` have passed
    and ``min_windows`` windows completed (or ``max_ops`` calls made).
    The clock is read only at window boundaries, so a run always ends on
    one."""
    samples = []
    windows = 0
    deadline = clock() + seconds
    while max_ops is None or len(samples) < max_ops:
        sample = load.step(len(samples), clock)
        samples.append(sample)
        if sample.windows:
            windows += sample.windows
            if on_window is not None:
                on_window(windows, len(samples))
            if (max_ops is None and windows >= min_windows
                    and clock() >= deadline):
                break
    return samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float):
    from report import tail_percentile
    from workloads import make_load

    clock = time.perf_counter
    setups = []
    for _ in range(SETUP_REPEATS):
        load = None
        gc.collect()
        t0 = clock()
        load = make_load(workload, seed)
        load.warm_up(clock)
        load.start()
        setups.append(clock() - t0)
    # high-water RSS at a fixed window count, so that a faster program,
    # which pushes more in the same seconds, does not read as a bigger one
    rss_at = []

    def on_window(windows: int, ops: int) -> None:
        if windows >= MIN_WINDOWS and not rss_at:
            rss_at.append(_peak_rss_mb())

    samples = closed_loop(load, seconds, clock, min_windows=MIN_WINDOWS,
                          on_window=on_window)
    checked, check_failures, drift = load.check()

    window_ms = [s.seconds * 1e3 for s in samples if s.windows]
    values = {
        "window_p50_ms": statistics.median(window_ms),
        "window_p90_ms": tail_percentile(window_ms, 90),
        "snapshots_per_s": len(samples) / sum(s.seconds for s in samples),
        "output_drift": drift,
        "peak_rss_mb": rss_at[0],
        "setup_s": statistics.median(setups),
    }
    attempted = len(samples) + checked
    failed = sum(not s.ok for s in samples) + check_failures
    info = {"windows": len(window_ms), "pushes": len(samples),
            "setups_s": setups}
    return values, attempted, failed, info, None


def run_traced(workload, seed: int, seconds: float):
    from layers import COUNT_WINDOWS, layer_metrics, trace_targets
    from spans import Tracer
    from workloads import make_load

    clock = time.perf_counter
    load = make_load(workload, seed)
    load.warm_up(clock)
    tracer = Tracer(trace_targets(type(load.model())))
    at_k = {}

    def on_window(windows: int, ops: int) -> None:
        if windows >= COUNT_WINDOWS and not at_k:
            at_k.update(counts=dict(tracer.counts),
                        counters=copy.deepcopy(load.counters()),
                        pushes=ops, history_len=load.history_len(),
                        backlog_max=load.backlog_max)

    load.start()
    with tracer:
        traced = closed_loop(
            load, seconds / 2, clock, on_window=on_window,
            min_windows=max(COUNT_WINDOWS, load.check_windows),
        )
    windows = sum(s.windows for s in traced)
    traced_s = sum(s.seconds for s in traced)

    # the same calls again with no wrapper installed
    load.start()
    plain = closed_loop(load, 0, clock, min_windows=0,
                        max_ops=len(traced))
    checked, check_failures, _ = load.check()

    values = layer_metrics(
        tracer, windows=windows, seconds=traced_s, out_dim=load.out_dim,
        **at_k,
    )
    values["trace.overhead_ratio"] = traced_s / sum(s.seconds for s in plain)
    attempted = len(traced) + len(plain) + checked
    failed = sum(not s.ok for s in traced + plain) + check_failures
    info = {"windows": windows, "pushes": len(traced)}
    return values, attempted, failed, info, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from report import host_block, metric_spec, result_line
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    names = metric_spec(ROOT / "BENCHMARK.json",
                        "per_layer" if args.trace else "end_to_end")
    values, attempted, failed, info, tracer = run(
        workload, args.seed, args.seconds
    )

    missing = [name for name, _ in names if values.get(name) is None]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in names if values.get(name) is not None
    }
    host = host_block()
    header = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "host": host, **info}
    if tracer is not None:
        out = ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(out, {**header, "metrics": metrics})
        header["spans_file"] = str(out.relative_to(ROOT))
    print(json.dumps(header))
    for name, unit in names:
        if name in metrics:
            print(f"{name:32s} {metrics[name]['value']:14.6g} {unit}")
    for name in missing:
        print(f"{name:32s} {'not reported':>14s}")
    print(result_line(failed == 0 and not missing, attempted, failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
