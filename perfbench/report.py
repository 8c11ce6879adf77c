"""Summary statistics, the host block and the result line."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform

__all__ = [
    "MIN_BEYOND",
    "blas_threads",
    "host_block",
    "metric_spec",
    "result_line",
    "tail_percentile",
]

#: a tail percentile is reported only with at least this many samples
#: strictly beyond it
MIN_BEYOND = 10


def tail_percentile(samples, q: float) -> float | None:
    """The ``q``-th percentile of ``samples``, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    # nearest-rank: the smallest sample with at least q% at or below it
    rank = max(1, -(-len(ordered) * q // 100))
    value = ordered[int(rank) - 1]
    beyond = sum(1 for s in ordered if s > value)
    return float(value) if beyond >= MIN_BEYOND else None


def _openblas():
    import numpy

    libs = glob.glob(
        os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                     "numpy.libs", "*openblas*")
    )
    return ctypes.CDLL(libs[0]) if libs else None


def blas_threads() -> int | None:
    """Threads the BLAS bundled with NumPy will use, when it says."""
    try:
        lib = _openblas()
    except OSError:
        return None
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_block() -> dict:
    """CPU, core count, interpreter, NumPy/SciPy and BLAS of this run."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_cap": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def metric_spec(path, kind: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of every ``kind`` metric (``"end_to_end"`` or
    ``"per_layer"``) that ``BENCHMARK.json`` at ``path`` lists, in its
    order."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The final stdout line: correctness, operation counts, metrics."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
