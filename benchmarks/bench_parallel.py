"""Size-aware dispatch in ``run_parallel``: the cutoff and its gate.

Part 1 measures what the cutoff is made of:

* the thread backend's per-task dispatch cost ``d``: create a pool of
  the default ``workers``, submit one no-op task per worker, collect the
  results, shut the pool down; divided by the task count (median of
  many rounds);
* :func:`~repro.parallel.executor.apply_tile`'s tap rate ``r``: tap-points
  (interior points x taps) per second of one whole-grid tile, median
  over 1-D/2-D/3-D heat kernels sized near the cutoff.

and prints the cutoff they imply, ``d * r / OVERHEAD_BUDGET``: the work
at which a task's dispatch costs 5% of its sweep, the rule
:data:`~repro.parallel.executor.MIN_TASK_WORK` follows.

Part 2 sweeps grid sizes (1-D 4096..1M, 2-D 32^2..1024^2, 3-D
16^3..96^3), timing default ``run_parallel`` against ``apply_steps``
(the median ratio of alternating sample pairs), and checks every result
bitwise against ``apply_steps``.  Gate: every size that dispatches
inline at the default 4 workers keeps ``default / serial <= 1.10`` — a
ratio, so it holds on 2-CPU hosts.  Pooled sizes are recorded, not gated: their
speedup depends on the host's cores.

Appends a timestamped entry to ``BENCH_parallel.json`` (override via
``BENCH_PARALLEL_JSON``) through :func:`_bench_utils.append_history`.
Runs under pytest (``pytest benchmarks/bench_parallel.py -s``) or
stand-alone (``python benchmarks/bench_parallel.py``).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from _bench_utils import append_history, emit  # noqa: E402

from repro.parallel.executor import (MIN_TASK_WORK, apply_tile,  # noqa: E402
                                     default_tasks, run_parallel)
from repro.stencils import apply_steps, library  # noqa: E402
from repro.stencils.boundary import fill_halo  # noqa: E402
from repro.stencils.grid import Grid  # noqa: E402
from repro.tiling.blocks import Tile  # noqa: E402

WORKERS = 4  # run_parallel's default
STEPS = 1  # the smallest job a service runs: fixed costs weigh most
REPEATS = 7
#: serial/default sample pairs per size
PAIRS = 15
#: each timed sample loops a call for at least this long
MIN_SAMPLE_S = 0.002
DISPATCH_ROUNDS = 300

#: a task's dispatch may cost this share of its own sweep
OVERHEAD_BUDGET = 0.05
#: the small-grid gate: default run_parallel over serial apply_steps
RATIO_MAX = 1.10

#: (kernel, shape) per dimension, smallest to largest
SIZES = (
    [("heat-1d", (n,)) for n in (4096, 16384, 65536, 262144, 1048576)]
    + [("heat-2d", (n, n)) for n in (32, 64, 128, 256, 512, 1024)]
    + [("heat-3d", (n, n, n)) for n in (16, 32, 48, 64, 96)]
)
#: grids whose sweep work is near the cutoff, for the tap rate
RATE_SIZES = (("heat-1d", (166_667,)), ("heat-2d", (320, 320)),
              ("heat-3d", (42, 42, 42)))


def _artifact_path() -> str:
    return os.environ.get("BENCH_PARALLEL_JSON", "BENCH_parallel.json")


def _noop() -> None:
    pass


def dispatch_cost_s(workers: int = WORKERS,
                    rounds: int = DISPATCH_ROUNDS) -> float:
    """Median seconds per task to create, feed and drain a pool."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for fut in [pool.submit(_noop) for _ in range(workers)]:
                fut.result()
        samples.append((time.perf_counter() - t0) / workers)
    return statistics.median(samples)


def _work(kernel: str, shape) -> int:
    return int(np.prod(shape)) * len(library.get(kernel).offsets)


def tap_rate() -> float:
    """Median tap-points per second of a one-tile ``apply_tile``."""
    rates = []
    for kernel, shape in RATE_SIZES:
        spec = library.get(kernel)
        grid = Grid.random(shape, spec.radius, seed=1)
        fill_halo(grid, "periodic")
        out = grid.like()
        tile = Tile(start=(0,) * len(shape), stop=tuple(shape))
        best = _best(lambda: apply_tile(spec, grid, out, tile))
        rates.append(_work(kernel, shape) / best)
    return statistics.median(rates)


def _loops(fn) -> int:
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    return max(1, int(MIN_SAMPLE_S / once))


def _sample(fn, loops: int) -> float:
    t0 = time.perf_counter()
    for _ in range(loops):
        fn()
    return (time.perf_counter() - t0) / loops


def _best(fn) -> float:
    loops = _loops(fn)
    return min(_sample(fn, loops) for _ in range(REPEATS))


def _paired(serial, default) -> tuple:
    """Best seconds per call of both, and the median ratio of
    ``PAIRS`` back-to-back sample pairs (order alternating), so a burst
    of host noise lands on one pair instead of one side."""
    loops = max(_loops(serial), _loops(default))
    s, d, ratios = [], [], []
    for i in range(PAIRS):
        if i % 2:
            b, a = _sample(default, loops), _sample(serial, loops)
        else:
            a, b = _sample(serial, loops), _sample(default, loops)
        s.append(a)
        d.append(b)
        ratios.append(b / a)
    return min(s), min(d), statistics.median(ratios)


def measure() -> dict:
    d = dispatch_cost_s()
    r = tap_rate()
    sizes = []
    for kernel, shape in SIZES:
        spec = library.get(kernel)
        grid = Grid.random(shape, spec.radius, seed=7)
        ref = apply_steps(spec, grid, STEPS)
        got = run_parallel(spec, grid, STEPS)
        serial_s, default_s, ratio = _paired(
            lambda: apply_steps(spec, grid, STEPS),
            lambda: run_parallel(spec, grid, STEPS))
        tasks = default_tasks(spec, shape, WORKERS)
        sizes.append({
            "kernel": kernel,
            "shape": list(shape),
            "work": _work(kernel, shape),
            "tasks": tasks,
            "dispatch": "inline" if tasks == 1 else "pooled",
            "bitwise": bool(np.array_equal(got.interior, ref.interior)),
            "serial_s": serial_s,
            "default_s": default_s,
            "ratio": ratio,
        })
    inline = [s["ratio"] for s in sizes if s["dispatch"] == "inline"]
    return {
        "workers": WORKERS,
        "steps": STEPS,
        "dispatch_us_per_task": d * 1e6,
        "tap_rate": r,
        "overhead_budget": OVERHEAD_BUDGET,
        "implied_cutoff": d * r / OVERHEAD_BUDGET,
        "min_task_work": MIN_TASK_WORK,
        "sizes": sizes,
        "ratio_max": RATIO_MAX,
        "worst_inline_ratio": max(inline),
        "cpu_count": os.cpu_count() or 1,
    }


def _report(data: dict) -> None:
    path = _artifact_path()
    append_history(path, data)
    lines = [
        f"dispatch        {data['dispatch_us_per_task']:.1f} us/task "
        f"({data['workers']}-thread pool: create + submit + result)",
        f"tap rate        {data['tap_rate']:.3g} tap-points/s (apply_tile)",
        f"implied cutoff  {data['implied_cutoff']:,.0f} tap-points "
        f"(dispatch <= {data['overhead_budget']:.0%} of a task); "
        f"MIN_TASK_WORK = {data['min_task_work']:,}",
    ]
    for s in data["sizes"]:
        lines.append(
            f"{s['kernel']:<8} {'x'.join(map(str, s['shape'])):>14} "
            f"work {s['work']:>9,}  {s['dispatch']:<6} x{s['tasks']}  "
            f"serial {s['serial_s'] * 1e3:8.3f} ms  "
            f"default {s['default_s'] * 1e3:8.3f} ms  "
            f"ratio {s['ratio']:.3f}"
            + ("" if s["bitwise"] else "  NOT BITWISE"))
    lines.append(
        f"gate            inline default/serial <= {data['ratio_max']:.2f}: "
        f"worst {data['worst_inline_ratio']:.3f}")
    lines.append(f"artifact        {path}")
    emit("Size-aware dispatch: inline vs pooled run_parallel",
         "\n".join(lines))


_DATA = None


def _measured() -> dict:
    """Measure once per process; every gate shares one artifact entry."""
    global _DATA
    if _DATA is None:
        _DATA = measure()
        _report(_DATA)
    return _DATA


def test_every_size_bitwise():
    data = _measured()
    bad = [s for s in data["sizes"] if not s["bitwise"]]
    assert not bad, f"run_parallel diverged from apply_steps: {bad}"


def test_inline_sizes_cost_no_more_than_serial():
    data = _measured()
    slow = [s for s in data["sizes"]
            if s["dispatch"] == "inline" and s["ratio"] > data["ratio_max"]]
    assert not slow, (
        f"inline run_parallel above {data['ratio_max']:.2f}x serial: "
        + ", ".join(f"{s['kernel']} {s['shape']} {s['ratio']:.3f}"
                    for s in slow))


if __name__ == "__main__":
    test_every_size_bitwise()
    test_inline_sizes_cost_no_more_than_serial()
    print("ok")
