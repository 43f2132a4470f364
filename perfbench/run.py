"""The repository benchmark: end-to-end metrics with tracing off,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload sweep-large --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout; the package under ``src/`` is imported
from there.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, named and
unit-labelled as ``BENCHMARK.json`` declares them; the line before it
records the host facts.  Workloads, metrics and the layer ->
end-to-end map are described in ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def _import_repro() -> None:
    """Put the checkout's ``src/`` first on the path and import the
    package from there; a checkout without it cannot be measured."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'repro'}; run from the "
                 "root of a full checkout")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def host_facts(workload, inputs, steal: float) -> Dict[str, object]:
    l3 = 0
    try:
        for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            if (idx / "level").read_text().strip() == "3":
                size = (idx / "size").read_text().strip()
                mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                l3 = int(re.sub(r"\D", "", size)) * mult
    except (OSError, ValueError):
        l3 = 0
    # computed, not measured: one job reads its input and writes a
    # same-sized output (two padded float64 grids)
    job_bytes = {k.label: 2 * g.nbytes()
                 for (k, _), g in inputs.grids.items()}
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l3_bytes": l3 or None,
        "job_working_set_bytes_computed_max": max(job_bytes.values()),
        "job_working_set_bytes_computed_min": min(job_bytes.values()),
        "input_grid_bytes_computed": sum(
            g.nbytes() for g in {id(g): g for g in
                                 inputs.grids.values()}.values()),
        "workload": workload.name,
        "kinds": len(workload.kinds),
    }
    # over the whole run: CPU time the hypervisor gave to other guests
    facts["cpu_steal_frac"] = steal
    return facts


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise OSError(f"no {field} in /proc/self/status")


def reset_rss_peak() -> int:
    """Reset the process's resident-memory high-water mark and return
    the resident KiB it restarts from: the interpreter, the imported
    package and the benchmark's own inputs and oracle answers."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return _status_kb("VmRSS")
    except OSError as exc:
        sys.exit(f"perfbench: cannot reset the peak-RSS mark ({exc}); "
                 "rss_peak_mb needs Linux /proc")


def rss_peak_mb(base_kb: int) -> float:
    """Peak resident memory the system added above ``base_kb``."""
    return (_status_kb("VmHWM") - base_kb) / 1024.0


# -- untraced: the end-to-end metrics -----------------------------------------

def end_to_end(workload, inputs, seed: int, seconds: float
               ) -> Tuple[Dict[str, float], list]:
    from drive import SETUP_REPEATS, median, run_phase, warmup_s
    from workloads import stream

    base_kb = reset_rss_peak()
    phase = run_phase(workload, inputs, stream(workload, seed), seconds,
                      warmup_s(seconds), setups=SETUP_REPEATS)
    tally = phase.timed.least_stolen()
    # the highest percentile with >= 10 samples beyond it: a sweep-large
    # run completes a few hundred jobs, so its latency tail is p90
    tail = 99 if workload.served else 90
    metrics = {
        "setup_s": median(phase.setup_s),
        "gstencil_s": tally.gstencil_s(),
        "job_ms_p50": tally.pct_ms(50),
        "job_ms_p90": tally.pct_ms(90),
        "served_rps": tally.rps(),
        "latency_ms_p50": tally.pct_ms(50),
        "latency_ms_p99": tally.pct_ms(tail),
        "rss_peak_mb": rss_peak_mb(base_kb),
    }
    print(f"perfbench: {tally.completed} of {phase.timed.completed} timed "
          f"jobs in the least-stolen windows; all windows: "
          f"{phase.timed.rps():.4g}/s, p50 {phase.timed.pct_ms(50):.4g} ms, "
          f"p{tail} {phase.timed.pct_ms(tail):.4g} ms", file=sys.stderr)
    return metrics, [phase.warm, phase.timed]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep-large", "serve-small", "serve-diverse"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    _import_repro()
    from drive import cpu_ticks, steal_frac
    from workloads import WORKLOADS, Inputs

    ticks0 = cpu_ticks()
    workload = WORKLOADS[args.workload]
    inputs = Inputs(workload, args.seed)
    if args.trace:
        from traced import traced_run
        metrics, tallies = traced_run(workload, inputs, args.seed,
                                      args.seconds)
    else:
        metrics, tallies = end_to_end(workload, inputs, args.seed,
                                      args.seconds)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "disagree with BENCHMARK.json")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    steal = steal_frac(ticks0, cpu_ticks())
    print(json.dumps({"host": host_facts(workload, inputs, steal)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
