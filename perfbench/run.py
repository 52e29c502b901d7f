"""homevitals benchmark: offline evaluation tables and live home-service traffic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory and nothing is installed. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Earlier lines carry the machine record, the
workload's detailed figures and output digests. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

WORKLOADS = ("stress_eval", "bp_eval", "home_service")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "ingest_p50_ms": "ms",
    "answer_p50_ms": "ms",
}

#: Fresh interpreters started to time the offline workloads' set-up.
COLD_STARTS = 3


def _import_program() -> None:
    """Import `homevitals` from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "homevitals" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/homevitals; run from a checkout")
    sys.path.insert(0, str(src))
    import homevitals

    if Path(homevitals.__file__).resolve().parent != (src / "homevitals").resolve():
        raise SystemExit(f"perfbench: imported homevitals from {homevitals.__file__}, not {src}")


def _offline(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import offline

    if not trace:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        setups = stats.cold_import_s("homevitals.experiments", env, COLD_STARTS)
        result = offline.run(workload, seed, seconds)
        result["metrics"]["setup_s"] = stats.median(setups)
        result["named"] = {"setup_s": stats.named(stats.median(setups), "s", len(setups)), **result["named"]}
        result["detail"]["setup_s_each"] = [round(t, 3) for t in setups]
        return result

    from perfbench import layers

    untraced = offline.run(workload, seed, seconds)
    tracer = layers.new_tracer()
    layers.install_all(tracer)
    traced = offline.run(workload, seed, seconds)
    overhead = untraced["metrics"]["throughput_per_s"] / traced["metrics"]["throughput_per_s"] - 1
    if untraced["detail"]["table_digests"][:2] != traced["detail"]["table_digests"][:2]:
        traced["problems"].append("traced tables differ from untraced ones")
        traced["failed"] += 1
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "problems": untraced["problems"] + traced["problems"],
        "metrics": layers.per_layer(tracer.summary(), {"trace.overhead_pct": 100 * overhead}),
        "named": {},
        "detail": {
            "untraced_throughput_per_s": round(untraced["metrics"]["throughput_per_s"], 3),
            "traced_throughput_per_s": round(traced["metrics"]["throughput_per_s"], 3),
            "table_digests": traced["detail"]["table_digests"],
        },
    }


def _service(seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import home_service

    workdir = ROOT / ".perfbench_work" / f"home_service-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = home_service.run_traced if trace else home_service.run
        return run(ROOT, workdir, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # A SIGTERM unwinds like Ctrl-C, so the finally blocks stop the servers.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    machine = stats.machine()
    _import_program()
    ticks = stats.cpu_ticks()
    started = time.perf_counter()
    if args.workload == "home_service":
        result = _service(args.seed, args.seconds, bool(args.trace))
    else:
        result = _offline(args.workload, args.seed, args.seconds, bool(args.trace))
    wall_s = time.perf_counter() - started
    machine["cpu_steal_pct"] = stats.steal_pct(ticks, stats.cpu_ticks())

    if args.trace:
        from perfbench.layers import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
    metrics = result["metrics"]
    missing = [name for name in units if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        result["problems"].append(f"metrics not measured: {missing}")
        result["failed"] += 1
        result["attempted"] = max(result["attempted"], result["failed"])
    for problem in result["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    print(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "wall_s": round(wall_s, 3)}))
    failed_ratio = stats.named(result["failed"] / result["attempted"], "ratio", result["attempted"])
    print(json.dumps({"named": {**result["named"], "failed_ratio": failed_ratio}, "detail": result["detail"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics.get(name, -1.0) if name not in missing else -1.0, "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
