"""One scenario run of one workload, in a process of its own.

    python3 perfbench/child.py --workload steady --seed 42 --out DIR [--trace-out FILE]

Times `import fablink` through a built `Simulation` (set-up), then
`Simulation.run()` plus `write_artifacts` (the host seconds of the realtime
factor), and prints one JSON line: timings, peak RSS, per-module event
counts and the SHA-256 of every artifact. With `--trace-out` it also traces
the run's layers and writes the spans to that file. `--warmup` only imports
fablink, so the first measured run does not pay for byte-compiling it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import SRC, scenario_dict, use_checkout_source

MODULES = ("safety", "traffic", "factory", "script")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_once(
    workload: str,
    seed: int,
    out_dir: Path,
    tracer: Tracer | None = None,
    horizon_s: float | None = None,
) -> dict:
    """Run `workload` through fablink's public entry points and describe it."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    use_checkout_source()
    t0 = perf_counter()
    with span("setup.import"):
        import fablink
        from fablink.artifacts import write_artifacts
        from fablink.scenario import scenario_from_dict
        from fablink.simulation import Simulation
    t_import = perf_counter()
    if not Path(fablink.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fablink imported from {fablink.__file__}, not {SRC}")
    with span("scenario.load"):
        scenario = scenario_from_dict(scenario_dict(workload, seed, horizon_s))
    t_load = perf_counter()
    with span("simulation.build"):
        sim = Simulation(scenario)
    t_build = perf_counter()
    if tracer:
        tracer.install(sim)
    try:
        with span("simulation.run"):
            result = sim.run()
        t_run = perf_counter()
        with span("artifacts.write"):
            artifacts = write_artifacts(result, out_dir)
        t_end = perf_counter()
    finally:
        if tracer:
            tracer.restore()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    events = {m: result.summary.events_processed.get(m, 0) for m in MODULES}
    events.update(result.summary.events_processed)
    host_s = t_end - t_build
    run = {
        "workload": workload,
        "seed": seed,
        "horizon_s": scenario.horizon_s,
        "traced": tracer is not None,
        "setup_s": t_build - t0,
        "import_s": t_import - t0,
        "load_s": t_load - t_import,
        "build_s": t_build - t_load,
        "run_s": t_run - t_build,
        "write_s": t_end - t_run,
        "host_s": host_s,
        "realtime_factor": scenario.horizon_s / host_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "events": events,
        "records": len(result.records),
        "product_rows": len(result.product_log),
        "safety_trips": result.factory_stats["safety_trips"],
        "aggregate_rate_bps": result.aggregate.observed_rate_bps,
        "artifact_bytes": sum(p.stat().st_size for p in artifacts.paths()),
        "digests": {p.name: _sha256(p) for p in artifacts.paths()},
    }
    if tracer:
        run["layers"] = layer_metrics(run, tracer)
    return run


def layer_metrics(run: dict, tracer: Tracer) -> dict:
    """Per-layer figures of one traced run, named by fablink module."""
    loop_s = tracer.span_seconds("sim_core.loop")
    handler_s = sum(tracer.seconds(f"{m}.handler") for m in run["events"])
    plans = tracer.count("factory.plan_route")
    layers = {
        "sim_core.loop_s": loop_s,
        "sim_core.events_per_s": sum(run["events"].values()) / loop_s,
        "sim_core.overhead_s": loop_s - handler_s,
        "safety.handler_s": tracer.seconds("safety.handler"),
        "safety.trips": run["safety_trips"],
        "radio_link.calls": tracer.count("radio_link"),
        "radio_link.s": tracer.seconds("radio_link"),
        "traffic.handler_s": tracer.seconds("traffic.handler"),
        "traffic.records": run["records"],
        "compliance.fold_s": tracer.span_seconds("compliance.fold"),
        "artifacts.write_s": tracer.span_seconds("artifacts.write"),
        "artifacts.bytes": run["artifact_bytes"],
        # no records, no ratio: reported as 0 rather than left out
        "mem.bytes_per_record": (
            run["peak_rss_mb"] * 1024 * 1024 / run["records"] if run["records"] else 0.0
        ),
        "factory.handler_s": tracer.seconds("factory.handler"),
        "factory.route_plans": plans,
        "factory.route_plans_per_product_event": (
            plans / run["product_rows"] if run["product_rows"] else 0.0
        ),
        "setup.import_s": run["import_s"],
        "scenario.load_s": run["load_s"],
        "simulation.build_s": run["build_s"],
    }
    for module in MODULES:
        layers[f"sim_core.events.{module}"] = run["events"][module]
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)
    if args.warmup:
        use_checkout_source()
        import fablink.artifacts  # noqa: F401
        return 0
    tracer = Tracer() if args.trace_out else None
    run = run_once(args.workload, args.seed, args.out, tracer)
    if tracer:
        tracer.write(args.trace_out)
    print(json.dumps(run, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
