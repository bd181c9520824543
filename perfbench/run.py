"""fablink benchmark: realtime factor, peak RSS and set-up time per workload.

    python3 perfbench/run.py --workload steady --seed 7 --seconds 42 --trace 0
    python3 perfbench/run.py --update-pins [--workload plant]

Runs the workload again and again, each time as one scenario run in a fresh
child process (perfbench/child.py), one child at a time, for `--seconds`: no
child starts that would be expected to end after them. `realtime_factor` is
the simulated seconds of one run over the 90th percentile of the runs' host
seconds: the realtime factor nine runs in ten reach. `peak_rss_mb` and
`setup_s` are medians over the runs.

`--trace 1` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones instead; `trace.overhead_s` is the traced minus
the untraced median of the host seconds behind the realtime factor.

A run fails when it raises, times out, or its artifact SHA-256 or per-module
event counts differ from the reference: the values in pins.json for the
default seed, and for any other seed the values most runs of this invocation
agree on. pins.json changes only with `--update-pins`.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, ROOT, WORKLOADS, SourceMissing, use_checkout_source

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"
OUT = HERE / "out"  # scratch artifacts and traces, ignored by git
CHILD_TIMEOUT_S = 120
# One invocation must end within 180 s; no child starts after this point.
LAST_START_S = 120

END_TO_END_UNITS = {"realtime_factor": "sim_s/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "sim_core.loop_s": "s",
    "sim_core.events.safety": "count",
    "sim_core.events.traffic": "count",
    "sim_core.events.factory": "count",
    "sim_core.events.script": "count",
    "sim_core.events_per_s": "1/s",
    "sim_core.overhead_s": "s",
    "safety.handler_s": "s",
    "safety.trips": "count",
    "radio_link.calls": "count",
    "radio_link.s": "s",
    "traffic.handler_s": "s",
    "traffic.records": "count",
    "compliance.fold_s": "s",
    "artifacts.write_s": "s",
    "artifacts.bytes": "B",
    "mem.bytes_per_record": "B/record",
    "factory.handler_s": "s",
    "factory.route_plans": "count",
    "factory.route_plans_per_product_event": "ratio",
    "setup.import_s": "s",
    "scenario.load_s": "s",
    "simulation.build_s": "s",
    "trace.overhead_s": "s",
}


def run_child(workload: str, seed: int, traced: bool) -> dict | None:
    """One scenario run in a fresh process; None when it failed to finish."""
    OUT.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir)]
    if traced:
        cmd += ["--trace-out", str(OUT / f"trace-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: run timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def fingerprint(run: dict) -> str:
    return json.dumps({"events": run["events"], "digests": run["digests"]},
                      sort_keys=True)


def load_pins() -> dict:
    if PINS.is_file():
        return json.loads(PINS.read_text(encoding="utf-8"))
    return {}


def reference(workload: str, seed: int, runs: list[dict]) -> str | None:
    """The fingerprint every run of this invocation must match."""
    if seed == DEFAULT_SEED:
        pin = load_pins().get(workload)
        if pin is None:
            raise SystemExit(f"pins.json has no {workload}; run --update-pins")
        return fingerprint(pin)
    counts = Counter(fingerprint(r) for r in runs)
    return counts.most_common(1)[0][0] if counts else None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    run_child_warmup()
    start = perf_counter()
    runs: list[dict] = []
    durations: list[float] = []
    attempted = 0
    while True:
        traced = trace and attempted % 2 == 1
        attempted += 1
        child_start = perf_counter()
        run = run_child(workload, seed, traced)
        durations.append(perf_counter() - child_start)
        if run is not None:
            runs.append(run)
            print(f"{workload} seed={seed} traced={int(traced)} "
                  f"host_s={run['host_s']:.3f} setup_s={run['setup_s']:.4f} "
                  f"rss_mb={run['peak_rss_mb']:.1f}", file=sys.stderr)
        elapsed = perf_counter() - start
        both_kinds = not trace or attempted >= 2
        next_end = elapsed + statistics.median(durations)
        if (next_end > seconds and both_kinds) or elapsed >= LAST_START_S:
            break

    ref = reference(workload, seed, runs)
    good = [r for r in runs if fingerprint(r) == ref]
    failed = attempted - len(good)
    for r in runs:
        if fingerprint(r) != ref:
            print(f"{workload}: artifacts or event counts differ from the "
                  f"reference: {fingerprint(r)}", file=sys.stderr)
    # With no correct run the figures of the wrong ones are reported, marked
    # as not correct; with no finished run there is nothing to report.
    reported = good or runs
    untraced = [r for r in reported if not r["traced"]]
    traced_runs = [r for r in reported if r["traced"]]
    if not untraced or (trace and not traced_runs):
        print(f"{workload}: no finished run to report", file=sys.stderr)
        return 1

    if trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced_runs)
            for name in PER_LAYER_UNITS if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = (
            statistics.median(r["host_s"] for r in traced_runs)
            - statistics.median(r["host_s"] for r in untraced)
        )
        units = PER_LAYER_UNITS
    else:
        values = {name: statistics.median(r[name] for r in untraced)
                  for name in ("peak_rss_mb", "setup_s")}
        # From the slow end of the runs, not their median: on a shared host
        # some runs get a faster clock and some do not, in a share that
        # drifts from minute to minute. The 90th percentile of host seconds
        # follows the runs without it, which drift much less; the median and
        # the mean follow the drifting share (figures in README.md).
        host_s = [r["host_s"] for r in untraced]
        slow_s = (statistics.quantiles(host_s, n=10, method="inclusive")[-1]
                  if len(host_s) > 1 else host_s[0])
        values["realtime_factor"] = untraced[0]["horizon_s"] / slow_s
        units = END_TO_END_UNITS

    summary = {
        "workload": workload, "seed": seed, "attempted": attempted,
        "samples": {"untraced": len(untraced), "traced": len(traced_runs)},
        "aggregate_rate_mbps": untraced[0]["aggregate_rate_bps"] / 1e6,
        "records": untraced[0]["records"], "events": untraced[0]["events"],
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def run_child_warmup() -> None:
    """Byte-compile fablink once, outside any timed run."""
    subprocess.run([sys.executable, str(CHILD), "--warmup"], cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)


def update_pins(workloads: list[str]) -> int:
    pins = load_pins()
    run_child_warmup()
    for workload in workloads:
        run = run_child(workload, DEFAULT_SEED, traced=False)
        if run is None:
            return 1
        pins[workload] = {"seed": DEFAULT_SEED, "horizon_s": run["horizon_s"],
                          "events": run["events"], "digests": run["digests"]}
        print(f"pinned {workload} at seed {DEFAULT_SEED}", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fablink benchmark", epilog="see perfbench/README.md")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true",
                        help="rewrite pins.json from a run at the default seed")
    args = parser.parse_args(argv)
    try:
        use_checkout_source()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_pins:
        return update_pins([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
