"""Command-line driver: run scenarios, check metrics against requirement
profiles, and list the built-in profiles and traffic catalog.

Exit codes: 0 success (and, for `check`, at least one assessed verdict and
no Fail); 1 a checked dimension failed, or an event's action ended the `run`
in an error (one `run error:` line, no artifacts); 2 bad input (a config or
`--seed`/`--horizon` value the scenario schema rejects, an unknown profile,
a malformed metrics file, a metrics file in which `check` assesses nothing,
or I/O; a failed write leaves none of the six artifacts); 130 interrupted
(Ctrl-C: one `interrupted` line; an interrupted write also leaves none).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .artifacts import MetricsDocument, write_artifacts
from .compliance import PROFILES, ComplianceReport
from .scenario import (
    ConfigInvalid,
    Scenario,
    default_scenario,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    schema_from_dict,
    schema_to_dict,
)
from .sim_core import HandlerError
from .simulation import Simulation
from .traffic import StreamClass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fablink",
        description=(
            "Deterministic discrete-event simulator of a 5G-connected "
            "flexible production line with requirement-profile compliance "
            "checks."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and export artifacts")
    run.add_argument("--config", help="scenario YAML; defaults when omitted")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument(
        "--horizon", type=float, help="override the horizon in seconds"
    )
    run.add_argument("--out", default="fablink-out", help="artifact directory")

    check = sub.add_parser(
        "check",
        help="score a metrics.json file against a requirement profile, "
        "stream by stream in name order",
    )
    check.add_argument("metrics", help="metrics.json from a previous run")
    check.add_argument(
        "--profile", default="aspect1", help="profile name (aspect1, aspect2)"
    )
    check.add_argument(
        "--streams",
        choices=["safety", "aggregate", "all"],
        default=None,
        help="streams to assess (default: the profile's own)",
    )

    sub.add_parser("profiles", help="list the bounds `check` applies for each "
                   "built-in requirement profile")

    catalog = sub.add_parser("catalog", help="list the built-in traffic catalog")
    catalog.add_argument(
        "--class",
        dest="stream_class",
        choices=[c.value for c in StreamClass],
        help="only streams of this class",
    )

    config = sub.add_parser("config", help="configuration utilities")
    config_sub = config.add_subparsers(dest="config_command", required=True)
    dump = config_sub.add_parser(
        "dump", help="print the canonical YAML for a scenario"
    )
    dump.add_argument("--config", help="scenario YAML; defaults when omitted")

    return parser


def _load(config_path: str | None) -> Scenario:
    if config_path is None:
        return default_scenario()
    return load_scenario(config_path)


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {"seed": args.seed, "horizon_s": args.horizon}
    try:
        # overrides are checked like the config keys they replace
        scenario = scenario_from_dict({
            **schema_to_dict(_load(args.config)),
            **{k: v for k, v in overrides.items() if v is not None},
        })
    except (ConfigInvalid, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        result = Simulation(scenario).run()
    except HandlerError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1
    try:
        artifacts = write_artifacts(result, args.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2

    agg = result.aggregate
    print(f"horizon: {scenario.horizon_s:g} s, seed {scenario.seed}")
    print(f"aggregate rate: {agg.observed_rate_bps / 1e6:.3f} Mbit/s "
          f"({agg.sample_count} packets, {agg.lost_count} lost)")
    stats = result.factory_stats
    if "released" in stats:
        print(
            f"products: {stats['released']} released, "
            f"{stats['completed']} completed, "
            f"{stats['manual_visits']} manual visits, "
            f"{stats['inspections']} inspections"
        )
    print(f"safety trips: {stats.get('safety_trips', 0)}")
    print(f"compliance: {_summary(result.compliance.verdict_counts())}")
    print(f"artifacts: {artifacts.out_dir}")
    return 0


def _summary(counts: dict[str, int]) -> str:
    return (f"{counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['not_assessed']} not assessed")


def _cmd_check(args: argparse.Namespace) -> int:
    profile = PROFILES.get(args.profile)
    if profile is None:
        print(f"unknown profile: {args.profile}", file=sys.stderr)
        return 2
    try:
        with open(args.metrics, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not JSON or UTF-8, or an integer longer than Python
        # converts; RecursionError: nesting past the decoder's depth
        print(f"cannot read metrics: {exc}", file=sys.stderr)
        return 2

    selection = args.streams or profile.streams
    try:
        if not isinstance(doc, dict):
            raise ConfigInvalid("not a JSON object")
        metrics = schema_from_dict(MetricsDocument, doc)
        report = ComplianceReport(service_area_m=metrics.service_area_m)
        report.score(metrics.streams, metrics.aggregate, profile, selection,
                     metrics.availability_sample_floor)
    except ConfigInvalid as exc:
        print(f"invalid metrics {args.metrics}: {exc}", file=sys.stderr)
        return 2
    counts = report.verdict_counts()
    if counts["pass"] + counts["fail"] == 0:
        print(f"nothing assessed: no {profile.name} verdict for the {selection} "
              f"streams of {args.metrics}", file=sys.stderr)
        return 2

    print(report.render_table())
    print(_summary(counts))
    return 1 if counts["fail"] else 0


def _cmd_profiles() -> int:
    for p in PROFILES.values():
        print(f"{p.name} ({p.streams}): " + "; ".join(
            f"{dimension} {required}" for dimension, required in p.requirements()))
    return 0


def _cmd_catalog(stream_class: str | None) -> int:
    scenario = default_scenario()
    for p in scenario.traffic.profiles():
        if stream_class and p.stream_class.value != stream_class:
            continue
        print(
            f"{p.name:24} {p.source:>10} -> {p.destination:<10} "
            f"{p.protocol_label:8} {p.payload_bytes:5d} B {p.rate_hz:10.2f} Hz "
            f"{p.stream_class.value:12} {p.bitrate_bps / 1e6:.4f} Mbit/s"
        )
    return 0


def _cmd_config_dump(config_path: str | None) -> int:
    try:
        scenario = _load(config_path)
    except (ConfigInvalid, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(dump_scenario(scenario))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "profiles":
            return _cmd_profiles()
        if args.command == "catalog":
            return _cmd_catalog(args.stream_class)
        if args.command == "config":
            return _cmd_config_dump(args.config)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
