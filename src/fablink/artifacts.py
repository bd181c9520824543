"""Run artifact export.

All files are UTF-8 and byte-identical for identical (config, seed): JSON is
dumped with sorted keys, CSV rows follow deterministic event order, and no
wall-clock data enters any artifact.

Frozen formats:
  packets.csv     stream,seq,class,size_bytes,created_ns,sent_ns,delivered_ns
                  (delivered_ns column holds LOST for undelivered packets)
  safety_log.csv  time_ns,loop,transition,cause,consecutive_missed
  products.csv    product,event,time_ns,detail
  metrics.json    per-stream and aggregate StreamMetrics plus run counters
                  (and availability_sample_floor when the config overrides it)
  compliance.json / compliance.txt   verdict rows per (stream, profile)
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from .compliance import LatencyStats, StreamMetrics
from .simulation import RunResult
from .traffic import StreamClass

PACKET_COLUMNS = [
    "stream", "seq", "class", "size_bytes", "created_ns", "sent_ns", "delivered_ns",
]
SAFETY_COLUMNS = ["time_ns", "loop", "transition", "cause", "consecutive_missed"]
PRODUCT_COLUMNS = ["product", "event", "time_ns", "detail"]


@dataclass
class RunArtifacts:
    out_dir: Path
    metrics_json: Path
    packets_csv: Path
    safety_log_csv: Path
    products_csv: Path
    compliance_json: Path
    compliance_txt: Path

    def paths(self) -> list[Path]:
        return [
            self.metrics_json,
            self.packets_csv,
            self.safety_log_csv,
            self.products_csv,
            self.compliance_json,
            self.compliance_txt,
        ]


def metrics_to_dict(m: StreamMetrics) -> dict:
    return {
        "stream": m.stream,
        "class": m.stream_class.value,
        "sample_count": m.sample_count,
        "delivered_count": m.delivered_count,
        "lost_count": m.lost_count,
        "in_flight_count": m.in_flight_count,
        "observed_rate_bps": m.observed_rate_bps,
        "size_min": m.size_min,
        "size_max": m.size_max,
        "latency_ns": (
            {
                "min": m.latency.min_ns,
                "p50": m.latency.p50_ns,
                "p99": m.latency.p99_ns,
                "p999": m.latency.p999_ns,
                "max": m.latency.max_ns,
            }
            if m.latency
            else None
        ),
        "jitter_ns": m.jitter_ns,
        "max_transfer_interval_ns": m.max_transfer_interval_ns,
        "availability": m.availability,
        "availability_windows": m.availability_windows,
        "survival_time_ns": m.survival_time_ns,
    }


_REQUIRED = object()
_NUMBER = (int, float)
# `metrics_to_dict` keys read back under their own name: the required ones
# with their JSON types, and the optional numbers, which may be null
_REQUIRED_KEYS = {
    "stream": str, "sample_count": int, "delivered_count": int,
    "lost_count": int, "in_flight_count": int, "observed_rate_bps": _NUMBER,
}
_OPTIONAL_KEYS = (
    "size_min", "size_max", "jitter_ns", "max_transfer_interval_ns",
    "availability", "survival_time_ns",
)


def json_field(data, key: str, types, at: str = "", default=_REQUIRED):
    """`data[key]` if it is one of `types` (never a bool), `default` if the
    key is absent. A missing required key, a mistyped value or a `data` that
    is not an object raises a ValueError naming `at + key`."""
    if not isinstance(data, dict):
        raise ValueError(f"{at.rstrip('.') or 'metrics'}: not a JSON object")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"{at}{key}: missing")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{at}{key}: unexpected {type(value).__name__} {value!r}")
    return value


def metrics_from_dict(data: dict, at: str = "") -> StreamMetrics:
    """Read back one `metrics_to_dict` entry found at `at` (a key prefix such
    as "aggregate."); a missing or mistyped key raises a ValueError naming it."""
    stream_class = json_field(data, "class", str, at)
    if stream_class not in {c.value for c in StreamClass}:
        raise ValueError(f"{at}class: unknown stream class {stream_class!r}")
    fields = {k: json_field(data, k, t, at) for k, t in _REQUIRED_KEYS.items()}
    for k in _OPTIONAL_KEYS:
        fields[k] = json_field(data, k, (*_NUMBER, type(None)), at, None)
    lat = json_field(data, "latency_ns", (dict, type(None)), at, None)
    return StreamMetrics(
        stream_class=StreamClass(stream_class),
        latency=LatencyStats(*(
            json_field(lat, k, _NUMBER, f"{at}latency_ns.")
            for k in ("min", "p50", "p99", "p999", "max")
        )) if lat else None,
        availability_windows=json_field(data, "availability_windows", int, at, 0),
        **fields,
    )


def build_metrics_document(result: RunResult) -> dict:
    comp = result.scenario.compliance
    doc = {
        "seed": result.scenario.seed,
        "horizon_ns": result.scenario.horizon_ns,
        "service_area_m": list(comp.service_area_m),
        "jitter_definition": comp.jitter_definition,
        "streams": {
            name: metrics_to_dict(result.stream_metrics[name])
            for name in result.stream_order
        },
        "aggregate": metrics_to_dict(result.aggregate),
        "events_processed": result.summary.events_processed,
        "factory": result.factory_stats,
    }
    # only when overridden, so runs on the default floor keep their bytes
    if comp.availability_sample_floor is not None:
        doc["availability_sample_floor"] = comp.availability_sample_floor
    return doc


def write_artifacts(result: RunResult, out_dir: str | Path) -> RunArtifacts:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = RunArtifacts(
        out_dir=out,
        metrics_json=out / "metrics.json",
        packets_csv=out / "packets.csv",
        safety_log_csv=out / "safety_log.csv",
        products_csv=out / "products.csv",
        compliance_json=out / "compliance.json",
        compliance_txt=out / "compliance.txt",
    )

    with artifacts.metrics_json.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(build_metrics_document(result), fh, indent=2, sort_keys=True)
        fh.write("\n")

    with artifacts.packets_csv.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PACKET_COLUMNS)
        for r in result.records:
            writer.writerow(
                [
                    r.stream,
                    r.seq,
                    r.stream_class.value,
                    r.size_bytes,
                    r.created_at,
                    r.sent_at if r.sent_at is not None else "",
                    r.delivered_at if r.delivered_at is not None else "LOST",
                ]
            )

    with artifacts.safety_log_csv.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SAFETY_COLUMNS)
        for t in result.safety_log:
            writer.writerow([t.at, t.loop, t.transition, t.cause, t.consecutive_missed])

    with artifacts.products_csv.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PRODUCT_COLUMNS)
        for e in result.product_log:
            writer.writerow([e.product, e.event, e.at, e.detail])

    with artifacts.compliance_json.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.compliance.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    artifacts.compliance_txt.write_text(
        result.compliance.render_table(), encoding="utf-8"
    )
    return artifacts
