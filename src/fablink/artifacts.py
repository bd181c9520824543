"""Run artifact export.

All files are UTF-8 and byte-identical for identical (config, seed): JSON is
dumped with sorted keys, CSV rows follow deterministic event order, and no
wall-clock data enters any artifact.

Frozen formats:
  packets.csv     stream,seq,class,size_bytes,created_ns,sent_ns,delivered_ns
                  (delivered_ns column holds LOST for undelivered packets;
                  a traffic row's sent_ns is its first TTI boundary at or
                  after created_ns, or created_ns on the wire)
  safety_log.csv  time_ns,loop,transition,cause,consecutive_missed
  products.csv    product,event,time_ns,detail
  metrics.json    `MetricsDocument`: per-stream and aggregate StreamMetrics
                  entries (null where nothing was observed) plus run counters
                  (and availability_sample_floor when the config overrides it)
  compliance.json `ComplianceReport`: verdict rows per (stream, profile) and
                  the scoring conventions, plus its verdict_counts
  compliance.txt  the same rows as a table
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .compliance import JITTER_DEFINITION, StreamMetrics
from .radio_link import next_tx_opportunity
from .scenario import schema_to_dict
from .simulation import RunResult
from .traffic import LOST, Records, merge_records

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


@dataclass
class MetricsDocument:
    """The schema of `metrics.json`, read and written by the scenario walker.
    A run writes every key; `fablink check` needs none but the entries it
    scores, so the others default to None and only an unknown key is an error."""

    seed: int | None = None
    horizon_ns: int | None = None
    service_area_m: tuple[float, float] | None = None
    jitter_definition: str | None = field(
        default=None, metadata={"choices": [JITTER_DEFINITION]})
    streams: dict[str, StreamMetrics] = field(default_factory=dict)
    aggregate: StreamMetrics | None = None
    events_processed: dict[str, int] | None = None
    factory: dict[str, int] | None = None
    # written only when the config overrides it, so default runs keep their bytes
    availability_sample_floor: int | None = field(default=None, metadata={"ge": 1})


def build_metrics_document(result: RunResult) -> dict:
    comp = result.scenario.compliance
    return schema_to_dict(MetricsDocument(
        seed=result.scenario.seed,
        horizon_ns=result.scenario.horizon_ns,
        service_area_m=comp.service_area_m,
        jitter_definition=JITTER_DEFINITION,
        streams=result.stream_metrics,
        aggregate=result.aggregate,
        events_processed=result.summary.events_processed,
        factory=result.factory_stats,
        availability_sample_floor=comp.availability_sample_floor,
    ))


def _csv_field(value: str) -> str:
    """`value` as `csv.writer` writes it as one field of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([value, ""])
    return buf.getvalue()[:-1]


def _packet_rows(records: Records) -> Iterator[str]:
    """`packets.csv` data rows in engine order, merged as they are written,
    each as `csv.writer` writes it: each stream's name, class and size
    formatted once, each row's integers directly, its send instant as
    `StreamRecords.sent_at` reads it, inlined to save a call per row."""
    streams = [(f"{_csv_field(p.name)},", f",{_csv_field(p.stream_class.value)},"
                f"{p.payload_bytes},", c.created, c.sent, c.grid_ns, c.delivered)
               for p, c in zip(records.streams, records.columns)]
    for k, seq in merge_records(records.columns):
        stream, cls_size, created, sent, grid, delivered = streams[k]
        c, d = created[seq], delivered[seq]
        s = next_tx_opportunity(c, grid) if sent is None else sent[seq]
        yield f"{stream}{seq}{cls_size}{c},{s},{'LOST' if d == LOST else d}\r\n"


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
        csv.writer(fh).writerow(PACKET_COLUMNS)
        fh.writelines(_packet_rows(result.records))

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
        report = result.compliance
        json.dump({**schema_to_dict(report), "verdict_counts": report.verdict_counts()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")

    artifacts.compliance_txt.write_text(
        result.compliance.render_table(), encoding="utf-8"
    )
    return artifacts
