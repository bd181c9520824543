"""Run artifact export.

All files are UTF-8 with untranslated newlines and byte-identical for
identical (config, seed): JSON is dumped with sorted keys, CSV rows follow
deterministic event order, and no wall-clock data enters any artifact. A run
writes the whole set or none: each file is moved into place from `<name>.tmp`,
`metrics.json` last, and a failed or interrupted write removes every temporary
file and artifact, so a `metrics.json` sits beside a whole set from one run.

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
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

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

    def paths(self) -> list[Path]:
        return [self.out_dir / name for name in ARTIFACT_NAMES]


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


def _write_csv(fh: TextIO, header: list[str], rows: Iterable = (), lines=()) -> None:
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    fh.writelines(lines)


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_WRITERS: dict[str, Callable] = {  # in the order the files are moved into place
    "packets.csv": lambda r, fh: _write_csv(fh, PACKET_COLUMNS, lines=_packet_rows(r.records)),
    "safety_log.csv": lambda r, fh: _write_csv(fh, SAFETY_COLUMNS, (
        [t.at, t.loop, t.transition, t.cause, t.consecutive_missed] for t in r.safety_log)),
    "products.csv": lambda r, fh: _write_csv(fh, PRODUCT_COLUMNS, (
        [e.product, e.event, e.at, e.detail] for e in r.product_log)),
    "compliance.json": lambda r, fh: fh.write(_json(
        {**schema_to_dict(r.compliance), "verdict_counts": r.compliance.verdict_counts()})),
    "compliance.txt": lambda r, fh: fh.write(r.compliance.render_table()),
    "metrics.json": lambda r, fh: fh.write(_json(build_metrics_document(r))),
}
ARTIFACT_NAMES = tuple(_WRITERS)


def write_artifacts(result: RunResult, out_dir: str | Path) -> RunArtifacts:
    artifacts = RunArtifacts(Path(out_dir))
    artifacts.out_dir.mkdir(parents=True, exist_ok=True)
    paths = artifacts.paths()
    tmp = [path.with_name(f"{path.name}.tmp") for path in paths]
    try:
        for path in reversed(paths):  # `metrics.json` first
            path.unlink(missing_ok=True)
        for path, tmp_path, write in zip(paths, tmp, _WRITERS.values()):
            with tmp_path.open("w", encoding="utf-8", newline="") as fh:
                write(result, fh)
            os.replace(tmp_path, path)
    except BaseException:
        for path in reversed(paths + tmp):
            path.unlink(missing_ok=True)
        raise
    return artifacts
