"""`packets.csv` rows are built as strings, merged into engine order as they
are written; their bytes must stay exactly what `csv.writer.writerow` writes
for the same records, and the file holds each record once, by creation."""

from __future__ import annotations

import csv
import io

import pytest

from fablink.artifacts import PACKET_COLUMNS, write_artifacts
from fablink.scenario import scenario_from_dict
from fablink.simulation import Simulation
from record_rows import PacketRecord, engine_rows

AWKWARD = 'cam,"a"\nb'  # a delimiter, quote characters and a line break


def _writerow_bytes(records: list[PacketRecord], classes: dict[str, str]) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(PACKET_COLUMNS)
    for r in records:
        writer.writerow([
            r.stream, r.seq, classes[r.stream], r.size_bytes, r.created_at, r.sent_at,
            r.delivered_at if r.delivered_at is not None else "LOST",
        ])
    return buf.getvalue().encode("utf-8")


def test_packets_csv_bytes_equal_csv_writer_rows(tmp_path):
    scenario = scenario_from_dict({
        "horizon_s": 0.5,
        "factory": {"enabled": False},
        "safety": {"enabled": False},
        "traffic": {"catalog": [
            {"name": AWKWARD, "rate_hz": 200.0},
            {"name": "plc", "class": "organization", "rate_hz": 50.0,
             "wireless": False},
        ]},
        # the awkward stream's column holds the packets lost in the outage
        "script": [{"at_s": 0.1, "action": "link_down"},
                   {"at_s": 0.2, "action": "link_up"}],
    })
    result = Simulation(scenario).run()
    packets = write_artifacts(result, tmp_path).packets_csv.read_bytes()
    assert packets == _writerow_bytes(list(engine_rows(result.records)), {
        name: m.stream_class.value for name, m in result.stream_metrics.items()})
    assert b'\r\n"cam,""a""\nb",0,non-safety,100,0,0,' in packets
    assert b'\r\n"cam,""a""\nb",30,non-safety,100,150000000,150000000,LOST\r\n' \
        in packets
    assert b"\r\nplc,0,organization,100,0,0," in packets


@pytest.mark.parametrize("config", [
    {"horizon_s": 1.0, "radio": {"snr_db": 13.0, "jitter_us": 50.0},
     "traffic": {"catalog": [
         {"name": "camera", "payload_bytes": 1400, "rate_hz": 500.0},
         {"name": "telemetry", "payload_bytes": 200, "rate_hz": 300.0,
          "pattern": "poisson"},
         {"name": "plc_wired", "payload_bytes": 60, "rate_hz": 100.0,
          "wireless": False}]},
     "script": [{"at_s": 0.3, "action": "link_down"},
                {"at_s": 0.4, "action": "link_up"}]},
    {"horizon_s": 1.0, "traffic": {"catalog": []}, "safety": {"enabled": False}},
], ids=["lossy_outage", "no_records"])
def test_packets_csv_holds_every_record_once_in_creation_order(tmp_path, config):
    result = Simulation(scenario_from_dict(config)).run()
    path = write_artifacts(result, tmp_path).packets_csv
    with path.open(encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == PACKET_COLUMNS
    assert len(rows) == len(result.records)
    created = [int(row[4]) for row in rows]
    assert created == sorted(created)
    seqs = {}
    for row in rows:
        seqs.setdefault(row[0], []).append(int(row[1]))
    assert all(seq == list(range(len(seq))) for seq in seqs.values())
    if result.records.columns:
        assert "LOST" in {row[6] for row in rows}
    else:
        assert path.read_bytes() == b",".join(c.encode() for c in PACKET_COLUMNS) + b"\r\n"
