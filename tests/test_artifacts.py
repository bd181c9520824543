"""`packets.csv` rows are built as strings; their bytes must stay exactly
what `csv.writer.writerow` writes for the same records."""

from __future__ import annotations

import csv
import io

from fablink.artifacts import PACKET_COLUMNS, write_artifacts
from fablink.scenario import scenario_from_dict
from fablink.simulation import Simulation
from fablink.traffic import PacketRecord

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
    assert packets == _writerow_bytes(list(result.records), {
        name: m.stream_class.value for name, m in result.stream_metrics.items()})
    assert b'\r\n"cam,""a""\nb",0,non-safety,100,0,0,' in packets
    assert b'\r\n"cam,""a""\nb",30,non-safety,100,150000000,150000000,LOST\r\n' \
        in packets
    assert b"\r\nplc,0,organization,100,0,0," in packets
