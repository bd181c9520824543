"""Test-side packet rows: a run's records as `PacketRecord` objects in the
engine order `packets.csv` is written in, through the writer's merge, and
conversions between a stream's record columns and its rows."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from fablink.sim_core import SimTime
from fablink.traffic import LOST, Records, StreamRecords, TrafficProfile, merge_records


@dataclass(slots=True)
class PacketRecord:
    """One packet record as a row; delivered_at is None when lost."""

    stream: str
    seq: int
    created_at: SimTime
    size_bytes: int
    sent_at: SimTime | None = None
    delivered_at: SimTime | None = None


def engine_rows(records: Records) -> Iterator[PacketRecord]:
    """`records` as rows, one at a time, in the engine order of `merge_records`."""
    for k, seq in merge_records(records.columns):
        p, c = records.streams[k], records.columns[k]
        delivered = c.delivered[seq]
        yield PacketRecord(p.name, seq, c.created[seq], p.payload_bytes, c.sent_at(seq),
                           None if delivered == LOST else delivered)


def columns(rows) -> StreamRecords:
    """Record columns, `sent` kept, from (created, sent, delivered or None) rows."""
    records = StreamRecords(sent=array("q"))
    for created, sent, delivered in rows:
        records.created.append(created)
        records.sent.append(sent)
        records.delivered.append(LOST if delivered is None else delivered)
    return records


def packet_rows(stream: TrafficProfile, records: StreamRecords) -> list[PacketRecord]:
    """`stream`'s records as rows, in emission order."""
    return list(engine_rows(Records([stream], [records])))


def channel_rows(streams, up: StreamRecords, down: StreamRecords) -> list[PacketRecord]:
    """A resolved safety channel's up records, then its down records, as rows
    of its two `streams`."""
    return packet_rows(streams[0], up) + packet_rows(streams[1], down)
