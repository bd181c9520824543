"""Test-side conversions between a stream's record columns and the
`PacketRecord` rows a `Records` view yields."""

from __future__ import annotations

from array import array

from fablink.traffic import LOST, PacketRecord, Records, StreamRecords, TrafficProfile


def columns(rows) -> StreamRecords:
    """Record columns from (created, sent, delivered or None) rows."""
    records = StreamRecords()
    for created, sent, delivered in rows:
        records.created.append(created)
        records.sent.append(sent)
        records.delivered.append(LOST if delivered is None else delivered)
    return records


def packet_rows(stream: TrafficProfile, records: StreamRecords) -> list[PacketRecord]:
    """`stream`'s records as rows, in emission order, through a one-stream view."""
    return list(Records([stream], [records], array("I", [0]) * len(records.created)))


def channel_rows(streams, up: StreamRecords, down: StreamRecords) -> list[PacketRecord]:
    """A resolved safety channel's up records, then its down records, as rows
    of its two `streams`."""
    return packet_rows(streams[0], up) + packet_rows(streams[1], down)
