"""Traffic streams: profiles, the measured catalog, emission instants, and
each stream's records computed off the event queue as integer columns, and
the merge that puts them, for `packets.csv`, in the order the engine would
have created them.

The built-in catalog reproduces the packet mix measured on the running
plant: two cyclic safety PDU streams (60/64 bytes at 246.19 Hz), four
network-organization streams, and camera/background streams sized so the
whole catalog sums to the measured 5.97 Mbit/s aggregate.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Iterator

from .radio_link import LinkRuntime, next_tx_opportunity
from .sim_core import NS_PER_S, NS_PER_US, HandlerError, RngStream, SimTime


class StreamClass(Enum):
    SAFETY_RELEVANT = "safety"
    NON_SAFETY_RELEVANT = "non-safety"
    NETWORK_ORGANIZATION = "organization"


class Pattern(Enum):
    PERIODIC = "periodic"
    POISSON = "poisson"


@dataclass(frozen=True)
class TrafficProfile:
    """One packet stream: endpoints, class, size and emission pattern. It is
    also the schema of a row of an explicit traffic catalog: its fields, in
    this order, with their defaults, config keys and bounds.

    Periodic streams emit at exact multiples of 1/rate_hz from `phase_us`;
    Poisson streams draw exponential gaps with mean 1/rate_hz.
    """

    name: str
    source: str = "src"
    destination: str = "dst"
    protocol_label: str = field(default="UDP", metadata={"key": "protocol"})
    stream_class: StreamClass = field(
        default=StreamClass.NON_SAFETY_RELEVANT, metadata={"key": "class"})
    payload_bytes: int = field(default=100, metadata={"ge": 1})
    # a period of at least 1 ns
    rate_hz: float = field(default=1.0, metadata={"gt": 0, "le": NS_PER_S})
    pattern: Pattern = Pattern.PERIODIC
    phase_us: float = field(default=0.0, metadata={"ge": 0})
    wireless: bool = True

    def __post_init__(self):
        # the schema's bounds hold for a catalog row; these guard the rows
        # measured_catalog derives, such as a camera above 1 GHz
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be > 0")
        if not 0 < self.rate_hz <= NS_PER_S:
            raise ValueError(f"{self.name}: rate_hz must be within (0, 1e9]")

    @property
    def bitrate_bps(self) -> float:
        return self.rate_hz * self.payload_bytes * 8


MEASURED_TOTAL_RATE_BPS = 5.97e6

# The measured stream rows. The coupler-side endpoints ride the radio link.
MEASURED_ROWS = tuple(
    TrafficProfile(name, src, dst, proto, cls, size, rate, wireless=wireless)
    for name, src, dst, proto, size, rate, cls, wireless in (
        ("pnio_coupler_to_plc", "Hilscher", "PhoenixC", "PNIO", 60, 246.19,
         StreamClass.SAFETY_RELEVANT, True),
        ("pn_dcp_coupler", "Hilscher", "PN-MC", "PN-DCP", 60, 0.51,
         StreamClass.NETWORK_ORGANIZATION, True),
        ("pn_dcp_plc", "PhoenixC", "PN-MC", "PN-DCP", 60, 1.36,
         StreamClass.NETWORK_ORGANIZATION, False),
        ("pnio_plc_to_coupler", "PhoenixC", "Hilscher", "PNIO", 64, 246.19,
         StreamClass.SAFETY_RELEVANT, True),
        ("lldp_plc", "PhoenixC", "LLDP MC", "LLDP", 212, 0.17,
         StreamClass.NETWORK_ORGANIZATION, False),
        ("pn_ptcp_plc", "PhoenixC", "LLDP MC", "PN-PTCP", 60, 4.94,
         StreamClass.NETWORK_ORGANIZATION, False),
    )
)
# The safety channel's streams, up (coupler -> PLC) then down
SAFETY_STREAMS = ("pnio_coupler_to_plc", "pnio_plc_to_coupler")

DEFAULT_CAMERA_SHARES = {"forward": 0.25, "threesixty": 0.60, "product": 0.15}
DEFAULT_CAMERA_PACKET_BYTES = 1400


def measured_catalog(
    total_rate_bps: float = MEASURED_TOTAL_RATE_BPS,
    camera_shares: dict[str, float] | None = None,
    camera_packet_bytes: int = DEFAULT_CAMERA_PACKET_BYTES,
) -> list[TrafficProfile]:
    """The measured stream rows plus camera/background streams sized so the
    catalog total equals `total_rate_bps`.

    Only the aggregate of the camera traffic was measured; its split across
    the three cameras is a configurable share map.
    """
    shares = camera_shares if camera_shares is not None else DEFAULT_CAMERA_SHARES
    if abs(sum(shares.values()) - 1.0) > 1e-9:
        raise ValueError("camera shares must sum to 1")
    profiles = list(MEASURED_ROWS)
    measured_bps = sum(p.bitrate_bps for p in profiles)
    residual = total_rate_bps - measured_bps
    if residual < 0:
        raise ValueError(
            f"measured rows ({measured_bps:.0f} bit/s) already exceed the "
            f"requested total {total_rate_bps:.0f} bit/s"
        )
    for camera, share in sorted(shares.items()):
        rate_hz = share * residual / (camera_packet_bytes * 8)
        if rate_hz <= 0:
            continue
        profiles.append(
            TrafficProfile(
                name=f"camera_{camera}",
                source="Robot",
                destination="Cloud",
                protocol_label="UDP",
                stream_class=StreamClass.NON_SAFETY_RELEVANT,
                payload_bytes=camera_packet_bytes,
                rate_hz=rate_hz,
                wireless=True,
            )
        )
    return profiles


def emission_times(
    rate_hz: float,
    horizon: SimTime,
    pattern: Pattern = Pattern.PERIODIC,
    phase_ns: SimTime = 0,
    rng: RngStream | None = None,
) -> Iterator[SimTime]:
    """Emission instants within [0, horizon] (inclusive), drawn lazily.

    The k-th periodic instant is computed directly from k, so no
    floating-point drift accumulates across a run; Poisson gaps are drawn
    from `rng` one per instant pulled.
    """
    if pattern is Pattern.PERIODIC:
        k = 0
        while True:
            t = phase_ns + round(k * NS_PER_S / rate_hz)
            if t > horizon:
                return
            yield t
            k += 1
    else:
        if rng is None:
            raise ValueError("Poisson streams need an RngStream")
        t = float(phase_ns)
        while True:
            t += rng.expovariate(rate_hz) * NS_PER_S
            ti = round(t)
            if ti > horizon:
                return
            yield ti


# -- records, off the event queue -----------------------------------------------

LOST = -1  # the delivered instant of a lost packet


class StreamRecords:
    """One stream's packet records as integer columns, in emission order: the
    created and delivered instants, delivered `LOST` for a lost packet; seq is
    the index, stream and size the stream's. `sent_at(seq)` is the creation's
    first boundary of the send grid `grid_ns` (the link's TTI, 1 ns on the
    wire), or the kept `sent` column: the safety channel's retries move it."""

    def __init__(self, grid_ns: int = 1, sent: array | None = None):
        self.created, self.delivered = array("q"), array("q")
        self.grid_ns, self.sent = grid_ns, sent

    def sent_at(self, seq: int) -> SimTime:
        if self.sent is None:
            return next_tx_opportunity(self.created[seq], self.grid_ns)
        return self.sent[seq]


class Records:
    """A run's packet records, read-only: `columns[k]` holds `streams[k]`'s
    (the safety channel's two share one `created`), and `len()` counts them
    all. Only `packets.csv` puts them in engine order, via `merge_records`."""

    def __init__(self, streams: list[TrafficProfile], columns: list[StreamRecords]):
        self.streams, self.columns = streams, columns

    def __len__(self) -> int:
        return sum(len(c.created) for c in self.columns)


def stream_records(profile: TrafficProfile, rng: RngStream, link: LinkRuntime,
                   horizon_ns: SimTime, wired_latency_ns: SimTime) -> StreamRecords:
    """One stream's records: a packet at each of its `emission_times`, sent
    through `link` or over the wire; lost packets are not retried."""
    # pulled one instant per packet, so a Poisson gap is drawn after the
    # previous packet's loss draw
    times = emission_times(profile.rate_hz, horizon_ns, profile.pattern,
                           round(profile.phase_us * NS_PER_US), rng)
    send = link.sender(profile.name, profile.payload_bytes, rng) if profile.wireless \
        else (lambda now: (now, now + wired_latency_ns))
    records = StreamRecords(link.tti_ns if profile.wireless else 1)
    created, delivered = records.created.append, records.delivered.append
    t = 0
    try:
        for t in times:
            _, d = send(t)  # sent at `records.sent_at(seq)`
            created(t)
            delivered(LOST if d is None else d)
    except Exception as exc:
        raise HandlerError(f"at {t} ns, traffic stream {profile.name}: "
                           f"{type(exc).__name__}: {exc}") from exc
    return records


def merge_records(sources: list[StreamRecords]) -> Iterator[tuple[int, int]]:
    """Engine order, one record at a time: the index into `sources` and the
    seq of each record in turn, as if each emission had been an event: by
    creation instant, then by the merge position of the source's previous
    emission (at a tie, the source whose previous emission came first), the
    order the engine would have queued them in. Sources start in run order,
    before any position: the safety channel's up and down records, then the
    streams in catalog order."""
    created = [recs.created for recs in sources]
    # (created_at, merge position of the previous emission, source, seq)
    heap = [(c[0], k - len(created), k, 0) for k, c in enumerate(created) if c]
    heapq.heapify(heap)
    for position in count():
        if not heap:
            return
        _, _, k, i = heap[0]
        if i + 1 < len(created[k]):
            heapq.heapreplace(heap, (created[k][i + 1], position, k, i + 1))
        else:
            heapq.heappop(heap)
        yield k, i
