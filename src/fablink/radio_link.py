"""Link-level reliability and throughput model.

A packet waits for the next TTI boundary (`next_tx_opportunity`): the
configured TTI is the scheduling granularity, and its boundaries are whole
multiples of its duration from t = 0. BLER-vs-SNR behaviour is anchored at
measured points per (waveform, channel) pair and interpolated log-linearly
(linear in log10 BLER over dB). Throughput uses monotone piecewise-linear
interpolation over SNR anchors. A BLER override is a `BlerCurve`, checked
when it is made. `RadioSection`, the config's `radio` section, is the one
operating point: `RadioSection.link_model` resolves it once, the shipped
curves with its overrides in place, into the `LinkModel` of that point (its
BLER, rate and TTI), and is where the rest of a bad section fails. A run's
one `LinkRuntime` sends every wireless packet through that model, composing
TTI alignment, air time and processing delay.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable

from .sim_core import NS_PER_S, NS_PER_US, RngStream, SimTime


class Waveform(Enum):
    CP_OFDM = "CP-OFDM"
    P_OFDM = "P-OFDM"
    W_OFDM = "W-OFDM"


# Channel model identifiers; further channels may be configured via anchors.
EVA70 = "EVA70"
V2V_URBAN_NLOS = "V2V-Urban-NLOS"

# SNR advantage of the pulse-shaped waveform over conventional OFDM at equal
# BLER, applied to the shipped default anchors on both channels.
WAVEFORM_GAP_DB = 1.7

SUPPORTED_TTI_US = (125, 250, 500, 1000)


def next_tx_opportunity(now: SimTime, tti_ns: int) -> SimTime:
    """Smallest TTI boundary t >= now. Idempotent on its own output."""
    return ((now + tti_ns - 1) // tti_ns) * tti_ns


@dataclass(frozen=True)
class BlerCurve:
    """Anchored SNR -> BLER mapping. It is also the schema of a
    `radio.bler_anchors` entry: its fields, in this order, with their bounds.

    Anchors are (snr_db, bler) with strictly increasing SNR and strictly
    decreasing BLER in (0, 1]. Between anchors the curve is log-linear in
    BLER; beyond the anchor range it continues at the edge segment's slope
    (or `tail_slope` decades per dB when set), clamped to [floor, 1].
    """

    # [[snr_db, bler], ...] in a config; held as a tuple of pairs, so that a
    # parsed curve hashes and equals a shipped one with the same anchors
    anchors: list[tuple[float, float]] = field(metadata={"min_len": 2})
    floor: float = field(default=0.0, metadata={"ge": 0, "le": 1})
    tail_slope: float | None = field(default=None, metadata={"gt": 0})

    def __post_init__(self):
        # the schema checks a config's count and bounds first, in its words;
        # these hold a curve built in code to the same
        object.__setattr__(self, "anchors", tuple(map(tuple, self.anchors)))
        if len(self.anchors) < 2:
            raise ValueError("needs at least 2 anchors")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError(f"floor {self.floor} outside [0, 1]")
        if self.tail_slope is not None and not self.tail_slope > 0:
            raise ValueError(f"tail_slope must be > 0, got {self.tail_slope}")
        snrs = [a[0] for a in self.anchors]
        blers = [a[1] for a in self.anchors]
        if snrs != sorted(snrs) or len(set(snrs)) != len(snrs):
            raise ValueError("anchor SNRs must be strictly increasing")
        for b in blers:
            if not 0.0 < b <= 1.0:
                raise ValueError(f"anchor BLER {b} outside (0, 1]")
        for b0, b1 in zip(blers, blers[1:]):
            if b1 >= b0:
                raise ValueError("anchor BLER must strictly decrease with SNR")

    def _clamp(self, value: float) -> float:
        return min(1.0, max(self.floor, value))

    def _edge_slope(self, last: bool) -> float:
        """Waterfall steepness in decades per dB at the curve edge (positive)."""
        if self.tail_slope is not None:
            return self.tail_slope
        (s0, b0), (s1, b1) = self.anchors[-2:] if last else self.anchors[:2]
        return (math.log10(b0) - math.log10(b1)) / (s1 - s0)

    def bler(self, snr_db: float) -> float:
        snrs = [a[0] for a in self.anchors]
        i = bisect.bisect_left(snrs, snr_db)
        if i < len(snrs) and snrs[i] == snr_db:
            return self._clamp(self.anchors[i][1])  # exact anchor pass-through
        if i == 0:
            s0, b0 = self.anchors[0]
            exponent = self._edge_slope(last=False) * (s0 - snr_db)
            try:
                value = b0 * 10.0 ** exponent
            except OverflowError:  # beyond any float: 1.0 once b0 * 10**exponent >= 1
                value = 10.0 ** min(0.0, math.log10(b0) + exponent)
            return self._clamp(value)
        if i == len(snrs):
            s1, b1 = self.anchors[-1]
            value = b1 * 10.0 ** (-self._edge_slope(last=True) * (snr_db - s1))
            return self._clamp(value)
        s0, b0 = self.anchors[i - 1]
        s1, b1 = self.anchors[i]
        t = (snr_db - s0) / (s1 - s0)
        log_b = math.log10(b0) + t * (math.log10(b1) - math.log10(b0))
        return self._clamp(10.0**log_b)


@dataclass(frozen=True)
class ThroughputCurve:
    """Monotone non-decreasing piecewise-linear SNR -> bit/s mapping.

    Clamps to the first/last anchor's rate outside the anchor range.
    """

    anchors: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.anchors:
            raise ValueError("throughput curve needs at least one anchor")
        snrs = [a[0] for a in self.anchors]
        rates = [a[1] for a in self.anchors]
        if snrs != sorted(snrs) or len(set(snrs)) != len(snrs):
            raise ValueError("anchor SNRs must be strictly increasing")
        if any(r < 0 for r in rates):
            raise ValueError("rates must be >= 0")
        if any(r1 < r0 for r0, r1 in zip(rates, rates[1:])):
            raise ValueError("rates must be non-decreasing with SNR")

    def rate_bps(self, snr_db: float) -> float:
        snrs = [a[0] for a in self.anchors]
        i = bisect.bisect_left(snrs, snr_db)
        if i < len(snrs) and snrs[i] == snr_db:
            return self.anchors[i][1]
        if i == 0:
            return self.anchors[0][1]
        if i == len(snrs):
            return self.anchors[-1][1]
        s0, r0 = self.anchors[i - 1]
        s1, r1 = self.anchors[i]
        t = (snr_db - s0) / (s1 - s0)
        return r0 + t * (r1 - r0)


def availability(bler: float, opportunities_in_survival_time: int) -> float:
    """Probability that at least one of k consecutive transmission
    opportunities inside the survival time succeeds: 1 - bler^k.

    The service is down only when all k opportunities fail; with k = 1 this
    equals plain reliability 1 - bler.
    """
    k = opportunities_in_survival_time
    if k < 1:
        raise ValueError("need at least one opportunity in the survival time")
    if not 0.0 <= bler <= 1.0:
        raise ValueError("bler must be within [0, 1]")
    return 1.0 - bler**k


@dataclass
class RadioSection:
    """The radio link's operating point. It is also the schema of the config's
    `radio` section: its fields, in this order, with their defaults and
    bounds, each BLER override a `BlerCurve`. `link_model` resolves it into
    the link at that point."""

    waveform: Waveform = Waveform.P_OFDM
    channel: str = EVA70
    snr_db: float = 15.0
    tti_us: int = field(default=125, metadata={"choices": SUPPORTED_TTI_US})
    processing_delay_us: float = field(default=100.0, metadata={"ge": 0})  # one way
    wired_latency_us: float = field(default=200.0, metadata={"ge": 0})
    jitter_us: float = field(default=0.0, metadata={"ge": 0})
    # overrides by waveform (and channel): a BLER curve, or [[snr_db, Mbit/s], ...]
    bler_anchors: dict[Waveform, dict[str, BlerCurve]] | None = None
    throughput_anchors: dict[Waveform, list[tuple[float, float]]] | None = None

    def link_model(self) -> LinkModel:
        """The link at this operating point: the shipped curves with this
        section's overrides in place, read at its waveform, channel and SNR.
        A bad section raises ValueError, its message led by the key at fault
        (a throughput override's, `channel`, `waveform` or `snr_db`); a BLER
        override is checked when it is made."""
        throughput_curves = dict(DEFAULT_THROUGHPUT_CURVES)
        for wf, anchors in (self.throughput_anchors or {}).items():
            throughput_curves[wf] = _curve(
                f"throughput_anchors.{wf.value}", ThroughputCurve,
                tuple((s, m * 1e6) for s, m in anchors))
        wf = self.waveform.value
        bler_curve = (self.bler_anchors or {}).get(self.waveform, {}).get(
            self.channel, DEFAULT_BLER_CURVES.get((self.waveform, self.channel)))
        if bler_curve is None:
            raise ValueError(f"channel: no BLER anchors for {self.channel!r} "
                             f"with radio.waveform {wf!r}")
        if self.waveform not in throughput_curves:
            raise ValueError(f"waveform: no throughput anchors for {wf!r}")
        model = LinkModel(self, bler_curve.bler(self.snr_db),
                          throughput_curves[self.waveform].rate_bps(self.snr_db))
        if model.rate_bps <= 0:
            raise ValueError(f"snr_db: throughput is zero at {self.snr_db:g} dB")
        return model


def _curve(key: str, make, *args):
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


class LinkModel:
    """The link at `radio`'s operating point: its BLER, its rate in bit/s and
    its TTI. A plain class, since perfbench's tracer wraps `air_time_ns` on
    the instance."""

    def __init__(self, radio: RadioSection, bler: float, rate_bps: float):
        self.radio = radio
        self.tti_ns = radio.tti_us * NS_PER_US
        self.bler = bler
        self.rate_bps = rate_bps

    def air_time_ns(self, payload_bytes: int) -> int:
        """Transmission time: whole TTI-sized slots at the rate."""
        bits_per_slot = Fraction(self.rate_bps) * Fraction(self.tti_ns, NS_PER_S)
        slots = math.ceil(Fraction(payload_bytes * 8) / bits_per_slot)
        return slots * self.tti_ns


Sender = Callable[[SimTime], tuple[SimTime, SimTime | None]]


class LinkRuntime:
    """The link a run sends every wireless packet through, traffic and safety
    PDUs alike, at `model`'s operating point, with its section's processing
    delay and jitter. Its timeline is the script's link actions, `(at, up)`
    sorted by time (script order within an instant): `up_at(t)` is the state
    the last one at or before `t` left, up before the first. Each stream sends
    through its own `sender`, and draws jitter from `jitter.<stream>`."""

    def __init__(
        self,
        model: LinkModel,
        streams: Callable[[str], RngStream],
        timeline: Iterable[tuple[SimTime, bool]] = (),
    ):
        radio = model.radio
        self.model = model
        self.tti_ns = model.tti_ns
        self.jitter_ns = round(radio.jitter_us * NS_PER_US)
        self.bler = model.bler
        # sorted is stable, so script order holds within an instant
        self.timeline = sorted(timeline, key=itemgetter(0))
        self._streams = streams
        processing_ns = round(radio.processing_delay_us * NS_PER_US)
        # air time plus processing per payload size, resolved once per size
        self._air_proc_ns = functools.cache(
            lambda size: model.air_time_ns(size) + processing_ns)

    def up_at(self, t: SimTime) -> bool:
        i = bisect.bisect_right(self.timeline, t, key=itemgetter(0))
        return i == 0 or self.timeline[i - 1][1]

    def latency(self, now: SimTime, size: int) -> SimTime:
        """The one-way latency of a `size`-byte packet offered at `now`, as if
        it were delivered at its first attempt without jitter: the wait for
        the next TTI boundary, then air time plus processing."""
        return next_tx_opportunity(now, self.tti_ns) - now + self._air_proc_ns(size)

    def sender(self, stream: str, size: int, rng: RngStream) -> Sender:
        """`send(now)`: one attempt at `now` for `stream`'s `size`-byte packets,
        sent at the next TTI boundary, with the TTI, BLER, air time plus
        processing (one link-model call per distinct size) and jitter stream
        resolved once. A down link or a BLER of zero makes no draw; otherwise
        the packet is lost iff `rng.random() < bler`."""
        tti, bler, draw = self.tti_ns, self.bler, rng.random
        up_at, jitter_ns = self.up_at if self.timeline else None, self.jitter_ns
        jitter = self._streams(f"jitter.{stream}").uniform if jitter_ns > 0 else None
        air_proc = self._air_proc_ns(size)

        def send(now: SimTime) -> tuple[SimTime, SimTime | None]:
            sent_at = next_tx_opportunity(now, tti)
            if (up_at and not up_at(now)) or (bler > 0.0 and draw() < bler):
                return sent_at, None
            delivered = sent_at + air_proc
            if jitter:
                delivered += round(jitter(0, jitter_ns))
            return sent_at, delivered

        return send


def _shift(anchors: tuple[tuple[float, float], ...], db: float):
    return tuple((snr + db, b) for snr, b in anchors)


# Shipped default anchors. The pulse-shaped waveform reaches 1e-5 BLER at
# 15 dB SNR on EVA70 and at 19 dB on the V2V urban NLOS channel, with a
# waterfall of one decade per dB; conventional CP-OFDM trails by 1.7 dB on
# both channels. Throughput reaches 10 Mbit/s at 11 dB and saturates above.
_P_OFDM_EVA70 = ((10.0, 1.0), (15.0, 1e-5))
_P_OFDM_V2V = ((14.0, 1.0), (19.0, 1e-5))
_P_OFDM_THROUGHPUT = ((5.0, 0.0), (8.0, 5e6), (11.0, 10e6), (14.0, 12e6))


DEFAULT_BLER_CURVES = {
    (Waveform.P_OFDM, EVA70): BlerCurve(_P_OFDM_EVA70),
    (Waveform.P_OFDM, V2V_URBAN_NLOS): BlerCurve(_P_OFDM_V2V),
    (Waveform.CP_OFDM, EVA70): BlerCurve(_shift(_P_OFDM_EVA70, WAVEFORM_GAP_DB)),
    (Waveform.CP_OFDM, V2V_URBAN_NLOS):
        BlerCurve(_shift(_P_OFDM_V2V, WAVEFORM_GAP_DB)),
}
DEFAULT_THROUGHPUT_CURVES = {
    Waveform.P_OFDM: ThroughputCurve(_P_OFDM_THROUGHPUT),
    Waveform.CP_OFDM: ThroughputCurve(_shift(_P_OFDM_THROUGHPUT, WAVEFORM_GAP_DB)),
}
