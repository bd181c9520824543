"""Compliance scoring of per-stream metrics against Rel-16 factory use-case
requirement profiles (aspects 1 and 2 of the mobile-control-panel use case).

Jitter is scored as (p99 - min) latency; latency uses p99.9 so one outlier
cannot dominate the verdict. Availability is the fraction of survival-time
windows (aspect 1's 12 ms) containing at least one delivery, and is reported
NotAssessed unless the sample count can statistically support the claimed
scale (at least 10 / (1 - availability_min) packets).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, tee
from operator import sub
from typing import Iterable, Iterator, Sequence

from .scenario import ConfigInvalid
from .sim_core import NS_PER_MS, SimTime
from .traffic import LOST, StreamClass, StreamRecords, TrafficProfile


@dataclass(frozen=True)
class RequirementProfile:
    """One use-case aspect; absent fields are skipped during evaluation.
    `streams` is the selection it scores: "safety", "aggregate" or "all"."""

    name: str
    streams: str
    availability_min: float
    availability_max: float
    latency_target_ns: SimTime | None = None
    jitter_max_ns: SimTime | None = None
    service_data_rate_min_bps: float | None = None
    message_size_range: tuple[int, int] | None = None
    transfer_interval_max_ns: SimTime | None = None
    survival_time_ns: SimTime | None = None
    service_area_m: tuple[float, float] | None = None

    def __post_init__(self):
        if self.availability_min > self.availability_max:
            raise ValueError("availability_min must be <= availability_max")


ASPECT1 = RequirementProfile(
    name="aspect1",
    streams="safety",
    availability_min=0.999999,
    availability_max=0.99999999,
    latency_target_ns=12 * NS_PER_MS,
    jitter_max_ns=6 * NS_PER_MS,
    message_size_range=(40, 250),
    transfer_interval_max_ns=12 * NS_PER_MS,
    survival_time_ns=12 * NS_PER_MS,
    service_area_m=(200.0, 300.0),
)

ASPECT2 = RequirementProfile(
    name="aspect2",
    streams="aggregate",
    availability_min=0.999999,
    availability_max=0.99999999,
    latency_target_ns=30 * NS_PER_MS,
    jitter_max_ns=15 * NS_PER_MS,
    service_data_rate_min_bps=5e6,
)

PROFILES = {p.name: p for p in (ASPECT1, ASPECT2)}


# -- stream metrics -----------------------------------------------------------

# Scoring conventions: jitter is p99 minus min latency, and availability is
# counted in windows of aspect 1's survival time.
JITTER_DEFINITION = "p99_minus_min"
SURVIVAL_TIME_NS = ASPECT1.survival_time_ns
# a stream's latencies are sorted in runs of this many records, one array each
SORT_RUN = 4096


@dataclass
class LatencyStats:
    min_ns: SimTime = field(metadata={"key": "min", "ge": 0})
    p50_ns: SimTime = field(metadata={"key": "p50", "ge": 0})
    p99_ns: SimTime = field(metadata={"key": "p99", "ge": 0})
    p999_ns: SimTime = field(metadata={"key": "p999", "ge": 0})
    max_ns: SimTime = field(metadata={"key": "max", "ge": 0})


@dataclass
class StreamMetrics:
    """One stream's scoring metrics, and the schema of its `metrics.json`
    entry: the scenario walker reads and writes it under the metadata keys,
    with a None written as null. An availability is a share and every count,
    size, latency, interval and rate is at or above 0."""

    stream: str
    stream_class: StreamClass = field(metadata={"key": "class"})
    sample_count: int = field(metadata={"ge": 0})
    delivered_count: int = field(metadata={"ge": 0})
    lost_count: int = field(metadata={"ge": 0})
    in_flight_count: int = field(metadata={"ge": 0})
    observed_rate_bps: float = field(metadata={"ge": 0})
    size_min: int | None = field(metadata={"ge": 0})
    size_max: int | None = field(metadata={"ge": 0})
    latency: LatencyStats | None = field(metadata={"key": "latency_ns"})
    jitter_ns: SimTime | None = field(metadata={"ge": 0})
    max_transfer_interval_ns: SimTime | None = field(metadata={"ge": 0})
    availability: float | None = field(metadata={"ge": 0, "le": 1})
    survival_time_ns: SimTime = field(metadata={"ge": 0})
    availability_windows: int = field(default=0, metadata={"ge": 0})


def percentile(columns: Sequence[Sequence[int]], pct: float) -> int:
    """Nearest-rank percentile over sorted integer columns taken together: the
    least value with `rank` values at or below it, found by bisecting values.
    `pct` is read to a tenth of a percent, so the rank is exact in integers."""
    sampled = [c for c in columns if c]
    if not sampled:
        raise ValueError("no samples")
    permille = round(pct * 10)
    rank = max(1, -(-permille * sum(map(len, sampled)) // 1000))
    values = range(min(c[0] for c in sampled), max(c[-1] for c in sampled) + 1)
    return values[bisect_left(values, rank, key=lambda v: sum(
        bisect_right(c, v) for c in sampled))]


def _largest_gap(created: Iterable[SimTime]) -> SimTime | None:
    """The largest gap between consecutive creation instants, if two exist."""
    earlier, later = tee(created)
    next(later, None)
    return max(map(sub, later, earlier), default=None)


def _sorted_windows(columns: Sequence[Sequence[SimTime]],
                    counts: Sequence[int]) -> Iterator[list[SimTime]]:
    """The first `counts[k]` instants of each sorted `columns[k]`, merged in
    order as consecutive sorted windows. A window ends at the earliest
    instant that `step` of one column's instants in it precede, so it holds
    at most `step` + 1 instants of each column (more only where a column
    repeats that instant), about `SORT_RUN` in all."""
    step = SORT_RUN // max(len(columns), 1)
    starts = [0] * len(columns)
    while True:
        bound = min((c[i + step] for c, i, n in zip(columns, starts, counts)
                     if i + step < n), default=None)
        ends = counts if bound is None else [
            bisect_right(c, bound, i, n) for c, i, n in zip(columns, starts, counts)]
        yield sorted(chain.from_iterable(
            c[i:j] for c, i, j in zip(columns, starts, ends)))
        if bound is None:
            return
        starts = ends


@dataclass(slots=True)
class StreamFold:
    """The records created within the horizon, of one stream or of several,
    reduced to what their metrics are scored from; the folds of several
    streams join part by part."""

    sampled: list[tuple[int, int]]  # (record count, PDU size) per stream holding any
    lost: int
    latencies: list[array]  # of deliveries within the horizon, in sorted runs
    hits: int  # bit 8w set when whole survival-time window w holds a delivery
    created: list[tuple[Sequence[SimTime], int]]  # (creation column, count within)


def _score(stream: str, stream_class: StreamClass, fold: StreamFold,
           horizon_ns: SimTime) -> StreamMetrics:
    """The metrics of `fold`, scored as `stream`. The transfer interval is
    the largest gap between consecutive creations, read from the sorted
    union of the fold's creation instants."""
    sample_count = sum(k for k, _ in fold.sampled)
    latencies = fold.latencies
    delivered = sum(map(len, latencies))
    latency = LatencyStats(
        min_ns=percentile(latencies, 0.0),
        p50_ns=percentile(latencies, 50.0),
        p99_ns=percentile(latencies, 99.0),
        p999_ns=percentile(latencies, 99.9),
        max_ns=percentile(latencies, 100.0),
    ) if delivered else None
    windows = horizon_ns // SURVIVAL_TIME_NS
    bits = sum(k * size * 8 for k, size in fold.sampled)
    created = chain.from_iterable(_sorted_windows(
        [c for c, _ in fold.created], [n for _, n in fold.created]))
    return StreamMetrics(
        stream=stream,
        stream_class=stream_class,
        sample_count=sample_count,
        delivered_count=delivered,
        lost_count=fold.lost,
        in_flight_count=sample_count - delivered - fold.lost,
        observed_rate_bps=bits * 1e9 / horizon_ns if horizon_ns > 0 else 0.0,
        size_min=min((size for _, size in fold.sampled), default=None),
        size_max=max((size for _, size in fold.sampled), default=None),
        latency=latency,
        jitter_ns=None if latency is None else latency.p99_ns - latency.min_ns,
        max_transfer_interval_ns=_largest_gap(created),
        availability=fold.hits.bit_count() / windows if windows else None,
        survival_time_ns=SURVIVAL_TIME_NS,
        availability_windows=windows,
    )


def collect_stream_metrics(
    stream: TrafficProfile, records: StreamRecords, horizon_ns: SimTime,
) -> tuple[StreamMetrics, StreamFold]:
    """Fold one stream's record columns in one pass, each `SORT_RUN`
    records' latencies sorted into an array, and score the fold. The name,
    class and PDU size are the stream's, so they hold with no record too.
    Only records created within the horizon count.

    A packet whose delivery falls beyond the horizon counts as in flight:
    neither delivered nor lost at the deadline. The transfer interval is the
    sender-side gap between consecutive creations.
    """
    # creation instants never decrease, so those within the horizon lead
    created, delivered = records.created, records.delivered
    n = bisect_right(created, horizon_ns)
    runs: list[array] = []
    lost = 0
    hit = bytearray(horizon_ns // SURVIVAL_TIME_NS)  # 1 per window hit
    # deliveries in the last, partial window count for no window
    windows_end = len(hit) * SURVIVAL_TIME_NS
    latencies: list[SimTime] = []  # one run's, emptied once it is an array
    for i in range(0, n, SORT_RUN):
        for c, d in zip(created[i:min(n, i + SORT_RUN)], delivered[i:i + SORT_RUN]):
            if d == LOST:
                lost += 1
            elif d <= horizon_ns:
                latencies.append(d - c)
                if d < windows_end:
                    hit[d // SURVIVAL_TIME_NS] = 1
        latencies.sort()
        runs.append(array("q", latencies))
        latencies.clear()
    fold = StreamFold([(n, stream.payload_bytes)] if n else [], lost, runs,
                      int.from_bytes(hit, "little"), [(created, n)])
    return _score(stream.name, stream.stream_class, fold, horizon_ns), fold


def aggregate_metrics(folds: Sequence[StreamFold], horizon_ns: SimTime) -> StreamMetrics:
    """All streams merged into one pseudo-stream for aggregate assessments:
    their folds joined part by part (counts and sizes taken together, lost
    counts summed, latency runs and creation columns concatenated, window
    hits OR-ed) and scored as one."""
    joined = StreamFold([], 0, [], 0, [])
    for f in folds:
        joined.sampled += f.sampled
        joined.lost += f.lost
        joined.latencies += f.latencies
        joined.hits |= f.hits
        joined.created += f.created
    return _score("aggregate", StreamClass.NON_SAFETY_RELEVANT, joined, horizon_ns)


# -- evaluation ----------------------------------------------------------------


class ComplianceVerdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_ASSESSED = "NotAssessed"


@dataclass
class VerdictRow:
    dimension: str
    required: str
    observed: str
    verdict: ComplianceVerdict
    note: str = ""


def availability_sample_floor(profile: RequirementProfile) -> int:
    """Minimum sample count able to support the profile's availability claim."""
    return math.ceil(10.0 / (1.0 - profile.availability_min))


def _ms(ns: SimTime | None) -> str:
    return "n/a" if ns is None else f"{ns / NS_PER_MS:.3f} ms"


def _row(
    dimension: str,
    required: str,
    observed: str | None,
    ok: bool,
    missing_note: str,
) -> VerdictRow:
    """Pass or Fail by `ok`, or NotAssessed with `missing_note` when nothing
    was observed (`observed` is None, and `ok` is then ignored)."""
    if observed is None:
        return VerdictRow(
            dimension, required, "n/a", ComplianceVerdict.NOT_ASSESSED,
            note=missing_note,
        )
    verdict = ComplianceVerdict.PASS if ok else ComplianceVerdict.FAIL
    return VerdictRow(dimension, required, observed, verdict)


def evaluate(
    metrics: StreamMetrics,
    profile: RequirementProfile,
    service_area_m: tuple[float, float] | None = None,
    sample_floor: int | None = None,
) -> list[VerdictRow]:
    """Score one stream against one profile, one row per present dimension."""
    floor = sample_floor if sample_floor is not None else availability_sample_floor(
        profile
    )

    availability = metrics.availability
    required = f">= {profile.availability_min:.6%}"
    if availability is None or metrics.sample_count < floor:
        # too few samples to support the claim, even when a value was measured
        rows = [
            VerdictRow(
                "availability",
                required,
                "n/a" if availability is None else f"{availability:.6%}",
                ComplianceVerdict.NOT_ASSESSED,
                note=(
                    f"sample count {metrics.sample_count} below the "
                    f"{floor} needed to support a claim at this scale"
                ),
            )
        ]
    else:
        ok = availability >= profile.availability_min
        rows = [_row("availability", required, f"{availability:.6%}", ok, "")]

    if profile.latency_target_ns is not None:
        target = profile.latency_target_ns
        latency = metrics.latency
        rows.append(
            _row(
                "latency",
                f"p99.9 < {_ms(target)}",
                None if latency is None else _ms(latency.p999_ns),
                latency is not None and latency.p999_ns < target,
                "no delivered samples",
            )
        )

    if profile.jitter_max_ns is not None:
        jitter = metrics.jitter_ns
        rows.append(
            _row(
                "jitter",
                f"< {_ms(profile.jitter_max_ns)}",
                None if jitter is None else _ms(jitter),
                jitter is not None and jitter < profile.jitter_max_ns,
                "no delivered samples",
            )
        )

    if profile.service_data_rate_min_bps is not None:
        rate = metrics.observed_rate_bps
        sampled = metrics.sample_count > 0
        rows.append(
            _row(
                "service_data_rate",
                f"> {profile.service_data_rate_min_bps / 1e6:.2f} Mbit/s",
                f"{rate / 1e6:.3f} Mbit/s" if sampled else None,
                rate > profile.service_data_rate_min_bps,
                "no samples",
            )
        )

    if profile.message_size_range is not None:
        lo, hi = profile.message_size_range
        size_min, size_max = metrics.size_min, metrics.size_max
        sampled = size_min is not None
        rows.append(
            _row(
                "message_size",
                f"[{lo}, {hi}] B",
                f"[{size_min}, {size_max}] B" if sampled else None,
                sampled and size_min >= lo and size_max <= hi,
                "no samples",
            )
        )

    if profile.transfer_interval_max_ns is not None:
        interval = metrics.max_transfer_interval_ns
        rows.append(
            _row(
                "transfer_interval",
                f"<= {_ms(profile.transfer_interval_max_ns)}",
                None if interval is None else _ms(interval),
                interval is not None and interval <= profile.transfer_interval_max_ns,
                "fewer than two samples",
            )
        )

    if profile.service_area_m is not None:
        w_max, d_max = profile.service_area_m
        area = service_area_m
        rows.append(
            _row(
                "service_area",
                f"max {w_max:.0f} m x {d_max:.0f} m",
                None if area is None else f"{area[0]:.0f} m x {area[1]:.0f} m",
                area is not None and area[0] <= w_max and area[1] <= d_max,
                "no area configured",
            )
        )

    return rows


@dataclass
class ReportEntry:
    stream: str
    profile: str
    rows: list[VerdictRow]


@dataclass
class ComplianceReport:
    """Verdict rows per (stream, profile), plus the scoring conventions used,
    and the schema of `compliance.json`, written by the scenario walker."""

    service_area_m: tuple[float, float] | None
    jitter_definition: str = JITTER_DEFINITION
    entries: list[ReportEntry] = field(default_factory=list)

    def add(
        self,
        metrics: StreamMetrics,
        profile: RequirementProfile,
        sample_floor: int | None = None,
    ) -> None:
        rows = evaluate(metrics, profile, self.service_area_m, sample_floor)
        self.entries.append(ReportEntry(metrics.stream, profile.name, rows))

    def score(self, streams: dict[str, StreamMetrics], aggregate: StreamMetrics | None,
              profile: RequirementProfile, selection: str,
              sample_floor: int | None) -> None:
        """Score the `selection` ("safety", "aggregate" or "all") of a run's
        metrics against `profile`: each selected stream in name order, then
        the aggregate unless only safety streams are selected."""
        for name in sorted(streams):
            metrics = streams[name]
            if selection == "all" or selection == "safety" and (
                    metrics.stream_class is StreamClass.SAFETY_RELEVANT):
                self.add(metrics, profile, sample_floor)
        if selection != "safety":
            if aggregate is None:
                raise ConfigInvalid("aggregate: required key is missing")
            self.add(aggregate, profile, sample_floor)

    def verdict_counts(self) -> dict[str, int]:
        """The number of rows of each verdict, keyed "pass", "fail" and
        "not_assessed"."""
        counts = Counter(row.verdict for e in self.entries for row in e.rows)
        return {v.name.lower(): counts[v] for v in ComplianceVerdict}

    def render_table(self) -> str:
        lines = [
            f"jitter definition: {self.jitter_definition}",
            f"service area: "
            + (
                f"{self.service_area_m[0]:.0f} m x {self.service_area_m[1]:.0f} m"
                if self.service_area_m
                else "n/a"
            ),
            "",
        ]
        header = f"{'stream':28} {'profile':8} {'dimension':18} {'required':26} {'observed':22} verdict"
        lines.append(header)
        lines.append("-" * len(header))
        for e in self.entries:
            for row in e.rows:
                line = (
                    f"{e.stream:28} {e.profile:8} {row.dimension:18} "
                    f"{row.required:26} {row.observed:22} {row.verdict.value}"
                )
                if row.note:
                    line += f"  ({row.note})"
                lines.append(line)
        return "\n".join(lines) + "\n"
