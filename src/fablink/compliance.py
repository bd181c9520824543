"""Compliance scoring of per-stream metrics against Rel-16 factory use-case
requirement profiles (aspects 1 and 2 of the mobile-control-panel use case).

Jitter is scored as (p99 - min) latency; latency uses p99.9 so one outlier
cannot dominate the verdict. Availability is the fraction of survival-time
windows (aspect 1's 12 ms) containing at least one delivery, and is reported
NotAssessed unless the sample count can statistically support the claimed
scale (at least 10 / (1 - availability_min) packets), or when the horizon
holds no whole window. Every other bounded dimension is one row of the
`DIMENSIONS` table; `RequirementProfile.requirements` words a profile's
bounds from it, for both `evaluate` and `fablink profiles`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, tee
from operator import gt, le, lt, sub
from typing import Any, Callable, Iterable, Iterator, Sequence

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

    def requirements(self) -> list[tuple[str, str]]:
        """(dimension, requirement text) of availability and of each
        `DIMENSIONS` entry this profile bounds: the rows `evaluate` scores."""
        return [("availability", f">= {self.availability_min:.6%}"), *(
            (d.name, d.required(b)) for d in DIMENSIONS.values()
            if (b := getattr(self, d.profile_field)) is not None)]


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
# a stream's latencies are sorted in runs of this many records, one array
# each, of 32-bit items where the run's largest latency fits, else 64-bit
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
    reduced to what their metrics are scored from (32- or 64-bit latency
    runs); the folds of several streams join part by part."""

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
        runs.append(array("q" if latencies and latencies[-1] >= 2**31 else "i",
                          latencies))
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


def _ms(ns: SimTime) -> str:
    return f"{ns / NS_PER_MS:.3f} ms"


def _area(area: tuple[float, float]) -> str:
    return f"{area[0]:.0f} m x {area[1]:.0f} m"


def _sizes(sizes: tuple[int, int]) -> str:
    return f"[{sizes[0]}, {sizes[1]}] B"


@dataclass(frozen=True)
class Dimension:
    """One bounded requirement dimension: the profile field holding its
    bound (None there leaves it unbounded), the requirement text of a bound,
    the observed value read from a stream's metrics or the report's service
    area (None when nothing was observed) and its text, the pass test of a
    value against the bound, and the note of a row with nothing observed."""

    name: str
    profile_field: str
    required: Callable[[Any], str]
    observe: Callable[[StreamMetrics, tuple[float, float] | None], Any]
    shown: Callable[[Any], str]
    passes: Callable[[Any, Any], bool]
    missing_note: str


# The bounded dimensions, in row order; availability, with its sample floor,
# leads every profile's rows outside this table.
DIMENSIONS = {d.name: d for d in (
    Dimension("latency", "latency_target_ns", lambda b: f"p99.9 < {_ms(b)}",
              lambda m, _: None if m.latency is None else m.latency.p999_ns,
              _ms, lt, "no delivered samples"),
    Dimension("jitter", "jitter_max_ns", lambda b: f"< {_ms(b)}",
              lambda m, _: m.jitter_ns, _ms, lt, "no delivered samples"),
    Dimension("service_data_rate", "service_data_rate_min_bps",
              lambda b: f"> {b / 1e6:.2f} Mbit/s",
              lambda m, _: m.observed_rate_bps if m.sample_count else None,
              lambda r: f"{r / 1e6:.3f} Mbit/s", gt, "no samples"),
    Dimension("message_size", "message_size_range", _sizes,
              lambda m, _: None if m.size_min is None else (m.size_min, m.size_max),
              _sizes, lambda s, r: r[0] <= s[0] and s[1] <= r[1], "no samples"),
    Dimension("transfer_interval", "transfer_interval_max_ns", lambda b: f"<= {_ms(b)}",
              lambda m, _: m.max_transfer_interval_ns, _ms, le,
              "fewer than two samples"),
    Dimension("service_area", "service_area_m", lambda b: f"max {_area(b)}",
              lambda _, area: area, _area,
              lambda a, b: a[0] <= b[0] and a[1] <= b[1], "no area configured"),
)}


def evaluate(
    metrics: StreamMetrics,
    profile: RequirementProfile,
    service_area_m: tuple[float, float] | None = None,
    sample_floor: int | None = None,
) -> list[VerdictRow]:
    """Score one stream against one profile: the availability row, then one
    row per dimension the profile bounds, in `requirements()` order."""
    floor = availability_sample_floor(profile) if sample_floor is None else sample_floor
    (_, required), *bounded = profile.requirements()
    availability = metrics.availability
    if availability is None:
        rows = [VerdictRow("availability", required, "n/a",
                           ComplianceVerdict.NOT_ASSESSED,
                           "no whole survival-time window fits in the horizon")]
    elif metrics.sample_count < floor:  # too few samples to support the claim
        rows = [VerdictRow("availability", required, f"{availability:.6%}",
                           ComplianceVerdict.NOT_ASSESSED,
                           f"sample count {metrics.sample_count} below the {floor} "
                           "needed to support a claim at this scale")]
    else:
        rows = [VerdictRow("availability", required, f"{availability:.6%}",
                           _verdict(availability >= profile.availability_min))]
    for name, required in bounded:
        dim = DIMENSIONS[name]
        value = dim.observe(metrics, service_area_m)
        if value is None:
            rows.append(VerdictRow(name, required, "n/a",
                                   ComplianceVerdict.NOT_ASSESSED, dim.missing_note))
        else:
            ok = dim.passes(value, getattr(profile, dim.profile_field))
            rows.append(VerdictRow(name, required, dim.shown(value), _verdict(ok)))
    return rows


def _verdict(ok: bool) -> ComplianceVerdict:
    return ComplianceVerdict.PASS if ok else ComplianceVerdict.FAIL


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
        area = self.service_area_m
        lines = [
            f"jitter definition: {self.jitter_definition}",
            f"service area: {_area(area) if area else 'n/a'}",
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
