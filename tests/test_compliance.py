from __future__ import annotations

import math
import random
from array import array
from dataclasses import fields, replace
from fractions import Fraction
from itertools import chain, pairwise

import pytest

from fablink import compliance
from fablink.compliance import (
    ASPECT1,
    ASPECT2,
    ComplianceReport,
    ComplianceVerdict,
    LatencyStats,
    SURVIVAL_TIME_NS,
    StreamMetrics,
    aggregate_metrics,
    PROFILES,
    SORT_RUN,
    availability_sample_floor,
    collect_stream_metrics,
    evaluate,
    percentile,
)
from fablink.scenario import ConfigInvalid, schema_to_dict
from fablink.sim_core import NS_PER_MS
from fablink.traffic import LOST, StreamClass, TrafficProfile
from record_rows import PacketRecord, columns, packet_rows


def test_profiles_are_the_two_aspects_each_with_its_streams():
    assert PROFILES == {"aspect1": ASPECT1, "aspect2": ASPECT2}
    assert (ASPECT1.streams, ASPECT2.streams) == ("safety", "aggregate")


def test_aspect1_values():
    p = ASPECT1
    assert p.availability_min == 0.999999
    assert p.availability_max == 0.99999999
    assert p.latency_target_ns == 12 * NS_PER_MS
    assert p.jitter_max_ns == 6 * NS_PER_MS
    assert p.service_data_rate_min_bps is None  # blank cell
    assert p.message_size_range == (40, 250)
    assert p.transfer_interval_max_ns == 12 * NS_PER_MS
    assert p.survival_time_ns == 12 * NS_PER_MS
    assert p.service_area_m == (200.0, 300.0)


def test_aspect2_values_and_blank_cells():
    p = ASPECT2
    assert p.latency_target_ns == 30 * NS_PER_MS
    assert p.jitter_max_ns == 15 * NS_PER_MS
    assert p.service_data_rate_min_bps == 5e6
    # blank cells stay absent rather than inheriting aspect 1 values
    assert p.message_size_range is None
    assert p.transfer_interval_max_ns is None
    assert p.survival_time_ns is None
    assert p.service_area_m is None


def _metrics(**overrides) -> StreamMetrics:
    base = StreamMetrics(
        stream="safety_stream",
        stream_class=StreamClass.SAFETY_RELEVANT,
        sample_count=14772,
        delivered_count=14772,
        lost_count=0,
        in_flight_count=0,
        observed_rate_bps=118_171.2,
        size_min=60,
        size_max=64,
        latency=LatencyStats(
            min_ns=225_000, p50_ns=280_000, p99_ns=349_000, p999_ns=350_000,
            max_ns=350_000,
        ),
        jitter_ns=124_000,
        max_transfer_interval_ns=4_062_000,
        availability=1.0,
        availability_windows=5000,
        survival_time_ns=12 * NS_PER_MS,
    )
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


def _verdicts(rows):
    return {row.dimension: row.verdict for row in rows}


def test_row_count_matches_present_dimensions():
    # survival time parameterizes the availability measurement rather than
    # producing its own verdict row
    rows1 = evaluate(_metrics(), ASPECT1, service_area_m=(20.0, 20.0))
    assert [r.dimension for r in rows1] == [
        "availability", "latency", "jitter", "message_size",
        "transfer_interval", "service_area",
    ]
    rows2 = evaluate(_metrics(), ASPECT2, service_area_m=(20.0, 20.0))
    assert [r.dimension for r in rows2] == [
        "availability", "latency", "jitter", "service_data_rate",
    ]


def test_safety_sizes_pass_aspect1_range():
    rows = evaluate(_metrics(size_min=60, size_max=64), ASPECT1, (20.0, 20.0))
    assert _verdicts(rows)["message_size"] is ComplianceVerdict.PASS


def test_oversized_messages_fail_aspect1_range():
    rows = evaluate(_metrics(size_min=60, size_max=1400), ASPECT1, (20.0, 20.0))
    assert _verdicts(rows)["message_size"] is ComplianceVerdict.FAIL


def test_prototype_area_fits_aspect1():
    rows = evaluate(_metrics(), ASPECT1, service_area_m=(20.0, 20.0))
    assert _verdicts(rows)["service_area"] is ComplianceVerdict.PASS
    rows = evaluate(_metrics(), ASPECT1, service_area_m=(250.0, 100.0))
    assert _verdicts(rows)["service_area"] is ComplianceVerdict.FAIL


def test_aggregate_rate_passes_aspect2():
    m = _metrics(observed_rate_bps=5.97e6, stream_class=StreamClass.NON_SAFETY_RELEVANT)
    rows = evaluate(m, ASPECT2, (20.0, 20.0))
    assert _verdicts(rows)["service_data_rate"] is ComplianceVerdict.PASS
    m = _metrics(observed_rate_bps=4.2e6)
    rows = evaluate(m, ASPECT2, (20.0, 20.0))
    assert _verdicts(rows)["service_data_rate"] is ComplianceVerdict.FAIL


def test_availability_not_assessed_below_sample_floor():
    # the claim scale needs 10 / (1 - 0.999999) = 1e7 samples
    assert availability_sample_floor(ASPECT1) == 10_000_000
    rows = evaluate(_metrics(sample_count=14772), ASPECT1, (20.0, 20.0))
    row = next(r for r in rows if r.dimension == "availability")
    assert row.verdict is ComplianceVerdict.NOT_ASSESSED
    assert "sample count" in row.note


def test_availability_with_no_whole_window_says_so_whatever_the_floor():
    # a horizon under one survival time holds no window to score, so the
    # note names the horizon, not the sample count, even at a floor of 1
    for floor in (1, None):
        rows = evaluate(_metrics(availability=None, availability_windows=0),
                        ASPECT1, (20.0, 20.0), sample_floor=floor)
        assert (rows[0].dimension, rows[0].observed, rows[0].verdict, rows[0].note) == (
            "availability", "n/a", ComplianceVerdict.NOT_ASSESSED,
            "no whole survival-time window fits in the horizon")


def test_availability_assessed_with_enough_samples():
    m = _metrics(sample_count=20_000_000, availability=0.99999)
    rows = evaluate(m, ASPECT1, (20.0, 20.0))
    row = next(r for r in rows if r.dimension == "availability")
    assert row.verdict is ComplianceVerdict.FAIL  # below 99.9999%
    m = _metrics(sample_count=20_000_000, availability=0.9999995)
    row = next(
        r for r in evaluate(m, ASPECT1, (20.0, 20.0))
        if r.dimension == "availability"
    )
    assert row.verdict is ComplianceVerdict.PASS


def test_empty_metrics_yield_not_assessed_rows():
    empty = StreamMetrics(
        stream="empty",
        stream_class=StreamClass.NON_SAFETY_RELEVANT,
        sample_count=0,
        delivered_count=0,
        lost_count=0,
        in_flight_count=0,
        observed_rate_bps=0.0,
        size_min=None,
        size_max=None,
        latency=None,
        jitter_ns=None,
        max_transfer_interval_ns=None,
        availability=None,
        survival_time_ns=12 * NS_PER_MS,
    )
    rows = evaluate(empty, ASPECT1, service_area_m=None)
    assert all(
        r.verdict is ComplianceVerdict.NOT_ASSESSED
        for r in rows
        if r.dimension != "service_area"
    )
    rows2 = evaluate(empty, ASPECT2, service_area_m=None)
    assert all(r.verdict is ComplianceVerdict.NOT_ASSESSED for r in rows2)


def test_improving_metrics_never_flips_pass_to_fail():
    rng = random.Random(31)
    for _ in range(300):
        latency = sorted(rng.randrange(100_000, 40 * NS_PER_MS) for _ in range(5))
        m = _metrics(
            latency=LatencyStats(*latency),
            jitter_ns=latency[2] - latency[0],
            observed_rate_bps=rng.uniform(1e5, 1e7),
            max_transfer_interval_ns=rng.randrange(1, 30 * NS_PER_MS),
        )
        better = _metrics(
            latency=LatencyStats(*[max(1, v - rng.randrange(0, 50_000)) for v in latency]),
            jitter_ns=max(0, m.jitter_ns - rng.randrange(0, 50_000)),
            observed_rate_bps=m.observed_rate_bps * 1.1,
            max_transfer_interval_ns=max(1, m.max_transfer_interval_ns - 1000),
        )
        for profile in (ASPECT1, ASPECT2):
            before = _verdicts(evaluate(m, profile, (20.0, 20.0)))
            after = _verdicts(evaluate(better, profile, (20.0, 20.0)))
            for dim, verdict in before.items():
                if verdict is ComplianceVerdict.PASS:
                    assert after[dim] is ComplianceVerdict.PASS, dim


def _nearest_rank(pct, n):
    """The nearest rank, ceil(pct / 100 * n), in exact decimal arithmetic."""
    return max(1, math.ceil(Fraction(str(pct)) / 100 * n))


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile([values], 50.0) == 50
    assert percentile([values], 99.0) == 99
    assert percentile([values], 99.9) == 100
    assert percentile([[7]], 99.9) == 7
    # 99.9 / 100 is 0.9990000000000001 in floats, one rank high at n = 1000
    assert percentile([range(1, 1001)], 99.9) == 999
    assert percentile([range(1, 2001)], 99.9) == 1998


@pytest.mark.parametrize("seed", range(30))
def test_percentile_over_sorted_columns_is_nearest_rank_on_their_union(seed):
    rng = random.Random(seed)
    # narrow value ranges repeat values within and across columns; the widest
    # passes 32 bits, so a column is a list or a run of 64-bit items, or of
    # 32-bit ones where its values fit, as a stream's latency runs are
    columns = [sorted(rng.choices(range(-3, rng.choice([-2, 4, 1000, 10**9, 3 * 10**9])),
                                  k=rng.choice([0, 0, 1, 2, 7, 300])))
               for _ in range(rng.randint(1, 6))]
    columns = [rng.choice([c, array("q", c), array(
        "i" if max(c, default=0) < 2**31 else "q", c)]) for c in columns]
    union = sorted(chain.from_iterable(columns))
    if not union:
        with pytest.raises(ValueError):
            percentile(columns, 50.0)
        return
    # percentiles are read to a tenth of a percent
    for pct in (0.0, 0.1, 1.0, 50.0, 99.0, 99.9, 100.0, rng.randrange(1001) / 10):
        want = union[_nearest_rank(pct, len(union)) - 1]
        assert percentile(columns, pct) == want, pct
        assert percentile([union], pct) == want, pct


def _stream(created_and_delivered, size=60, name="s",
            stream_class=StreamClass.SAFETY_RELEVANT):
    """A stream of `size`-byte packets, each sent when created, and its
    record columns."""
    profile = TrafficProfile(name, stream_class=stream_class, payload_bytes=size)
    return profile, columns((c, c, d) for c, d in created_and_delivered)


def test_collect_stream_metrics_basics():
    horizon = 100 * NS_PER_MS
    stream, records = _stream(
        [
            (0, 1 * NS_PER_MS),
            (10 * NS_PER_MS, 11 * NS_PER_MS),
            (20 * NS_PER_MS, None),  # lost
            (30 * NS_PER_MS, 31 * NS_PER_MS),
            (99 * NS_PER_MS, 101 * NS_PER_MS),  # delivers past the horizon
        ]
    )
    m, _ = collect_stream_metrics(stream, records, horizon)
    assert m.sample_count == 5
    assert m.delivered_count == 3
    assert m.lost_count == 1
    assert m.in_flight_count == 1
    assert m.sample_count == m.delivered_count + m.lost_count + m.in_flight_count
    # a stream's records all have its PDU size
    assert m.size_min == m.size_max == 60
    assert m.max_transfer_interval_ns == 69 * NS_PER_MS
    assert m.latency.min_ns == 1 * NS_PER_MS
    assert 0.0 < m.availability < 1.0
    assert m.availability_windows == 8  # floor(100 / 12)


def test_aggregate_metrics_fold_all_streams():
    horizon = 10 * NS_PER_MS
    streams = [_stream([row], size, name)
               for name, row, size in (("a", (0, NS_PER_MS), 60),
                                       ("b", (NS_PER_MS, 2 * NS_PER_MS), 1400))]
    folds = [collect_stream_metrics(p, recs, horizon)[1] for p, recs in streams]
    m = aggregate_metrics(folds, horizon)
    assert m.stream == "aggregate"
    assert m.sample_count == 2
    assert m.size_min == 60 and m.size_max == 1400
    assert m.max_transfer_interval_ns == NS_PER_MS


def _full_sort_stats(latencies):
    """The latency stats of one sort of every latency, at their nearest ranks."""
    ordered = sorted(latencies)
    return LatencyStats(*(ordered[_nearest_rank(pct, len(ordered)) - 1]
                          for pct in (0.0, 50.0, 99.0, 99.9, 100.0)))


@pytest.mark.parametrize("n", [SORT_RUN - 1, SORT_RUN, 2 * SORT_RUN + 1])
def test_latencies_sorted_in_runs_give_the_stats_of_one_full_sort(n):
    # fewer deliveries than one run, exactly one run, and two runs plus one:
    # `a` delivers every record within the horizon, while `b` loses some and
    # delivers others past it, so its runs hold fewer latencies than records
    rng = random.Random(n)
    horizon = (n + 10) * NS_PER_MS
    a = _stream([(k * NS_PER_MS, k * NS_PER_MS + rng.randrange(1, 10**7))
                 for k in range(n)], name="a")
    b = _stream([(k * NS_PER_MS, None if rng.random() < 0.1
                  else k * NS_PER_MS + rng.randrange(1, 50 * NS_PER_MS))
                 for k in range(n)], name="b")
    scored = [collect_stream_metrics(p, recs, horizon) for p, recs in (a, b)]
    folds = [fold for _, fold in scored]
    delivered = [[d - c for c, d in zip(recs.created, recs.delivered)
                  if d != LOST and d <= horizon] for _, recs in (a, b)]
    assert [len(run) for run in folds[0].latencies] == (
        [n] if n <= SORT_RUN else [SORT_RUN, SORT_RUN, 1])
    for (metrics, fold), latencies in zip(scored, delivered):
        # every latency here is below 2^31 ns, so each run holds 32-bit items
        assert all(run.typecode == "i" and list(run) == sorted(run)
                   for run in fold.latencies)
        assert metrics.delivered_count == len(latencies)
        assert metrics.latency == _full_sort_stats(latencies)
    assert len(delivered[1]) < n and len(folds[1].latencies) == len(folds[0].latencies)
    assert aggregate_metrics(folds, horizon).latency == _full_sort_stats(
        delivered[0] + delivered[1])


def test_report_counts_and_schema():
    report = ComplianceReport(service_area_m=(20.0, 20.0))
    report.add(_metrics(), ASPECT1)
    # too few samples to assess availability
    assert report.verdict_counts() == {"pass": 5, "fail": 0, "not_assessed": 1}
    report.add(_metrics(observed_rate_bps=1.0), ASPECT2)
    assert report.verdict_counts() == {"pass": 7, "fail": 1, "not_assessed": 2}
    doc = schema_to_dict(report)
    assert doc["jitter_definition"] == "p99_minus_min"
    assert doc["service_area_m"] == [20.0, 20.0]
    assert [(e["stream"], e["profile"]) for e in doc["entries"]] == [
        ("safety_stream", "aspect1"), ("safety_stream", "aspect2")]
    assert doc["entries"][1]["rows"][3] == {
        "dimension": "service_data_rate", "required": "> 5.00 Mbit/s",
        "observed": "0.000 Mbit/s", "verdict": "Fail", "note": ""}
    table = report.render_table()
    assert "service_data_rate" in table and "Fail" in table


@pytest.mark.parametrize("selection, entries", [
    ("safety", [("a", "aspect1"), ("c", "aspect1")]),
    ("aggregate", [("aggregate", "aspect1")]),
    ("all", [("a", "aspect1"), ("b", "aspect1"), ("c", "aspect1"),
             ("aggregate", "aspect1")]),
])
def test_score_selects_streams_in_name_order_then_the_aggregate(selection, entries):
    safety, other = StreamClass.SAFETY_RELEVANT, StreamClass.NON_SAFETY_RELEVANT
    streams = {name: _metrics(stream=name, stream_class=cls)
               for name, cls in (("c", safety), ("b", other), ("a", safety))}
    report = ComplianceReport(service_area_m=None)
    report.score(streams, _metrics(stream="aggregate"), ASPECT1, selection, None)
    assert [(e.stream, e.profile) for e in report.entries] == entries
    if selection != "safety":
        with pytest.raises(ConfigInvalid, match="^aggregate: required key"):
            ComplianceReport(None).score(streams, None, ASPECT1, selection, None)


# -- one-pass fold against the multi-pass reference ----------------------------


def _reference_stream_metrics(stream, stream_class, records, horizon_ns):
    """The multi-pass fold the one-pass `collect_stream_metrics` replaced, kept
    as the reference: about ten passes over the records of one stream."""
    window = SURVIVAL_TIME_NS
    records = [r for r in records if r.created_at <= horizon_ns]
    delivered = [
        r for r in records
        if r.delivered_at is not None and r.delivered_at <= horizon_ns
    ]
    lost = sum(r.delivered_at is None for r in records)
    bits = sum(r.size_bytes * 8 for r in records)
    latencies = sorted(r.delivered_at - r.created_at for r in delivered)

    def nearest_rank(pct):
        return latencies[_nearest_rank(pct, len(latencies)) - 1]

    latency = LatencyStats(
        min_ns=latencies[0],
        p50_ns=nearest_rank(50.0),
        p99_ns=nearest_rank(99.0),
        p999_ns=nearest_rank(99.9),
        max_ns=latencies[-1],
    ) if latencies else None
    windows = horizon_ns // window
    hit = {w for r in delivered if (w := r.delivered_at // window) < windows}
    return StreamMetrics(
        stream=stream,
        stream_class=stream_class,
        sample_count=len(records),
        delivered_count=len(delivered),
        lost_count=lost,
        in_flight_count=len(records) - len(delivered) - lost,
        observed_rate_bps=bits * 1e9 / horizon_ns if horizon_ns > 0 else 0.0,
        size_min=min((r.size_bytes for r in records), default=None),
        size_max=max((r.size_bytes for r in records), default=None),
        latency=latency,
        jitter_ns=None if latency is None else latency.p99_ns - latency.min_ns,
        max_transfer_interval_ns=max(
            (b.created_at - a.created_at for a, b in pairwise(records)), default=None),
        availability=len(hit) / windows if windows else None,
        survival_time_ns=window,
        availability_windows=windows,
    )


def _reference_aggregate(records, horizon_ns):
    """The reference aggregate: every record, in creation order, re-read."""
    return _reference_stream_metrics(
        "aggregate", StreamClass.NON_SAFETY_RELEVANT, records, horizon_ns)


def _random_run(rng, n_records, n_streams):
    """Records of interleaved streams in creation order, as a run appends
    them: some lost, some delivered late, and creation instants that collide
    across streams. Horizons inside the run leave some records created or
    delivered after them. Returns the records and each stream's profile."""
    classes = list(StreamClass)
    streams = [TrafficProfile(f"s{i}", stream_class=rng.choice(classes),
                              payload_bytes=rng.choice([40, 60, 64, 1400])
                              + rng.choice([0, 0, 8]))
               for i in range(n_streams)]
    seqs = [0] * n_streams
    records = []
    t = 0
    for _ in range(n_records):
        t += rng.choice([0, 0, 1, 250_000, 3 * NS_PER_MS, 20 * NS_PER_MS])
        i = rng.randrange(n_streams)
        stream = streams[i]
        roll = rng.random()
        if roll < 0.15:
            delivered = None
        elif roll < 0.25:
            delivered = t + rng.randrange(30 * NS_PER_MS)  # may pass the horizon
        else:
            delivered = t + rng.randrange(1, 2 * NS_PER_MS)
        records.append(PacketRecord(stream.name, seqs[i], t, stream.payload_bytes, t,
                                    delivered))
        seqs[i] += 1
    return records, {p.name: p for p in streams}


def _assert_same_metrics(got, want):
    for f in fields(StreamMetrics):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def _by_stream(records):
    groups = {}
    for r in records:
        groups.setdefault(r.stream, []).append(r)
    return groups


def _columns(records):
    return columns((r.created_at, r.sent_at, r.delivered_at) for r in records)


def _scored(records, streams, horizon_ns):
    """Each stream's metrics and fold, by name."""
    return {name: collect_stream_metrics(streams[name], _columns(recs), horizon_ns)
            for name, recs in _by_stream(records).items()}


@pytest.mark.parametrize("seed", range(40))
def test_one_pass_fold_equals_multi_pass_reference(seed):
    rng = random.Random(seed)
    n_records = rng.choice([0, 1, 2, 5, 50, 400])
    records, streams = _random_run(rng, n_records, rng.randint(1, 5))
    last = records[-1].created_at if records else 0
    # horizons before, inside and after the run, and shorter than one window
    horizon_ns = rng.choice([
        0, 5 * NS_PER_MS, last // 2, last, last + 7 * NS_PER_MS,
        rng.randrange(last + 1),
    ])
    scored = _scored(records, streams, horizon_ns)
    for name, recs in _by_stream(records).items():
        metrics, fold = scored[name]
        _assert_same_metrics(metrics, _reference_stream_metrics(
            name, streams[name].stream_class, recs, horizon_ns))
        # one stream's fold, scored as the aggregate, is that stream's metrics
        _assert_same_metrics(aggregate_metrics([fold], horizon_ns), replace(
            metrics, stream="aggregate", stream_class=StreamClass.NON_SAFETY_RELEVANT))
    _assert_same_metrics(aggregate_metrics([f for _, f in scored.values()], horizon_ns),
                         _reference_aggregate(records, horizon_ns))


def test_fold_of_no_records_and_of_one():
    horizon = 100 * NS_PER_MS
    safety = StreamClass.SAFETY_RELEVANT
    _assert_same_metrics(collect_stream_metrics(*_stream([]), horizon)[0],
                         _reference_stream_metrics("s", safety, [], horizon))
    _assert_same_metrics(aggregate_metrics([], horizon),
                         _reference_aggregate([], horizon))
    for delivered in (None, 2 * NS_PER_MS, 200 * NS_PER_MS):
        stream, records = _stream([(NS_PER_MS, delivered)])
        one = packet_rows(stream, records)
        metrics, fold = collect_stream_metrics(stream, records, horizon)
        _assert_same_metrics(metrics,
                             _reference_stream_metrics("s", safety, one, horizon))
        _assert_same_metrics(aggregate_metrics([fold], horizon),
                             _reference_aggregate(one, horizon))


@pytest.mark.parametrize("sort_run", [1, 2, 9])
def test_the_aggregate_reads_its_creation_gap_window_by_window(monkeypatch, sort_run):
    # windows of a few instants, so a run of a few hundred records spans many;
    # a run sorts its latencies in runs of the same size, and each stream
    # reads its own creation gap through windows of its own
    monkeypatch.setattr(compliance, "SORT_RUN", sort_run)
    for seed in range(20):
        rng = random.Random(seed)
        records, streams = _random_run(rng, rng.choice([2, 50, 400]), rng.randint(1, 5))
        last = records[-1].created_at
        horizon_ns = rng.choice([last // 2, last, last + 7 * NS_PER_MS])
        scored = _scored(records, streams, horizon_ns)
        for name, recs in _by_stream(records).items():
            _assert_same_metrics(scored[name][0], _reference_stream_metrics(
                name, streams[name].stream_class, recs, horizon_ns))
        folds = [f for _, f in scored.values()]
        _assert_same_metrics(aggregate_metrics(folds, horizon_ns),
                             _reference_aggregate(records, horizon_ns))
        created = [pair for f in folds for pair in f.created]
        windows = list(compliance._sorted_windows(
            [c for c, _ in created], [n for _, n in created]))
        assert list(chain.from_iterable(windows)) == sorted(
            r.created_at for r in records if r.created_at <= horizon_ns)
        # a window holds `step` + 1 distinct instants of each column at most
        step = sort_run // len(created)
        assert all(len(set(w)) <= len(created) * (step + 1) for w in windows)
