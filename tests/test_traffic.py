from __future__ import annotations

import math
import random

import pytest

from fablink.sim_core import NS_PER_S, RngStream
from fablink.traffic import (
    MEASURED_TOTAL_RATE_BPS,
    Pattern,
    StreamClass,
    StreamRecords,
    TrafficProfile,
    emission_times,
    measured_catalog,
    merge_records,
)

# (source, destination, protocol, bytes, Hz, class) as measured on the plant
MEASURED_ROWS = [
    ("Hilscher", "PhoenixC", "PNIO", 60, 246.19, StreamClass.SAFETY_RELEVANT),
    ("Hilscher", "PN-MC", "PN-DCP", 60, 0.51, StreamClass.NETWORK_ORGANIZATION),
    ("PhoenixC", "PN-MC", "PN-DCP", 60, 1.36, StreamClass.NETWORK_ORGANIZATION),
    ("PhoenixC", "Hilscher", "PNIO", 64, 246.19, StreamClass.SAFETY_RELEVANT),
    ("PhoenixC", "LLDP MC", "LLDP", 212, 0.17, StreamClass.NETWORK_ORGANIZATION),
    ("PhoenixC", "LLDP MC", "PN-PTCP", 60, 4.94, StreamClass.NETWORK_ORGANIZATION),
]


def test_catalog_contains_the_measured_rows_verbatim():
    catalog = measured_catalog()
    keyed = {(p.source, p.destination, p.protocol_label): p for p in catalog}
    for src, dst, proto, size, rate, cls in MEASURED_ROWS:
        p = keyed[(src, dst, proto)]
        assert p.payload_bytes == size
        assert p.rate_hz == rate
        assert p.stream_class is cls


def test_catalog_class_partition():
    catalog = measured_catalog()
    by_class = {cls: 0 for cls in StreamClass}
    for p in catalog:
        by_class[p.stream_class] += 1
    assert by_class[StreamClass.SAFETY_RELEVANT] == 2  # the two PNIO rows
    assert by_class[StreamClass.NETWORK_ORGANIZATION] == 4
    assert by_class[StreamClass.NON_SAFETY_RELEVANT] == 3  # camera streams


def test_safety_pair_bitrate_arithmetic():
    # oracle: 246.19 Hz x (60 + 64) B x 8 = 244220.48 bit/s
    catalog = measured_catalog()
    safety_bps = sum(
        p.bitrate_bps
        for p in catalog
        if p.stream_class is StreamClass.SAFETY_RELEVANT
    )
    assert math.isclose(safety_bps, 244_220.48, rel_tol=1e-12)


def test_camera_residual_tops_up_to_the_measured_total():
    catalog = measured_catalog()
    total = sum(p.bitrate_bps for p in catalog)
    assert math.isclose(total, MEASURED_TOTAL_RATE_BPS, rel_tol=1e-9)
    # oracle: spreadsheet sum of the measured rows -> camera residual
    row_bps = sum(size * 8 * rate for _, _, _, size, rate, _ in MEASURED_ROWS)
    camera_bps = sum(
        p.bitrate_bps
        for p in catalog
        if p.stream_class is StreamClass.NON_SAFETY_RELEVANT
    )
    assert math.isclose(camera_bps, 5.97e6 - row_bps, rel_tol=1e-9)
    assert math.isclose(row_bps, 247_777.6, rel_tol=1e-12)


def test_safety_payloads_within_profile_size_range():
    for p in measured_catalog():
        if p.stream_class is StreamClass.SAFETY_RELEVANT:
            assert 40 <= p.payload_bytes <= 250


def test_catalog_rejects_total_below_measured_rows():
    with pytest.raises(ValueError):
        measured_catalog(total_rate_bps=100.0)


def test_camera_shares_must_sum_to_one():
    with pytest.raises(ValueError):
        measured_catalog(camera_shares={"forward": 0.5, "threesixty": 0.2})


def _profile(rate_hz: float) -> TrafficProfile:
    return TrafficProfile(
        name="s",
        source="a",
        destination="b",
        protocol_label="UDP",
        stream_class=StreamClass.NON_SAFETY_RELEVANT,
        payload_bytes=60,
        rate_hz=rate_hz,
    )


def test_merge_breaks_a_tie_by_the_previous_emission_s_position():
    # at instant 5 the first emissions of sources 1 and 2, queued at the run's
    # start, go before source 0's second, queued when its first fired; source
    # 0 repeats instant 5, and its third, queued after source 1's second, goes
    # after it, as does its last at 9
    sources = []
    for created in ([0, 5, 5, 9], [5, 5, 9], [5]):
        sources.append(StreamRecords())
        sources[-1].created.extend(created)
    assert list(merge_records(sources)) == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3)]
    assert list(merge_records([StreamRecords(), StreamRecords()])) == []


def test_periodic_count_246_19_hz_over_one_second():
    # k / 246.19 <= 1 s holds for k = 0..246: 247 creations
    times = list(emission_times(246.19, NS_PER_S))
    assert len(times) == 247
    assert times[0] == 0


def test_periodic_count_slow_stream_over_ten_seconds():
    # 0.17 Hz over 10 s: k / 0.17 <= 10 for k = 0, 1
    assert len(list(emission_times(0.17, 10 * NS_PER_S))) == 2


def test_horizon_zero_boundary():
    assert len(list(emission_times(1.0, 0))) == 1  # creation at t = 0
    assert len(list(emission_times(1.0, 0, phase_ns=5))) == 0


def test_periodic_count_within_one_of_rate_times_horizon():
    rng = random.Random(77)
    for _ in range(300):
        rate = rng.uniform(0.05, 500.0)
        horizon = rng.randrange(1, 20 * NS_PER_S)
        n = len(list(emission_times(rate, horizon)))
        assert abs(n - rate * horizon / NS_PER_S) <= 1


def test_periodic_creations_strictly_increasing_with_exact_multiples():
    times = list(emission_times(246.19, NS_PER_S))
    assert times == sorted(set(times))
    for k, t in enumerate(times):
        assert t == round(k * NS_PER_S / 246.19)


def test_poisson_count_mean_and_spread():
    rate, horizon_s = 50.0, 20
    rng = RngStream(3, "poisson")
    n = len(list(emission_times(rate, horizon_s * NS_PER_S, Pattern.POISSON, 0, rng)))
    mean = rate * horizon_s
    assert abs(n - mean) <= 4 * math.sqrt(mean)


def test_poisson_requires_rng():
    with pytest.raises(ValueError):
        list(emission_times(1.0, NS_PER_S, Pattern.POISSON))


def test_catalog_aggregate_rate_over_sixty_seconds():
    horizon = 60 * NS_PER_S
    per_class = {cls: 0 for cls in StreamClass}
    for profile in measured_catalog():
        n = len(list(emission_times(profile.rate_hz, horizon)))
        per_class[profile.stream_class] += n * profile.payload_bytes * 8
    rate = sum(per_class.values()) * NS_PER_S / horizon
    assert abs(rate - 5.97e6) / 5.97e6 <= 0.02


def test_profile_validation():
    with pytest.raises(ValueError):
        _profile(0.0)
    with pytest.raises(ValueError):
        TrafficProfile(
            "x", "a", "b", "UDP", StreamClass.NON_SAFETY_RELEVANT, 0, 1.0
        )
