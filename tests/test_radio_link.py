from __future__ import annotations

import math
import random

import pytest

from fablink.radio_link import (
    DEFAULT_BLER_CURVES,
    DEFAULT_THROUGHPUT_CURVES,
    EVA70,
    V2V_URBAN_NLOS,
    BlerCurve,
    LinkModel,
    LinkRuntime,
    RadioSection,
    ThroughputCurve,
    WAVEFORM_GAP_DB,
    Waveform,
    availability,
    next_tx_opportunity,
)
from fablink.scenario import ConfigInvalid, scenario_from_dict
from fablink.sim_core import NS_PER_US, Engine, RngStream


# -- BLER anchors and interpolation -------------------------------------------


def test_bler_anchor_pass_through_is_exact():
    assert RadioSection(snr_db=15.0).link_model().bler == 1e-5
    assert RadioSection(channel=V2V_URBAN_NLOS, snr_db=19.0).link_model().bler == 1e-5


def test_cp_ofdm_anchor_shifted_by_waveform_gap():
    radio = RadioSection(waveform=Waveform.CP_OFDM, snr_db=16.7)
    assert radio.link_model().bler == 1e-5


def test_waveform_gap_holds_along_both_curves():
    # CP-OFDM reads P-OFDM's BLER WAVEFORM_GAP_DB later: in the waterfall,
    # in both tails and on both channels
    for channel in (EVA70, V2V_URBAN_NLOS):
        p = DEFAULT_BLER_CURVES[Waveform.P_OFDM, channel]
        c = DEFAULT_BLER_CURVES[Waveform.CP_OFDM, channel]
        for snr in (x / 4 for x in range(20, 100)):
            assert c.bler(snr + WAVEFORM_GAP_DB) == pytest.approx(p.bler(snr),
                                                                  rel=1e-9)


def test_log_linear_interpolation_matches_hand_computation():
    curve = BlerCurve(((10.0, 1.0), (15.0, 1e-5)))
    # oracle: log10 BLER falls linearly from 0 to -5 across the segment
    for snr in (11.0, 12.5, 14.0):
        t = (snr - 10.0) / 5.0
        expected = 10.0 ** (0.0 + t * (-5.0 - 0.0))
        assert math.isclose(curve.bler(snr), expected, rel_tol=1e-12)


def test_bler_monotone_nonincreasing_in_snr():
    rng = random.Random(99)
    for curve in DEFAULT_BLER_CURVES.values():
        for _ in range(500):
            s1 = rng.uniform(-5.0, 40.0)
            s2 = s1 + rng.uniform(0.0, 10.0)
            assert curve.bler(s1) >= curve.bler(s2)


def test_bler_clamps_to_one_below_waterfall():
    curve = BlerCurve(((10.0, 1.0), (15.0, 1e-5)))
    assert curve.bler(0.0) == 1.0
    assert curve.bler(10.0) == 1.0


def test_bler_extends_at_edge_slope_beyond_last_anchor():
    curve = BlerCurve(((10.0, 1.0), (15.0, 1e-5)))
    # one decade per dB continues past the last anchor
    assert math.isclose(curve.bler(16.0), 1e-6, rel_tol=1e-9)
    assert math.isclose(curve.bler(18.0), 1e-8, rel_tol=1e-9)


def test_bler_floor_is_respected():
    curve = BlerCurve(((10.0, 1.0), (15.0, 1e-5)), floor=1e-6)
    assert curve.bler(30.0) == 1e-6


def test_configurable_tail_slope():
    gentle = BlerCurve(((10.0, 1.0), (15.0, 1e-5)), tail_slope=0.5)
    assert math.isclose(gentle.bler(17.0), 1e-6, rel_tol=1e-9)


def test_bler_below_the_first_anchor_never_overflows():
    # far below the first anchor, b0 * 10**exponent passes the largest float;
    # the curve then reads the value in log10, and everywhere else that
    # expression as it stands
    rng = random.Random(31)
    overflows = 0
    for _ in range(3000):
        n = rng.randrange(2, 5)
        scale = 10.0 ** rng.uniform(-3, 12)
        snrs = sorted({rng.uniform(-scale, scale) for _ in range(n)})
        blers = sorted({10.0 ** -rng.uniform(0, 320) for _ in snrs}, reverse=True)
        floor = rng.choice([0.0, 10.0 ** -rng.uniform(0, 12)])
        slope = rng.choice([None, 10.0 ** rng.uniform(-3, 12)])
        curve = BlerCurve(tuple(zip(snrs, blers)), floor, slope)
        s0, b0 = curve.anchors[0]
        for _ in range(20):
            snr = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 12)
            value = curve.bler(snr)
            assert floor <= value <= 1.0, (curve, snr)
            if snr < s0:
                exponent = curve._edge_slope(last=False) * (s0 - snr)
                try:
                    old = b0 * 10.0 ** exponent
                except OverflowError:
                    overflows += 1
                    if math.log10(b0) + exponent >= 0:
                        assert value == 1.0, (curve, snr)
                    continue
                assert value == min(1.0, max(floor, old)), (curve, snr)
    assert overflows > 1000


@pytest.mark.parametrize("radio", [
    {"snr_db": -1000.0, "throughput_anchors": {"P-OFDM": [[-2000.0, 10.0]]}},
    {"snr_db": 9.0, "bler_anchors": {"P-OFDM": {"EVA70": {
        "anchors": [[10.0, 1.0], [15.0, 1.0e-5]], "tail_slope": 400.0}}}},
])
def test_a_section_far_below_its_waterfall_loads_at_bler_one(radio):
    assert scenario_from_dict({"radio": radio}).radio.link_model().bler == 1.0


def test_anchor_validation():
    with pytest.raises(ValueError):
        BlerCurve(((10.0, 0.5), (15.0, 0.9)))  # increasing BLER
    with pytest.raises(ValueError):
        BlerCurve(((10.0, 1.5), (15.0, 1e-5)))  # BLER above 1
    with pytest.raises(ValueError):
        BlerCurve(((15.0, 1.0), (10.0, 1e-5)))  # unsorted SNR


@pytest.mark.parametrize("args, kwargs, message", [
    (([(10.0, 0.5)],), {}, "needs at least 2 anchors"),
    (((),), {}, "needs at least 2 anchors"),
    ((((10.0, 1.0), (15.0, 1e-5)),), {"floor": 2.0}, r"floor 2.0 outside \[0, 1\]"),
    ((((10.0, 1.0), (15.0, 1e-5)),), {"floor": -0.1}, r"floor -0.1 outside \[0, 1\]"),
    ((((10.0, 1.0), (15.0, 1e-5)),), {"tail_slope": 0.0}, "tail_slope must be > 0"),
    ((((10.0, 1.0), (15.0, 1e-5)),), {"tail_slope": -1.0}, "tail_slope must be > 0"),
])
def test_a_curve_built_in_code_holds_the_schema_bounds(args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        BlerCurve(*args, **kwargs)


@pytest.mark.parametrize("spec, path, problem", [
    ({"anchors": [[10, 0.5]]}, "anchors", "needs at least 2 entries"),
    ({"anchors": [[10, 1.0], [15, 1e-5]], "floor": 2.0}, "floor",
     "must be <= 1, got 2.0"),
    ({"anchors": [[10, 1.0], [15, 1e-5]], "tail_slope": 0}, "tail_slope",
     "must be > 0, got 0.0"),
])
def test_a_config_curve_fails_in_the_schema_words_first(spec, path, problem):
    radio = {"bler_anchors": {"P-OFDM": {"EVA70": spec}}}
    with pytest.raises(ConfigInvalid) as exc:
        scenario_from_dict({"radio": radio})
    assert str(exc.value) == f"radio.bler_anchors.P-OFDM.EVA70.{path}: {problem}"


def test_a_parsed_curve_hashes_and_equals_a_shipped_style_one():
    radio = {"bler_anchors": {"P-OFDM": {"EVA70": {
        "anchors": [[10.0, 1.0], [15.0, 1e-5]]}}}}
    parsed = scenario_from_dict({"radio": radio}).radio.bler_anchors[
        Waveform.P_OFDM][EVA70]
    shipped = DEFAULT_BLER_CURVES[Waveform.P_OFDM, EVA70]
    assert parsed.anchors == ((10.0, 1.0), (15.0, 1e-5))
    assert parsed == shipped and hash(parsed) == hash(shipped)
    assert BlerCurve([[10.0, 1.0], [15.0, 1e-5]]) == shipped


def test_a_section_without_curves_fails_led_by_its_key():
    with pytest.raises(ValueError, match="^channel: no BLER anchors for 'EVA70' "
                                         "with radio.waveform 'W-OFDM'$"):
        RadioSection(waveform=Waveform.W_OFDM).link_model()
    with pytest.raises(ValueError, match="^channel: no BLER anchors for 'IndoorHall' "):
        RadioSection(channel="IndoorHall").link_model()
    w_ofdm_bler = {Waveform.W_OFDM: {EVA70: BlerCurve([(10.0, 1.0), (15.0, 1e-5)])}}
    with pytest.raises(ValueError,
                       match="^waveform: no throughput anchors for 'W-OFDM'$"):
        RadioSection(waveform=Waveform.W_OFDM, bler_anchors=w_ofdm_bler).link_model()


# -- sampling through the link runtime --------------------------------------


def _link_with_constant_bler(p: float, timeline=()) -> LinkRuntime:
    model = LinkModel(RadioSection(), p, 10e6)
    return LinkRuntime(model, Engine(seed=1).stream, timeline)


def _delivered(link: LinkRuntime, rng: RngStream) -> bool:
    return link.sender("s", 60, rng)(0)[1] is not None


def test_send_forced_outcomes():
    rng = RngStream(1, "loss")
    always = _link_with_constant_bler(0.0)
    never = _link_with_constant_bler(1.0)
    for _ in range(1000):
        assert _delivered(always, rng)
    for _ in range(1000):
        assert not _delivered(never, rng)


def test_send_matches_bler_within_binomial_3_sigma():
    # 1e6 Bernoulli draws at p = 0.5: 3 sigma is 0.0015, allow 0.002
    link = _link_with_constant_bler(0.5)
    rng = RngStream(42, "loss")
    delivered = sum(_delivered(link, rng) for _ in range(1_000_000))
    assert abs(delivered / 1_000_000 - 0.5) <= 0.002


def test_empirical_loss_rate_at_configured_bler():
    link = _link_with_constant_bler(0.1)
    rng = RngStream(7, "loss")
    n = 100_000
    lost = sum(not _delivered(link, rng) for _ in range(n))
    sigma = math.sqrt(0.1 * 0.9 / n)
    assert abs(lost / n - 0.1) <= 3 * sigma


def test_send_latency_matches_latency():
    link = _link_with_constant_bler(0.0)
    rng = RngStream(1, "loss")
    for now in (0, 1, 124_999, 125_000, 3_000_017):
        for size in (60, 1400, 20_000):
            sent_at, delivered = link.sender("s", size, rng)(now)
            assert sent_at == next_tx_opportunity(now, link.tti_ns)
            assert delivered - now == link.latency(now, size)


def test_send_makes_no_draw_when_down_or_lossless():
    rng = RngStream(3, "loss")
    down = _link_with_constant_bler(0.5, timeline=[(0, False)])
    assert down.sender("s", 60, rng)(0) == (0, None)
    assert _delivered(_link_with_constant_bler(0.0), rng)
    assert rng.random() == RngStream(3, "loss").random()  # still the first draw


# -- availability ----------------------------------------------------------------


def test_availability_equals_reliability_for_single_opportunity():
    assert availability(1e-5, 1) == 1 - 1e-5


def test_availability_survival_two_slots_full_precision():
    assert availability(1e-5, 2) == 1 - 1e-10


def test_availability_perfect_link():
    for k in (1, 2, 10):
        assert availability(0.0, k) == 1.0


def test_availability_nondecreasing_in_k():
    rng = random.Random(5)
    for _ in range(200):
        b = rng.random()
        ks = sorted(rng.randrange(1, 50) for _ in range(2))
        assert availability(b, ks[0]) <= availability(b, ks[1])


def test_availability_validates_arguments():
    with pytest.raises(ValueError):
        availability(0.5, 0)
    with pytest.raises(ValueError):
        availability(1.5, 1)


# -- throughput -------------------------------------------------------------------


def test_throughput_anchor_exact():
    assert RadioSection(snr_db=11.0).link_model().rate_bps == 10e6


def test_throughput_clamps_below_lowest_anchor():
    curve = DEFAULT_THROUGHPUT_CURVES[Waveform.P_OFDM]
    assert curve.rate_bps(-20.0) == 0.0
    assert curve.rate_bps(40.0) == 12e6
    assert RadioSection(snr_db=40.0).link_model().rate_bps == 12e6


def test_throughput_linear_blend_between_anchors():
    # oracle: hand blend of the (8 dB, 5 Mbit/s) .. (11 dB, 10 Mbit/s) pair
    snr = 9.2
    t = (snr - 8.0) / (11.0 - 8.0)
    expected = 5e6 + t * (10e6 - 5e6)
    assert math.isclose(RadioSection(snr_db=snr).link_model().rate_bps, expected,
                        rel_tol=1e-12)


def test_throughput_monotone_validation():
    with pytest.raises(ValueError):
        ThroughputCurve(((0.0, 5e6), (5.0, 1e6)))


# -- TTI alignment ---------------------------------------------------------------


def test_next_tx_opportunity_examples():
    tti = 125 * NS_PER_US
    assert next_tx_opportunity(130 * NS_PER_US, tti) == 250 * NS_PER_US
    assert next_tx_opportunity(0, tti) == 0
    assert next_tx_opportunity(999 * NS_PER_US, 1000 * NS_PER_US) == 1000 * NS_PER_US


def test_next_tx_opportunity_idempotent_over_random_instants():
    rng = random.Random(1234)
    for _ in range(10_000):
        now = rng.randrange(0, 10**10)
        tti = rng.choice((125, 250, 500, 1000)) * NS_PER_US
        boundary = next_tx_opportunity(now, tti)
        assert boundary >= now
        assert boundary % tti == 0
        assert next_tx_opportunity(boundary, tti) == boundary


# -- one-way latency -----------------------------------------------------------------


def latency(now: int, payload_bytes: int, **radio) -> int:
    """`LinkRuntime.latency` at 11 dB (10 Mbit/s), with no processing delay
    unless `radio` sets one."""
    section = RadioSection(**{"snr_db": 11.0, "processing_delay_us": 0.0, **radio})
    return LinkRuntime(section.link_model(), Engine().stream).latency(
        now, payload_bytes)


def test_one_way_latency_composition_example():
    # aligned start, payload within one 125 us TTI, 100 us processing
    # 10 Mbit/s x 125 us = 1250 bits = 156 bytes per slot; 60 B fits one slot
    assert latency(0, 60, tti_us=125, processing_delay_us=100.0) == 225_000


def test_round_trip_latency_by_tti():
    small = 60
    for tti_us, expected_rtt in ((1000, 2_000_000), (125, 250_000)):
        leg1 = latency(0, small, tti_us=tti_us)
        # the return leg starts on a boundary because legs are whole TTIs
        leg2 = latency(leg1, small, tti_us=tti_us)
        assert leg1 + leg2 == expected_rtt


def test_latency_is_pure_air_time_when_aligned_and_no_processing():
    assert latency(0, 60) == 125_000
    # 2 MB at 10 Mbit/s: ceil(16e6 / 1250) = 12800 slots of 125 us = 1.6 s
    assert latency(0, 2_000_000) == 12_800 * 125_000


def test_alignment_wait_added_when_mid_slot():
    assert latency(130 * NS_PER_US, 60) == 120 * NS_PER_US + 125_000


def test_latency_nonincreasing_as_tti_shrinks():
    rng = random.Random(11)
    for _ in range(200):
        payload = rng.randrange(1, 5000)
        now = rng.randrange(0, 10**7)
        latencies = [latency(now, payload, tti_us=us) for us in (1000, 500, 250, 125)]
        assert latencies == sorted(latencies, reverse=True)


def test_a_section_at_zero_throughput_fails_led_by_snr_db():
    with pytest.raises(ValueError, match="^snr_db: throughput is zero at 5 dB$"):
        RadioSection(snr_db=5.0).link_model()
