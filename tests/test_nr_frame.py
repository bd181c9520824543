from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fablink.nr_frame import (
    FRAME_DURATION_NS,
    Numerology,
    TtiConfig,
    next_tx_opportunity,
    slot_duration,
    symbol_duration,
    to_ns,
)
from fablink.sim_core import NS_PER_MS, NS_PER_US


def test_slot_duration_mu0_is_one_subframe():
    assert slot_duration(Numerology(0)) == Fraction(NS_PER_MS)


def test_slot_duration_halves_per_numerology_step():
    assert slot_duration(Numerology(1)) == Fraction(NS_PER_MS, 2)
    assert slot_duration(Numerology(2)) == Fraction(NS_PER_MS, 4)


def test_symbol_duration_is_exact_rational():
    # 1 ms / 14 symbols = 500000/7 ns, about 71428.57 ns
    sym = symbol_duration(Numerology(0))
    assert sym == Fraction(1_000_000, 14) == Fraction(500_000, 7)
    assert to_ns(sym) == 71_429


def test_slot_duration_times_two_pow_mu_is_exactly_one_ms():
    for mu in range(9):
        assert slot_duration(Numerology(mu)) * 2**mu == Fraction(NS_PER_MS)


def test_frame_is_ten_subframes_for_any_numerology():
    for mu in range(6):
        n = Numerology(mu)
        assert slot_duration(n) * n.slots_per_frame == Fraction(FRAME_DURATION_NS)
        assert n.slots_per_subframe * 10 == n.slots_per_frame


def test_subcarrier_spacing_scaling():
    assert Numerology(0).subcarrier_spacing_khz == 15
    assert Numerology(3).subcarrier_spacing_khz == 120
    with pytest.raises(ValueError):
        Numerology(-1)


def test_next_tx_opportunity_examples():
    tti = TtiConfig(125)
    assert next_tx_opportunity(130 * NS_PER_US, tti) == 250 * NS_PER_US
    assert next_tx_opportunity(0, tti) == 0
    assert next_tx_opportunity(999 * NS_PER_US, TtiConfig(1000)) == 1000 * NS_PER_US


def test_next_tx_opportunity_idempotent_over_random_instants():
    rng = random.Random(1234)
    ttis = [TtiConfig(us) for us in (125, 250, 500, 1000)]
    for _ in range(10_000):
        now = rng.randrange(0, 10**10)
        tti = rng.choice(ttis)
        boundary = next_tx_opportunity(now, tti)
        assert boundary >= now
        assert boundary % tti.duration_ns == 0
        assert next_tx_opportunity(boundary, tti) == boundary


def test_tti_restricted_to_supported_set():
    with pytest.raises(ValueError):
        TtiConfig(200)
