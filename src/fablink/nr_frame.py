"""NR timing model: numerology, frame/slot/symbol durations and
transmission-opportunity alignment to the configured TTI.

Durations that are not integral in nanoseconds (the 1/14 symbol split) are
kept as exact rationals; rendering to integer nanoseconds happens once, at
the caller's choice of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .sim_core import NS_PER_MS, SimTime

SYMBOLS_PER_SLOT = 14
SUBFRAMES_PER_FRAME = 10
FRAME_DURATION_NS = 10 * NS_PER_MS

SUPPORTED_TTI_US = (125, 250, 500, 1000)


@dataclass(frozen=True)
class Numerology:
    """Numerology index mu; subcarrier spacing is 15 * 2^mu kHz."""

    mu: int

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")

    @property
    def subcarrier_spacing_khz(self) -> int:
        return 15 * 2**self.mu

    @property
    def slots_per_subframe(self) -> int:
        return 2**self.mu

    @property
    def slots_per_frame(self) -> int:
        return SUBFRAMES_PER_FRAME * 2**self.mu


def slot_duration(numerology: Numerology) -> Fraction:
    """Slot duration in nanoseconds: 1 ms / 2^mu, exact."""
    return Fraction(NS_PER_MS, 2**numerology.mu)


def symbol_duration(numerology: Numerology) -> Fraction:
    """OFDM symbol duration in nanoseconds (slot / 14), exact rational."""
    return slot_duration(numerology) / SYMBOLS_PER_SLOT


def to_ns(duration: Fraction) -> int:
    """Render a rational nanosecond duration to an integer, rounding half up."""
    return int((duration * 2 + 1) // 2)


@dataclass(frozen=True)
class TtiConfig:
    """Scheduling granularity of the radio interface."""

    tti_us: int = 125

    def __post_init__(self):
        if self.tti_us not in SUPPORTED_TTI_US:
            raise ValueError(
                f"TTI must be one of {SUPPORTED_TTI_US} us, got {self.tti_us}"
            )

    @property
    def duration_ns(self) -> int:
        return self.tti_us * 1_000


def next_tx_opportunity(now: SimTime, tti: TtiConfig) -> SimTime:
    """Smallest TTI boundary t >= now. Idempotent on its own output."""
    d = tti.duration_ns
    return ((now + d - 1) // d) * d
