"""The benchmark's workloads: scenario dicts for `fablink.scenario.scenario_from_dict`.

Each workload is built from the benchmark seed alone, so the same seed gives
the same scenario. The horizons keep one run near two host seconds on a
2-core box, so a 42 s measurement gathers 15-20 runs per workload.
README.md in this directory records why each workload exists and why the
ROADMAP's `lossy` scenario is not one of them.
"""

from __future__ import annotations

import sys
from pathlib import Path

# The scenario's own default seed; run.py pins the artifacts made with it.
DEFAULT_SEED = 42

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HORIZON_S = {
    # The paper's plant: measured 5.97 Mbit/s catalog, safety channel at
    # 246.19 Hz through the radio link, 3 product releases.
    "steady": 120.0,
    # Ten times the measured rate with the safety channel off: the PNIO rows
    # run as ordinary streams with cached air time, so record volume rules.
    "bulk": 30.0,
    # No packet traffic, releases above line capacity, defects and a fault
    # script: the factory runtime is all the work there is.
    "plant": 280.0,
}

WORKLOADS = tuple(HORIZON_S)


class SourceMissing(RuntimeError):
    """The checkout holds no fablink source to benchmark."""


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on the import path, so the benchmark
    measures the fablink of this checkout and never an installed copy."""
    if not (SRC / "fablink" / "__init__.py").is_file():
        raise SourceMissing(f"no fablink source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scenario_dict(workload: str, seed: int, horizon_s: float | None = None) -> dict:
    """The scenario mapping of `workload` for `seed`, at its benchmark
    horizon unless `horizon_s` overrides it (the self-checks run short)."""
    if workload not in HORIZON_S:
        raise KeyError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    data: dict = {
        "seed": seed,
        "horizon_s": HORIZON_S[workload] if horizon_s is None else horizon_s,
    }
    if workload == "bulk":
        data["traffic"] = {"catalog": "measured", "total_rate_mbps": 60.0}
        data["safety"] = {"enabled": False}
    elif workload == "plant":
        data["traffic"] = {"catalog": []}
        data["safety"] = {"enabled": False}
        data["factory"] = {
            "defect_probability": 0.3,
            # Every 1.5 s floods the line so fast that the backlog, and with
            # it the routing work, hardly depends on which products the seed
            # makes defective: across seeds the plan_route count varies by
            # 0.2 % (IQR/median), against 10 % with a release every 3 s.
            "releases": {"count": 200, "interval_s": 1.5},
        }
        # Inside the first 120 s, so the short self-check run sees it too.
        data["script"] = [
            {"at_s": 40.0, "action": "estop", "endpoint": "island2.mount_cover"},
            {"at_s": 70.0, "action": "reset", "loop": "island2.loop"},
            {"at_s": 90.0, "action": "link_down"},
            {"at_s": 110.0, "action": "link_up"},
        ]
    return data
