"""Random scenario configs for whole-run property tests and differential
checks.

`random_scenario(rng, **knobs)` draws one config mapping for
`fablink.scenario.scenario_from_dict`. Across draws it reaches every schema
section and every script action: 1 to 4 islands with random capabilities
and a recipe over them, the manual station on or off, defects in
{0, 0.3, 1}, plant times with 0 among them, releases, the safety channel on
or off, a measured, explicit or empty traffic catalog, every radio setting
(BLER and throughput curves of its own included), and scripts of every
action.

Each field is drawn to pass its own schema bound. `defect_probability` is
drawn independently of `manual_station`, so a config may still be
`ConfigInvalid` at load: defects need the manual station to rework them.
"""

from __future__ import annotations

import random
from dataclasses import fields

from fablink.radio_link import SUPPORTED_TTI_US
from fablink.scenario import Scenario, ScriptAction
from fablink.traffic import SAFETY_STREAMS

SECTIONS = tuple(f.name for f in fields(Scenario))
ACTIONS = tuple(next(f for f in fields(ScriptAction)
                     if f.name == "action").metadata["choices"])
CAPABILITIES = ("a", "b", "c", "d", "e")
SENSORS = ("laser", "infrared", "bumper")


def random_scenario(
    rng: random.Random,
    *,
    horizon_s: tuple[float, float] = (2.0, 10.0),
    traffic: bool = True,
    safety: bool = True,
) -> dict:
    """One scenario mapping, its horizon drawn within `horizon_s`;
    `traffic=False` draws an empty catalog and `safety=False` disables the
    safety channel without changing any draw, and neither section is then
    left out. The plant is enabled in nine draws of ten."""
    horizon = round(rng.uniform(*horizon_s), 3)
    ids = [f"island{k + 1}" for k in range(rng.randint(1, 4))]
    enabled = rng.random() < 0.9
    plant = {"enabled": enabled, **_factory(rng, ids, rng.random() < 0.7, horizon)}
    scenario = {
        "seed": rng.randrange(10_000),
        "horizon_s": horizon,
        "radio": _radio(rng),
        "traffic": _traffic(rng) if traffic else {"catalog": []},
        "factory": plant,
        "safety": {"enabled": rng.random() < 0.6 and safety,
                   "watchdog_ms": rng.choice([12.0, 20.0, 50.0])},
        "compliance": {"service_area_m": [rng.choice([10.0, 20.0])] * 2,
                       "availability_sample_floor": rng.choice([None, 10, 1000])},
        "script": _script(rng, ids if enabled else [], plant, horizon),
    }
    # a section left out loads its defaults; one a knob turned off is kept
    off = {"traffic": not traffic, "safety": not safety}
    return {k: v for k, v in scenario.items()
            if k in ("horizon_s", "factory", "script") or rng.random() < 0.9
            or off.get(k, False)}


def _radio(rng: random.Random) -> dict:
    radio = {
        "waveform": rng.choice(["P-OFDM", "CP-OFDM"]),
        "channel": rng.choice(["EVA70", "EVA70", "V2V-Urban-NLOS"]),
        "snr_db": rng.choice([11.0, 13.0, 15.0, 20.0]),
        "tti_us": rng.choice(SUPPORTED_TTI_US),
        "processing_delay_us": rng.choice([0.0, 100.0]),
        "wired_latency_us": rng.choice([0.0, 200.0]),
        "jitter_us": rng.choice([0.0, 0.0, 50.0]),
    }
    if rng.random() < 0.3:  # curves of its own at the drawn operating point
        spec = {"anchors": [[rng.choice([8.0, 12.0]), 0.5], [18.0, 1e-4]],
                "floor": rng.choice([0.0, 1e-6]),
                "tail_slope": rng.choice([0.5, 2.0])}
        radio["bler_anchors"] = {radio["waveform"]: {radio["channel"]: spec}}
        radio["throughput_anchors"] = {
            radio["waveform"]: [[5.0, 0.0], [10.0, rng.choice([2.0, 4.0])], [20.0, 8.0]]}
    return radio


def _traffic(rng: random.Random) -> dict:
    roll = rng.random()
    if roll < 0.4:
        return {"catalog": "measured",
                "total_rate_mbps": round(rng.uniform(1.0, 8.0), 2),
                "camera_shares": {"forward": 0.5, "product": 0.5},
                "camera_packet_bytes": rng.choice([500, 1400])}
    if roll < 0.7:
        return {"catalog": []}
    rows = [{"name": f"s{k}", "payload_bytes": rng.choice([60, 400, 1400]),
             "rate_hz": rng.choice([1.0, 50.0, 300.0]),
             "pattern": rng.choice(["periodic", "poisson"]),
             "phase_us": rng.choice([0.0, 300.0]),
             "wireless": rng.random() < 0.7,
             "class": rng.choice(["safety", "non-safety", "organization"])}
            for k in range(rng.randint(1, 3))]
    if rng.random() < 0.5:  # the PNIO pair as the channel runs it
        rows += [{"name": name, "protocol": "PNIO", "class": "safety",
                  "payload_bytes": size, "rate_hz": 246.19}
                 for name, size in zip(SAFETY_STREAMS, (60, 64))]
    return {"catalog": rows}


def _factory(rng: random.Random, ids: list[str], manual: bool, horizon: float) -> dict:
    islands = [{"id": i, "capabilities": rng.sample(CAPABILITIES, rng.randint(1, 3))}
               for i in ids]
    caps = sorted({c for island in islands for c in island["capabilities"]})
    # with the manual station a step may have no module: the operator does it
    steps = CAPABILITIES if manual else caps
    nodes = ids + (["manual"] if manual else [])
    durations = [0.0, 0.5, 1.0, 6.0]
    transit = {a: {b: 0.0 if a == b else rng.choice(durations) for b in nodes}
               for a in nodes}
    return {
        "recipe": [rng.choice(steps) for _ in range(rng.randint(1, 4))],
        "islands": islands,
        "transit_s": transit,
        "service_s": rng.choice([0.0, 0.5, 2.0]),
        "service_overrides": {c: rng.choice([0.0, 1.0]) for c in caps
                              if rng.random() < 0.3},
        "conveyor_s": rng.choice([0.0, 0.5]),
        "dock_s": rng.choice([0.0, 0.5]),
        "load_s": rng.choice([0.0, 0.5]),
        "tick_ms": rng.choice([50.0, 100.0, 250.0]),
        "defect_probability": rng.choice([0.0, 0.3, 1.0]),
        "image_bytes": rng.choice([100_000, 2_000_000]),
        "inference_ms": rng.choice([0.0, 200.0]),
        "manual_service_s": rng.choice([0.0, 4.0]),
        "manual_rework_s": rng.choice([0.0, 4.0]),
        "manual_station": manual,
        "robot_home": rng.choice(ids),
        "releases": {"count": rng.randint(0, 8),
                     "interval_s": rng.choice([0.0, 0.5, 2.0, 5.0]),
                     "island": rng.choice(ids),
                     "start_s": round(rng.uniform(0.0, horizon / 2), 3)},
    }


def _script(rng: random.Random, ids: list[str], plant: dict,
            horizon: float) -> list[dict]:
    """Valid actions at random instants within the horizon; only `reset`,
    `link_down` and `link_up` act without an enabled factory."""
    modules = [f"{i['id']}.{c}" for i in plant["islands"] if i["id"] in ids
               for c in i["capabilities"]]
    actions = ACTIONS if ids else ("reset", "link_down", "link_up")
    script = []
    for _ in range(rng.randint(0, 6)):
        action = rng.choice(actions)
        entry = {"at_s": round(rng.uniform(0.0, horizon), 3), "action": action}
        if action == "estop":
            entry["endpoint"] = rng.choice(modules + ["robot", "safety_plc"])
        elif action in ("module_fault", "module_clear"):
            entry["endpoint"] = rng.choice(modules)
        elif action in ("obstacle", "clear"):
            entry["sensor"] = rng.choice(SENSORS)
        elif action == "reset" and ids and rng.random() < 0.8:
            entry["loop"] = f"{rng.choice(ids)}.loop"
        script.append(entry)
    return script
