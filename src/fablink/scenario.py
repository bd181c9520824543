"""Scenario configuration: schema, defaults, YAML load/dump and validation.

The section dataclasses, with `radio_link.RadioSection` for the radio
section and `traffic.TrafficProfile` for a catalog row, are the one
description of the YAML format: one walker reads their type hints and
per-field bounds to parse, check and dump it (and `metrics.json` and
`compliance.json`, from `artifacts.MetricsDocument` and
`compliance.ComplianceReport`). Unknown and duplicated keys are rejected, a
bool is never a number, an enum is read and written by value, every error
names its field (e.g. `factory.islands[1].capabilities[0]`), checks that
span fields run at load time, and a dumped config re-parses to an equal
scenario.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum, EnumMeta
from functools import cache
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from .radio_link import RadioSection
from .safety import SensorKind
from .sim_core import NS_PER_MS, NS_PER_S, NS_PER_US
from .traffic import (
    DEFAULT_CAMERA_PACKET_BYTES, DEFAULT_CAMERA_SHARES, MEASURED_ROWS,
    MEASURED_TOTAL_RATE_BPS, SAFETY_STREAMS, Pattern, StreamClass, TrafficProfile,
    measured_catalog,
)


class ConfigInvalid(ValueError):
    """Scenario config failed validation; the message names the field."""


def _f(default=MISSING, *, factory=MISSING, key=None, **bounds):
    """A field with bounds (`ge`/`gt`/`le`, `choices`, `min_len`, `unique`: an
    item attribute, or True for the items themselves) that hold for every value
    inside it, and its config key if not the attribute name."""
    meta = dict(bounds, key=key) if key else bounds
    return field(default=default, default_factory=factory, metadata=meta)


@dataclass
class TrafficSection:
    catalog: str | list[TrafficProfile] = _f("measured", choices=["measured"],
                                             unique="name")
    total_rate_mbps: float = _f(MEASURED_TOTAL_RATE_BPS / 1e6, ge=0)
    camera_shares: dict[str, float] = _f(factory=DEFAULT_CAMERA_SHARES.copy, ge=0)
    camera_packet_bytes: int = _f(DEFAULT_CAMERA_PACKET_BYTES, ge=1)

    def profiles(self) -> list[TrafficProfile]:
        if self.catalog == "measured":
            return measured_catalog(self.total_rate_mbps * 1e6, self.camera_shares,
                                    self.camera_packet_bytes)
        return list(self.catalog)


@dataclass
class IslandSpec:
    id: str
    capabilities: list[str] = _f(factory=list, unique=True)


@dataclass
class ReleaseSpec:
    count: int = _f(3, ge=0)
    interval_s: float = _f(20.0, ge=0)
    island: str = "island1"
    start_s: float = _f(0.0, ge=0)


@dataclass
class FactorySection:
    enabled: bool = True
    recipe: list[str] = _f(factory=lambda: ["engrave", "insert_spring", "mount_cover",
                                            "weigh", "optical_inspect"])
    islands: list[IslandSpec] = _f(min_len=1, unique="id", factory=lambda: [
        IslandSpec("island1", ["engrave", "insert_spring"]),
        IslandSpec("island2", ["mount_cover", "weigh"]),
        IslandSpec("island3", ["optical_inspect"]),
    ])
    transit_s: dict[str, dict[str, float]] = _f(factory=dict, ge=0)
    service_s: float = _f(2.0, ge=0)
    service_overrides: dict[str, float] = _f(factory=dict, ge=0)
    conveyor_s: float = _f(0.5, ge=0)
    dock_s: float = _f(0.5, ge=0)
    load_s: float = _f(0.5, ge=0)
    tick_ms: float = _f(100.0, ge=1e-3)
    defect_probability: float = _f(0.0, ge=0, le=1)
    image_bytes: int = _f(2_000_000, ge=1)
    inference_ms: float = _f(200.0, ge=0)
    manual_service_s: float = _f(4.0, ge=0)
    manual_rework_s: float = _f(4.0, ge=0)
    manual_station: bool = True
    robot_home: str = "island1"
    releases: ReleaseSpec = _f(factory=ReleaseSpec)

    def __post_init__(self):
        # Default: adjacent islands 6 s apart, 3 s more per island skipped, manual 8 s.
        if not self.transit_s:
            ids = [i.id for i in self.islands]
            self.transit_s = {a: {b: 0.0 if a == b else 6.0 + 3.0 * (abs(i - j) - 1)
                                  for j, b in enumerate(ids)}
                              for i, a in enumerate(ids)}
            if self.manual_station:
                for a in ids:
                    self.transit_s[a]["manual"] = 8.0
                self.transit_s["manual"] = {**dict.fromkeys(ids, 8.0), "manual": 0.0}

    def service_time_s(self, capability: str) -> float:
        return self.service_overrides.get(capability, self.service_s)


@dataclass
class SafetySection:
    enabled: bool = True
    watchdog_ms: float = _f(12.0, ge=0)

    @property
    def watchdog_ns(self) -> int:
        return round(self.watchdog_ms * NS_PER_MS)

    def channel_streams(
        self, profiles: list[TrafficProfile]
    ) -> tuple[TrafficProfile, TrafficProfile]:
        """The channel's (up, down) streams, both of class safety: the
        catalog's two PNIO rows, or the measured pair (246.19 Hz, 60/64 B)
        when it has neither. A catalog with one of them is a ValueError."""
        rows = {p.name: p for p in profiles}
        missing = [name for name in SAFETY_STREAMS if name not in rows]
        if len(missing) == 1:
            raise ValueError(f"no PNIO row {missing[0]!r}: the safety channel runs on "
                             "both PNIO rows, or on the measured pair with neither")
        if missing:
            rows = {p.name: p for p in MEASURED_ROWS}
        return tuple(replace(rows[name], stream_class=StreamClass.SAFETY_RELEVANT)
                     for name in SAFETY_STREAMS)


@dataclass
class ComplianceSection:
    service_area_m: tuple[float, float] = _f((20.0, 20.0), ge=0)
    availability_sample_floor: int | None = _f(None, ge=1)


@dataclass(kw_only=True)  # `action` is required, and still the second key
class ScriptAction:
    at_s: float = _f(0.0, ge=0)
    action: str = _f(choices=[
        "estop", "reset", "obstacle", "clear", "reset_local",
        "link_down", "link_up", "module_fault", "module_clear"])
    endpoint: str | None = None
    loop: str | None = None
    sensor: SensorKind | None = None


@dataclass
class Scenario:
    seed: int = _f(42, ge=0)
    horizon_s: float = _f(60.0, ge=0)
    radio: RadioSection = field(default_factory=RadioSection)
    traffic: TrafficSection = field(default_factory=TrafficSection)
    factory: FactorySection = field(default_factory=FactorySection)
    safety: SafetySection = field(default_factory=SafetySection)
    compliance: ComplianceSection = field(default_factory=ComplianceSection)
    script: list[ScriptAction] = field(default_factory=list)

    @property
    def horizon_ns(self) -> int:
        return round(self.horizon_s * NS_PER_S)


default_scenario = Scenario  # what an empty config file loads


# -- the schema walker ------------------------------------------------------------

_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<=")}
# Every number's magnitude limit, so that seconds scaled to integer
# nanoseconds stay finite.
_MAX_NUMBER = 1e12


def _fail(path: str, problem: str):
    raise ConfigInvalid(f"{path}: {problem}")


def _built(path: str, make, *args, **kwargs):
    """`make(...)`, with a ValueError turned into ConfigInvalid at `path`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


@cache
def _schema(cls) -> list[tuple[str, Any, Any]]:
    """(config key, field, resolved type) of each field, resolved once per class."""
    hints = get_type_hints(cls)
    return [(f.metadata.get("key", f.name), f, hints[f.name]) for f in fields(cls)]


def _parse(tp, value, path: str, meta) -> Any:
    if is_dataclass(tp):
        return schema_from_dict(tp, value, path)
    if isinstance(tp, EnumMeta):
        for member in tp:
            if type(value) is type(member.value) and value == member.value:
                return member
        _fail(path, f"{value!r} is not one of {[m.value for m in tp]}")
    origin, args = get_origin(tp), get_args(tp)
    got = type(value).__name__
    if origin is UnionType:
        arms = [a for a in args if a is not type(None)]
        if value is None and len(arms) < len(args):
            return None
        for arm in arms:
            if len(arms) == 1 or isinstance(value, get_origin(arm) or arm):
                return _parse(arm, value, path, meta)
        _fail(path, f"expected {' or '.join(_KINDS.get(a, 'a list') for a in arms)}, "
                    f"got {got}")
    if origin is list:
        if not isinstance(value, list):
            _fail(path, f"expected a list, got {got}")
        if len(value) < meta.get("min_len", 0):
            _fail(path, f"needs at least {meta['min_len']} entries")
        items = [_parse(args[0], v, f"{path}[{i}]", meta) for i, v in enumerate(value)]
        unique = meta.get("unique")
        if unique:
            keys = items if unique is True else [getattr(x, unique) for x in items]
            for i, k in enumerate(keys):
                if k in keys[:i]:
                    attr = "" if unique is True else f".{unique}"
                    _fail(f"{path}[{i}]{attr}", f"duplicate {k!r}")
        return items
    if origin is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            _fail(path, f"expected a list of {len(args)} entries")
        return tuple(_parse(a, v, f"{path}[{i}]", meta)
                     for i, (a, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            _fail(path, f"expected a mapping, got {got}")
        return {_parse(args[0], k, f"{path} key", {}):
                _parse(args[1], v, f"{path}.{k}", meta) for k, v in value.items()}
    if tp is float and type(value) is int:  # accepted, stored as a float
        value = float(value) if abs(value) <= 1e308 else math.inf
    if type(value) is not tp:
        _fail(path, f"expected {_KINDS[tp]}, got {got}")
    if tp is float and not abs(value) <= _MAX_NUMBER:  # nan fails too
        _fail(path, f"must be finite and at most {_MAX_NUMBER:g} in magnitude, "
                    f"got {value}")
    if "choices" in meta and value not in meta["choices"]:
        _fail(path, f"{value!r} is not one of {list(meta['choices'])}")
    for bound, (holds, op) in _BOUNDS.items():
        if bound in meta and not holds(value, meta[bound]):
            _fail(path, f"must be {op} {meta[bound]}, got {value}")
    return value


def schema_from_dict(cls, value, path: str = ""):
    """Parse a mapping into schema dataclass `cls`; errors name `path` + key."""
    if not isinstance(value, dict):
        _fail(path or "scenario", f"expected a mapping, got {type(value).__name__}")
    schema = _schema(cls)
    unknown = set(value) - {key for key, _, _ in schema}
    if unknown:
        _fail(path or "scenario", f"unknown key(s) {sorted(map(str, unknown))}")
    kwargs = {}
    for key, f, tp in schema:
        sub = f"{path}.{key}" if path else key
        if key in value:
            kwargs[f.name] = _parse(tp, value[key], sub, f.metadata)
        elif f.default is MISSING and f.default_factory is MISSING:
            _fail(sub, "required key is missing")
    return _built(path or "scenario", cls, **kwargs)


def schema_to_dict(value) -> Any:
    """Canonical mapping form of a schema dataclass (or of any value inside
    one): enums by value, and a None left out only where the field defaults
    to None. It round-trips through `schema_from_dict`."""
    if is_dataclass(value):
        return {key: schema_to_dict(v) for key, f, _ in _schema(type(value))
                if (v := getattr(value, f.name)) is not None or f.default is not None}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [schema_to_dict(v) for v in value]
    if isinstance(value, dict):
        return {schema_to_dict(k): schema_to_dict(v) for k, v in value.items()}
    return value


# the actions that read each optional field of a script action
_SCRIPT_FIELD_READERS = {"endpoint": ("estop", "module_fault", "module_clear"),
                         "loop": ("reset",), "sensor": ("obstacle", "clear")}


def _validate(scn: Scenario) -> None:
    t, s, f, r = scn.traffic, scn.safety, scn.factory, scn.radio
    if scn.horizon_ns == 0:
        _fail("horizon_s", f"must round to at least 1 ns, got {scn.horizon_s:g} s")
    try:
        model = r.link_model()
    except ValueError as exc:  # led by its key within radio
        raise ConfigInvalid(f"radio.{exc}") from None
    if t.catalog == "measured" and abs(sum(t.camera_shares.values()) - 1.0) > 1e-9:
        _fail("traffic.camera_shares", "shares must sum to 1")
    profiles = _built("traffic.total_rate_mbps", t.profiles)
    # the last instant a stream can write must fit the packet columns' int64 ns
    wired_ns, *radio_ns = (round(us * NS_PER_US) for us in (
        r.wired_latency_us, r.tti_us, r.processing_delay_us, r.jitter_us))
    for i, p in enumerate(profiles):
        end = scn.horizon_ns + (sum(radio_ns) if p.wireless else wired_ns)
        payload = ("traffic.camera_packet_bytes" if t.catalog == "measured"
                   else f"traffic.catalog[{i}].payload_bytes")
        air = p.wireless * model.air_time_ns(p.payload_bytes)
        for path, at in (("horizon_s", end), (payload, end + air)):
            if at >= 2**63:
                _fail(path, f"stream {p.name} would write {at} ns, past int64")
    # no channel runs without safety, so nothing bounds the watchdog then
    up = s.enabled and _built("traffic.catalog", s.channel_streams, profiles)[0]
    if up and s.watchdog_ns < NS_PER_S / up.rate_hz:
        _fail("safety.watchdog_ms",
              f"watchdog {s.watchdog_ns / NS_PER_MS:g} ms is shorter than one cycle "
              f"({1e3 / up.rate_hz:.4g} ms at {up.rate_hz:g} Hz)")
    # the channel reads its rows' names and sizes and the up row's rate; a
    # row that sets another field away from what the channel does is an error
    rows = [(i, p) for i, p in enumerate(profiles) if p.name in SAFETY_STREAMS]
    if s.enabled and len(rows) == 2:
        for i, p in rows:
            path = f"traffic.catalog[{i}]"
            if p.rate_hz != up.rate_hz:
                _fail(f"{path}.rate_hz", f"the safety channel runs both PNIO rows "
                                         f"at {up.name}'s {up.rate_hz:g} Hz")
            if p.pattern is not Pattern.PERIODIC:
                _fail(f"{path}.pattern", "the safety channel's cycles are periodic")
            if p.phase_us != 0:
                _fail(f"{path}.phase_us", "the safety channel's cycles start at 0")
            if not p.wireless:
                _fail(f"{path}.wireless", "the safety channel rides the radio link")
    ids = [i.id for i in f.islands]
    if "manual" in ids:
        _fail(f"factory.islands[{ids.index('manual')}].id",
              "'manual' is reserved for the manual workstation")
    places: dict[str, str] = {}  # each module and dock id -> what makes it
    for i, island in enumerate(f.islands):
        for path, kind, name in [(f"factory.islands[{i}].id", "dock", "dock")] + [
                (f"factory.islands[{i}].capabilities[{k}]", "module", c)
                for k, c in enumerate(island.capabilities)]:
            place = f"{island.id}.{name}"
            if place in places:
                _fail(path, f"its {kind} id {place!r} is also {places[place]}")
            places[place] = f"the {kind} id of {path}"
    for path, island_id in (("factory.robot_home", f.robot_home),
                            ("factory.releases.island", f.releases.island)):
        if island_id not in ids:
            _fail(path, f"{island_id!r} is not an id in factory.islands")
    caps = {c for island in f.islands for c in island.capabilities}
    for cap in f.service_overrides:
        if cap not in caps:
            _fail(f"factory.service_overrides.{cap}",
                  f"{cap!r} is no capability in factory.islands")
    for a, row in f.transit_s.items():
        for path, node in [(a, a)] + [(f"{a}.{b}", b) for b in row]:
            if node not in ids and node != "manual":
                _fail(f"factory.transit_s.{path}",
                      f"{node!r} is neither an id in factory.islands nor 'manual'")
    missing = [step for step in f.recipe if step not in caps]
    if missing and not f.manual_station:
        _fail("factory.recipe", f"steps {missing} have no capable module in "
                                "factory.islands and no manual station is configured")
    if f.defect_probability > 0 and not f.manual_station:
        _fail("factory.defect_probability", "a failed inspection is reworked at the "
                                            "manual station, and none is configured")
    nodes = ids + (["manual"] if f.manual_station else [])
    gaps = [f"{a} -> {b}" for a in nodes for b in nodes
            if a != b and b not in f.transit_s.get(a, {})]
    if gaps:
        _fail("factory.transit_s", f"missing {', '.join(gaps)} (one entry per pair "
                                   "of factory.islands and the manual station)")
    islands = f.islands if f.enabled else []
    modules = {f"{i.id}.{c}" for i in islands for c in i.capabilities}
    loops = {f"{i.id}.loop" for i in islands}
    # the robot and the safety PLC exist only with the factory
    endpoints = {"estop": modules | ({"robot", "safety_plc"} if islands else set()),
                 "module_fault": modules, "module_clear": modules}
    for i, a in enumerate(scn.script):
        for name, readers in _SCRIPT_FIELD_READERS.items():
            if getattr(a, name) is not None and a.action not in readers:
                _fail(f"script[{i}].{name}", f"{a.action} does not read it")
        if a.action in ("obstacle", "clear", "reset_local") and not islands:
            _fail(f"script[{i}].action", f"{a.action} acts on the robot, which only "
                                         "an enabled factory has")
        if a.action in endpoints and a.endpoint not in endpoints[a.action]:
            _fail(f"script[{i}].endpoint", f"{a.endpoint!r} is no {a.action} target "
                                           "of enabled factory.islands")
        if a.action == "reset" and a.loop is not None and a.loop not in loops:
            _fail(f"script[{i}].loop",
                  f"{a.loop!r} is no loop of enabled factory.islands")
        if a.action in ("obstacle", "clear") and a.sensor is None:
            _fail(f"script[{i}].sensor", f"{a.action} needs a sensor")


def scenario_from_dict(data: dict) -> Scenario:
    scn = schema_from_dict(Scenario, data)
    _validate(scn)
    return scn


def dump_scenario(scn: Scenario) -> str:
    import yaml  # only the YAML paths pay for importing PyYAML

    return yaml.safe_dump(schema_to_dict(scn), sort_keys=False)


def _check_unique_keys(node, path: str, checked: set[int]) -> None:
    """Reject a mapping that repeats a key, which YAML loading would
    otherwise resolve silently to the last value. A node that aliases make
    reachable by many paths, or by a cycle, is checked once, under the first."""
    import yaml

    if id(node) in checked:
        return
    checked.add(id(node))
    if isinstance(node, yaml.MappingNode):
        seen = set()
        for key_node, value_node in node.value:
            sub = f"{path}.{key_node.value}" if path else str(key_node.value)
            if sub in seen:
                _fail(sub, f"duplicate key (line {key_node.start_mark.line + 1})")
            seen.add(sub)
            _check_unique_keys(value_node, sub, checked)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _check_unique_keys(item, f"{path}[{i}]", checked)


def load_scenario(path: str) -> Scenario:
    """Load a config file, read once, so that a pipe such as `/dev/stdin`
    works too."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        _check_unique_keys(yaml.compose(text, Loader=yaml.SafeLoader), "", set())
        data = yaml.safe_load(text)
    except ConfigInvalid:  # a duplicate key, already named by its path
        raise
    except (ValueError, RecursionError, yaml.YAMLError) as exc:
        # a bad encoding, nesting past the parser's recursion, or an integer
        # longer than Python converts
        raise ConfigInvalid(f"{path}: {exc}") from None
    return default_scenario() if data is None else scenario_from_dict(data)
