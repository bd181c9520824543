"""Golden artifact digests: the six artifacts of each case must keep their
exact bytes across commits, not only between two runs of one process.

The matrix covers the radio and safety paths:

* `default`: the default scenario at 10 s;
* `jitter`: the same with `radio.jitter_us: 50`;
* `lossy`: the same at 13 dB SNR, so safety PDUs are lost and retried;
* `radio_overrides`: 30 s off every radio default: CP-OFDM on the V2V
  channel at a 500 us TTI, other processing and wired delays, and BLER and
  throughput anchors of its own, so about 0.7 % of wireless packets are lost;
* `link_outage`: the default scenario at 10 s with a 50 ms `link_down`
  window that traffic and safety PDUs both lose packets to, a watchdog
  safe stop of `island1.loop` and its reset;
* `fault_script`: the default scenario at 60 s with a module fault and
  clear, a laser obstacle and clear, and a bumper latch with its local reset;

and the factory routing paths:

* `plant`: the benchmark's plant scenario at 120 s, releases above line
  capacity with defects and an estop/reset/link script;
* `shared_capability`: a capability on two islands, so a product with a
  robot job queued for another island can later take a freed local module;
* `no_manual_station`: a product with no idle capable module logs
  `no_route` once each time it loses its route;
* `all_defective`: every inspected product fails and is reworked by hand;
* `short_transit`: 1 s robot legs, shorter than the cloud round trip, so
  verdicts time out, and a drained line sends the robot home.

Each case's five small artifacts are stored verbatim under
`tests/golden/<case>/` and compared byte for byte, a mismatch shown as a
unified diff. `packets.csv` is kept as its SHA-256 in `golden/digests.json`,
with its row count and a SHA-256 per stream over that stream's rows in `seq`
order, so a mismatch names the streams whose rows changed, or else says that
only the engine order moved.

Each case's `metrics.json` entries also round-trip through the schema
walker, and `fablink check` re-scores them to the run's own verdict rows.

An artifact may change only in a commit that says which bytes changed and
why. To print the current `packets.csv` digests, or to rewrite the stored
artifacts and digests, after such a change:

    PYTHONPATH=src python tests/test_golden.py [--update]
"""

from __future__ import annotations

import csv
import difflib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fablink.artifacts import RunArtifacts, write_artifacts
from fablink.cli import main
from fablink.compliance import StreamMetrics
from fablink.scenario import scenario_from_dict, schema_from_dict, schema_to_dict
from fablink.simulation import Simulation

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "digests.json"
# the artifacts stored verbatim; packets.csv is kept as its digests
STORED = ["compliance.json", "compliance.txt", "metrics.json", "products.csv",
          "safety_log.csv"]

_FACTORY_ONLY = {"traffic": {"catalog": []}, "safety": {"enabled": False}}
_NODES = ["island1", "island2", "island3", "manual"]

CASES: dict[str, dict] = {
    "default": {"horizon_s": 10.0},
    "jitter": {"horizon_s": 10.0, "radio": {"jitter_us": 50.0}},
    "lossy": {"horizon_s": 10.0, "radio": {"snr_db": 13.0}},
    "radio_overrides": {
        "horizon_s": 30.0,
        "radio": {
            "waveform": "CP-OFDM",
            "channel": "V2V-Urban-NLOS",
            "snr_db": 19.0,
            "tti_us": 500,
            "processing_delay_us": 50.0,
            "wired_latency_us": 300.0,
            "bler_anchors": {"CP-OFDM": {"V2V-Urban-NLOS": {
                "anchors": [[16, 0.5], [22, 1e-4]], "floor": 1e-6, "tail_slope": 2}}},
            "throughput_anchors": {"CP-OFDM": [[5, 0], [10, 4], [20, 8]]},
        },
        "factory": {"releases": {"count": 3, "interval_s": 5.0}},
    },
    "link_outage": {
        "horizon_s": 10.0,
        "script": [
            {"at_s": 2.0, "action": "link_down"},
            {"at_s": 2.05, "action": "link_up"},
            {"at_s": 3.0, "action": "reset", "loop": "island1.loop"},
        ],
    },
    "fault_script": {
        "horizon_s": 60.0,
        "script": [
            {"at_s": 15.0, "action": "module_fault", "endpoint": "island1.engrave"},
            {"at_s": 22.0, "action": "obstacle", "sensor": "laser"},
            {"at_s": 24.0, "action": "clear", "sensor": "laser"},
            {"at_s": 35.0, "action": "module_clear", "endpoint": "island1.engrave"},
            {"at_s": 41.0, "action": "obstacle", "sensor": "bumper"},
            {"at_s": 46.0, "action": "reset_local"},
        ],
    },
    "plant": {
        **_FACTORY_ONLY,
        "seed": 42,
        "horizon_s": 120.0,
        "factory": {
            "defect_probability": 0.3,
            "releases": {"count": 200, "interval_s": 1.5},
        },
        "script": [
            {"at_s": 40.0, "action": "estop", "endpoint": "island2.mount_cover"},
            {"at_s": 70.0, "action": "reset", "loop": "island2.loop"},
            {"at_s": 90.0, "action": "link_down"},
            {"at_s": 110.0, "action": "link_up"},
        ],
    },
    "shared_capability": {
        **_FACTORY_ONLY,
        "seed": 42,
        "horizon_s": 200.0,
        "factory": {
            "recipe": ["a", "b", "c"],
            "islands": [
                {"id": "island1", "capabilities": ["a", "b"]},
                {"id": "island2", "capabilities": ["b", "c"]},
                {"id": "island3", "capabilities": ["c"]},
            ],
            "defect_probability": 0.3,
            "releases": {"count": 60, "interval_s": 3.0},
        },
    },
    "no_manual_station": {
        **_FACTORY_ONLY,
        "seed": 42,
        "horizon_s": 200.0,
        "factory": {
            "manual_station": False,
            "releases": {"count": 60, "interval_s": 3.0},
        },
    },
    "short_transit": {
        **_FACTORY_ONLY,
        "seed": 42,
        "horizon_s": 150.0,
        "factory": {
            "transit_s": {a: dict.fromkeys(_NODES, 1.0) for a in _NODES},
            "defect_probability": 0.5,
            "releases": {"count": 3, "interval_s": 20.0},
        },
    },
    "all_defective": {
        **_FACTORY_ONLY,
        "seed": 42,
        "horizon_s": 200.0,
        "factory": {
            "defect_probability": 1,
            "releases": {"count": 20, "interval_s": 5.0},
        },
    },
}


def run_case(case: str, out_dir: Path) -> RunArtifacts:
    return write_artifacts(Simulation(scenario_from_dict(CASES[case])).run(), out_dir)


def artifact_digests(artifacts: RunArtifacts) -> dict[str, str]:
    """The SHA-256 of each artifact, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in artifacts.paths()
    }


def packets_digests(path: Path) -> dict:
    """`packets.csv`'s SHA-256, its row count, and the SHA-256 of each
    stream's rows in `seq` order."""
    data = path.read_bytes()
    rows = data.split(b"\r\n")[1:-1]  # the header first, and a CRLF last
    by_stream: dict[str, list[tuple[int, bytes]]] = {}
    for row in rows:
        stream, seq = next(csv.reader([row.decode("utf-8")]))[:2]
        by_stream.setdefault(stream, []).append((int(seq), row + b"\r\n"))
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": len(rows),
            "streams": {stream: hashlib.sha256(b"".join(
                            row for _, row in sorted(stream_rows))).hexdigest()
                        for stream, stream_rows in sorted(by_stream.items())}}


@pytest.fixture(scope="module")
def case_artifacts(tmp_path_factory):
    """The artifacts of each case, run once for every test of this module."""
    runs: dict[str, RunArtifacts] = {}

    def get(case: str) -> RunArtifacts:
        if case not in runs:
            runs[case] = run_case(case, tmp_path_factory.mktemp(case))
        return runs[case]
    return get


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, case_artifacts):
    artifacts = case_artifacts(case)
    failures = []
    for name in STORED:
        got = (artifacts.out_dir / name).read_bytes()
        want = (GOLDEN_DIR / case / name).read_bytes()
        if got != want:
            failures.append("".join(difflib.unified_diff(
                want.decode("utf-8").splitlines(keepends=True),
                got.decode("utf-8").splitlines(keepends=True),
                f"golden/{case}/{name}", f"run/{name}")) or f"{name}: bytes differ")
    got = packets_digests(artifacts.packets_csv)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]["packets.csv"]
    if got != want:
        changed = sorted(stream for stream in got["streams"].keys() | want["streams"]
                         if got["streams"].get(stream) != want["streams"].get(stream))
        failures.append(f"packets.csv: {want['rows']} -> {got['rows']} rows; " + (
            f"the rows of {changed} changed" if changed
            else "every stream's rows are unchanged: only the engine order moved"))
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_round_trip_and_check_rescores_the_run(case, case_artifacts, capsys):
    artifacts = case_artifacts(case)
    doc = json.loads(artifacts.metrics_json.read_text(encoding="utf-8"))
    entries = {f"streams.{name}": entry for name, entry in doc["streams"].items()}
    entries["aggregate"] = doc["aggregate"]
    for path, entry in entries.items():
        assert schema_to_dict(schema_from_dict(StreamMetrics, entry, path)) == entry
    run_table = artifacts.compliance_txt.read_text(encoding="utf-8").splitlines()
    for profile in ("aspect1", "aspect2"):
        rows = [line for line in run_table if line.split()[1:2] == [profile]]
        capsys.readouterr()
        code = main(["check", str(artifacts.metrics_json), "--profile", profile])
        out, err = capsys.readouterr()
        if code == 2:  # nothing assessed, as in the run
            assert err.startswith("nothing assessed: ")
            assert all("NotAssessed" in row for row in rows), profile
        else:
            check_rows = [line for line in out.splitlines()
                          if line.split()[1:2] == [profile]]
            assert check_rows == rows, profile


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)
    assert sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_dir()) == sorted(CASES)
    for case in CASES:
        assert sorted(p.name for p in (GOLDEN_DIR / case).iterdir()) == STORED, case


if __name__ == "__main__":
    update = sys.argv[1:] == ["--update"]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            artifacts = run_case(case, Path(tmp) / case)
            digests[case] = {"packets.csv": packets_digests(artifacts.packets_csv)}
            if update:
                (GOLDEN_DIR / case).mkdir(exist_ok=True)
                for name in STORED:
                    (GOLDEN_DIR / case / name).write_bytes(
                        (artifacts.out_dir / name).read_bytes())
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if update:
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
