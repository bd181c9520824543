"""Self-checks of the benchmark's workloads: each loads, and a short traced run
still stresses the layer the workload exists for.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import pytest

from child import run_once
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, scenario_dict, use_checkout_source

use_checkout_source()

from fablink import simulation  # noqa: E402
from fablink.scenario import scenario_from_dict  # noqa: E402

SMOKE_HORIZON_S = {"steady": 5.0, "bulk": 3.0, "plant": 120.0}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_loads(workload):
    for horizon_s in (None, SMOKE_HORIZON_S[workload]):
        scenario_from_dict(scenario_dict(workload, DEFAULT_SEED, horizon_s))


def smoke(workload, tmp_path, tracer=None):
    return run_once(workload, DEFAULT_SEED, tmp_path, tracer,
                    horizon_s=SMOKE_HORIZON_S[workload])


def test_steady_exercises_link_and_safety(tmp_path):
    layers = smoke("steady", tmp_path, Tracer())["layers"]
    assert layers["sim_core.events.safety"] > 0
    assert layers["radio_link.calls"] > 0


def test_bulk_bypasses_link_and_safety(tmp_path):
    layers = smoke("bulk", tmp_path, Tracer())["layers"]
    assert layers["sim_core.events.safety"] == 0
    # link calls are set-up lookups, not per packet
    assert layers["radio_link.calls"] * 1000 < layers["traffic.records"]


def test_plant_is_factory_only(tmp_path):
    layers = smoke("plant", tmp_path, Tracer())["layers"]
    assert layers["traffic.records"] == 0
    assert layers["sim_core.events.script"] == 4
    assert layers["factory.route_plans"] > layers["sim_core.events.factory"]


def test_tracing_changes_no_artifact_and_is_undone(tmp_path):
    plan_route = simulation.plan_route
    plain = smoke("plant", tmp_path / "plain")
    traced = smoke("plant", tmp_path / "traced", Tracer())
    assert traced["digests"] == plain["digests"]
    assert traced["events"] == plain["events"]
    assert simulation.plan_route is plan_route
