"""Due products: the controller tick plans only the products that are due, so
a waiting product whose plan cannot change is parked until the one thing it
waits for wakes it, and the plant runs exactly as one whose tick plans every
waiting product (`reference.polling_simulation`).
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from fablink import simulation
from fablink.factory import ProductState
from fablink.scenario import ConfigInvalid, scenario_from_dict
from fablink.simulation import PlantRuntime, Simulation
from reference import polling_simulation
from scenarios import random_scenario


def _observed(result) -> tuple:
    return (result.product_log, result.safety_log, result.summary.events_processed,
            result.factory_stats)


def _counting_advance(monkeypatch) -> list[int]:
    """Count `PlantRuntime._advance` calls, the polling plant's included."""
    calls = [0]
    advance = PlantRuntime._advance

    def counted(self, product):
        calls[0] += 1
        advance(self, product)

    monkeypatch.setattr(PlantRuntime, "_advance", counted)
    return calls


def _with_stop_and_fault(config: dict, rng: random.Random) -> dict:
    """`config` with two more script pairs when its plant is enabled: an
    estop of a random module and, 0.5 to 10 s later, the reset of its
    island's loop; and a module fault and, as much later, its clear. Drawn
    scripts rarely stop a loop or fault a module that a product then waits
    on before the clear comes."""
    plant = config["factory"]
    if not plant["enabled"]:
        return config
    horizon = config["horizon_s"]
    for first, then in (("estop", "reset"), ("module_fault", "module_clear")):
        island = rng.choice(plant["islands"])
        module = f"{island['id']}.{rng.choice(island['capabilities'])}"
        at = round(rng.uniform(0.0, horizon / 2), 3)
        later = round(at + rng.uniform(0.5, 10.0), 3)
        config["script"] += [
            {"at_s": at, "action": first, "endpoint": module},
            {"at_s": later, "action": then, "loop": f"{island['id']}.loop"}
            if then == "reset" else
            {"at_s": later, "action": then, "endpoint": module}]
    return config


def test_generated_plants_run_as_the_polling_plant(monkeypatch):
    # plant-heavy draws: no traffic and no safety channel, so the plant is
    # nearly all the work; the scripts estop, reset, fault and clear modules
    calls = _counting_advance(monkeypatch)
    rng = random.Random(7)
    ran, actions, woken_calls, polled_calls = 0, set(), 0, 0
    for _ in range(250):
        config = _with_stop_and_fault(random_scenario(
            rng, horizon_s=(10.0, 60.0), traffic=False, safety=False), rng)
        try:
            scenario_from_dict(config)
        except ConfigInvalid:
            continue
        ran += 1
        actions |= {a["action"] for a in config["script"]}
        calls[0] = 0
        woken = Simulation(scenario_from_dict(config)).run()
        woken_calls += calls[0]
        calls[0] = 0
        polled = polling_simulation(config).run()
        polled_calls += calls[0]
        assert _observed(woken) == _observed(polled), config
    assert ran >= 200
    assert {"estop", "reset", "module_fault", "module_clear"} <= actions
    assert woken_calls < polled_calls / 2


def _plant(script: list[dict], releases: dict) -> dict:
    # the robot starts two islands away, so a product whose job is queued at
    # island1 waits there about 7 s for it
    return {"horizon_s": 12.0, "traffic": {"catalog": []},
            "safety": {"enabled": False},
            "factory": {"robot_home": "island3", "releases": releases},
            "script": script}


WAKE_CASES = {
    # product1 holds island1.engrave when product2 is released, so product2's
    # job goes to the manual station and it parks on (island1, engrave); the
    # carrier leaving for insert_spring at 2.5 s wakes it
    "carrier_leaves": (_plant([], {"count": 2, "interval_s": 0.5}),
                       ("island1", "engrave"), "product2", 2_500_000_000),
    # the faulted module sends product1's job to the manual station; the
    # clear wakes it
    "module_clear": (_plant(
        [{"at_s": 0.0, "action": "module_fault", "endpoint": "island1.engrave"},
         {"at_s": 2.0, "action": "module_clear", "endpoint": "island1.engrave"}],
        {"count": 1, "start_s": 0.5}), ("island1", "engrave"), "product1",
        2_000_000_000),
    # product1 is released into a safe-stopped island; the reset wakes it
    "loop_reset": (_plant(
        [{"at_s": 0.3, "action": "estop", "endpoint": "island1.engrave"},
         {"at_s": 2.0, "action": "reset", "loop": "island1.loop"}],
        {"count": 1, "start_s": 0.5}), "island1", "product1", 2_000_000_000),
}


@pytest.mark.parametrize("case", sorted(WAKE_CASES))
def test_a_woken_product_acts_in_the_tick_polling_acts_in(case):
    data, key, product, at = WAKE_CASES[case]
    sim = Simulation(scenario_from_dict(data))
    plant, wakes = sim.plant, []
    wake = plant._wake

    def recording_wake(wake_key) -> None:
        # the waiting products this wake makes due, in release order
        before = set(plant._due)
        wake(wake_key)
        wakes.extend((sim.engine.now, wake_key, p.id)
                     for rank, p in sorted(plant._due.items())
                     if rank not in before and p.state is ProductState.WAITING)

    plant._wake = recording_wake
    woken = sim.run()
    polled = polling_simulation(data).run()
    assert _observed(woken) == _observed(polled)
    assert wakes == [(at, key, product)]
    # it logs nothing from its release until the wake, then moves in that tick
    for result in (woken, polled):
        events = [e for e in result.product_log if e.product == product]
        assert events[0].event == "released" and events[0].at < at
        assert events[1].event == "transfer_start" and events[1].at == at
        assert events[1].detail.endswith("->island1.engrave")


def _perfbench_plant(horizon_s: float) -> dict:
    """The benchmark's `plant` workload at its default seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.scenario_dict("plant", workloads.DEFAULT_SEED, horizon_s)


def test_the_plant_workload_runs_as_the_polling_plant_without_mid_pass_plans(
        monkeypatch):
    # at the benchmark's 120 s smoke horizon the polling tick makes 47,498
    # `_advance` calls. Planning only due products makes 3,283 route plans; a
    # walk over every unfinished product made 3,524, as it also planned, in
    # the same pass, a product woken by one planned before it. The pass's
    # readiness snapshot still held the freed module busy, so that plan could
    # not act
    calls = _counting_advance(monkeypatch)
    plans = [0]
    plan_route = simulation.plan_route

    def counted_plan(*args, **kwargs):
        plans[0] += 1
        return plan_route(*args, **kwargs)

    monkeypatch.setattr(simulation, "plan_route", counted_plan)
    config = _perfbench_plant(120.0)
    woken = Simulation(scenario_from_dict(config)).run()
    assert plans[0] == 3_283
    assert calls[0] < 5_000
    calls[0] = 0
    assert _observed(woken) == _observed(polling_simulation(config).run())
    assert calls[0] == 47_498
