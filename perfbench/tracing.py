"""Outside-in tracing of one fablink run, from the benchmark's own files.

Nothing here changes fablink's source. Spans are kept in memory and written
out when the run ends:

* a span (name, start, end, parent) around each public call the benchmark
  makes and around the engine loop and each compliance fold;
* a rollup (count and total seconds) per layer for the hot boundaries, where
  one span per call would cost more than the call: event handlers per
  module, calls into the instance's public `LinkModel` methods, and
  `plan_route`.

Event handlers are tagged by wrapping `Engine.schedule` on the engine
instance, so every action is timed under the module it was scheduled for.
Timed layers nest: a safety handler's time includes the link-model calls it
makes. A layer's outermost call is timed once; calls it makes into itself
are not counted again.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.rollups: dict[str, list] = {}  # layer -> [count, seconds, parent]
        self._undo: list[tuple[object, str, object, bool]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def _rollup(self, layer: str, parent: str) -> list:
        entry = self.rollups.get(layer)
        if entry is None:
            entry = self.rollups[layer] = [0, 0.0, parent]
        return entry

    def count(self, layer: str) -> int:
        return self.rollups[layer][0] if layer in self.rollups else 0

    def seconds(self, layer: str) -> float:
        return self.rollups[layer][1] if layer in self.rollups else 0.0

    def span_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    # -- wrapping ------------------------------------------------------------

    def _timed(self, fn, layer: str, parent: str, depth: list[int]):
        """`fn` with each outermost call counted and timed under `layer`;
        calls made while one of the same layer is running pass through."""
        entry = self._rollup(layer, parent)

        def timed(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[1] += perf_counter() - start
                entry[0] += 1
                depth[0] = 0

        return timed

    def _spanned(self, fn, name: str, depth: list[int]):
        def spanned(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            try:
                with self.span(name):
                    return fn(*args, **kwargs)
            finally:
                depth[0] = 0

        return spanned

    def _replace(self, owner, attr: str, new) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            owner, attr, old, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def install(self, sim) -> None:
        """Wrap the layers of a constructed, not yet run, `Simulation`."""
        from fablink import compliance, simulation

        engine = sim.engine
        schedule = engine.schedule
        def tagged_schedule(event):
            entry = self._rollup(f"{event.module}.handler", "sim_core.loop")
            action = event.action

            def timed_action():
                start = perf_counter()
                try:
                    action()
                finally:
                    entry[1] += perf_counter() - start
                    entry[0] += 1

            event.action = timed_action
            return schedule(event)

        self._replace(engine, "schedule", tagged_schedule)
        self._replace(engine, "run_until", self._spanned(
            engine.run_until, "sim_core.loop", [0]))

        link_depth = [0]
        link_model = sim.link_model
        for name in dir(type(link_model)):
            if not name.startswith("_") and callable(getattr(link_model, name)):
                self._replace(link_model, name, self._timed(
                    getattr(link_model, name), "radio_link", "sim_core.loop",
                    link_depth))

        fold_depth = [0]
        for name in ("collect_stream_metrics", "aggregate_metrics"):
            self._replace(compliance, name, self._spanned(
                getattr(compliance, name), "compliance.fold", fold_depth))
        self._replace(compliance.ComplianceReport, "add", self._spanned(
            compliance.ComplianceReport.add, "compliance.fold", fold_depth))
        self._replace(simulation, "plan_route", self._timed(
            simulation.plan_route, "factory.plan_route", "factory.handler", [0]))

    # -- output ----------------------------------------------------------------

    def to_dict(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": name, "start_s": start - origin, "end_s": end - origin,
                 "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "rollups": [
                {"layer": layer, "count": count, "seconds": seconds,
                 "parent": parent}
                for layer, (count, seconds, parent) in sorted(self.rollups.items())
            ],
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1) + "\n", encoding="utf-8")
