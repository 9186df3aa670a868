"""Per-layer spans and counters, attached to trusspath from outside.

`Tracer.install` replaces each traced public function with a wrapper in
every trusspath module that binds its name (`config_collides_batch`, for
one, is imported by five modules).  A wrapper records one span per call
(name, start, end, parent span) in memory, adds the call's inclusive and
self time to its function's totals, and derives work counts from the
call's arguments and result.  Nothing inside trusspath changes, so the
counts describe the public functions exactly as callers use them.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np


def _segment_pairs(args, kwargs, result) -> dict:
    return {"pairs": result.size}  # one distance per broadcast segment pair


def _ik_sweep(args, kwargs, result) -> dict:
    origins = kwargs.get("origins", args[2] if len(args) > 2 else None)
    return {
        "poses": int(np.atleast_2d(origins).shape[0]),
        "solutions": sum(len(f) for f in result),
    }


_ROBOT_CAPSULES: dict[int, tuple[int, int]] = {}  # by id(robot)


def _robot_capsules(robot) -> tuple[int, int]:
    """(robot capsules, self-collision pairs), read from the table that
    config_collides_batch itself tests."""
    from trusspath.kinematics import _robot_capsule_table

    if id(robot) not in _ROBOT_CAPSULES:
        frames_idx, _, _, _, pairs = _robot_capsule_table(robot)
        _ROBOT_CAPSULES[id(robot)] = (len(frames_idx), len(pairs))
    return _ROBOT_CAPSULES[id(robot)]


def _config_collides(args, kwargs, result) -> dict:
    robot = args[0]
    scene = kwargs.get("scene", args[2] if len(args) > 2 else None)
    capsules, pairs = _robot_capsules(robot)
    obstacles = len(scene or ()) + len(robot.static_capsules)
    configs = int(np.atleast_2d(np.asarray(args[1])).shape[0])
    return {"configs": configs, "capsule_tests": configs * (capsules * obstacles + pairs)}


def _analyze(args, kwargs, result) -> dict:
    partial = args[0]
    model = partial.model
    nodes = set()
    for eid in partial.element_ids:
        e = model.element(eid)
        nodes.update((e.start, e.end))
    return {"dofs": 6 * sum(1 for n in nodes if not model.node(n).grounded)}


def _retraction(args, kwargs, result) -> dict:
    return {"fallbacks": int(result is None)}


def _transition(args, kwargs, result) -> dict:
    return {"direct": int(result.iterations == 0 and not result.via_home)}


def _rrt(args, kwargs, result) -> dict:
    return {"iterations": 0 if result is None else int(result[1])}


# (layer, function, extra counts from (args, kwargs, result)).  The layer is
# the trusspath module that defines the function.
TRACED = (
    ("geometry", "segment_distance_batch", _segment_pairs),
    ("geometry", "ee_element_collision", None),
    ("geometry", "ee_self_collision", None),
    ("kinematics", "ik_sweep", _ik_sweep),
    ("kinematics", "config_collides_batch", _config_collides),
    ("structural", "analyze", _analyze),
    ("cartesian", "prepare_tasks", None),
    ("cartesian", "expand_and_search", None),
    ("cartesian", "build_rungs", None),
    ("cartesian", "chain_search", None),
    ("cartesian", "extract_block_path", None),
    ("cartesian", "plan_retraction", _retraction),
    ("transition", "plan_transition", _transition),
    ("transition", "rrt_connect", _rrt),
    ("transition", "shortcut", None),
    ("postprocess", "tcp_entries", None),
    ("postprocess", "save_plan", None),
    # stage entry points: their self time is the stage's own bookkeeping,
    # and their spans are the parents of the layer spans in the trace file
    ("sequence", "plan_sequence", None),
    ("pipeline", "run_pipeline", None),
    ("pipeline", "validate_plan", None),
)


@dataclass
class FunctionStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.stats: dict[str, FunctionStats] = {}
        # one column per span field; flat arrays keep hundreds of thousands
        # of spans out of the garbage collector's sight
        self.spans = {
            "name": array("i"),  # index into self.names
            "start": array("d"),  # perf_counter seconds
            "end": array("d"),
            "parent": array("q"),  # index of the enclosing span, -1 at top
        }
        self._open: list[int] = []  # span indices of the calls in progress
        self._child: list[float] = []  # child time inside each open call
        self._restore: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package.__name__
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for layer, func, counter in TRACED:
            original = getattr(sys.modules[f"{self.package.__name__}.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original, counter)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    self._restore.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._restore):
            setattr(mod, func, original)
        self._restore.clear()

    def _wrap(self, name: str, original, counter):
        index = len(self.names)
        self.names.append(name)
        stats = self.stats[name] = FunctionStats()
        span_names, starts = self.spans["name"], self.spans["start"]
        ends, parents = self.spans["end"], self.spans["parent"]
        open_, child = self._open, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(span_names)
            span_names.append(index)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(span)
            child.append(0.0)
            start = clock()
            starts.append(start)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                ends[span] = end
                open_.pop()
                inner = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                stats.calls += 1
                stats.s += duration
                stats.self_s += duration - inner
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stats.counts[key] = stats.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = original
        return traced

    def metrics(self) -> dict[str, float]:
        """`<layer>.<function>.<quantity>` totals over everything traced."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
            for key, value in st.counts.items():
                out[f"{name}.{key}"] = value
        return out

    def write(self, path) -> None:
        """Spans as columns: `names`, then per span its name index, start,
        end and parent span index."""
        doc = {"names": self.names}
        doc.update((k, v.tolist()) for k, v in self.spans.items())
        with open(path, "w") as fh:
            json.dump(doc, fh)
