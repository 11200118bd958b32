"""In-process spans around the public functions of each topodata layer.

The tracer wraps functions from outside the package: it replaces module
attributes and class methods for the length of a ``with`` block and
restores them afterwards, so no file of the library changes.  Every
wrapped call adds its inclusive time to its parent frame, which gives
each layer's self time.  Calls of the cheap reachability and dimension
queries (the hot layers), made millions of times by some operators, are
only counted and timed; every other call is also kept as a span with its
name, start, end and parent.  A tracer made with ``hot=False`` leaves
the hot layers unwrapped, so that their callers' self times carry no
per-call tracing cost.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# layer -> (module, attribute or Class.method) of the functions it owns
LAYERS = {
    "script.parse": [("topodata.script", "parse_script")],
    "script.run": [("topodata.script", "run_script")],
    "io.parse": [("topodata.io", name) for name in (
        "parse_space", "parse_map", "parse_theta", "parse_partition", "detect_kind",
        "load_space", "load_map", "load_theta", "load_dataset")],
    "io.serialize": [("topodata.io", name) for name in (
        "serialize_space", "serialize_map", "serialize_theta", "serialize_partition")],
    "space.construct": [("topodata.space", "Space.__init__")],
    "space.reach": [("topodata.space", f"Space.{name}")
                    for name in ("down_set", "up_set", "in_preorder")],
    "space.dimension": [("topodata.space", f"Space.{name}")
                        for name in ("dimension", "space_dimension")],
    "space.reduce": [("topodata.space", "Space.transitive_reduce")],
    "algebra.theta_join": [("topodata.algebra", "theta_join")],
    "algebra.select": [("topodata.algebra", "select_subspace")],
    "algebra.product": [("topodata.algebra", "product")],
    "algebra.intersect": [("topodata.algebra", "pullback_intersection")],
    "algebra.union": [("topodata.algebra", "paste_union")],
    "algebra.quotient": [("topodata.algebra", "quotient")],
    "algebra.fibre_product": [("topodata.algebra", "fibre_product")],
    "maps.spacemap": [("topodata.maps", "SpaceMap.__init__")],
    "maps.continuity": [("topodata.maps", "is_continuous")],
    "constraints.validate": [("topodata.constraints", "validate")],
}
HOT = {"space.reach", "space.dimension"}  # counted and timed, no span records


def _owner(module_name: str, dotted: str):
    """The module or class holding a target, and the attribute name."""
    owner = sys.modules[module_name]
    *classes, attr = dotted.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Spans and counts of one traced replay.

    Use as a context manager: entering installs the wrappers (without
    those of the hot layers if ``hot`` is false), leaving removes them.
    ``stats`` maps each layer to [calls, inclusive seconds, self seconds];
    ``counts`` holds the work counters.
    """

    def __init__(self, hot: bool = True):
        self.layers = [layer for layer in LAYERS if hot or layer not in HOT]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.active = dict.fromkeys(LAYERS, 0)  # open calls per layer
        self._stack: list[list] = []  # [child seconds, span index]
        self._depth: dict[str, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- installation --------------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "topodata" or name.startswith("topodata.")]
        for layer in self.layers:
            for module_name, dotted in LAYERS[layer]:
                owner, attr = _owner(module_name, dotted)
                original = owner.__dict__[attr]
                wrapper = self._wrap(layer, attr, original)
                self._patch(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                # names imported elsewhere with ``from ... import``
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, attr, fn):
        if layer in HOT:
            return self._wrap_hot(layer, attr, fn)
        stats = self.stats[layer]
        stack = self._stack
        spans = self.spans
        active = self.active
        clock = time.perf_counter
        after = _AFTER.get((layer, attr))

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            active[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[layer] -= 1
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                spans[index] = (f"{layer}.{attr}", start - self.origin,
                                end - self.origin, parent)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def _wrap_hot(self, layer, attr, fn):
        # Hot layers call nothing traced but themselves (in_preorder calls
        # down_set), so only the outermost call reads the clock: that keeps
        # the added cost per call small and still gives the self time.
        stats = self.stats[layer]
        stack = self._stack
        active = self.active
        counts = self.counts
        clock = time.perf_counter
        depth = self._depth.setdefault(layer, [0])
        is_preorder = attr == "in_preorder"

        def traced(*args, **kwargs):
            stats[0] += 1
            if is_preorder:
                if active["algebra.theta_join"]:
                    counts["algebra.theta_join.pair_tests"] += 1
                if active["maps.continuity"]:
                    counts["maps.continuity_pairs"] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] = 0
                stats[1] += elapsed
                stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def self_seconds(self, layer: str) -> float:
        return self.stats[layer][2]

    def report(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "layers": {layer: {"calls": calls, "inclusive_s": inclusive, "self_s": own}
                       for layer, (calls, inclusive, own) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [{"name": name, "start": start, "end": end, "parent": parent}
                      for name, start, end, parent in self.spans],
        }


def _text_bytes(counts, key, text):
    counts[key] += len(text.encode("utf-8")) if isinstance(text, str) else 0


# work counters taken from arguments and results at layer boundaries
_AFTER = {
    ("space.construct", "__init__"):
        lambda counts, args, result: counts.update(
            {"space.construct_elems": len(args[0].elements)}),
    ("algebra.theta_join", "theta_join"):
        lambda counts, args, result: counts.update(
            {"algebra.theta_join.cover_pairs": len(result[0].incidence)}),
}
for _name in ("parse_space", "parse_map", "parse_theta", "parse_partition", "detect_kind"):
    _AFTER[("io.parse", _name)] = (
        lambda counts, args, result: _text_bytes(counts, "io.parse_bytes", args[0]))
for _name in ("serialize_space", "serialize_map", "serialize_theta", "serialize_partition"):
    _AFTER[("io.serialize", _name)] = (
        lambda counts, args, result: _text_bytes(counts, "io.serialize_bytes", result))
