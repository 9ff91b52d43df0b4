"""In-process tracer for the benchmark: spans around heptapile's public functions.

``Tracer`` rebinds each probed function, in every ``heptapile`` module
namespace that holds it by name, to a wrapper that records a span (name,
start, end, parent span, and a few facts about the call).  Rebinding the
importing modules too is what catches nested calls such as ``waves.relax`` or
``sandpile.fnv1a64``.  Leaving the ``with`` block restores the originals, so
untraced iterations run the program as shipped.  Spans stay in memory;
``layer_metrics`` turns them into the per-layer metrics afterwards.

A probed function that a later version of the package no longer has is
skipped, and the metrics built from it read 0.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "meta")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.meta = {}
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def within(self, names) -> bool:
        """True when some enclosing span has one of ``names``."""
        span = self.parent
        while span is not None:
            if span.name in names:
                return True
            span = span.parent
        return False


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _build_before(meta, args, kwargs):
    meta["rss0"] = _maxrss_mib()


def _build_after(meta, args, kwargs, result):
    meta["m"] = int(_arg(args, kwargs, 0, "m"))
    meta["n"] = result.n
    meta["rss_rise"] = _maxrss_mib() - meta.pop("rss0")


def _saved_bytes(meta, args, kwargs, result):
    meta["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _relax_after(meta, args, kwargs, result):
    meta["n"] = _arg(args, kwargs, 0, "state").ball.n
    meta["topples"] = result.topples
    meta["dequeues"] = result.dequeues


def _wave_route_after(meta, args, kwargs, result):
    meta["waves"] = result.wave_count
    meta["front"] = sum(len(front) for front in result.fronts)


def _families_after(meta, args, kwargs, result):
    meta["families"] = len(result)


def _svg_after(meta, args, kwargs, result):
    meta["bytes"] = len(result)
    meta["cells"] = result.count(' id="v')


# (module, function, before hook, after hook); the span is named "module.function"
PROBES = (
    ("ball", "build_ball", _build_before, _build_after),
    ("ball", "validate_ball", None, None),
    ("ball", "save_ball", None, _saved_bytes),
    ("ball", "load_ball", None, None),
    ("ball", "fnv1a64", None, None),
    ("sandpile", "relax", None, _relax_after),
    ("sandpile", "relax_random", None, None),
    ("sandpile", "save_state", None, _saved_bytes),
    ("sandpile", "load_state", None, None),
    ("sandpile", "save_odometer", None, _saved_bytes),
    ("sandpile", "load_odometer", None, None),
    ("waves", "wave_relax_multi", None, _wave_route_after),
    ("waves", "wave_relax", None, _wave_route_after),
    ("waves", "wave", None, None),
    ("closed_form", "predicted_beta", None, None),
    ("closed_form", "predicted_odometer", None, None),
    ("verify", "site_families", None, _families_after),
    ("verify", "check_combinatorics", None, None),
    ("verify", "relaxation_sweep", None, None),
    ("verify", "check_mass_ratio", None, None),
    ("verify", "check_wave_profiles", None, None),
    ("verify", "check_abelian", None, None),
    ("verify", "check_geometry", None, None),
    ("geometry", "build_embedding", None, None),
    ("geometry", "edge_lengths", None, None),
    ("geometry", "interior_angles", None, None),
    ("geometry", "nearest_neighbor_mismatches", None, None),
    ("render", "render_state", None, _svg_after),
    ("cli", "main", None, None),
)

# called thousands of times per embedding: counted, not timed
COUNTED = (("ball", "link_cycle"),)


def _original(module, func):
    return getattr(sys.modules.get(f"heptapile.{module}"), func, None)


class Tracer:
    """Records spans and call counts while active (use as a context manager)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def __enter__(self):
        for module, func, before, after in PROBES:
            original = _original(module, func)
            if original is not None:
                self._rebind(original,
                             self._timed(original, f"{module}.{func}", before, after))
        for module, func in COUNTED:
            original = _original(module, func)
            if original is not None:
                self._rebind(original, self._counted(original, f"{module}.{func}"))
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()
        return False

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    def _rebind(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "heptapile" and not name.startswith("heptapile."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _timed(self, fn, name, before, after):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            self.spans.append(span)
            if before is not None:
                before(span.meta, args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span.meta, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


_WAVE_ROUTES = frozenset(("waves.wave_relax_multi", "waves.wave_relax"))

# metrics combined over iterations by their maximum rather than their median
MAX_METRICS = frozenset(("ball.build_rss_mib",))


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics (seconds, counts, ratios) from one set of spans."""
    by_name = defaultdict(list)
    child_seconds = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            child_seconds[id(span.parent)] += span.seconds

    def total(*names):
        return sum(s.seconds for name in names for s in by_name[name])

    def self_time(name):
        return sum(s.seconds - child_seconds[id(s)] for s in by_name[name])

    def meta_sum(name, key, keep=lambda s: True):
        return sum(s.meta[key] for s in by_name[name] if keep(s))

    relax_spans = by_name["sandpile.relax"]
    direct = [s for s in relax_spans if not s.within(_WAVE_ROUTES | {"waves.wave"})]
    direct_s = sum(s.seconds for s in direct)
    topples = sum(s.meta["topples"] for s in direct)
    routes = [s for name in _WAVE_ROUTES for s in by_name[name]
              if not s.within(_WAVE_ROUTES)]
    route_s = sum(s.seconds for s in routes)
    route_relax_s = sum(s.seconds for s in relax_spans if s.within(_WAVE_ROUTES))
    builds = by_name["ball.build_ball"]
    largest = max((s.meta["m"] for s in builds), default=None)
    build_rss = [s.meta["rss_rise"] for s in builds if s.meta["m"] == largest]

    return {
        "ball.build_s": total("ball.build_ball"),
        "ball.validate_s": self_time("ball.validate_ball"),
        "ball.vertices_built": meta_sum("ball.build_ball", "n"),
        "ball.build_rss_mib": max(build_rss, default=0.0),
        "ball.save_s": total("ball.save_ball"),
        "ball.load_s": total("ball.load_ball"),
        "ball.checksum_s": total("ball.fnv1a64"),
        "ball.file_bytes": meta_sum("ball.save_ball", "bytes"),
        "ball.link_cycle_calls": counts.get("ball.link_cycle", 0),
        "sandpile.relax_s": total("sandpile.relax"),
        "sandpile.relax_calls": len(relax_spans),
        "sandpile.relax_mean_n": (statistics.fmean(s.meta["n"] for s in relax_spans)
                                  if relax_spans else 0.0),
        "sandpile.topples": topples,
        "sandpile.dequeues": sum(s.meta["dequeues"] for s in direct),
        "sandpile.topples_per_s": topples / direct_s if direct_s else 0.0,
        "sandpile.relax_random_s": total("sandpile.relax_random"),
        "sandpile.field_io_s": total("sandpile.save_state", "sandpile.load_state",
                                     "sandpile.save_odometer",
                                     "sandpile.load_odometer"),
        "sandpile.field_bytes": (meta_sum("sandpile.save_state", "bytes")
                                 + meta_sum("sandpile.save_odometer", "bytes")),
        "waves.wave_relax_s": route_s,
        "waves.waves": sum(s.meta["waves"] for s in routes),
        "waves.front_vertices": sum(s.meta["front"] for s in routes),
        "waves.relax_share": route_relax_s / route_s if route_s else 0.0,
        "waves.wave_s": total("waves.wave"),
        "closed_form.predict_s": total("closed_form.predicted_beta",
                                       "closed_form.predicted_odometer"),
        "verify.combinatorics_s": total("verify.check_combinatorics"),
        "verify.sweep_s": total("verify.relaxation_sweep"),
        "verify.mass_ratio_s": total("verify.check_mass_ratio"),
        "verify.wave_profiles_s": total("verify.check_wave_profiles"),
        "verify.abelian_s": total("verify.check_abelian"),
        "verify.geometry_s": total("verify.check_geometry"),
        "verify.trials": meta_sum(
            "verify.site_families", "families",
            lambda s: s.within({"verify.relaxation_sweep"})),
        "geometry.embed_s": total("geometry.build_embedding"),
        "geometry.edge_lengths_s": total("geometry.edge_lengths"),
        "geometry.angles_s": total("geometry.interior_angles"),
        "geometry.nn_check_s": total("geometry.nearest_neighbor_mismatches"),
        "render.render_s": total("render.render_state"),
        "render.svg_bytes": meta_sum("render.render_state", "bytes"),
        "render.cells_drawn": meta_sum("render.render_state", "cells"),
        "cli.self_s": self_time("cli.main"),
    }
