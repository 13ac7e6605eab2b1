"""Span tracer that wraps public functions of pettis_forge from outside.

The traced run installs a wrapper around each function in ``TARGETS``.  A
wrapper records one span per call: name, start, end and the span that was
open when it was called (its parent).  Spans are kept in flat arrays for the
length of one iteration and reduced to per-name figures afterwards; a span's
self time is its duration minus the durations of its direct children.

Nothing here touches ``src/``: wrappers replace attributes on modules and
classes at run time and ``uninstall`` puts the originals back.  A target
that no longer exists (after a refactor) is skipped, and the metrics that
depend on it are reported as absent.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import sys
import time
from array import array

PACKAGE = "pettis_forge"


# Result hooks: called with (tracer, result, args) after a wrapped call
# returns, they update the named counters the per-layer ratios need.


def _overlap_hit(tr, result, args):
    if result:
        tr.count("carriers.overlap.hits")


def _carrier_parts(tr, result, args):
    tr.count("carriers.carrier.parts", len(result))


def _set_parts(tr, result, args):
    tr.count("intervals.parts_built", len(args[0].parts))


def _pairs_checked(tr, result, args):
    tr.count("carriers.verify_disjointness.pairs_checked", result.pairs_checked)


def _archive_bytes(tr, result, args):
    tr.count("config.archive.bytes", os.path.getsize(args[1]))


def _rendered_bytes(tr, result, args):
    tr.count("campaigns.render.bytes", len(result.encode("utf-8")))


def _sampling(tr, result, args):
    s = result.summary
    rejected = s.get("rejected_samples", s.get("rejected_too_close", 0))
    accepted = s.get("random_rows", s.get("pairs", len(result.rows)))
    tr.count("campaigns.rejected", rejected)
    tr.count("campaigns.drawn", rejected + accepted)


# (span name, module, class or None, attribute, result hook)
TARGETS = (
    ("intervals.intersect", "intervals", "IntervalSet", "intersect", None),
    ("intervals.clip", "intervals", "IntervalSet", "clip", None),
    ("intervals.interval_set", "intervals", "IntervalSet", "__init__", _set_parts),
    ("carriers.overlap", "carriers", "CarrierFamily", "overlap", _overlap_hit),
    ("carriers.carrier_measure", "carriers", "CarrierFamily", "carrier_measure", None),
    ("carriers.carrier", "carriers", "CarrierFamily", "carrier", _carrier_parts),
    ("carriers.to_json", "carriers", "CarrierFamily", "to_json", None),
    ("carriers.from_json", "carriers", "CarrierFamily", "from_json", None),
    ("carriers.verify_disjointness", "carriers", None, "verify_disjointness", _pairs_checked),
    ("psi.coefficients", "psi", None, "coefficients", None),
    ("psi.tail_bound", "psi", None, "tail_bound", None),
    ("psi.eval_psi_total", "psi", None, "eval_psi_total", None),
    ("blocks.vector_init", "blocks", "BlockVector", "__init__", None),
    ("blocks.norm", "blocks", "BlockVector", "norm", None),
    ("pettis.pettis_integral", "pettis", None, "pettis_integral", None),
    ("pettis.scalar_integral", "pettis", None, "scalar_integral", None),
    ("pettis.enclosure_apply", "pettis", "IntegralEnclosure", "apply", None),
    ("continuous.check_pair", "continuous", None, "check_pair", None),
    ("continuous.eval_f", "continuous", None, "eval_f", None),
    ("continuous.eval_fn", "continuous", None, "eval_fn", None),
    ("campaigns.run", "campaigns", None, "run_lower_bound_sweep", _sampling),
    ("campaigns.run", "campaigns", None, "run_pairing_check", _sampling),
    ("campaigns.run", "campaigns", None, "run_continuous_campaign", _sampling),
    ("campaigns.render", "campaigns", "Report", "render", _rendered_bytes),
    ("config.load_json", "config", None, "load_json", None),
    ("config.build_model", "config", None, "build_model_from_config", None),
    ("config.write_archive", "config", None, "write_archive", _archive_bytes),
    ("config.load_archive", "config", None, "load_archive", None),
)

# Per-layer metric -> (unit, span it is computed from, how).
#   calls, self_s: count and summed self time of the span
#   s:             summed duration of outermost spans of that name
#   p50_us/p99_us: percentiles of per-call duration
#   counter:<name>, ratio:<num>/<den>: hook counters
PER_LAYER = {
    "pettis.pettis_integral.calls": ("count", "pettis.pettis_integral", "calls"),
    "pettis.pettis_integral.self_s": ("s", "pettis.pettis_integral", "self_s"),
    "pettis.pettis_integral.p50_us": ("us", "pettis.pettis_integral", "p50_us"),
    "pettis.pettis_integral.p99_us": ("us", "pettis.pettis_integral", "p99_us"),
    "carriers.overlap.calls": ("count", "carriers.overlap", "calls"),
    "carriers.overlap.self_s": ("s", "carriers.overlap", "self_s"),
    "carriers.overlap.hit_ratio": ("ratio", "carriers.overlap", "ratio:carriers.overlap.hits/calls"),
    "carriers.carrier_measure.calls": ("count", "carriers.carrier_measure", "calls"),
    "carriers.carrier_measure.self_s": ("s", "carriers.carrier_measure", "self_s"),
    "psi.tail_bound.calls": ("count", "psi.tail_bound", "calls"),
    "psi.tail_bound.self_s": ("s", "psi.tail_bound", "self_s"),
    "blocks.vector_init.calls": ("count", "blocks.vector_init", "calls"),
    "blocks.vector_init.self_s": ("s", "blocks.vector_init", "self_s"),
    "blocks.norm.calls": ("count", "blocks.norm", "calls"),
    "continuous.check_pair.calls": ("count", "continuous.check_pair", "calls"),
    "continuous.check_pair.self_s": ("s", "continuous.check_pair", "self_s"),
    "continuous.check_pair.p50_us": ("us", "continuous.check_pair", "p50_us"),
    "continuous.check_pair.p99_us": ("us", "continuous.check_pair", "p99_us"),
    "continuous.eval_f.calls": ("count", "continuous.eval_f", "calls"),
    "continuous.eval_f.self_s": ("s", "continuous.eval_f", "self_s"),
    "continuous.eval_fn.calls": ("count", "continuous.eval_fn", "calls"),
    "intervals.intersect.calls": ("count", "intervals.intersect", "calls"),
    "intervals.intersect.self_s": ("s", "intervals.intersect", "self_s"),
    "intervals.clip.calls": ("count", "intervals.clip", "calls"),
    "intervals.parts_built": ("count", "intervals.interval_set", "counter:intervals.parts_built"),
    "carriers.carrier.calls": ("count", "carriers.carrier", "calls"),
    "carriers.carrier.parts": ("count", "carriers.carrier", "counter:carriers.carrier.parts"),
    "carriers.carrier.self_s": ("s", "carriers.carrier", "self_s"),
    "pettis.scalar_integral.calls": ("count", "pettis.scalar_integral", "calls"),
    "pettis.scalar_integral.self_s": ("s", "pettis.scalar_integral", "self_s"),
    "pettis.scalar_integral.p50_us": ("us", "pettis.scalar_integral", "p50_us"),
    "pettis.scalar_integral.p99_us": ("us", "pettis.scalar_integral", "p99_us"),
    "pettis.enclosure_apply.calls": ("count", "pettis.enclosure_apply", "calls"),
    "pettis.enclosure_apply.self_s": ("s", "pettis.enclosure_apply", "self_s"),
    "carriers.to_json.s": ("s", "carriers.to_json", "s"),
    "carriers.from_json.s": ("s", "carriers.from_json", "s"),
    "carriers.verify_disjointness.s": ("s", "carriers.verify_disjointness", "s"),
    "carriers.verify_disjointness.pairs_checked": (
        "count",
        "carriers.verify_disjointness",
        "counter:carriers.verify_disjointness.pairs_checked",
    ),
    "config.write_archive.s": ("s", "config.write_archive", "s"),
    "config.load_archive.s": ("s", "config.load_archive", "s"),
    "config.archive.bytes": ("bytes", "config.write_archive", "counter:config.archive.bytes"),
    "campaigns.run.self_s": ("s", "campaigns.run", "self_s"),
    "campaigns.render.s": ("s", "campaigns.render", "s"),
    "campaigns.render.bytes": ("bytes", "campaigns.render", "counter:campaigns.render.bytes"),
    "campaigns.rejected_ratio": ("ratio", "campaigns.run", "ratio:campaigns.rejected/campaigns.drawn"),
    "psi.coefficients.s": ("s", "psi.coefficients", "s"),
    "psi.eval_psi_total.calls": ("count", "psi.eval_psi_total", "calls"),
    "psi.eval_psi_total.self_s": ("s", "psi.eval_psi_total", "self_s"),
    "config.build_model.s": ("s", "config.build_model", "s"),
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._installed: list[tuple[object, str, object, list]] = []
        self.present: set[str] = set()
        self._timed = {self._id(span) for _, span, how in PER_LAYER.values() if how.endswith("_us")}
        self._inclusive = {self._id(span) for _, span, how in PER_LAYER.values() if how == "s"}
        self.reset()

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager for the benchmark's own stage spans."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, module_name, cls_name, attr, hook in self.targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                continue
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None:
                continue
            if cls_name:
                self._install_method(owner, attr, name, hook)
            else:
                self._install_function(module, attr, name, hook)

    def _install_method(self, cls, attr: str, name: str, hook) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, hook))
        elif callable(raw):
            wrapped = self.wrap(raw, name, hook)
        else:
            return
        setattr(cls, attr, wrapped)
        self._installed.append((cls, attr, raw, None))
        self.present.add(name)

    def _install_function(self, module, attr: str, name: str, hook) -> None:
        original = module.__dict__.get(attr)
        if not callable(original):
            return
        wrapped = self.wrap(original, name, hook)
        # Callers that imported the function by name hold their own
        # reference, so every module of the package is rebound.
        rebound = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    rebound.append((mod, key))
        self._installed.append((None, attr, original, rebound))
        self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, original, rebound in reversed(self._installed):
            if owner is not None:
                setattr(owner, attr, original)
            else:
                for mod, key in rebound:
                    setattr(mod, key, original)
        self._installed.clear()

    # -- reduction ------------------------------------------------------------

    def profile(self) -> dict[str, dict]:
        """Per span name: calls, self_s, s (outermost spans only) and, for
        spans with percentile metrics, per-call durations."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "self_s": 0.0, "s": 0.0, "durations": []}
            for name in self.names
        }
        recs = [out[name] for name in self.names]
        for i in range(n):
            name_id = names[i]
            rec = recs[name_id]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if name_id in self._timed:
                rec["durations"].append(dur[i])
            # Only a recursive call (build_model_from_config reached again
            # through load_archive) has an ancestor of its own name.
            if name_id not in self._inclusive or not _has_ancestor(i, name_id, names, parents):
                rec["s"] += dur[i]
        return out

    def layer_metrics(self, prof: dict[str, dict]) -> tuple[dict[str, float], list[str]]:
        """The PER_LAYER figures from ``profile()``, and the metric names
        whose wrapped function does not exist."""
        metrics: dict[str, float] = {}
        absent: list[str] = []
        for metric, (_, span, how) in PER_LAYER.items():
            if span not in self.present:
                absent.append(metric)
                continue
            metrics[metric] = _derive(how, prof[span], self.counters)
        return metrics, absent


def _derive(how: str, rec: dict, counters: dict[str, int]) -> float:
    if how in ("calls", "self_s", "s"):
        return rec[how]
    if how in ("p50_us", "p99_us"):
        d = rec["durations"]
        if not d:
            return 0.0
        if len(d) == 1:
            return d[0] * 1e6
        q = statistics.quantiles(d, n=100, method="inclusive")
        return (q[49] if how == "p50_us" else q[98]) * 1e6
    if how.startswith("counter:"):
        return counters.get(how[len("counter:"):], 0)
    num, den = how[len("ratio:"):].split("/")
    den_value = rec["calls"] if den == "calls" else counters.get(den, 0)
    return counters.get(num, 0) / den_value if den_value else 0.0


def _has_ancestor(i: int, name_id: int, names, parents) -> bool:
    p = parents[i]
    while p >= 0:
        if names[p] == name_id:
            return True
        p = parents[p]
    return False
