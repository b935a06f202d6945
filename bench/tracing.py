"""Layer-by-layer tracing of fprod from outside its source.

`Tracer.install` wraps the public functions of each fprod module, plus the
class methods and properties listed in `MEMBERS`, with span recorders. A
wrapper replaces the module attribute and every binding that `from ...
import` made of the same object in another fprod module, so calls between
modules are seen too. `Tracer.uninstall` puts every original back.

A span is (name, parent, request, start, end), kept in flat arrays in memory
and written out by `Tracer.write`. A span's self time is its duration minus
the time its child spans cover. Work done only to count (hashing specs to
count distinct ones) is recorded as an unnamed child span, so it counts
towards no layer.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("foundations", "filters", "topology", "fproduct", "uniformity", "serialize", "verifier", "cli")

# Class members wrapped besides module-level functions. The default span name
# is "<module>.<Class>.<member>"; ProductSpec.indexing builds a fresh
# foundations.ProductIndexing on every access, so it is charged to foundations.
MEMBERS = (
    ("fproduct", "ProductSpec", "indexing", "foundations.indexing"),
    ("filters", "Filter", "members", None),
    ("topology", "Topology", "minimal_neighborhood", None),
    ("topology", "Topology", "is_open", None),
    ("topology", "Topology", "opens", None),
    ("topology", "Topology", "neighborhoods_filter", None),
    ("topology", "Topology", "is_hausdorff", None),
    ("topology", "Topology", "is_t1", None),
    ("topology", "Topology", "is_dense", None),
    ("uniformity", "Relation", "pair_list", None),
    ("uniformity", "Uniformity", "minimal_entourage", None),
    ("uniformity", "Uniformity", "members", None),
    ("uniformity", "Uniformity", "member", None),
)

# Spans whose wrapper also records a number in `Tracer.attrs`.
_COUNT_INPUT = "foundations.canonicalize"  # masks passed in
_COUNT_PAIRS = "uniformity.f_uniformity_base"  # size of the pair universe scanned
_COUNTERS = {
    "topology.validate_base": lambda args, result: len(args[0]),  # members validated
    _COUNT_PAIRS: lambda args, result: result.universe_size,
    "verifier.verify_proposition": lambda args, result: result.checked,
    "verifier.search_counterexample": lambda args, result: result.checked,
}
_DISTINCT = "fproduct.f_topology"  # distinct (spec, delta_family) arguments

_BOX_BASES = ("fproduct.f_topology_base", "fproduct.f_filter_base", "uniformity.f_uniformity_base")
_POINT_QUERIES = (
    "fproduct.equalizer",
    "fproduct.different_by_filter",
    "fproduct.projection_map",
    "fproduct.projection_preimage",
)
_TOPOLOGY_QUERIES = (
    "topology.Topology.is_open",
    "topology.Topology.is_dense",
    "topology.Topology.is_hausdorff",
    "topology.topology_leq",
    "topology.is_continuous",
    "topology.subspace",
)
_LABELS = ("serialize.product_point_label", "serialize.product_subset_to_labels")


def _is_own_function(obj, module) -> bool:
    is_func = inspect.isfunction(obj) or hasattr(obj, "cache_info")
    return is_func and getattr(obj, "__module__", None) == module.__name__


def _fprod_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "fprod" or n.startswith("fprod.")]


def installed_wrappers() -> list[str]:
    """Every tracing wrapper currently reachable from fprod."""
    found = []
    for module in _fprod_modules():
        for attr, obj in vars(module).items():
            if hasattr(obj, "bench_span"):
                found.append(f"{module.__name__}.{attr}")
    for layer, cls_name, attr, _ in MEMBERS:
        member = vars(getattr(sys.modules[f"fprod.{layer}"], cls_name))[attr]
        if hasattr(getattr(member, "fget", member), "bench_span"):
            found.append(f"fprod.{layer}.{cls_name}.{attr}")
    return found


class Tracer:
    """Span recorder for one process; install, run, uninstall, then read."""

    def __init__(self) -> None:
        self.names: list[str | None] = []
        self._name_ids: dict[str | None, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, int] = {}
        self.request_id = -1
        self.distinct: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _fprod_modules()
        for layer in LAYERS:
            module = sys.modules[f"fprod.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not _is_own_function(obj, module):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{attr}")
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._patch(ns, attr, wrapper)
        for layer, cls_name, attr, span in MEMBERS:
            cls = getattr(sys.modules[f"fprod.{layer}"], cls_name)
            original = vars(cls)[attr]
            name = span or f"{layer}.{cls_name}.{attr}"
            if isinstance(original, property):
                wrapped = property(self._wrap(original.fget, name))
            else:
                wrapped = self._wrap(original, name)
            self._patch(cls, attr, wrapped)

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- recording ---------------------------------------------------------

    def _id(self, name: str | None) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, sid: int) -> int:
        i = len(self.name_of)
        self.name_of.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _wrap(self, fn, name: str):
        sid = self._id(name)
        untimed = self._id(None)
        start, end, stack, attrs, clock = self.start, self.end, self._stack, self.attrs, time.perf_counter
        open_span = self._open
        distinct = self.distinct

        def close(i: int) -> None:
            end[i] = clock()
            stack.pop()

        if name == _COUNT_INPUT:
            def wrapper(masks, *args, **kwargs):
                i = open_span(sid)
                start[i] = clock()
                try:
                    masks = list(masks)
                    attrs[i] = len(masks)
                    return fn(masks, *args, **kwargs)
                finally:
                    close(i)
        elif name == _DISTINCT:
            def wrapper(spec, delta_family=None):
                j = open_span(untimed)
                start[j] = clock()
                distinct.add((spec, delta_family))
                close(j)
                i = open_span(sid)
                start[i] = clock()
                try:
                    return fn(spec, delta_family)
                finally:
                    close(i)
        else:
            count = _COUNTERS.get(name)

            def wrapper(*args, **kwargs):
                i = open_span(sid)
                start[i] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                if count is not None:
                    attrs[i] = count(args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.bench_span = name
        return wrapper

    # -- reading -----------------------------------------------------------

    def write(self, path: Path, request_keys: list[str]) -> None:
        """Spans as tab-separated rows, preceded by their name and request tables.

        Times are microseconds from the first span; parent -1 is a root.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for k, name in enumerate(self.names):
                fh.write(f"# name {k} {name or '(untimed)'}\n")
            for k, key in enumerate(request_keys):
                fh.write(f"# request {k} {key}\n")
            fh.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            for i in range(len(self.name_of)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t{self.name_of[i]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )


class SpanSummary:
    """Per-name call counts, self times and counters over a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        names, name_of, parent = tracer.names, tracer.name_of, tracer.parent
        n = len(name_of)
        dur = array("d", (e - s for s, e in zip(tracer.start, tracer.end)))
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counted: dict[str, int] = {}
        # layer entry: the outermost span of an unbroken chain of same-layer spans
        entry = array("i", bytes(4 * n))
        self.entry_self_s: dict[str, float] = {}
        self.box_choices = 0
        self.boxes_accepted = 0
        self.pair_points = 0
        for i in range(n):
            name = names[name_of[i]]
            p = parent[i]
            pname = names[name_of[p]] if p >= 0 else None
            if name is None:
                continue
            layer = name.split(".", 1)[0]
            same = pname is not None and pname.split(".", 1)[0] == layer
            entry[i] = entry[p] if same else i
            own = dur[i] - covered[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total_s[name] = self.total_s.get(name, 0.0) + dur[i]
            entry_name = names[name_of[entry[i]]]
            self.entry_self_s[entry_name] = self.entry_self_s.get(entry_name, 0.0) + own
            if i in tracer.attrs:
                self.counted[name] = self.counted.get(name, 0) + tracer.attrs[i]
            if pname in _BOX_BASES:
                if name == "fproduct.box_delta":
                    self.box_choices += 1
                elif name == _COUNT_INPUT:
                    # each box base ends in one SetFamily.of over its accepted boxes,
                    # and f_uniformity_base scans its pair universe once per box
                    self.boxes_accepted += tracer.attrs[i]
                    if pname == _COUNT_PAIRS:
                        self.pair_points += tracer.attrs[i] * tracer.attrs[p]
        self.spans = n

    def layer_self_s(self, layer: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer), 0.0)

    def sum_calls(self, names) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def sum_self(self, names) -> float:
        return sum((self.self_s.get(n, 0.0) for n in names), 0.0)


# ---------------------------------------------------------------------------
# per-layer metrics


# name, unit, better, the end-to-end metric and workload it should move
METRICS = (
    ("verifier.instances", "count", "higher", "wall_s on catalog"),
    ("verifier.self_s", "s", "lower", "wall_s on catalog"),
    ("serialize.spec_to_dict.calls", "count", "lower", "wall_s on catalog; none on construct"),
    ("serialize.parse_instance.calls", "count", "lower", "wall_s on catalog; none on construct"),
    ("serialize.parse_instance.self_s", "s", "lower", "wall_s on catalog; none on construct"),
    ("serialize.labels.self_s", "s", "lower", "wall_s on construct"),
    ("cli.self_s", "s", "lower", "wall_s on construct"),
    ("cli.out_bytes", "bytes", "lower", "wall_s on construct"),
    ("fproduct.f_topology.calls", "count", "lower", "wall_s on construct, then catalog"),
    ("fproduct.f_topology.distinct_share", "ratio", "higher", "wall_s on catalog, at a cost in peak_rss_mb"),
    ("fproduct.box_to_pointset.calls", "count", "lower", "wall_s on construct, then catalog"),
    ("fproduct.box_accept_share", "ratio", "higher", "wall_s on construct, then catalog"),
    ("fproduct.construct.self_s", "s", "lower", "wall_s on construct, then catalog"),
    ("fproduct.point_query.calls", "count", "lower", "wall_s and slowest_op_s on deep"),
    ("fproduct.point_query.self_s", "s", "lower", "wall_s and slowest_op_s on deep"),
    ("foundations.canonicalize.calls", "count", "lower", "wall_s on construct and catalog"),
    ("foundations.canonicalize.members", "count", "lower", "wall_s on construct and catalog"),
    ("foundations.indexing.calls", "count", "lower", "wall_s on deep"),
    ("foundations.self_s", "s", "lower", "wall_s on construct and catalog"),
    ("filters.principal_filter.calls", "count", "lower", "wall_s on catalog"),
    ("filters.self_s", "s", "lower", "wall_s on catalog"),
    ("topology.generate_topology.calls", "count", "lower", "wall_s on construct"),
    ("topology.base_members", "count", "lower", "wall_s on construct"),
    ("topology.self_s", "s", "lower", "wall_s on construct"),
    ("topology.query.calls", "count", "lower", "wall_s on deep and catalog"),
    ("topology.enumerate_s", "s", "lower", "setup_s"),
    ("uniformity.f_uniformity_base.calls", "count", "lower", "wall_s on construct and catalog"),
    ("uniformity.pair_points", "count", "lower", "wall_s on construct and catalog"),
    ("uniformity.self_s", "s", "lower", "wall_s on construct and catalog"),
    ("tracing.spans", "count", "lower", "none; tracing cost"),
    ("tracing.overhead_s", "s", "lower", "none; traced minus untraced wall_s"),
)
UNITS = {name: unit for name, unit, _, _ in METRICS}
TARGETS = {name: target for name, _, _, target in METRICS}


def pass_metrics(s: SpanSummary, distinct_specs: int, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    box_share = s.boxes_accepted / s.box_choices if s.box_choices else 0.0
    f_topology_calls = s.calls.get(_DISTINCT, 0)
    fproduct_self = s.layer_self_s("fproduct")
    point_query_self = s.sum_self(_POINT_QUERIES)
    return {
        "verifier.instances": s.counted.get("verifier.verify_proposition", 0)
        + s.counted.get("verifier.search_counterexample", 0),
        "verifier.self_s": s.layer_self_s("verifier"),
        "serialize.spec_to_dict.calls": s.calls.get("serialize.spec_to_dict", 0),
        "serialize.parse_instance.calls": s.calls.get("serialize.parse_instance", 0),
        "serialize.parse_instance.self_s": s.entry_self_s.get("serialize.parse_instance", 0.0),
        "serialize.labels.self_s": sum(s.entry_self_s.get(n, 0.0) for n in _LABELS),
        "cli.self_s": s.layer_self_s("cli"),
        "cli.out_bytes": out_bytes,
        "fproduct.f_topology.calls": f_topology_calls,
        "fproduct.f_topology.distinct_share": distinct_specs / f_topology_calls if f_topology_calls else 0.0,
        "fproduct.box_to_pointset.calls": s.calls.get("fproduct.box_to_pointset", 0),
        "fproduct.box_accept_share": box_share,
        "fproduct.construct.self_s": fproduct_self - point_query_self,
        "fproduct.point_query.calls": s.sum_calls(_POINT_QUERIES),
        "fproduct.point_query.self_s": point_query_self,
        "foundations.canonicalize.calls": s.calls.get(_COUNT_INPUT, 0),
        "foundations.canonicalize.members": s.counted.get(_COUNT_INPUT, 0),
        "foundations.indexing.calls": s.calls.get("foundations.indexing", 0),
        "foundations.self_s": s.layer_self_s("foundations"),
        "filters.principal_filter.calls": s.calls.get("filters.principal_filter", 0),
        "filters.self_s": s.layer_self_s("filters"),
        "topology.generate_topology.calls": s.calls.get("topology.generate_topology", 0),
        "topology.base_members": s.counted.get("topology.validate_base", 0),
        "topology.self_s": s.layer_self_s("topology"),
        "topology.query.calls": s.sum_calls(_TOPOLOGY_QUERIES),
        "uniformity.f_uniformity_base.calls": s.calls.get(_COUNT_PAIRS, 0),
        "uniformity.pair_points": s.pair_points,
        "uniformity.self_s": s.layer_self_s("uniformity"),
        "tracing.spans": s.spans,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes; a count stays one of the counts seen."""
    return {
        k: (statistics.median_low if isinstance(v, int) else statistics.median)([p[k] for p in per_pass])
        for k, v in per_pass[0].items()
    }
