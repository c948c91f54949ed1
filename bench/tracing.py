"""Spans around seqbase's public functions, recorded without editing the package.

`Tracer.install` rebinds each layer's public functions to timing wrappers
in every seqbase module that holds them, and the `BaseSequence` methods on
the class, so calls made inside the package are traced as well as calls
from the benchmark.  Each wrapper records a span: name, start, end and the
span it ran inside.  Spans live in flat arrays until `summary` turns them
into per-name counts, durations and per-layer self times.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter

# layer -> (module, public functions); the layer name is the module name
LAYERS = {
    "base_sequences": (
        "seqbase.base_sequences",
        ("prime", "square", "m_power", "factorial", "power_of", "fibonacci", "lucas",
         "make_builtin", "make_explicit", "make_mixed_radix", "parse_base_file", "load_base_file"),
    ),
    "codec": (
        "seqbase.codec",
        ("encode_greedy", "decode", "digits_value", "is_canonical", "expansion_superior_parts",
         "verify_range"),
    ),
    "digit_text": ("seqbase.digit_text", ("render", "parse", "table")),
    "mixed_radix_arith": (
        "seqbase.mixed_radix_arith",
        ("add", "sub", "mul", "divrem", "is_pure_mixed_radix"),
    ),
    "cli": ("seqbase.cli", ("main",)),
}
BASE_METHODS = ("term", "digit_bound", "superior_part", "max_encodable")


class Tracer:
    """Records spans while installed; `summary` aggregates them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """`fn` recording a span called `name` on every call."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced name wherever a seqbase module looks it up."""
        from seqbase.base_sequences import BaseSequence

        modules = [m for n, m in sorted(sys.modules.items()) if n == "seqbase" or n.startswith("seqbase.")]
        for layer, (module_name, functions) in LAYERS.items():
            home = sys.modules[module_name]
            for fname in functions:
                original = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, traced)
        for method in BASE_METHODS:
            self._rebind(BaseSequence, method, self.wrap(f"base_sequences.{method}", vars(BaseSequence)[method]))

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def mark(self) -> int:
        """Index of the next span, for summarizing a stretch of the record."""
        return len(self.span_start)

    def summary(self, lo: int = 0, hi: int | None = None) -> "TraceSummary":
        """Spans lo .. hi-1; a stretch that starts and ends between top-level spans holds whole subtrees."""
        return TraceSummary(self, lo, len(self.span_start) if hi is None else hi)


class TraceSummary:
    """Per-name durations and per-layer self time of a stretch of spans.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.
    """

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        durations = [tracer.span_end[i] - tracer.span_start[i] for i in range(lo, hi)]
        child_time = [0.0] * (hi - lo)
        for k, parent in enumerate(tracer.span_parent[lo:hi]):
            if parent >= lo:
                child_time[parent - lo] += durations[k]
        self.spans = hi - lo
        self.durations: dict[str, list[float]] = {name: [] for name in tracer.names}
        self.self_s: dict[str, float] = {}
        for k, nid in enumerate(tracer.span_name[lo:hi]):
            name = tracer.names[nid]
            self.durations[name].append(durations[k])
            layer = name.partition(".")[0]
            self.self_s[layer] = self.self_s.get(layer, 0.0) + durations[k] - child_time[k]

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def p50(self, name: str) -> float:
        """Median inclusive duration of the spans called `name`, in seconds (0.0 when none ran)."""
        samples = self.durations.get(name)
        return statistics.median(samples) if samples else 0.0

    def layer_self_s(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "self_s": {layer: round(s, 6) for layer, s in sorted(self.self_s.items())},
            "names": {
                name: {"count": len(d), "total_s": round(sum(d), 6), "p50_us": round(self.p50(name) * 1e6, 3)}
                for name, d in sorted(self.durations.items())
                if d
            },
        }
