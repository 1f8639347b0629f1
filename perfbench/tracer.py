"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of the
simulator's layer modules and two methods (``Receiver.process_buffer`` and
``LookupTable.__init__``). A function is replaced in every ``sweeploc``
module namespace that binds it, because ``pipeline``, ``receiver`` and
``experiments`` import with ``from ... import`` and keep their own
reference. Each call records a span ``[function id, start ns, end ns,
parent span]``; spans stay in memory until the run writes them out.

Counters are taken at the same boundaries as the spans, from the wrapped
call's arguments and result, so a ratio is measured where its work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("transmitter", "channel", "receiver", "pipeline", "backscatter",
          "scenario", "experiments")
METHODS = (("receiver", "Receiver", "process_buffer"),
           ("receiver", "LookupTable", "__init__"))
ROOT = "bench.call"  # the benchmark's own span around one workload call
COUNTERS = ("channel.propagate.samples", "channel.phased_sum.elements",
            "pipeline.fast_estimate_bearings.trials",
            "receiver.find_preamble.hits",
            "receiver.preamble.offsets_searched",
            "receiver.preamble.offsets_correlated",
            "receiver.process_buffer.buffers",
            "receiver.process_buffer.fixes",
            "backscatter.ber_point.bits",
            "backscatter.transmit_backscatter.samples")


def _arg(fn, name: str):
    """Getter of one argument of fn's calls: by position, else by keyword,
    else its default. Cheap, because a hook runs while its caller's span is
    open and its cost lands in the caller's self time."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(name, default)
    return get


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._corr_len: int | None = None  # last correlate_pattern result
        self._patches: list[tuple[object, str, object, object]] = []

    # --- spans ---------------------------------------------------------------

    def _fid(self, name: str) -> int:
        # One id per name, so a function wrapped twice nests in itself.
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += int(n)

    def wrap(self, name: str, fn):
        fid = self._fid(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self._hook(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([fid, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return traced

    def root(self, fn):
        """Run fn() under a root span; returns (result, wall ns)."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        fid = self._fid(ROOT)
        idx = len(self.spans)
        self.spans.append([fid, time.perf_counter_ns(), 0, -1])
        self._stack.append(idx)
        try:
            result = fn()
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()
        return result, self.spans[idx][2] - self.spans[idx][1]

    # --- counters ------------------------------------------------------------

    def _hook(self, name: str, fn):
        add = self._add
        if name == "channel.propagate":
            return lambda a, k, r: add("channel.propagate.samples", len(r.samples))
        if name == "channel.phased_sum":
            x = _arg(fn, "x")
            return lambda a, k, r: add("channel.phased_sum.elements",
                                       np.size(x(a, k)))
        if name == "pipeline.fast_estimate_bearings":
            los = _arg(fn, "los_bearings")
            return lambda a, k, r: add("pipeline.fast_estimate_bearings.trials",
                                       len(los(a, k)))
        if name == "receiver.correlate_pattern":
            def correlated(a, k, r):
                self._corr_len = len(r)
                add("receiver.preamble.offsets_correlated", len(r))
            return correlated
        if name == "receiver.find_preamble":
            env, start, stop = (_arg(fn, p) for p in ("env", "start", "stop"))
            return lambda a, k, r: self._preamble(env(a, k), start(a, k),
                                                  stop(a, k), r)
        if name == "receiver.Receiver.process_buffer":
            def buffers(a, k, r):
                add("receiver.process_buffer.buffers", 1)
                add("receiver.process_buffer.fixes", r.fix is not None)
            return buffers
        if name == "backscatter.ber_point":
            bits = _arg(fn, "n_bits")
            return lambda a, k, r: add("backscatter.ber_point.bits", bits(a, k))
        if name == "backscatter.transmit_backscatter":
            wave = _arg(fn, "wave")
            return lambda a, k, r: add("backscatter.transmit_backscatter.samples",
                                       len(wave(a, k).states))
        return None

    def _preamble(self, env, start: int, stop: int | None, result) -> None:
        """Offsets one find_preamble call searches: [start, stop) clipped to
        the offsets its correlate_pattern call returned (find_preamble is
        that function's only caller). A call that made no correlate_pattern
        call is counted as correlating exactly the offsets it searched,
        clipped to the buffer, so useful_ratio stays defined if the
        correlation is inlined."""
        n_corr, self._corr_len = self._corr_len, None
        end = len(env.volts) if n_corr is None else n_corr
        searched = max(min(end if stop is None else stop, end) - start, 0)
        self._add("receiver.preamble.offsets_searched", searched)
        if n_corr is None:
            self._add("receiver.preamble.offsets_correlated", searched)
        self._add("receiver.find_preamble.hits", result is not None)

    # --- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap the simulator's public functions and the two methods."""
        import sweeploc  # noqa: F401  (loads every layer module)

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"sweeploc.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "sweeploc" and not modname.startswith("sweeploc."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, name, obj, wrappers[id(obj)][1]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"sweeploc.{layer}"], cls_name)
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn,
                                  self.wrap(f"{layer}.{cls_name}.{meth}", fn)))
        self.enable()

    def enable(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def disable(self) -> None:
        """Put the original functions back; enable() re-wraps them."""
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # --- analysis -------------------------------------------------------------

    def _self_times(self, spans: np.ndarray) -> np.ndarray:
        """Per-span self time in ns, after checking that the spans nest.

        Every child must lie inside its parent, siblings must not overlap,
        and no span may sit directly inside a span of the same function
        (which a function wrapped twice would produce). Under those
        conditions each nanosecond of a root span is counted exactly once,
        in the self time of the innermost span covering it.
        """
        fid, start, end, parent = spans.T
        dur = end - start
        if np.any(dur < 0):
            raise AccountingError("span ends before it starts")
        child = np.flatnonzero(parent >= 0)
        par = parent[child]
        if np.any(par >= child):
            raise AccountingError("parent recorded after its child")
        if np.any(start[child] < start[par]) or np.any(end[child] > end[par]):
            raise AccountingError("child span outside its parent")
        if np.any(fid[child] == fid[par]):
            raise AccountingError("span nested in a span of the same function")
        # Spans are appended at entry, so siblings appear in start order.
        order = np.lexsort((start[child], par))
        c, p = child[order], par[order]
        same = p[1:] == p[:-1]
        if np.any(start[c[1:]][same] < end[c[:-1]][same]):
            raise AccountingError("sibling spans overlap")
        covered = np.bincount(par, weights=dur[child], minlength=len(spans))
        return dur - covered.astype(np.int64)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far.

        Gives calls, self_s, total_s, call_us_p50 and call_us_p99 for every
        wrapped function, the counters, and the derived ratios. The
        per-function self times plus the time spent in no wrapped function
        (the root spans' self time) add up to the traced wall time by
        construction; what guards the accounting is the nesting check in
        _self_times, which raises AccountingError where a span would be
        counted twice, and the check here that every root span is the
        benchmark's own.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        self_ns = self._self_times(spans)
        fid, dur = spans[:, 0], spans[:, 2] - spans[:, 1]
        root = self._fid(ROOT)
        roots = spans[:, 3] < 0
        if np.any(fid[roots] != root):
            raise AccountingError("a span outside the benchmark's calls")
        per_fn = np.bincount(fid, weights=self_ns,
                             minlength=len(self.names)).astype(np.int64)
        wall = int(dur[roots].sum())
        values: dict[str, float] = dict(self.counts)
        for k, name in enumerate(self.names):
            d = np.sort(dur[fid == k])
            n = len(d)
            values[f"{name}.calls"] = n
            values[f"{name}.self_s"] = int(per_fn[k]) / 1e9
            values[f"{name}.total_s"] = int(d.sum()) / 1e9
            values[f"{name}.call_us_p50"] = float(np.median(d)) / 1e3 if n else 0.0
            values[f"{name}.call_us_p99"] = \
                float(d[percentile_index(n)]) / 1e3 if n else 0.0
        c = self.counts
        values["receiver.preamble.useful_ratio"] = _ratio(
            c["receiver.preamble.offsets_searched"],
            c["receiver.preamble.offsets_correlated"])
        values["receiver.process_buffer.fix_ratio"] = _ratio(
            c["receiver.process_buffer.fixes"], c["receiver.process_buffer.buffers"])
        table = "receiver.LookupTable"
        values[f"{table}.calls"] = values.get(f"{table}.__init__.calls", 0)
        values[f"{table}.build_s"] = values.get(f"{table}.__init__.total_s", 0.0)
        values["bench.traced_wall_s"] = wall / 1e9
        values["bench.untraced_remainder_s"] = int(per_fn[root]) / 1e9
        return values

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for k, (fid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{k},{self.names[fid]},{start},{end},{parent}\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class AccountingError(Exception):
    """Spans do not nest, so some time would be counted twice."""


def percentile_index(n: int) -> int:
    """Sorted index of the p99, or, below 1000 samples, of the highest
    percentile that still has ten samples beyond it."""
    if n >= 1000:
        return -(-99 * n // 100) - 1
    return n - 11 if n > 10 else n - 1
