"""Spans around the calls into each layer, for the traced pass.

The tracer patches the program's classes and functions in place while
it is installed and restores them when it is removed; the program's own
files are not changed.  Every patched callable becomes a span with a
layer key.  A layer's self time is the time inside its spans minus the
time inside the spans they contain, so the keys partition the traced
time: whatever no layer claims falls to the root span, ``other``.

Work counts come from the program's own pull counters
(:func:`repro.obs.collect.publish_kernel_metrics` over every ``Kernel``
a cell builds, the kernel tracer's switch stream, the cell cache and
journal event counters) and, where the program keeps none, from span
call counts (scheduler decisions, channel measurements, mitigation
filter calls).

Spans use the wall clock (``perf_counter_ns``), which is cheap; the
process is single-threaded and CPU-bound, so outside the journal's
fsyncs wall time and CPU time agree.  Journal spans also read the CPU
clock, and the difference is reported as ``journal.wait_ms``.

A span costs about a microsecond, mostly charged to the layer that
opens it, and a layer that makes millions of small calls into another
would otherwise look that much slower.  :meth:`Tracer.calibrate` times
a no-op span against a plain call to learn how the cost splits between
the opening layer, the span's own layer and same-layer calls; the
measured difference between traced and untraced rounds is then taken
out of each layer in those proportions.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

OTHER = "other"

#: Layers reported by self time, in report order.
LAYERS = ("sim", "kernel", "sched", "cpu", "uarch", "channels", "core",
          "analysis", "mitigations", "setup", "cellcache.fetch",
          "cellcache.store", "journal", "digest", "sweeps", OTHER)

#: ``src/repro/<package>/`` → layer key for generator bodies and event
#: callbacks, whose layer is read from where their code lives.
_PACKAGE_LAYERS = {"sim", "kernel", "sched", "cpu", "uarch", "channels",
                   "core", "analysis", "mitigations"}

_SCHED_DECISIONS = ("pick_next", "wants_wakeup_preempt", "tick_preempt")


def layer_of_file(filename: str) -> str:
    parts = filename.replace(os.sep, "/").rsplit("/repro/", 1)
    if len(parts) != 2:
        return OTHER
    package = parts[1].split("/", 1)[0]
    return sys.intern(package) if package in _PACKAGE_LAYERS else OTHER


def _public_functions(owner: Any, module_name: str):
    """Public plain functions defined on ``owner`` (a module or class)."""
    for name, value in list(vars(owner).items()):
        if name.startswith("_"):
            continue
        func = value.__func__ if isinstance(
            value, (staticmethod, classmethod)) else value
        if isinstance(func, types.FunctionType) \
                and func.__module__ == module_name:
            yield name


class Tracer:
    """Span clock, layer totals and program counters for a traced pass.

    Per layer it keeps the measured self time, the spans it opened, the
    child spans opened directly inside them and the same-layer calls it
    let through untimed; :meth:`calibrate` prices each of those, so the
    reported self times can have the tracer's own cost taken out.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.spans: Dict[str, int] = defaultdict(int)
        self.children: Dict[str, int] = defaultdict(int)
        self.fast: Dict[str, int] = defaultdict(int)
        self.gen_spans: Dict[str, int] = defaultdict(int)
        self.gen_children: Dict[str, int] = defaultdict(int)
        self.cpu_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.cost_ns: Optional[Dict[str, float]] = None
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._kernels: List[Any] = []
        self._attackers: List[Any] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, fn: Callable[..., Any], key: str,
             count: Optional[str] = None) -> Callable[..., Any]:
        """``fn`` timed as a span of layer ``key``."""
        return functools.update_wrapper(self._timed(fn, key, count), fn)

    def _timed(self, fn, key, count=None):
        """The span closure.  A call made from inside a span of the same
        layer runs untimed: it would add only to that layer, so timing
        it buys nothing but overhead.  ``journal`` spans also read the
        CPU clock, for the fsync wait."""
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        spans, children, fast = self.spans, self.children, self.fast
        gen_children, cpu_ns = self.gen_children, self.cpu_ns
        clock = time.perf_counter_ns
        cpu_clock = time.process_time_ns if key == "journal" else None

        def traced(*args, **kwargs):
            if count is not None:
                calls[count] += 1
            if stack and stack[-1][0] is key:
                fast[key] += 1
                return fn(*args, **kwargs)
            frame = [key, 0, 0, 0]
            stack.append(frame)
            cpu_start = cpu_clock() if cpu_clock else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if cpu_clock:
                    cpu_ns[key] += cpu_clock() - cpu_start
                stack.pop()
                self_ns[key] += elapsed - frame[1]
                spans[key] += 1
                children[key] += frame[2]
                gen_children[key] += frame[3]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent[2] += 1

        return traced

    def generator(self, gen, key: str):
        """Iterate ``gen`` with every resumption timed as a ``key`` span.

        Generator bodies (attacker loops, channel probes) run in pieces
        between the kernel's executions of their actions, so each
        ``send`` is its own span.
        """
        stack, self_ns = self._stack, self.self_ns
        children, gen_spans = self.children, self.gen_spans
        gen_children = self.gen_children
        clock = time.perf_counter_ns
        send = gen.send
        value = None
        try:
            while True:
                frame = [key, 0, 0, 0]
                stack.append(frame)
                start = clock()
                try:
                    item = send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_ns[key] += elapsed - frame[1]
                    gen_spans[key] += 1
                    children[key] += frame[2]
                    gen_children[key] += frame[3]
                    if stack:
                        parent = stack[-1]
                        parent[1] += elapsed
                        parent[3] += 1
                value = yield item
        finally:
            gen.close()

    def generator_span(self, fn, key: str, count: Optional[str] = None):
        """A generator function whose generators iterate as ``key`` spans.

        ``count`` tallies calls made from outside the layer, so a probe
        that delegates to another probe counts once.
        """
        stack, calls = self._stack, self.calls

        def traced(*args, **kwargs):
            if count is not None and not (stack and stack[-1][0] == key):
                calls[count] += 1
            return self.generator(fn(*args, **kwargs), key)

        return functools.update_wrapper(traced, fn)

    def calibrate(self, n: int = 20_000, trials: int = 5) -> Dict[str, float]:
        """Price the tracer, in ns per event, from no-op spans (with the
        few arguments a typical entry point takes) timed against plain
        calls, best of ``trials``: ``outer`` is charged to
        the layer that opens a span, ``inner`` to the span's own layer,
        ``fast`` to a layer per same-layer call let through, and
        ``gen_outer``/``gen_inner`` likewise per generator resumption."""
        def noop(a, b, c=None):
            return None

        def loop(f):
            for _ in range(n):
                f(n, loop, c=None)

        def items():
            for _ in range(n):
                yield None

        def drain(gen):
            for _ in gen:
                pass

        clock = time.perf_counter_ns
        best: Dict[str, float] = {}
        for _ in range(trials):
            start = clock()
            loop(noop)
            plain = clock() - start
            start = clock()
            drain(items())
            plain_gen = clock() - start
            probe = Tracer()
            probe._timed(loop, "parent")(probe._timed(noop, "child"))
            probe._timed(loop, "same")(probe._timed(noop, "same"))
            probe._timed(drain, "gparent")(probe.generator(items(), "gchild"))
            ns = probe.self_ns
            trial = {
                "outer": (ns["parent"] - plain) / n,
                "inner": ns["child"] / n,
                "fast": (ns["same"] - plain) / n,
                "gen_outer": (ns["gparent"] - plain_gen) / n,
                "gen_inner": ns["gchild"] / n,
            }
            for name, value in trial.items():
                best[name] = min(best.get(name, value), value)
        self.cost_ns = {name: max(0.0, value) for name, value in best.items()}
        return self.cost_ns

    def span_cost_ns(self, key: str) -> float:
        """Calibrated tracer cost inside ``key``'s self time."""
        if not self.cost_ns:
            return 0.0
        cost = self.cost_ns
        return (cost["outer"] * self.children.get(key, 0)
                + cost["inner"] * self.spans.get(key, 0)
                + cost["fast"] * self.fast.get(key, 0)
                + cost["gen_outer"] * self.gen_children.get(key, 0)
                + cost["gen_inner"] * self.gen_spans.get(key, 0))

    def root(self, fn: Callable[..., Any], *args, **kwargs):
        """Run one cell (or sweep pass) as the root ``other`` span."""
        return self.span(fn, OTHER)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrap(self, func, key, count):
        if inspect.isgeneratorfunction(func):
            return self.generator_span(func, key, count)
        return self.span(func, key, count)

    def patch_method(self, cls: type, name: str, key: str,
                     count: Optional[str] = None,
                     wrapper: Optional[Callable] = None) -> None:
        raw = cls.__dict__[name]
        kind = type(raw) if isinstance(raw, (staticmethod,
                                             classmethod)) else None
        func = raw.__func__ if kind else raw
        new = wrapper(func) if wrapper else self._wrap(func, key, count)
        setattr(cls, name, kind(new) if kind else new)
        self._patches.append((cls, name, raw))

    def patch_class(self, cls: type, key: str, names=None,
                    counts: Optional[Dict[str, str]] = None,
                    wrappers: Optional[Dict[str, Callable]] = None) -> None:
        """Public methods of ``cls`` (or ``names``) as ``key`` spans;
        ``counts`` maps a method to the call count it feeds, ``wrappers``
        a method to a wrapper factory used instead of a plain span."""
        counts, wrappers = counts or {}, wrappers or {}
        for name in names or list(_public_functions(cls, cls.__module__)):
            self.patch_method(cls, name, key, counts.get(name),
                              wrappers.get(name))

    def patch_function(self, module, name: str, key: str,
                       count: Optional[str] = None,
                       wrapper: Optional[Callable] = None) -> None:
        """Replace ``module.name`` and every ``repro`` module's binding of
        the same function object (``from x import f`` copies)."""
        original = getattr(module, name)
        new = wrapper(original) if wrapper else self._wrap(original, key,
                                                           count)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, new)
                    self._patches.append((mod, attr, original))

    def patch_package(self, package: str, key: str, exclude: tuple = (),
                      counts: Optional[Dict[str, str]] = None,
                      wrappers: Optional[Dict[str, Callable]] = None) -> None:
        """Every public function and method defined in ``package``."""
        for mod_name, mod in sorted(sys.modules.items()):
            if not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            if mod_name in exclude or mod is None:
                continue
            for name in list(_public_functions(mod, mod_name)):
                self.patch_function(mod, name, key)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == mod_name:
                    self.patch_class(value, key, counts=counts,
                                     wrappers=wrappers)

    def remove(self) -> None:
        """Restore every patched binding, newest first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # The program's layers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every layer.  Call after the workload has run once, so
        that all the modules its cells import lazily are loaded."""
        if self.cost_ns is None:
            self.calibrate()
        import repro.cpu.machine as machine_mod
        import repro.experiments.setup as setup_mod
        import repro.kernel.kernel as kernel_mod
        import repro.kernel.threads as threads_mod
        import repro.obs.cellcache as cellcache_mod
        import repro.obs.journal as journal_mod
        import repro.obs.manifest as manifest_mod
        import repro.sweeps as sweeps_mod
        from repro.core.primitive import ControlledPreemption
        from repro.cpu.core import Core
        from repro.kernel.tracing import KernelTracer
        from repro.sched import base, cfs, eevdf, loadbalance, runqueue
        from repro.sim.engine import Event, Simulator
        from repro.uarch import btb, cache, tlb

        # sim: the event engine, and every callback it schedules runs
        # as a span of the layer its code lives in.
        self.patch_class(Simulator, "sim",
                         ["step", "run", "run_until", "peek_next_time",
                          "pending_count"])
        for name in ("call_at", "call_after"):
            self.patch_method(Simulator, name, "sim",
                              wrapper=self._scheduling_wrapper)
        self.patch_method(Event, "cancel", "sim")

        # kernel: the public API plus the thread bodies it runs.
        self.patch_class(kernel_mod.Kernel, "kernel")
        self.patch_method(kernel_mod.Kernel, "__init__", "kernel",
                          wrapper=self._capture(self._kernels))
        self.patch_class(KernelTracer, "kernel")
        self.patch_method(threads_mod.CoroutineBody, "__init__", "kernel",
                          wrapper=self._coroutine_init)

        decisions = {name: "sched.decisions" for name in _SCHED_DECISIONS}
        for cls in (base.SchedPolicy, cfs.CfsScheduler, eevdf.EevdfScheduler):
            self.patch_class(cls, "sched", counts=decisions)
        self.patch_class(runqueue.RunQueue, "sched")
        self.patch_class(loadbalance.LoadBalancer, "sched")

        self.patch_class(Core, "cpu")

        self.patch_class(cache.MemoryHierarchy, "uarch", wrappers={
            "make_line_toucher": self._toucher_factory})
        self.patch_class(tlb.TlbHierarchy, "uarch")
        self.patch_class(btb.Btb, "uarch")
        for cls in (cache.CacheLevel, cache.ArrayCacheLevel, tlb.Tlb,
                    tlb.ArrayTlb):
            self.patch_class(cls, "uarch", ["contains", "contains_all"])

        self.patch_package("repro.channels", "channels",
                           counts={"measure": "channels.measurements"})
        self.patch_package("repro.core", "core")
        self.patch_method(ControlledPreemption, "__init__", "core",
                          wrapper=self._capture(self._attackers))
        self.patch_package("repro.analysis", "analysis",
                           exclude=("repro.analysis.bench_trajectory",))
        self.patch_package("repro.mitigations", "mitigations", wrappers={
            "filter_wakeup_preempt": self._filter_wrapper,
            "filter_tick_preempt": self._filter_wrapper})

        self.patch_function(setup_mod, "build_env", "setup",
                            "setup.envs_built")
        self.patch_function(setup_mod, "make_policy", "setup")
        self.patch_method(machine_mod.Machine, "__init__", "setup")

        fetch = "cellcache.fetch"
        self.patch_function(cellcache_mod, "cell_cache", fetch)
        self.patch_function(cellcache_mod, "cell_key", fetch)
        self.patch_class(cellcache_mod.CellCache, fetch,
                         ["key_for", "fetch"])
        self.patch_method(cellcache_mod.CellCache, "fetch_outcome", fetch,
                          "cellcache.fetches")
        self.patch_method(cellcache_mod.CellCache, "store",
                          "cellcache.store")
        self.patch_method(cellcache_mod.CellCache, "_count", fetch,
                          wrapper=self._counter("cellcache."))

        self.patch_class(journal_mod.SweepJournal, "journal",
                         ["__init__", "record", "flush", "close"],
                         counts={"flush": "journal.fsyncs"})
        self.patch_function(journal_mod, "replay", "journal")

        self.patch_function(manifest_mod, "result_digest", "digest")

        self.patch_function(sweeps_mod, "prepare_run_dir", "sweeps")
        self.patch_function(sweeps_mod, "load_spec", "sweeps")
        self.patch_function(sweeps_mod, "combined_digest", "sweeps")
        self.patch_class(sweeps_mod.SweepSpec, "sweeps")

    # -- wrappers that do more than time a call ------------------------
    def _capture(self, into: List[Any]):
        def wrapper(init):
            def traced(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                into.append(obj)
            return functools.update_wrapper(traced, init)
        return wrapper

    def _scheduling_wrapper(self, schedule):
        """``call_at``/``call_after`` whose callbacks run as spans of the
        layer their code lives in (one runner per layer, bound to each
        callback with a cheap ``partial``)."""
        traced_schedule = self.span(schedule, "sim")
        runners: Dict[str, Callable] = {}
        layers: Dict[Any, str] = {}

        def invoke(callback):
            return callback()

        def traced(sim, when, callback, **kwargs):
            target = callback.func if type(callback) is functools.partial \
                else callback
            code = getattr(getattr(target, "__func__", target), "__code__",
                           None)
            key = layers.get(code)
            if key is None:
                key = layers[code] = (layer_of_file(code.co_filename)
                                      if code else OTHER)
                runners.setdefault(key, self._timed(invoke, key))
            return traced_schedule(
                sim, when, functools.partial(runners[key], callback),
                **kwargs)
        return functools.update_wrapper(traced, schedule)

    def _coroutine_init(self, init):
        def traced(body, gen):
            code = getattr(gen, "gi_code", None)
            key = layer_of_file(code.co_filename) if code else OTHER
            init(body, self.generator(gen, key))
        return functools.update_wrapper(traced, init)

    def _toucher_factory(self, factory):
        traced_factory = self.span(factory, "uarch")

        def traced(*args, **kwargs):
            return self.span(traced_factory(*args, **kwargs), "uarch")
        return functools.update_wrapper(traced, factory)

    def _filter_wrapper(self, filt):
        """Count the stack's filter calls, and its denials: a preemption
        the scheduler granted that the stack turned down."""
        if not filt.__qualname__.startswith("MitigationStack."):
            return self.span(filt, "mitigations")
        traced_filter = self.span(filt, "mitigations",
                                  "mitigations.filter_calls")
        calls = self.calls

        def traced(stack, *args):
            allowed = traced_filter(stack, *args)
            if args[-2] and not allowed:  # (..., decision, now)
                calls["mitigations.denials"] += 1
            return allowed
        return functools.update_wrapper(traced, filt)

    def _counter(self, prefix: str):
        counts = self.counts

        def wrapper(count_event):
            def traced(event, n=1):
                counts[prefix + event] += n
                return count_event(event, n)
            return functools.update_wrapper(traced, count_event)
        return wrapper

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def collect(self) -> None:
        """Fold the pull counters of every kernel and attacker built since
        the last call into the totals, then let them go."""
        from repro.obs.collect import publish_kernel_metrics
        from repro.obs.metrics import MetricsRegistry

        counts = self.counts
        for kernel in self._kernels:
            registry = MetricsRegistry(enabled=True)
            publish_kernel_metrics(kernel, registry)
            for name, value in registry.snapshot().items():
                if isinstance(value, (int, float)) and not name.endswith(
                        ("hit_rate", "coverage", "now_ns", "heap_depth",
                         "backend_array")):
                    counts[name] += value
            switches = kernel.tracer.switches
            counts["kernel.switches"] += len(switches) + switches.dropped
            counts["kernel.preempt_wakeup"] += sum(
                1 for rec in switches if rec.reason == "preempt_wakeup")
        for attacker in self._attackers:
            counts["core.useful_samples"] += len(attacker.useful_samples)
        self._kernels.clear()
        self._attackers.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, traced_s: float,
                      untraced_s: float) -> Dict[str, tuple]:
    """The per-layer metrics of a traced pass, ``name -> (value, unit)``.

    ``traced_s`` and ``untraced_s`` are the CPU seconds of the same
    cells run with and without spans.  Their difference is the tracer's
    cost; it is taken out of each layer in proportion to the layer's
    calibrated span cost, so the self times add up to the untraced run.
    """
    estimated = {key: tracer.span_cost_ns(key) for key in LAYERS}
    overhead_ns = max(0.0, (traced_s - untraced_s) * 1e9)
    total_estimate = sum(estimated.values())
    scale = overhead_ns / total_estimate if total_estimate else 0.0
    ms = {key: max(0.0, tracer.self_ns.get(key, 0) - scale * estimated[key])
          / 1e6 for key in LAYERS}
    c, n = tracer.counts, tracer.calls
    events = c["sim.events_fired"]
    retired = c["cpu.instructions_retired"]
    interpreted = retired - c["ff.insts_fast_forwarded"]
    l1 = sum(c[f"uarch.{lvl}.{kind}"] for lvl in ("l1i", "l1d")
             for kind in ("hits", "misses"))
    metrics = {
        "sim.self_ms": (ms["sim"], "ms"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (_ratio(ms["sim"] * 1e6, events), "ns"),
        "kernel.self_ms": (ms["kernel"], "ms"),
        "kernel.switches": (c["kernel.switches"], "count"),
        "kernel.ns_per_event": (_ratio(ms["kernel"] * 1e6, events), "ns"),
        "sched.self_ms": (ms["sched"], "ms"),
        "sched.decisions": (n["sched.decisions"], "count"),
        "sched.ns_per_decision": (
            _ratio(ms["sched"] * 1e6, n["sched.decisions"]), "ns"),
        "cpu.self_ms": (ms["cpu"], "ms"),
        "cpu.insts_retired": (retired, "count"),
        "cpu.insts_interpreted": (interpreted, "count"),
        "cpu.ff_coverage": (
            _ratio(c["ff.insts_fast_forwarded"], retired), "ratio"),
    }
    for window in ("steady", "warmup", "periodic", "loop"):
        metrics[f"cpu.ff_windows.{window}"] = (
            c[f"ff.windows.{window}"], "count")
    metrics.update({
        "cpu.ns_per_interpreted_inst": (
            _ratio(ms["cpu"] * 1e6, interpreted), "ns"),
        "uarch.self_ms": (ms["uarch"], "ms"),
        "uarch.cache_accesses": (l1, "count"),
        "uarch.l1d.hit_rate": (_ratio(
            c["uarch.l1d.hits"], c["uarch.l1d.hits"] + c["uarch.l1d.misses"]),
            "ratio"),
        "uarch.llc.hit_rate": (_ratio(
            c["uarch.llc.hits"], c["uarch.llc.hits"] + c["uarch.llc.misses"]),
            "ratio"),
        "uarch.tlb_lookups": (
            c["uarch.itlb.hits"] + c["uarch.itlb.misses"], "count"),
        "uarch.btb_updates": (
            c["uarch.btb.allocations"] + c["uarch.btb.invalidations"],
            "count"),
        "uarch.ns_per_access": (_ratio(ms["uarch"] * 1e6, l1), "ns"),
        "channels.self_ms": (ms["channels"], "ms"),
        "channels.measurements": (n["channels.measurements"], "count"),
        "core.self_ms": (ms["core"], "ms"),
        "core.preemptions": (c["kernel.preempt_wakeup"], "count"),
        "core.useful_ratio": (_ratio(c["core.useful_samples"],
                                     c["kernel.preempt_wakeup"]), "ratio"),
        "analysis.self_ms": (ms["analysis"], "ms"),
        "mitigations.self_ms": (ms["mitigations"], "ms"),
        "mitigations.filter_calls": (n["mitigations.filter_calls"], "count"),
        "mitigations.denials": (n["mitigations.denials"], "count"),
        "setup.self_ms": (ms["setup"], "ms"),
        "setup.envs_built": (n["setup.envs_built"], "count"),
        "setup.ms_per_env": (
            _ratio(ms["setup"], n["setup.envs_built"]), "ms"),
        "cellcache.fetch_ms": (ms["cellcache.fetch"], "ms"),
        "cellcache.fetches": (n["cellcache.fetches"], "count"),
        "cellcache.bytes_read": (c["cellcache.bytes_read"], "bytes"),
        "cellcache.store_ms": (ms["cellcache.store"], "ms"),
        "journal.record_ms": (ms["journal"], "ms"),
        "journal.wait_ms": (
            max(0.0, (tracer.self_ns.get("journal", 0)
                      - tracer.cpu_ns.get("journal", 0)) / 1e6), "ms"),
        "journal.fsyncs": (n["journal.fsyncs"], "count"),
        "digest.self_ms": (ms["digest"], "ms"),
        "sweeps.spec_ms": (ms["sweeps"], "ms"),
        "other.self_ms": (ms[OTHER], "ms"),
        "trace.total_ms": (sum(ms.values()), "ms"),
        "trace.span_ns": (_ratio(overhead_ns, sum(tracer.spans.values())
                                 + sum(tracer.gen_spans.values())), "ns"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
    })
    return metrics
