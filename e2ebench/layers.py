"""Outside-in layer attribution for the end-to-end benchmark.

The program under test is not instrumented.  Instead, :class:`LayerTracer`
replaces public functions of each layer with thin wrappers, at the names
their callers look them up by (a method on its class, or a function in the
namespace of the module that imported it).  Every wrapper always keeps
exact counters (simulator builds, clean design runs, kernel lane-cycles,
netlist digests, store gets and puts); when timing is switched on it also
records *self time* per layer: the wrapper's wall time minus the wall time
of wrapped calls nested inside it.

Nesting is tracked per execution context with a :class:`contextvars.
ContextVar`, so threads and asyncio tasks each keep their own stack, and
a call hopping into a thread via ``asyncio.to_thread`` still nests under
the coroutine that awaited it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import threading
import time
from collections import defaultdict

#: exact counters every run keeps (also the per-layer count metrics)
COUNTERS = (
    "simulator.builds",
    "design.clean_runs",
    "kernel.calls",
    "kernel.lane_cycles",
    "protocol.digests",
    "store.gets",
    "store.hits",
    "store.puts",
    "executor.shards",
    "executor.retries",
)


class _Frame:
    __slots__ = ("layer", "parent", "child")

    def __init__(self, layer: str, parent: "_Frame | None") -> None:
        self.layer = layer
        self.parent = parent
        self.child = 0.0


class LayerTracer:
    """Wrap layer entry points; count always, time self-time on demand."""

    def __init__(self) -> None:
        #: wrappers are pure pass-through while False (set-up and checks)
        self.counting = False
        #: record per-layer self time while True (traced rounds only)
        self.timing = False
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: layers whose per-call times are also summed into the enclosing
        #: request context (see :meth:`wrap_async`)
        self.keep_spans: set[str] = set()
        #: closed request contexts of the async layer
        self.requests: list[dict] = []
        self.request = contextvars.ContextVar("e2ebench_request", default=None)
        self._frame = contextvars.ContextVar("e2ebench_frame", default=None)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _close(self, frame: _Frame, elapsed: float) -> None:
        with self._lock:
            self.self_s[frame.layer] += elapsed - frame.child
            self.calls[frame.layer] += 1
            if frame.parent is not None:
                frame.parent.child += elapsed
            ctx = self.request.get()
            if ctx is not None and frame.layer in self.keep_spans:
                ctx[frame.layer] = ctx.get(frame.layer, 0.0) + elapsed

    @contextlib.contextmanager
    def span(self, layer: str):
        """Time a block of the benchmark's own code as ``layer``."""
        if not self.timing:
            yield
            return
        frame = _Frame(layer, self._frame.get())
        token = self._frame.set(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._frame.reset(token)
            self._close(frame, elapsed)

    def snapshot(self) -> dict[str, int]:
        """The exact counters, as a plain dict over :data:`COUNTERS`."""
        return {name: int(self.counts[name]) for name in COUNTERS}

    # ------------------------------------------------------------- wrapping

    def wrap(self, fn, layer, count=None):
        """A wrapper timing ``fn`` as ``layer`` (a name, or a function of
        the call's positional arguments returning one); ``count(counts,
        args, result)`` updates the exact counters after each call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.counting:
                return fn(*args, **kwargs)
            if not tracer.timing:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer.counts, args, result)
                return result
            name = layer(args) if callable(layer) else layer
            frame = _Frame(name, tracer._frame.get())
            token = tracer._frame.set(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._frame.reset(token)
                tracer._close(frame, elapsed)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def wrap_async(self, fn, layer: str):
        """Like :meth:`wrap` for a coroutine function: wall time including
        awaits.  Each call opens a request context (a dict) that nested
        calls — also those sent to threads by ``asyncio.to_thread`` — add
        their ``keep_spans`` times to; closed contexts land in
        :attr:`requests` with the ``request_id`` the call returned."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not (tracer.counting and tracer.timing):
                return await fn(*args, **kwargs)
            frame = _Frame(layer, tracer._frame.get())
            token = tracer._frame.set(frame)
            ctx: dict = {}
            req_token = tracer.request.set(ctx)
            start = time.perf_counter()
            result = None
            try:
                result = await fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.request.reset(req_token)
                tracer._frame.reset(token)
                tracer._close(frame, elapsed)
                if isinstance(result, tuple) and isinstance(result[-1], dict):
                    ctx["request_id"] = result[-1].get("request_id")
                ctx.update(start=start, elapsed=elapsed)
                with tracer._lock:
                    tracer.requests.append(ctx)
            return result

        return wrapper

    def patch(self, owner, attr: str, layer, count=None, kind: str = "function"):
        """Replace ``owner.attr`` by a wrapper; undone by :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "classmethod":
            new = classmethod(self.wrap(original.__func__, layer, count))
        elif kind == "async":
            new = self.wrap_async(original, layer)
        else:
            new = self.wrap(original, layer, count)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- the map

    def install(self) -> None:
        """Wrap every layer's entry points (see the README's layer table)."""
        import repro.certify as certify_pkg
        import repro.certify.certifier as certifier
        import repro.countermeasures as cm_pkg
        import repro.countermeasures.base as cm_base
        import repro.evaluation.figures as figures
        import repro.faults.campaign as campaign
        import repro.faults.executor as executor
        import repro.faults.injector as injector
        import repro.service.daemon as daemon
        import repro.service.protocol as protocol
        from repro.certify.certificate import Certificate
        from repro.faults.checkpoint import CheckpointStore
        from repro.netlist.simulator import Simulator
        from repro.rng import BlockedRng
        from repro.service.store import ResultStore

        def kernel_layer(args):
            return "kernel.clean" if args[0].faults is None else "kernel.faulty"

        def count_build(counts, args, result):
            counts["simulator.builds"] += 1

        def count_eval(counts, args, result):
            counts["kernel.calls"] += 1
            counts["kernel.lane_cycles"] += args[0].batch

        def count_design_run(counts, args, result):
            if args[1].faults is None:
                counts["design.clean_runs"] += 1

        def count_digest(counts, args, result):
            counts["protocol.digests"] += 1

        def count_get(counts, args, result):
            counts["store.gets"] += 1
            counts["store.hits"] += result is not None

        def count_put(counts, args, result):
            counts["store.puts"] += 1

        def count_shard(counts, args, result):
            counts["executor.shards"] += 1

        def count_retry(counts, args, result):
            counts["executor.retries"] += bool(result)

        # netlist.simulator — construction, port I/O, kernel dispatch
        self.patch(Simulator, "__init__", "simulator.build", count_build)
        for name in (
            "reset", "set_input_bits", "set_input_ints", "set_input_schedule",
            "broadcast_input", "get_output_bits", "get_output_ints",
            "get_nets_bits",
        ):
            self.patch(Simulator, name, "simulator.io")
        self.patch(Simulator, "eval_comb", kernel_layer, count_eval)
        self.patch(Simulator, "step", kernel_layer)
        # countermeasures
        self.patch(cm_base.ProtectedDesign, "run", "design.run", count_design_run)
        for name in (
            "build_three_in_one", "build_naive_duplication",
            "build_acisp20", "build_triplication",
        ):
            self.patch(cm_pkg, name, "design.build")
            if name in figures.__dict__:
                self.patch(figures, name, "design.build")
        # rng
        self.patch(BlockedRng, "integers", "rng")
        self.patch(BlockedRng, "random", "rng")
        for module, names in (
            (campaign, ("range_rng", "random_bits")),
            (cm_base, ("random_bits", "make_rng")),
            (injector, ("make_rng",)),
        ):
            for name in names:
                self.patch(module, name, "rng")
        # faults.injector / classification / campaign
        self.patch(injector.FaultInjector, "__init__", "injector")
        self.patch(injector.FaultInjector, "for_cycle", "injector")
        for module in (campaign, certifier, executor):
            self.patch(module, "classify", "classify")
            self.patch(module, "run_range", "campaign")
        for module in (certifier, figures):
            self.patch(module, "run_campaign", "campaign")
        # faults.executor / checkpoint
        self.patch(certifier, "run_sharded", "executor")
        self.patch(executor._Supervisor, "_should_retry", "executor", count_retry)
        for name in (
            "create", "load", "flush", "write_shard", "read_shard",
            "mark_quarantined", "mark_failed",
        ):
            self.patch(CheckpointStore, name, "checkpoint")
        # certify / certify.certificate
        self.patch(certifier, "lint_countermeasure", "certify.lint")
        self.patch(certifier, "enumerate_fault_space", "certify.enumerate")
        self.patch(certifier, "_certify_task", "certify.task", count_shard)
        self.patch(certify_pkg, "certify_design", "certify.assemble")
        self.patch(Certificate, "save", "certificate.save")
        self.patch(Certificate, "load", "certificate.load", kind="classmethod")
        # attacks (as the figure pipeline calls them)
        self.patch(figures, "ineffective_distribution", "attacks")
        self.patch(figures, "sei_from_counts", "attacks")
        # service.protocol / store / daemon
        self.patch(daemon, "request_key", "protocol.request_key")
        self.patch(protocol, "circuit_digest", "protocol.digest", count_digest)
        self.patch(ResultStore, "get", "store.get", count_get)
        self.patch(ResultStore, "put", "store.put", count_put)
        self.patch(
            daemon.CertificationService, "handle_request", "service.handle",
            kind="async",
        )
