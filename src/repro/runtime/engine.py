"""The serving engine: requests in, batched cached execution, responses out.

``Engine`` is the front door of :mod:`repro.runtime`.  Clients submit
:class:`Request` objects naming either a registered Table III application or
raw Revet source; the engine

1. **coalesces** queued requests into :class:`Batch` es that share one
   compilation (same content-addressed program key),
2. **compiles once per batch** through the :class:`ProgramCache` (so a warm
   server never re-runs the Figure-8 pipeline for a known program),
3. **executes** each request on the functional executor (:func:`execute`:
   run the program, check the reference oracle), and
4. attaches the paper's modeled latency (``size / throughput + init``) to
   every :class:`Response`.

The engine serves the vRDA only.  The CPU, V100 and Aurochs columns the
paper compares against are evaluation tables, not serving targets:
``python -m repro.eval table5`` prints them from :mod:`repro.baselines`.

Deterministic requests (a registered app with an engine-generated instance)
are additionally memoized in a response tier: identical ``(program,
n_threads, seed, args)`` requests are served straight from the LRU without
re-executing, which is what makes a warm serving tier fast.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.base import AppInstance, AppSpec, REGISTRY
from repro.compiler import CompileOptions
from repro.core.memory import MemorySystem
from repro.dataflow.lowering import CompiledProgram
from repro.errors import ReproError
from repro.runtime.cache import CacheStats, LRUCache, ProgramCache
from repro.runtime.telemetry import MetricsRegistry
from repro.sim.perf_model import ThroughputReport, VRDAPerformanceModel, model_inputs

#: Per-request init term of the modeled latency ``size / throughput + init``.
INIT_LATENCY_S = 1e-4


class EngineError(ReproError):
    """The engine could not form or execute a request."""


@dataclass
class Request:
    """One unit of client work.

    Exactly one of ``app`` (a name in :data:`repro.apps.REGISTRY`) or
    ``source`` (raw Revet text) must be set.  App requests with no explicit
    ``memory`` get a deterministic generated instance of ``n_threads``
    threads from ``seed``; raw-source requests must bring their own
    pre-staged :class:`MemorySystem` and scalar ``args``.
    """

    app: Optional[str] = None
    source: Optional[str] = None
    function: str = "main"
    args: Dict[str, int] = field(default_factory=dict)
    memory: Optional[MemorySystem] = None
    n_threads: int = 8
    seed: int = 0
    options: Optional[CompileOptions] = None
    #: Opt into a span breakdown on the response (byte-transparent when off).
    trace: bool = False
    #: Propagated trace id; minted at the front door when tracing without one.
    trace_id: Optional[str] = None

    def validate(self) -> None:
        """Check field consistency; raises :class:`EngineError` when invalid."""
        if (self.app is None) == (self.source is None):
            raise EngineError("a request names either 'app' or 'source'")
        if self.app is not None and self.memory is None and self.args:
            raise EngineError(
                "app requests with generated instances take their arguments "
                "from the generator; stage 'memory' explicitly to pass 'args'")

    def resolve(self) -> Tuple[Optional[AppSpec], str]:
        """Return ``(spec, source_text)`` for this request."""
        self.validate()
        if self.app is not None:
            try:
                spec = REGISTRY.get(self.app)
            except KeyError as error:
                raise EngineError(str(error)) from error
            return spec, spec.source
        return None, self.source

    # -- wire form (the server/client NDJSON protocol) ----------------------

    #: Fields a JSON request payload may carry, each with its exact type.
    #: ``memory`` isn't one of them: staged memory images don't cross the wire.
    WIRE_FIELDS = {"app": str, "source": str, "function": str, "args": dict,
                   "n_threads": int, "seed": int, "options": dict,
                   "trace": bool, "trace_id": str}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; raises for requests with staged memory."""
        if self.memory is not None:
            raise EngineError("requests with staged 'memory' are not "
                              "wire-serializable")
        payload: Dict[str, Any] = {}
        for name in self.WIRE_FIELDS:
            value = getattr(self, name)
            if name == "options":
                value = asdict(value) if value is not None else None
            if name == "trace" and not value:
                continue  # untraced requests keep the pre-telemetry wire form
            if value not in (None, {}, ()):
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Request":
        """Build a request from JSON; unknown or wrong-typed fields raise."""
        if not isinstance(payload, dict):
            raise EngineError("request payload must be a JSON object")
        unknown = sorted(set(payload) - set(cls.WIRE_FIELDS))
        if unknown:
            raise EngineError(f"unknown request fields {unknown}; "
                              f"expected a subset of {list(cls.WIRE_FIELDS)}")
        # Null is "not given".  Not in validate(): in-process callers skip it.
        fields = {k: v for k, v in payload.items() if v is not None}
        for name, value in fields.items():
            if type(value) is not cls.WIRE_FIELDS[name]:
                raise EngineError(f"'{name}' must be of type "
                                  f"{cls.WIRE_FIELDS[name].__name__}")
        if fields.get("n_threads", 1) < 1:
            raise EngineError("'n_threads' must be an integer >= 1")
        for key, kind in (("args", int), ("options", bool)):
            if key in fields and set(map(type, fields[key].values())) - {kind}:
                raise EngineError(f"'{key}' values must be {kind.__name__}")
        options = fields.pop("options", None)
        if options is not None:
            try:
                options = CompileOptions(**options)
            except TypeError as error:
                raise EngineError(f"bad compile options: {error}") from error
        request = cls(options=options, **fields)
        request.validate()
        return request


@dataclass
class Response:
    """One served request, in submission order."""

    request_id: int
    app: Optional[str]
    ok: bool
    error: Optional[str] = None
    #: Output-segment contents (app requests).
    outputs: Optional[List[int]] = None
    #: Reference-oracle verdict when one was available.
    correct: Optional[bool] = None
    modeled_gbs: float = 0.0
    modeled_runtime_s: float = 0.0
    report: Optional[ThroughputReport] = None
    program_cache_hit: Optional[bool] = None
    result_cache_hit: bool = False
    batch_id: int = -1
    #: Span breakdown, present only when the request opted into tracing.
    trace: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the server's response line).

        The full :class:`~repro.sim.perf_model.ThroughputReport` collapses
        to its rounded ``as_row`` dict so every field stays a JSON scalar.
        The ``trace`` key appears only for traced requests, keeping untraced
        responses byte-identical to a stack without telemetry.
        """
        payload = dict(vars(self))  # the fields, in declaration order
        payload["report"] = self.report.as_row() if self.report else None
        if self.trace is None:
            del payload["trace"]
        return payload


@dataclass
class Batch:
    """Requests that share one compiled program."""

    batch_id: int
    program_key: str
    entries: List[Tuple[int, Request]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def _trace_span(request: Request, compile_s: float, execute_s: float,
                replayed: bool) -> Optional[Dict[str, Any]]:
    """Engine-side spans for a traced request; None when not tracing."""
    if not request.trace:
        return None
    return {
        "trace_id": request.trace_id,
        "compile_s": round(compile_s, 6),
        "execute_s": round(execute_s, 6),
        "result_cache_hit": replayed,
    }


def _error_response(request_id: int, request: Request, batch_id: int,
                    message: str) -> Response:
    return Response(request_id=request_id, app=request.app, ok=False,
                    error=message, batch_id=batch_id,
                    trace=_trace_span(request, 0.0, 0.0, False))


def result_fingerprint(tier: LRUCache, request: Request, program_key: str):
    """Memoization key for deterministic requests; None if uncacheable."""
    if (tier.capacity <= 0 or request.memory is not None
            or request.app is None):
        return None  # tier off, or externally staged state: not replayable
    return (program_key, request.app, request.n_threads, request.seed,
            tuple(sorted(request.args.items())))


def _detached(response: Response, **changes: Any) -> Response:
    """A changed copy sharing no mutable state with ``response``."""
    return replace(response,
                   outputs=(list(response.outputs)
                            if response.outputs is not None else None),
                   report=(replace(response.report)
                           if response.report is not None else None),
                   **changes)


def replay(cached: Response, request_id: int, request: Request, batch_id: int,
           program_hit: Optional[bool], compile_s: float = 0.0) -> Response:
    """An earlier response as this request's own: what a hit looks like, for
    an :class:`Engine` and for a pool's dispatcher alike.  The trace is
    rebuilt from the *current* request, so span data never leaks between
    requests.  Only an error-free response is a hit; the dispatcher also
    repeats a failure to a same-flush duplicate of the request that failed.
    """
    hit = cached.error is None
    return _detached(cached, request_id=request_id, batch_id=batch_id,
                     result_cache_hit=hit, program_cache_hit=program_hit,
                     trace=_trace_span(request, compile_s, 0.0, hit))


def execute(program: CompiledProgram, request: Request) -> Dict[str, Any]:
    """Run one request's compiled program for real and model its throughput.

    Returns the payload fields of its :class:`Response` (``outputs``,
    ``correct``, ``modeled_gbs``, ``modeled_runtime_s``, ``report``).  Raises
    :class:`EngineError` for a raw-source request without staged memory;
    executor errors (e.g. livelock guards) propagate as ``ReproError``.
    The program runs on the columnar executor, see ``docs/executor.md``.
    """
    spec, _ = request.resolve()
    if request.memory is not None:
        instance = AppInstance(memory=request.memory, args=dict(request.args))
    elif spec is not None:
        instance = spec.make_instance(request.n_threads, request.seed)
    else:
        raise EngineError(
            "raw-source requests must provide a pre-staged 'memory'")
    run = program.run(instance.memory, profile=True, **instance.args)

    outputs: Optional[List[int]] = None
    correct: Optional[bool] = None
    report: Optional[ThroughputReport] = None
    if spec is not None:
        try:
            outputs = list(instance.memory.segment_data(spec.output_segment))
        except ReproError:
            pass  # program declared no such output segment
        # Only an engine-generated instance carries the context the
        # reference oracle needs.
        if request.memory is None:
            expected = spec.reference(instance)
            correct = outputs is not None and outputs[:len(expected)] == expected
        profile, resources = model_inputs(
            spec, program, instance.memory.stats, run.profile.loop_iterations,
            request.n_threads)
        report = VRDAPerformanceModel().throughput(spec.name, profile, resources)
    gbs = report.throughput_gbs if report else 1.0
    if instance.total_bytes:
        size = float(instance.total_bytes)
    elif spec is not None:
        size = float(spec.bytes_per_thread * request.n_threads)
    else:
        size = float(request.n_threads)
    return {
        "outputs": outputs,
        "correct": correct,
        "modeled_gbs": gbs,
        "modeled_runtime_s": size / (max(gbs, 1e-9) * 1e9) + INIT_LATENCY_S,
        "report": report,
    }


class Engine:
    """Cached, batched request execution over the Revet compiler."""

    def __init__(self, program_cache: Optional[ProgramCache] = None,
                 max_batch_size: int = 16,
                 result_cache_capacity: int = 512,
                 metrics: Optional[MetricsRegistry] = None):
        """Build a serving engine.

        Args:
            program_cache: content-addressed compiled-program tier; pass
                ``ProgramCache(capacity=0)`` to force a compile per batch.
            max_batch_size: cap on requests coalesced into one batch.
            result_cache_capacity: LRU entries in the response memo tier;
                0 disables result caching.
            metrics: the registry every count of this engine lives in;
                defaults to a private one (each pool worker child ships
                its own back with every flush reply).

        Thread-safety: one engine may be driven from one thread.
        """
        self.program_cache = (program_cache if program_cache is not None
                              else ProgramCache())
        self.max_batch_size = max(1, max_batch_size)
        self.result_cache = LRUCache(result_cache_capacity)
        self._queue: List[Tuple[int, Request]] = []
        self._failed: List[Response] = []
        self._next_request_id = 0
        self._next_batch_id = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "engine_requests_total", "Requests served.")
        self._m_batches = self.metrics.counter(
            "engine_batches_total", "Coalesced batches executed.")
        self._m_batch_requests = self.metrics.counter(
            "engine_batch_requests_total",
            "Requests in executed batches, errors included.")
        self._m_lookups = self.metrics.counter(
            "engine_cache_lookups_total",
            "Cache-tier lookups, by tier and outcome.", ("tier", "outcome"))
        self._m_evictions = self.metrics.counter(
            "engine_cache_evictions_total", "Cache-tier evictions.", ("tier",))
        self._m_compile_s = self.metrics.histogram(
            "engine_compile_seconds", "Per-batch program compile time.")
        self._m_batch_s = self.metrics.histogram(
            "engine_batch_execute_seconds", "Per-batch execute wall clock.")
        # Every count a stats reply shows exists at zero from the start.
        self._m_requests.inc(0)
        for tier in ("program", "result"):
            self._m_evictions.inc(0, tier=tier)
            for outcome in ("hit", "miss"):
                self._m_lookups.inc(0, tier=tier, outcome=outcome)

    # -- submission ---------------------------------------------------------

    def submit(self, request: Request) -> int:
        """Queue one request; returns its id (also its response order)."""
        request.validate()
        request_id = self._next_request_id
        self._next_request_id += 1
        self._queue.append((request_id, request))
        return request_id

    def process(self, requests: List[Request]) -> List[Response]:
        """Submit and serve a whole trace; responses in submission order.

        Queues either all of ``requests`` or none: a request that fails
        :meth:`Request.validate` raises before the first one is queued.
        """
        for request in requests:
            request.validate()
        for request in requests:
            self.submit(request)
        return self.flush()

    # -- batching -----------------------------------------------------------

    def coalesce(self) -> List[Batch]:
        """Group the queue into per-program batches of bounded size.

        Grouping preserves arrival order within a batch; response order is
        restored by request id after execution, so clients never observe
        the coalescing.
        """
        batches: List[Batch] = []
        open_batches: Dict[str, Batch] = {}
        # The queue is taken before it is walked and *any* failure to place an
        # entry is that entry's error: nothing stays queued to fail again.
        queue, self._queue = self._queue, []
        for request_id, request in queue:
            try:
                _, source = request.resolve()
                key = self.program_cache.key(source, request.function,
                                             request.options)
                batch = open_batches.get(key)
            except Exception as error:  # noqa: BLE001 - see above
                self._failed.append(_error_response(
                    request_id, request, -1, str(error)))
                continue
            if batch is None or len(batch) >= self.max_batch_size:
                batch = Batch(batch_id=self._next_batch_id, program_key=key)
                self._next_batch_id += 1
                batches.append(batch)
                open_batches[key] = batch
            batch.entries.append((request_id, request))
        return batches

    def drain_failed(self) -> List[Response]:
        """Take the error responses accumulated while coalescing.

        :meth:`flush` drains these itself; external dispatchers (the worker
        pool) that call :meth:`coalesce` directly must collect them here so
        malformed requests still produce ordered error responses.
        """
        failed, self._failed = self._failed, []
        return failed

    def flush(self) -> List[Response]:
        """Serve everything queued; returns responses in submission order."""
        responses: List[Response] = []
        for batch in self.coalesce():
            responses.extend(self.execute_batch(batch))
        responses.extend(self.drain_failed())
        responses.sort(key=lambda r: r.request_id)
        return responses

    # -- execution ----------------------------------------------------------

    def execute_batch(self, batch: Batch) -> List[Response]:
        """Serve one coalesced batch (compile once, then run every entry).

        Public because pool workers execute batches formed by a remote
        dispatcher; responses come back in batch-entry order.  Every batch
        is counted and timed, a failed one too: a pool worker's ``batches``,
        ``requests`` and ``busy_s`` are these counts.

        Entries are served one after another in entry order: replay a
        result-cache hit, otherwise execute and cache the result.  A
        duplicate of an earlier miss in the same batch is therefore a hit,
        and a duplicate of an entry that *failed* (and cached nothing)
        executes for real.  Entries may share one client-staged
        ``MemorySystem``; entry order is what makes that well defined.
        """
        started = time.perf_counter()
        self._m_batches.inc()
        self._m_batch_requests.inc(len(batch))
        try:
            return self._serve_batch(batch)
        finally:
            self._m_batch_s.observe(time.perf_counter() - started)

    def _serve_batch(self, batch: Batch) -> List[Response]:
        _, first = batch.entries[0]  # coalesce() forms no empty batch
        _, source = first.resolve()
        try:
            compile_started = time.perf_counter()
            program, program_hit, evicted = self.program_cache.get_or_compile(
                source, first.function, first.options)
            compile_s = time.perf_counter() - compile_started
        except ReproError as error:
            self._count_lookup("program", False)
            return [_error_response(request_id, request, batch.batch_id,
                                    f"compile failed: {error}")
                    for request_id, request in batch.entries]
        self._count_lookup("program", program_hit, evicted)
        if program_hit is False:
            self._m_compile_s.observe(compile_s)
        if len(batch) > 1 and self.program_cache.capacity > 0:
            # One compile serves the whole batch: every other entry skipped
            # the pipeline just as a hit would.  A disabled cache counts no
            # hit, so cold-tier measurements stay honest.
            self._m_lookups.inc(len(batch) - 1, tier="program", outcome="hit")
        responses: List[Response] = []
        for request_id, request in batch.entries:
            fingerprint = result_fingerprint(self.result_cache, request,
                                             batch.program_key)
            cached = self.recall(fingerprint) if fingerprint is not None else None
            if cached is not None:
                response = replay(cached, request_id, request, batch.batch_id,
                                  program_hit, compile_s)
            else:
                response = self._execute_request(
                    request_id, request, batch, program, program_hit,
                    compile_s)
                self.memoize(fingerprint, response)
            responses.append(response)
        self.count_served(sum(r.error is None for r in responses))
        return responses

    def _execute_request(self, request_id: int, request: Request, batch: Batch,
                         program: CompiledProgram, program_hit: bool,
                         compile_s: float = 0.0) -> Response:
        """Run one request through :func:`execute` (touches no engine state)."""
        started = time.perf_counter() if request.trace else 0.0
        try:
            payload = execute(program, request)
        except ReproError as error:
            return _error_response(request_id, request, batch.batch_id,
                                   str(error))
        execute_s = time.perf_counter() - started if request.trace else 0.0
        return Response(
            request_id=request_id,
            app=request.app,
            ok=payload["correct"] is not False,
            program_cache_hit=program_hit,
            result_cache_hit=False,
            batch_id=batch.batch_id,
            trace=_trace_span(request, compile_s, execute_s, False),
            **payload,
        )

    # -- counts -------------------------------------------------------------

    def _count_lookup(self, tier: str, hit: bool, evicted: int = 0) -> None:
        self._m_lookups.inc(tier=tier, outcome="hit" if hit else "miss")
        if evicted:
            self._m_evictions.inc(evicted, tier=tier)

    def recall(self, fingerprint: Any) -> Optional[Response]:
        """The result tier's response for ``fingerprint`` (None: a miss)."""
        cached = self.result_cache.get(fingerprint)
        self._count_lookup("result", cached is not None)
        return cached

    def memoize(self, fingerprint: Any, response: Response) -> None:
        """Keep an error-free response for replay — never its trace: an
        untraced replay must be byte-identical to an uncached untraced
        serve."""
        if fingerprint is not None and response.error is None:
            evicted = self.result_cache.put(
                fingerprint, _detached(response, trace=None))
            if evicted:
                self._m_evictions.inc(evicted, tier="result")

    def count_served(self, n: int) -> None:
        """Count ``n`` error-free responses (a pool dispatcher's replays)."""
        if n:
            self._m_requests.inc(n)

    def _tier_stats(self, tier: str) -> CacheStats:
        lookups = self._m_lookups.value
        return CacheStats(int(lookups(tier=tier, outcome="hit")),
                          int(lookups(tier=tier, outcome="miss")),
                          int(self._m_evictions.value(tier=tier)))

    @property
    def program_cache_stats(self) -> CacheStats:
        """Counts of the compiled-program tier, read from the registry."""
        return self._tier_stats("program")

    @property
    def result_cache_stats(self) -> CacheStats:
        """Counts of the memoized-response tier, read from the registry."""
        return self._tier_stats("result")
