"""Cache-aware worker pool: process-parallel execution of engine batches.

:class:`WorkerPool` is the layer between the engine's batch former and its
batch executor.  A front :class:`~repro.runtime.engine.Engine` coalesces
queued requests into per-program batches exactly as a single-process engine
would; the dispatcher answers what its one memoized-response tier holds and
*dispatches* the misses across ``N`` workers, each with a private
:class:`~repro.runtime.engine.Engine` and its own program cache (no result tier).

Two execution modes share one dispatch path:

* ``process`` — each worker is a ``multiprocessing`` child driven over a
  pipe; all workers execute their batch lists concurrently (one scatter,
  one gather per flush, so the pipe protocol cannot deadlock).
* ``inline`` — each worker is an in-process engine executed sequentially in
  dispatch order.  Same batches, same per-worker caches, same responses:
  the deterministic fallback tests and CI rely on.

Dispatch follows one rule (:meth:`WorkerPool._route`): a batch goes to a
worker whose program cache holds its content-addressed program key — the
least loaded one in this flush if several do — and a key no worker holds
goes round-robin.  A worker already sent :data:`SPILL_BATCHES` batches
(or its even share of a bigger flush) is passed over, so a flush of one
hot program still runs in parallel.  Residency is what the workers reported
with their last flush reply (``resident_keys[i]``), so each program stays
where it was compiled.

The pool is **self-healing**: worker death is a steady-state event, not a
crash.  A dead worker (EOF or broken pipe) or a hung one (no flush reply
inside a deadline derived from its measured service rate) is respawned
in place with its same fault plan, and the batches it was
holding are requeued onto the surviving workers *within the same flush* —
responses are deterministic and the memoized-response tier sees only a
flush's final responses, so replaying a batch reproduces the exact responses
a fault-free run would have produced.  The lost worker's last reply stays
its residency, so routing stays stable while the respawned child rewarms.
Repeated failure trips a circuit breaker — more than
:data:`MAX_WORKER_RESTARTS` respawns inside :data:`RESTART_WINDOW_S` closes
the pool and raises :class:`PoolError`, the unrecoverable-death signal the
serving layer turns into a clean shutdown.
:class:`~repro.runtime.faults.FaultPlan` injection exercises every one of
these paths on demand.

Every count lives in one registry per process: the pool's, which the front
door shares, and each worker engine's, whose snapshot rides every flush
reply.  :meth:`WorkerPool.metrics_snapshots` lists them.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from dataclasses import replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.runtime.cache import ProgramCache
from repro.runtime.engine import Batch, Engine, Request, Response
from repro.runtime.engine import replay, result_fingerprint
from repro.runtime.faults import FaultInjector, FaultPlan, InjectedFault
from repro.runtime.logs import event, get_logger
from repro.runtime.telemetry import MetricsRegistry, family_total, merge_snapshots

POOL_MODES = ("inline", "process")
#: How process workers start: a fresh interpreter, never a fork of a parent
#: that holds locks and listener threads.
MP_CONTEXT = "spawn"
#: A worker sent this many batches in one flush (or its even share of a
#: bigger flush) takes no more, so a flush of one hot program spreads
#: across the pool instead of queueing on its one holder.
SPILL_BATCHES = 8
#: A process worker's flush reply is overdue after this many times its
#: expected service time (from its measured rate), but never before
#: ``HANG_DEADLINE_MIN_S``; a worker with no measured rate yet (fresh or
#: just respawned) gets ``HANG_COLD_DEADLINE_S``.  Overdue means hung.
HANG_DEADLINE_FACTOR = 8.0
HANG_DEADLINE_MIN_S = 30.0
HANG_COLD_DEADLINE_S = 120.0
#: The circuit breaker: a loss that would make more than this many respawns
#: inside the window closes the pool instead (0: any loss is fatal).
MAX_WORKER_RESTARTS = 5
RESTART_WINDOW_S = 30.0
#: Programs each worker's cache holds.
WORKER_CACHE_CAPACITY = 64
#: A batch that has killed its worker on this many replays (a poison
#: batch) is answered with error responses instead of replayed again.
MAX_BATCH_REPLAYS = 3

_LOG = get_logger(__name__)

#: One worker's flush reply: its responses, the program keys resident in its
#: cache, and its engine's registry snapshot.
_Reply = Tuple[List[Response], List[str], Dict[str, Any]]


class PoolError(ReproError):
    """The pool was misconfigured or died unrecoverably (breaker open)."""


class _WorkerFailure(Exception):
    """One worker was lost (died, hung, or pipe broke); the pool recovers.

    ``cause`` classifies the loss for the structured restart log: ``eof``
    (the child died), ``hang`` (no reply inside the deadline), ``pipe``
    (the parent-side pipe broke), or ``injected`` (inline fault plan).
    """

    def __init__(self, message: str, cause: str = "unknown"):
        super().__init__(message)
        self.cause = cause


def service_rate_rps(snapshot: Dict[str, Any]) -> float:
    """Requests per busy second in one worker's snapshot (0.0 = unmeasured)."""
    busy = family_total(snapshot, "engine_batch_execute_seconds")
    requests = family_total(snapshot, "engine_batch_requests_total")
    return requests / busy if busy > 0.0 else 0.0


def _tier_row(snapshot: Dict[str, Any], tier: str) -> Dict[str, Any]:
    """One cache tier's counts in a snapshot, as a stats row shows them."""
    lookups = "engine_cache_lookups_total"
    hits = int(family_total(snapshot, lookups, tier=tier, outcome="hit"))
    misses = int(family_total(snapshot, lookups, tier=tier, outcome="miss"))
    evictions = family_total(snapshot, "engine_cache_evictions_total", tier=tier)
    return {
        "hits": hits,
        "misses": misses,
        "evictions": int(evictions),
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
    }


def _worker_row(index: int, snapshot: Dict[str, Any], resident: int) -> Dict:
    """A worker row of the stats endpoints, from that worker's snapshot."""
    busy = family_total(snapshot, "engine_batch_execute_seconds")
    return {
        "worker": index,
        "batches": int(family_total(snapshot, "engine_batches_total")),
        "requests": int(family_total(snapshot, "engine_batch_requests_total")),
        "program_cache": _tier_row(snapshot, "program"),
        "resident_programs": resident,
        "busy_s": round(busy, 6),
        "service_rate_rps": round(service_rate_rps(snapshot), 2),
    }


def _crash_responses(batch: Batch, error: Exception) -> List[Response]:
    """Error responses for every entry of a batch whose worker blew up."""
    return [
        Response(
            request_id=request_id,
            app=request.app,
            ok=False,
            error=f"worker failure: {error}",
            batch_id=batch.batch_id,
            trace={"trace_id": request.trace_id} if request.trace else None,
        )
        for request_id, request in batch.entries
    ]


class _WorkerState:
    """One worker's engine (with its registry) and fault arm.

    Both execution modes run a worker through this: a process child in
    :func:`_process_worker_main`, an inline worker in the parent.  The
    engine has no result tier (the one tier is the dispatcher's) and never
    coalesces.
    """

    def __init__(self, index: int, plan: Optional[FaultPlan], inline: bool):
        self.engine = Engine(
            program_cache=ProgramCache(capacity=WORKER_CACHE_CAPACITY),
            result_cache_capacity=0,
        )
        self.injector = None
        if plan is not None and plan.for_worker(index):
            self.injector = FaultInjector(plan, index, inline=inline)

    def run(self, batches: Sequence[Batch]) -> _Reply:
        """Execute a batch list; returns the reply.

        Unexpected errors become responses.  The injector is consulted at
        batch boundaries; an injected crash propagates (it must look like
        worker death, not an error response).
        """
        responses: List[Response] = []
        for batch in batches:
            if self.injector is not None:
                self.injector.on_batch_start()
            try:
                responses.extend(self.engine.execute_batch(batch))
            except InjectedFault:
                raise
            except Exception as error:  # noqa: BLE001 - a worker must not die
                responses.extend(_crash_responses(batch, error))
            if self.injector is not None:
                self.injector.on_batch_done()
        resident = self.engine.program_cache.resident_keys()
        return responses, resident, self.engine.metrics.snapshot()


def _process_worker_main(connection, index: int, plan: Optional[FaultPlan]) -> None:
    """Entry point of one pool child: serve ``run`` messages until ``stop``."""
    worker = _WorkerState(index, plan, inline=False)
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        if message[0] == "stop":
            break
        reply = worker.run(message[1])
        if worker.injector is None or worker.injector.before_reply():
            connection.send(reply)
    connection.close()


class _InlineWorker:
    """Deterministic in-process worker: same engine, no child process."""

    def __init__(self, index: int, plan: Optional[FaultPlan]):
        self.index = index
        self.plan = plan
        self._reset()

    def _reset(self) -> None:
        self.state = _WorkerState(self.index, self.plan, inline=True)
        self._pending: Optional[_Reply] = None

    def submit(self, batches: Sequence[Batch]) -> None:
        """Execute the batches synchronously; results wait for collect()."""
        injector = self.state.injector
        try:
            self._pending = self.state.run(batches)
            if injector is not None:
                # Process-worker parity: a kill/hang due right after the
                # flush's work ("die before the reply") fires here too.
                # Reply-pipe faults have nothing to act on inline.
                injector.before_reply()
        except InjectedFault as fault:
            self._pending = None
            raise _WorkerFailure(str(fault), cause="injected") from fault

    def collect(self, deadline_s: Optional[float] = None) -> _Reply:
        """Return (and clear) the reply of the last submit().

        ``deadline_s`` is accepted for interface parity with the process
        worker; an inline worker already finished inside submit().
        """
        assert self._pending is not None, "collect() before submit()"
        pending, self._pending = self._pending, None
        return pending

    def respawn(self) -> None:
        """Rebuild the engine in place — the inline analogue of a new child.

        Its registry (so the measured service rate) and caches restart
        from zero exactly as a fresh process would; consumed one-shot faults
        stay consumed.
        """
        self.plan = self.plan and self.plan.respawn_plan(self.index)
        self._reset()

    def stop(self) -> None:
        """Nothing to tear down for an in-process worker."""
        pass


class _ProcessWorker:
    """One multiprocessing child plus the parent-side pipe to drive it."""

    def __init__(self, index: int, plan: Optional[FaultPlan]):
        self.index = index
        self.plan = plan
        self._spawn()

    def _spawn(self) -> None:
        context = multiprocessing.get_context(MP_CONTEXT)
        self.connection, child = context.Pipe()
        self.process = context.Process(
            target=_process_worker_main,
            args=(child, self.index, self.plan),
            daemon=True,
        )
        self.process.start()
        child.close()

    def submit(self, batches: Sequence[Batch]) -> None:
        """Ship the batches to the child; raises if the child is gone."""
        try:
            self.connection.send(("run", batches))
        except (BrokenPipeError, OSError) as error:
            raise _WorkerFailure(f"worker {self.index} is gone: {error}", cause="pipe")

    def collect(self, deadline_s: Optional[float] = None) -> _Reply:
        """Block for the child's reply; raises if it died or blew a deadline.

        ``deadline_s`` bounds the wait: a child that neither replies nor
        dies inside it is declared hung (the caller kills and respawns it,
        so a late reply can never desynchronize the pipe).  ``None`` waits
        forever, the pre-supervision behaviour.
        """
        try:
            if deadline_s is not None and not self.connection.poll(deadline_s):
                raise _WorkerFailure(
                    f"worker {self.index} hung: no flush reply within "
                    f"{deadline_s:.1f}s",
                    cause="hang",
                )
            return self.connection.recv()
        except EOFError as error:
            raise _WorkerFailure(
                f"worker {self.index} died mid-batch", cause="eof"
            ) from error
        except OSError as error:
            raise _WorkerFailure(
                f"worker {self.index} pipe failed: {error}", cause="pipe"
            )

    def respawn(self) -> None:
        """Replace the child with a fresh one on a fresh pipe, in place.

        The old child is killed outright (it is dead, hung, or poisoned —
        never worth a graceful stop), its pipe is closed so no stale reply
        can ever be read, and the new child starts from the same fault plan
        with consumed one-shot faults stripped.
        """
        try:
            self.connection.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10)
        self.plan = self.plan and self.plan.respawn_plan(self.index)
        self._spawn()

    def stop(self) -> None:
        """Stop the child — politely, then terminate, then kill.

        Escalation never leaves a zombie: the process is always joined
        before the pipe closes, and a child that survives ``terminate()``
        (e.g. one wedged in uninterruptible state) gets ``kill()``.
        """
        try:
            self.connection.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.connection.close()


class _Flush(NamedTuple):
    """What :meth:`WorkerPool.lookup` hands to ``dispatch``."""

    responses: List[Response]  # answered already: coalesce errors and replays
    batches: List[Batch]  # what missed, with its ids and batch ids
    first: Dict[Any, int]  # fingerprint -> id of its first miss
    held: List[Tuple[int, Request, int, Any]]  # repeats of those, held back
    lookup_s: float


class PoolReport(NamedTuple):
    """What one flush produced: its responses and the seconds it took.

    Everything else a flush changed is counted in the registries that
    :meth:`WorkerPool.metrics_snapshots` lists.
    """

    responses: List[Response]
    flush_s: float


class WorkerPool:
    """Executes engine batches across N cache-owning, supervised workers.

    The pool is long-lived: submit/flush as many rounds as you like (the
    server does exactly that), then :meth:`close` it — or use it as a
    context manager.  Batches are routed by :meth:`_route`, which keeps
    each program on the worker whose cache holds it.

    Worker loss is masked, not fatal: a dead or hung worker is respawned
    in place and its batches are requeued within the same flush (see the
    module docstring for the recovery contract).  ``fault_plan`` injects
    faults for chaos testing (see :mod:`repro.runtime.faults`).

    The breaker, hang deadlines, poison batches and worker cache size follow
    the module constants :data:`MAX_WORKER_RESTARTS`,
    :data:`RESTART_WINDOW_S`, :data:`HANG_DEADLINE_FACTOR`,
    :data:`HANG_DEADLINE_MIN_S`, :data:`HANG_COLD_DEADLINE_S`,
    :data:`MAX_BATCH_REPLAYS` and :data:`WORKER_CACHE_CAPACITY`; a test
    patches the constant.
    """

    def __init__(
        self,
        workers: int = 4,
        mode: str = "inline",
        result_cache_capacity: int = 512,
        max_batch_size: int = 16,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if workers <= 0:
            raise PoolError("need at least one pool worker")
        if mode not in POOL_MODES:
            raise PoolError(f"unknown pool mode '{mode}'; choose from {POOL_MODES}")
        if fault_plan is not None:
            for fault in fault_plan.faults:
                if fault.worker >= workers:
                    raise PoolError(
                        f"fault plan targets worker {fault.worker} but the "
                        f"pool has only {workers} workers"
                    )
        self.workers = workers
        self.mode = mode
        self._restart_times: List[float] = []
        #: This process's registry: the pool's families, the front engine's
        #: and the front door's.  Worker engines keep their own registries
        #: and ship snapshots back with every flush reply.
        self.metrics = MetricsRegistry()
        #: The fault counts (``.value()`` reads one).
        self.restarts = self.metrics.counter(
            "pool_worker_restarts_total", "Workers respawned after a loss."
        )
        self.replays = self.metrics.counter(
            "pool_replayed_batches_total",
            "Batches requeued onto survivors after a worker loss.",
        )
        self.restarts.inc(0)
        self.replays.inc(0)
        self._m_flushes = self.metrics.counter(
            "pool_flushes_total", "Pool flush rounds completed."
        )
        self._m_flush_s = self.metrics.histogram(
            "pool_flush_seconds", "Per-flush wall clock (dispatch to gather)."
        )
        self._m_imbalance = self.metrics.gauge(
            "pool_dispatch_imbalance",
            "Last flush's max/mean worker-load ratio (1.0 = even).",
        )
        self.metrics.add_collector(self._collect_metrics)
        # The front engine queues, coalesces and keeps the pool's one result
        # tier (counted into the pool's registry); it never compiles or runs.
        # ``front_lock`` guards it from a caller's first submit() to its lookup().
        self._front = Engine(
            program_cache=ProgramCache(capacity=0),
            result_cache_capacity=result_cache_capacity,
            max_batch_size=max_batch_size,
            metrics=self.metrics,
        )
        self.front_lock = threading.Lock()
        worker_class = _ProcessWorker if mode == "process" else _InlineWorker
        self._workers = [worker_class(i, fault_plan) for i in range(workers)]
        # What each worker said in its last flush reply (nothing, until it
        # replies).  Idle workers are skipped per flush; their last reply
        # still describes their caches exactly.
        self.resident_keys: List[List[str]] = [[] for _ in range(workers)]
        self.worker_metrics: List[Dict[str, Any]] = [{} for _ in range(workers)]
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker; idempotent, and the pool is unusable after."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving ------------------------------------------------------------

    def submit(self, request: Request) -> int:
        """Queue one request; returns its id (also its response order)."""
        return self._front.submit(request)

    def process(self, requests: Sequence[Request]) -> PoolReport:
        """Submit and serve a whole trace; responses in submission order.

        Queues either all of ``requests`` or none: a request that fails
        :meth:`Request.validate` raises before the first one is queued.
        """
        for request in requests:
            request.validate()
        for request in requests:
            self.submit(request)
        return self.flush()

    def flush(self) -> PoolReport:
        """Serve everything queued: :meth:`lookup`, then :meth:`dispatch`."""
        with self.front_lock:
            flush = self.lookup()
        return self.dispatch(flush)

    def lookup(self) -> _Flush:
        """Coalesce the queue and answer what the result tier already holds.

        The coalesce assigns ids and batch ids first, so a hit changes
        nobody's.  A hit is replayed right here — no worker, pipe or pickle,
        and nothing compiled.  A repeat of an earlier miss of this flush is
        held back for that one's response, so it still executes once.  The
        caller holds ``front_lock``.
        """
        if self._closed:
            raise PoolError("pool is closed")
        started = time.perf_counter()
        tier = self._front.result_cache
        responses, batches, first, held = [], [], {}, []
        for batch in self._front.coalesce():
            misses = []
            for request_id, request in batch.entries:
                key = result_fingerprint(tier, request, batch.program_key)
                if key in first:
                    held.append((request_id, request, batch.batch_id, key))
                elif key is None or (cached := self._front.recall(key)) is None:
                    if key is not None:
                        first[key] = request_id
                    misses.append((request_id, request))
                else:
                    hit = replay(cached, request_id, request, batch.batch_id, True)
                    responses.append(hit)
            if misses:
                batches.append(replace(batch, entries=misses))
        self._front.count_served(len(responses))
        responses.extend(self._front.drain_failed())
        return _Flush(responses, batches, first, held, time.perf_counter() - started)

    def dispatch(self, flush: _Flush) -> PoolReport:
        """Send what missed to the workers, gather, and fill the tier.

        Callers serialize dispatches that carry batches; one that carries
        none touches no worker state.  Worker loss is masked as the class
        docstring describes, so the tier sees only a flush's final responses.
        """
        started = time.perf_counter()
        responses: List[Response] = []
        if flush.batches:
            responses = self._gather(flush.batches)
            by_id = {response.request_id: response for response in responses}
            with self.front_lock:
                for key, request_id in flush.first.items():
                    self._front.memoize(key, by_id[request_id])
                served = 0
                for request_id, request, batch_id, key in flush.held:
                    # A hit now — unless the first one failed: then its error.
                    was = self._front.recall(key) or by_id[flush.first[key]]
                    served += was.error is None
                    again = (request_id, request, batch_id, was.program_cache_hit)
                    flush.responses.append(replay(was, *again))
                self._front.count_served(served)
        responses.extend(flush.responses)
        responses.sort(key=lambda r: r.request_id)
        flush_s = flush.lookup_s + time.perf_counter() - started
        self._m_flushes.inc()
        self._m_flush_s.observe(flush_s)
        return PoolReport(responses, flush_s)

    def _gather(self, batches: List[Batch]) -> List[Response]:
        """One scatter/gather round over the workers, losses masked."""
        if self._closed:
            raise PoolError("pool is closed")
        held = [set(keys) for keys in self.resident_keys]
        # Idle workers (no batches this flush) are skipped entirely: their
        # caches cannot have changed, so their previous reply still holds
        # and the single-request path costs one worker round-trip, not N.
        pending, loads = self._route(batches, held)
        responses: List[Response] = []
        resident = list(self.resident_keys)
        documents = list(self.worker_metrics)
        replay_counts: Dict[int, int] = {}
        restarted: Set[int] = set()
        while pending:
            submitted: Dict[int, List[Batch]] = {}
            lost: List[Tuple[int, List[Batch], _WorkerFailure]] = []
            for index in sorted(pending):
                try:
                    self._workers[index].submit(pending[index])
                    submitted[index] = pending[index]
                except _WorkerFailure as failure:
                    lost.append((index, pending[index], failure))
            for index, assigned in submitted.items():
                deadline = self._collect_deadline_s(
                    index, assigned, cold=index in restarted
                )
                try:
                    reply = self._workers[index].collect(deadline)
                    worker_responses, resident[index], documents[index] = reply
                    for response in worker_responses:
                        if response.trace is not None:
                            response.trace["worker"] = index
                    responses.extend(worker_responses)
                except _WorkerFailure as failure:
                    lost.append((index, assigned, failure))
            retry: List[Batch] = []
            for index, assigned, failure in lost:
                reason = str(failure)
                self._recover_worker(index, reason, failure.cause)
                restarted.add(index)
                for batch in assigned:
                    replays = replay_counts.get(batch.batch_id, 0) + 1
                    replay_counts[batch.batch_id] = replays
                    if replays > MAX_BATCH_REPLAYS:
                        # A poison batch: it has now taken down a worker on
                        # every replay.  Answer it with error responses so
                        # the rest of the flush can complete.
                        event(
                            _LOG,
                            logging.ERROR,
                            "poison batch abandoned",
                            batch=batch.batch_id,
                            replays=MAX_BATCH_REPLAYS,
                            worker=index,
                            cause=failure.cause,
                        )
                        responses.extend(
                            _crash_responses(
                                batch,
                                PoolError(
                                    f"batch abandoned after "
                                    f"{MAX_BATCH_REPLAYS} replays "
                                    f"(last failure: {reason})"
                                ),
                            )
                        )
                    else:
                        retry.append(batch)
                        self.replays.inc()
            # Requeue onto the (now fully respawned) pool by the same rule,
            # against the residency the first routing left behind; nothing
            # lost routes nothing and ends the loop.
            pending, _ = self._route(retry, held)
        # The replies of respawned workers that served no retry batch are
        # deliberately left at their pre-crash value: the next flush keeps
        # routing their programs to the same index while the fresh child
        # rewarms.
        self.resident_keys, self.worker_metrics = resident, documents
        self._m_imbalance.set(max(loads) * self.workers / sum(loads))
        return responses

    def _route(
        self, batches: Sequence[Batch], held: List[Set[str]]
    ) -> Tuple[Dict[int, List[Batch]], List[int]]:
        """Assign batches to workers; returns them and the requests each got.

        A worker is *full* once it has been sent :data:`SPILL_BATCHES`
        batches in this call, or its even share of the call's batches if
        that is more.  A batch goes to a non-full worker holding its program
        key — of several, the one sent the fewest requests, the lowest index
        on a tie; if none does, round-robin from worker 0 over the non-full
        workers.  ``held[i]`` gains each key sent to ``i`` and never loses
        one, so a key a worker evicts within this call still counts as held
        there.
        """
        routed: Dict[int, List[Batch]] = {}
        load = [0] * self.workers
        sent = [0] * self.workers
        cursor = 0
        cap = max(SPILL_BATCHES, -(-len(batches) // self.workers))
        for batch in batches:
            key = batch.program_key
            holders = [
                i for i, keys in enumerate(held) if key in keys and sent[i] < cap
            ]
            if holders:
                worker = min(holders, key=load.__getitem__)
            else:
                while sent[cursor] >= cap:
                    cursor = (cursor + 1) % self.workers
                worker, cursor = cursor, (cursor + 1) % self.workers
            held[worker].add(key)
            load[worker] += len(batch)
            sent[worker] += 1
            routed.setdefault(worker, []).append(batch)
        return routed, load

    # -- supervision --------------------------------------------------------

    def _collect_deadline_s(
        self, index: int, batches: Sequence[Batch], cold: bool = False
    ) -> Optional[float]:
        """Reply deadline for one worker's flush (None = wait forever).

        Derived from the worker's measured service rate
        (:func:`service_rate_rps` of its last snapshot):
        :data:`HANG_DEADLINE_FACTOR` times the expected service time of its
        assigned requests, floored at :data:`HANG_DEADLINE_MIN_S`.  Workers
        with no measurement yet — fresh, or just respawned (``cold``) and
        facing recompiles — get the generous :data:`HANG_COLD_DEADLINE_S`
        instead.  Inline workers
        finish inside submit(), so only process mode has deadlines at all.
        """
        if self.mode != "process":
            return None
        rate = service_rate_rps(self.worker_metrics[index])
        if cold or rate <= 0.0:
            return HANG_COLD_DEADLINE_S
        requests = sum(len(batch) for batch in batches)
        return max(HANG_DEADLINE_MIN_S, HANG_DEADLINE_FACTOR * requests / rate)

    def _recover_worker(self, index: int, reason: str, cause: str) -> None:
        """Respawn one lost worker, or trip the breaker and close the pool.

        The breaker opens when this loss would exceed
        :data:`MAX_WORKER_RESTARTS` respawns inside :data:`RESTART_WINDOW_S` — the
        pool is then closed and :class:`PoolError` raised, which the
        serving layer treats as unrecoverable (clean shutdown for an
        external supervisor).  A respawn that itself fails is equally
        fatal.  Every outcome emits a structured log record carrying the
        worker id, the fault cause (``eof`` vs ``hang`` vs ``pipe``), and
        the replay count, so recoveries are debuggable after the fact.
        """
        now = time.monotonic()
        self._restart_times = [
            t for t in self._restart_times if now - t < RESTART_WINDOW_S
        ]
        if len(self._restart_times) >= MAX_WORKER_RESTARTS:
            event(
                _LOG,
                logging.ERROR,
                "circuit breaker open",
                worker=index,
                cause=cause,
                restarts_in_window=len(self._restart_times),
                window_s=RESTART_WINDOW_S,
                reason=reason,
            )
            self.close()
            raise PoolError(
                f"worker {index} lost ({reason}) after "
                f"{len(self._restart_times)} respawns within "
                f"{RESTART_WINDOW_S:.0f}s: circuit breaker open, "
                f"pool closed"
            )
        try:
            self._workers[index].respawn()
        except Exception as error:  # noqa: BLE001 - a failed respawn is fatal
            event(
                _LOG,
                logging.ERROR,
                "worker respawn failed",
                worker=index,
                cause=cause,
                error=str(error),
            )
            self.close()
            raise PoolError(f"could not respawn worker {index}: {error}")
        self._restart_times.append(now)
        self.restarts.inc()
        event(
            _LOG,
            logging.WARNING,
            "worker restarted",
            worker=index,
            cause=cause,
            reason=reason,
            restarts_in_window=len(self._restart_times),
            replayed_batches_total=int(self.replays.value()),
        )

    def recent_restarts(self) -> int:
        """Worker respawns inside the current breaker window.

        Nonzero means "degraded": the pool is serving, but capacity was
        recently lost and caches are rewarming.  Health endpoints report
        exactly this.
        """
        now = time.monotonic()
        return sum(1 for t in self._restart_times if now - t < RESTART_WINDOW_S)

    # -- telemetry ----------------------------------------------------------

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Set the residency gauge from the workers' last replies."""
        resident = registry.gauge(
            "pool_resident_programs", "Programs resident across worker caches."
        )
        resident.set(sum(len(keys) for keys in self.resident_keys))

    def metrics_snapshots(self) -> List[Dict[str, Any]]:
        """This process's registry snapshot, then one per worker.

        Element ``1 + i`` is the latest snapshot worker ``i`` shipped with a
        flush reply (empty until it has replied); a worker respawned since
        then reports its fresh (reset) counters on its next flush — the
        standard Prometheus restart semantics.  ``stats`` and ``/metrics``
        both render from one such list.
        """
        return [self.metrics.snapshot(), *self.worker_metrics]

    # -- stats --------------------------------------------------------------

    def capacity_rps(self) -> float:
        """Requests per worker-busy-second, summed over workers.

        0.0 until a worker has served.  Read lock-free from the workers'
        latest snapshots; the admission budget and its retry hint are sized
        from it.
        """
        return sum(service_rate_rps(document) for document in self.worker_metrics)

    def stats_from(self, snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        """The ``pool`` object of the ``stats`` envelope, read from
        ``snapshots`` (a list :meth:`metrics_snapshots` returned)."""
        own, workers = snapshots[0], snapshots[1:]
        restarts = family_total(own, "pool_worker_restarts_total")
        replays = family_total(own, "pool_replayed_batches_total")
        return {
            "mode": self.mode,
            "faults": {
                "worker_restarts": int(restarts),
                "replayed_batches": int(replays),
                "recent_restarts": self.recent_restarts(),
                "max_worker_restarts": MAX_WORKER_RESTARTS,
                "restart_window_s": RESTART_WINDOW_S,
            },
            "workers": [
                _worker_row(index, document, len(self.resident_keys[index]))
                for index, document in enumerate(workers)
            ],
            "program_cache": _tier_row(merge_snapshots(workers), "program"),
            "result_cache": _tier_row(own, "result"),
        }
