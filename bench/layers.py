"""The traced run: where an operation's time goes, layer by layer.

Separate from the timed run and never mixed into its numbers.  Everything is
measured from outside, by timing calls into public functions and public wire
endpoints, with spans kept in a :class:`bench.trace.Tracer`:

1. *Own operations* — the workload's operations in alternating untraced and
   traced slices; the difference in their rate is ``trace.overhead_share``.
2. *Staged compile/execute* — the public stages called one at a time on the
   workload's programs and request shape: lexer, parser, front-end lowering,
   every pass followed by the verifier, dataflow lowering, schedule build,
   instance generation, one run per executor, reference, performance model —
   and the whole cold ``Engine.process`` beside them, so the remainder is
   attributed (``runtime.engine.overhead_ms``) and not lost.
3. *Serving ladder* — the workload's request stream replayed at six
   successively deeper entry points; a layer's cost is the difference between
   the medians of adjacent rungs.

Counts (tokens, IR operations, graph nodes, node firings, bytes) come from
the first staged round only, whose inputs depend on ``--seed`` alone, so they
repeat exactly however many rounds the clock allows.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.apps import REGISTRY
from repro.compiler import build_pass_pipeline
from repro.core.executor import schedule_for
from repro.core.machine import DEFAULT_MACHINE
from repro.dataflow.lowering import lower_to_dataflow
from repro.dataflow.resources import estimate_resources
from repro.frontend import lower_program
from repro.ir.verifier import verify
from repro.lang import Parser, tokenize
from repro.runtime.cache import ProgramCache
from repro.runtime.engine import Engine, Request
from repro.runtime.gateway.admission import AdmissionController, PoolService
from repro.runtime.pool import WorkerPool
from repro.sim.perf_model import VRDAPerformanceModel, WorkloadProfile

from bench import runner, stats
from bench.serving import Server
from bench.trace import Tracer
from bench.workloads import APPS, Key, Op, Workload

OUT = Path(__file__).resolve().parent / "out"

#: Shares of ``--seconds`` given to the three phases.
OWN_SHARE, STAGED_SHARE, LADDER_SHARE = 0.2, 0.3, 0.5
CODEC_CALLS = 32
#: Consecutive calls a rung gets per ladder round; the first is not timed.
LADDER_BURST = 4

PASS_NAMES = ("canonicalize", "lower-views", "lower-iterators",
              "hierarchy-elimination", "if-to-select", "allocator-fusion",
              "allocator-hoisting", "bufferize-replicate", "subword-packing")
COMPILE_STAGES = (("lang.lex", "lang.parse", "frontend.lower", "ir.verify",
                   "dataflow.lower")
                  + tuple(f"passes.{name}" for name in PASS_NAMES))
#: Behind each element of ``Workload.path``: which staged operation records
#: it (the compile of the app's program or the execute of its request) and
#: under which stage names.
PATH_STAGES = {
    "compile": ("compile", COMPILE_STAGES),
    "schedule": ("compile", ("core.schedule",)),
    "generate": ("execute", ("apps.generate",)),
    "run": ("execute", ("core.run",)),
    "reference": ("execute", ("apps.reference",)),
    "model": ("execute", ("sim.model",)),
}
#: What a cold ``Engine.process`` runs, in order.
COLD_PATH = ("compile", "schedule", "generate", "run", "reference", "model")

Row = Dict[str, float]


class Stages:
    """Opens one span per stage of an operation and sums seconds by stage."""

    def __init__(self, tracer: Tracer, op: int):
        self.tracer = tracer
        self.op = op
        self.seconds: Row = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        with self.tracer.span(name, self.op) as span:
            yield
        self.seconds[name] = self.seconds.get(name, 0.0) + span.duration


# -- phase 2: staged compile and execute -----------------------------------


def staged_compile(stage: Stages, source: str, options) -> Tuple[Any, Dict[str, int]]:
    """``compile_source`` taken apart; returns the program and exact counts."""
    counts: Dict[str, int] = {}
    with stage.tracer.span("staged.compile", stage.op):
        with stage("lang.lex"):
            tokens = tokenize(source)
        with stage("lang.parse"):
            tree = Parser(tokens).parse_program()
        with stage("frontend.lower"):
            module = lower_program(tree)
        with stage("harness"):
            counts["lang.tokens"] = len(tokens)
            counts["frontend.ir_ops"] = sum(1 for _ in module.walk())
        for each in build_pass_pipeline(options).passes:
            with stage(f"passes.{each.name}"):
                changed = each.run(module)
            with stage("ir.verify"):
                verify(module)
            key = f"passes.{each.name}_applied"
            counts[key] = max(counts.get(key, 0), int(bool(changed)))
        with stage("dataflow.lower"):
            program = lower_to_dataflow(module, "main")
        with stage("core.schedule"):
            schedule_for(program.graph)
        with stage("harness"):
            counts["passes.ir_ops_after"] = sum(1 for _ in module.walk())
            counts["dataflow.graph_nodes"] = sum(
                program.graph.count_ops().values())
    return program, counts


def _observed(spec, instance, ran) -> Tuple[Any, ...]:
    """Everything two executors must agree on for one run."""
    return (list(instance.memory.segment_data(spec.output_segment)),
            dict(vars(instance.memory.stats)),
            dict(ran.profile.node_firings), dict(ran.profile.loop_iterations))


def staged_execute(stage: Stages, program, key: Key,
                   cold_engine: Engine) -> Dict[str, Any]:
    """One request taken apart, then whole; returns counts and verdicts."""
    spec = REGISTRY.get(key.app)
    with stage.tracer.span("staged.execute", stage.op):
        with stage("apps.generate"):
            instance = spec.make_instance(key.n_threads, key.seed)
        with stage("core.run"):
            ran = program.run(instance.memory, profile=True, link_stats=False,
                              executor=None, **instance.args)
        with stage("harness"):
            columnar = _observed(spec, instance, ran)
        with stage("apps.reference"):
            spec.reference(instance)
        with stage("sim.model"):
            profile = WorkloadProfile.from_run(
                instance.memory.stats, threads=key.n_threads,
                app_bytes_per_thread=spec.bytes_per_thread,
                iterations=max(1.0, (sum(ran.profile.loop_iterations.values())
                                     or 1) / key.n_threads))
            resources = estimate_resources(
                program, app_name=spec.name,
                replicate_factor=spec.replicate_factor, machine=DEFAULT_MACHINE)
            report = VRDAPerformanceModel(DEFAULT_MACHINE).throughput(
                spec.name, profile, resources)
        # Off the blocking path: the reference interpreter on a twin instance.
        with stage("harness"):
            twin = spec.make_instance(key.n_threads, key.seed)
        with stage("core.token"):
            token_ran = program.run(twin.memory, profile=True, link_stats=False,
                                    executor="token", **twin.args)
        with stage("harness"):
            token = _observed(spec, twin, token_ran)
        with stage("runtime.engine.process"):
            response = cold_engine.process([Request(**key.payload())])[0]
    stats_ = instance.memory.stats
    return {
        "outputs": None if response.error else response.outputs,
        "mismatch": int(columnar != token),
        "modeled_gbs": report.throughput_gbs,
        "counts": {
            "core.node_firings": sum(ran.profile.node_firings.values()),
            "core.loop_iterations": sum(ran.profile.loop_iterations.values()),
            "core.dram_bytes": stats_.dram_total_bytes,
            "core.sram_accesses": stats_.sram_reads + stats_.sram_writes,
        },
    }


def staged_phase(workload: Workload, tracer: Tracer, seconds: float,
                 tally: Dict[str, int]) -> Dict[str, Any]:
    """Rounds of staged compiles and executes until ``seconds`` are used.

    Returns, per program and per app, the stage rows of the staged
    operations that ran in quiet slices (chosen as in the timed window).
    """
    programs = workload.programs()
    cold_engine = Engine(program_cache=ProgramCache(capacity=0),
                         result_cache_capacity=0, max_batch_size=1)
    records: List[runner.Record] = []
    counts: Dict[str, int] = {}
    modeled: List[float] = []
    mismatched = set()
    seed = workload.warm_keys[0].seed + 1000
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        first = not records
        compiled: Dict[str, Any] = {}
        for label, source, options in programs:
            stage = Stages(tracer, len(records))
            compiled[label], found = staged_compile(stage, source, options)
            records.append(runner.Record(
                Op(label, "compile", ()), sum(stage.seconds.values()),
                stage.seconds))
            if first:
                for name, value in found.items():
                    counts[name] = counts.get(name, 0) + value
        for app in APPS:
            seed += 1
            key = Key(app, workload.staged_shape(app), seed)
            stage = Stages(tracer, len(records))
            found = staged_execute(stage, compiled[f"{app}/default"], key,
                                   cold_engine)
            records.append(runner.Record(
                Op(app, "execute", ()), sum(stage.seconds.values()),
                stage.seconds))
            tally["attempted"] += 1
            tally["failed"] += int(
                not workload.oracle.matches(key, found["outputs"]))
            if found["mismatch"]:
                mismatched.add(app)
            if first:
                modeled.append(found["modeled_gbs"])
                for name, value in found["counts"].items():
                    counts[name] = counts.get(name, 0) + value
    cut = runner.slices(records)
    rows: Dict[str, Dict[str, List[Row]]] = {"compile": {}, "execute": {}}
    for index in runner.quiet_slices(cut):
        for record in cut[index]:
            rows[record.op.door].setdefault(record.op.group, []).append(
                record.kept)
    return {"compile": rows["compile"], "execute": rows["execute"],
            "counts": counts, "modeled_gbs": modeled,
            "mismatches": len(mismatched)}


def _item_seconds(items: Dict[str, List[Row]], item: str,
                  names: Sequence[str]) -> float:
    """Median over one item's quiet rows of its time in the named stages."""
    return stats.median([sum(row.get(name, 0.0) for name in names)
                         for row in items[item]])


def _per_item_ms(items: Dict[str, List[Row]], names: Sequence[str]) -> float:
    """Mean over items of :func:`_item_seconds`, in milliseconds."""
    return 1e3 * sum(_item_seconds(items, item, names)
                     for item in items) / len(items)


def staged_metrics(staged: Dict[str, Any]) -> Dict[str, float]:
    compiles, executes = staged["compile"], staged["execute"]
    metrics: Dict[str, float] = {
        "lang.lex_ms": _per_item_ms(compiles, ["lang.lex"]),
        "lang.parse_ms": _per_item_ms(compiles, ["lang.parse"]),
        "frontend.lower_ms": _per_item_ms(compiles, ["frontend.lower"]),
        "ir.verify_ms": _per_item_ms(compiles, ["ir.verify"]),
        "dataflow.lower_ms": _per_item_ms(compiles, ["dataflow.lower"]),
        "core.schedule_ms": _per_item_ms(compiles, ["core.schedule"]),
        "apps.generate_ms": _per_item_ms(executes, ["apps.generate"]),
        "apps.reference_ms": _per_item_ms(executes, ["apps.reference"]),
        "sim.model_ms": _per_item_ms(executes, ["sim.model"]),
        "sim.modeled_gbs_geomean": stats.geomean(staged["modeled_gbs"]),
        "core.executor_mismatches": staged["mismatches"],
    }
    for name in PASS_NAMES:
        metrics[f"passes.{name}_ms"] = _per_item_ms(compiles, [f"passes.{name}"])
        metrics[f"passes.{name}_applied"] = staged["counts"].get(
            f"passes.{name}_applied", 0)
    for app in APPS:
        metrics[f"core.run_ms.{app}"] = 1e3 * _item_seconds(
            executes, app, ["core.run"])
        metrics[f"core.token_ms.{app}"] = 1e3 * _item_seconds(
            executes, app, ["core.token"])
    for name, value in staged["counts"].items():
        if not name.endswith("_applied"):
            metrics[name] = value
    # What Engine.process adds to the stages it runs, for a cold request.
    staged_sum = staged_path_seconds(COLD_PATH, staged)
    metrics["runtime.engine.overhead_ms"] = 1e3 * sum(
        _item_seconds(executes, app, ["runtime.engine.process"])
        - staged_sum[app] for app in APPS) / len(APPS)
    return metrics


def staged_path_seconds(path: Sequence[str],
                        staged: Dict[str, Any]) -> Dict[str, float]:
    """Per group, the staged time of the stages its operation waits for."""
    if tuple(path) == ("compile",):
        return {label: _item_seconds(staged["compile"], label, COMPILE_STAGES)
                for label in staged["compile"]}
    return {
        app: sum(_item_seconds(staged[kind],
                               app if kind == "execute" else f"{app}/default",
                               names)
                 for kind, names in (PATH_STAGES[part] for part in path))
        for app in APPS}


# -- phase 3: the serving ladder ------------------------------------------------


class Rung:
    """One entry point of the ladder and the samples taken at it."""

    def __init__(self, name: str, calls: Iterator[Tuple[str, List[Dict[str, Any]]]],
                 prepare: Callable[[List[Dict[str, Any]]], Any],
                 send: Callable[[Any], List[Any]]):
        self.name = name
        self.calls = calls
        #: Untimed: turn a call's payloads into what this entry point takes.
        self.prepare = prepare
        #: Timed: returns one ``outputs`` list (or ``None``) per request.
        self.send = send
        #: ``(kind of call, seconds)`` of the calls made while the host was quiet.
        self.quiet: List[Tuple[str, float]] = []
        #: Seconds of all calls.
        self.total_s = 0.0

    def typical_us(self) -> float:
        """Mean over kinds of call of each kind's median, in microseconds."""
        medians = stats.group_medians(self.quiet)
        return 1e6 * sum(medians.values()) / len(medians)


def _requests(call: List[Dict[str, Any]]) -> List[Request]:
    return [Request.from_dict(payload) for payload in call]


def _response_outputs(responses) -> List[Any]:
    return [None if r.error else r.outputs for r in responses]


def _wire_outputs(replies) -> List[Any]:
    return [r.get("outputs") if r.get("ok") else None for r in replies or []]


def build_rungs(workload: Workload, engine: Engine, inline: WorkerPool,
                pool: WorkerPool, service: PoolService,
                server: Server) -> List[Rung]:
    def ndjson(call):
        if len(call) == 1:
            return _wire_outputs([server.client.request(**call[0])])
        return _wire_outputs(server.client.batch(call))

    def http(call):
        if len(call) == 1:
            return _wire_outputs([server.post("/v1/request", call[0])[1]])
        reply = server.post("/v1/batch", {"requests": call})[1]
        return _wire_outputs(reply.get("responses"))

    # The service rung reuses the process pool and both sockets one server,
    # caches included; the second user of each gets the twin stream, whose
    # fresh seeds the first has not already made warm.
    entry_points = [
        ("engine", 0, _requests,
         lambda requests: _response_outputs(engine.process(requests))),
        ("pool-inline", 0, _requests,
         lambda requests: _response_outputs(inline.process(requests).responses)),
        ("pool-process", 0, _requests,
         lambda requests: _response_outputs(pool.process(requests).responses)),
        ("service", 1, list,
         lambda call: _wire_outputs(service.serve_payloads(call).results)),
        ("ndjson", 0, list, ndjson),
        ("http", 1, list, http),
    ]
    return [Rung(name, workload.ladder_calls(twin), prepare, send)
            for name, twin, prepare, send in entry_points]


def climb(rungs: List[Rung], workload: Workload, tracer: Tracer,
          seconds: float, tally: Dict[str, int]) -> None:
    """Time the rungs in short bursts in turn; check every reply afterwards.

    One ladder round gives every rung a burst of consecutive calls, so all
    rungs work under the same state of the machine.  The first call of a
    burst re-warms the caches that the previous rung's code evicted and is
    not timed.  The timed calls are then cut into slices and only the quiet
    ones keep their samples, exactly as in the timed window.
    """
    records: List[runner.Record] = []
    untimed: List[runner.Record] = []
    clock = time.perf_counter
    end = clock() + seconds
    while not records or clock() < end:
        for rung in rungs:
            for position in range(LADDER_BURST):
                kind, call = next(rung.calls)
                prepared = rung.prepare(call)
                started = clock()
                try:
                    outputs = rung.send(prepared)
                except runner.CALL_ERRORS:
                    outputs = []
                ended = clock()
                record = runner.Record(
                    Op(f"{kind}/{rung.name}", rung.name,
                       tuple(Key(**payload) for payload in call)),
                    ended - started, outputs)
                if position == 0:
                    untimed.append(record)
                    continue
                tracer.add(f"ladder.{rung.name}", started, ended,
                           op=len(records))
                records.append(record)
    for record in records + untimed:
        keys = record.op.keys
        tally["attempted"] += len(keys)
        tally["failed"] += len(keys) if len(record.kept) != len(keys) else sum(
            not workload.oracle.matches(key, outputs)
            for key, outputs in zip(keys, record.kept))
    cut = runner.slices(records)
    quiet = [r for index in runner.quiet_slices(cut) for r in cut[index]]
    for rung in rungs:
        rung.quiet = [(r.op.group, r.seconds) for r in quiet
                      if r.op.door == rung.name]
        rung.total_s = sum(r.seconds for r in records + untimed
                           if r.op.door == rung.name)


def codec_metrics(workload: Workload) -> Dict[str, float]:
    """JSON and dict codec cost of the stream's first calls, on a private
    engine whose history is fixed, so the byte count repeats exactly."""
    engine = Engine()
    for key in workload.ladder_warm_keys():
        engine.process([Request(**key.payload())])
    calls = workload.ladder_calls()
    decode: List[float] = []
    encode: List[float] = []
    size = 0
    clock = time.perf_counter
    for _ in range(CODEC_CALLS):
        text = json.dumps(next(calls)[1])
        started = clock()
        requests = [Request.from_dict(p) for p in json.loads(text)]
        decode.append(clock() - started)
        responses = engine.process(requests)
        started = clock()
        encoded = json.dumps([r.to_dict() for r in responses])
        encode.append(clock() - started)
        size += len(encoded.encode("utf-8"))
    return {"runtime.codec.decode_us": 1e6 * stats.median(decode),
            "runtime.codec.encode_us": 1e6 * stats.median(encode),
            "runtime.codec.response_bytes": size}


def ladder_phase(workload: Workload, tracer: Tracer, seconds: float,
                 tally: Dict[str, int]) -> Dict[str, float]:
    """Build the six rungs, warm each alike, time them, read the counters."""
    warm = workload.ladder_warm_keys()
    workload.oracle.precompute(warm)
    metrics = codec_metrics(workload)
    engine = Engine()
    inline = WorkerPool(workers=2, mode="inline")
    pool = WorkerPool(workers=2, mode="process")
    server = None
    try:
        service = PoolService(pool, AdmissionController())
        server = Server()
        rungs = build_rungs(workload, engine, inline, pool, service, server)
        by_name = {rung.name: rung for rung in rungs}
        # One warm-up per cache: the pool also backs the service rung, and
        # the server both sockets.
        for name in ("engine", "pool-inline", "pool-process", "ndjson"):
            for key in warm:
                by_name[name].send(by_name[name].prepare([key.payload()]))
        before = front_door_counters(server)
        climb(rungs, workload, tracer, seconds, tally)
        after = front_door_counters(server)
    finally:
        pool.close()
        inline.close()
        if server is not None:
            server.close()

    us = {rung.name: rung.typical_us() for rung in rungs}
    doors = by_name["ndjson"], by_name["http"]
    metrics.update({
        "runtime.engine.warm_us": us["engine"],
        "runtime.pool.inline_us": us["pool-inline"] - us["engine"],
        "runtime.pool.process_us": us["pool-process"] - us["pool-inline"],
        "runtime.service.us": us["service"] - us["pool-process"],
        "runtime.server.ndjson_us": us["ndjson"] - us["service"],
        "runtime.http.us": us["http"] - us["service"],
        "frontdoor.ndjson_p50_ms": us["ndjson"] / 1e3,
        "frontdoor.http_p50_ms": us["http"] / 1e3,
        "frontdoor.p99_ms": 1e3 * sum(
            stats.percentile([seconds for _, seconds in door.quiet], 0.99)
            for door in doors) / len(doors),
    })
    metrics.update(front_door_metrics(
        before, after, sum(door.total_s for door in doors)))
    return metrics


def front_door_counters(server: Server) -> Dict[str, Any]:
    """What the public ``stats`` and ``metrics`` ops say right now."""
    counters = server.stats()
    counters["queue_wait_sum_s"] = server.metric(
        "frontdoor_queue_wait_seconds_sum")
    counters["queue_wait_count"] = server.metric(
        "frontdoor_queue_wait_seconds_count")
    return counters


def front_door_metrics(before: Dict[str, Any], after: Dict[str, Any],
                       wall_s: float) -> Dict[str, float]:
    """The server's own counters over the front-door calls of the ladder."""
    def per_worker(field: str) -> List[float]:
        return [b[field] - a[field] for a, b in
                zip(before["pool"]["workers"], after["pool"]["workers"])]

    served = per_worker("requests")
    busy = per_worker("busy_s")
    mean_served = sum(served) / len(served)
    waits = after["queue_wait_count"] - before["queue_wait_count"]
    return {
        "runtime.pool.worker_busy_share": sum(busy) / (wall_s * len(busy)),
        "runtime.pool.dispatch_imbalance":
            max(served) / mean_served if mean_served else 0.0,
        "runtime.pool.restarts": after["pool"]["faults"]["worker_restarts"],
        "runtime.pool.replayed_batches":
            after["pool"]["faults"]["replayed_batches"],
        "runtime.service.queue_wait_us":
            1e6 * (after["queue_wait_sum_s"] - before["queue_wait_sum_s"])
            / waits if waits else 0.0,
        "runtime.service.shed": after["shed"] - before["shed"],
    }


# -- phase 1 and the whole run ----------------------------------------------------


def own_phase(workload: Workload, tracer: Tracer, seconds: float,
              tally: Dict[str, int]) -> Dict[str, Any]:
    """The workload's operations, in untraced and traced windows in turn."""
    turns = 4
    kinds = ("plain", "traced")
    tagged: List[Tuple[str, List[runner.Record]]] = []
    hits = {name: 0 for name in workload.cache_counters()}
    for _ in range(turns):
        for kind in kinds:
            before = workload.cache_counters()
            window = runner.run_window(
                workload, seconds / (len(kinds) * turns),
                tracer=tracer if kind == "traced" else None)
            for name, value in workload.cache_counters().items():
                hits[name] += value - before[name]
            tagged += [(kind, rows) for rows in runner.slices(window)]
    everything = [r for _, rows in tagged for r in rows]
    runner.judge(workload, everything)
    for name, value in runner.tally(workload, everything).items():
        tally[name] += value
    # One quiet selection over both kinds, so that neither is favoured.
    kept = runner.quiet_slices([rows for _, rows in tagged])
    quiet = {kind: [r for i in kept if tagged[i][0] == kind
                    for r in tagged[i][1]] for kind in kinds}
    groups = {r.op.group for r in everything}
    if any({r.op.group for r in quiet[kind]} != groups for kind in kinds):
        quiet = {kind: [r for k, rows in tagged if k == kind for r in rows]
                 for kind in kinds}

    def hit_rate(tier: str) -> float:
        lookups = hits[f"{tier}_hits"] + hits[f"{tier}_misses"]
        return hits[f"{tier}_hits"] / lookups if lookups else 0.0

    return {
        "plain": quiet["plain"],
        "metrics": {
            "trace.overhead_share":
                1.0 - (runner.balanced_rate(quiet["traced"])
                       / runner.balanced_rate(quiet["plain"])),
            "runtime.cache.program_hit_rate": hit_rate("program"),
            "runtime.cache.result_hit_rate": hit_rate("result"),
            "runtime.cache.compiles": hits["program_misses"],
        },
    }


def path_coverage(workload: Workload, plain: List[runner.Record],
                  staged: Dict[str, Any], ladder: Dict[str, float]) -> float:
    """Self times along the blocking path over the untraced operation time."""
    whole = stats.group_medians((r.op.group, r.seconds) for r in plain)
    if workload.path == ("ladder",):
        # The two socket rungs hold everything below them; like the rungs,
        # the untraced side is the mean over kinds of call of their medians.
        traced_ms = (ladder["frontdoor.ndjson_p50_ms"]
                     + ladder["frontdoor.http_p50_ms"]) / 2
        return traced_ms / (1e3 * sum(whole.values()) / len(whole))
    parts = staged_path_seconds(workload.path, staged)
    return sum(parts[group] for group in whole) / sum(whole.values())


def traced_run(workload: Workload, seconds: float) -> Dict[str, Any]:
    """All three phases; returns per-layer metrics and the request tally."""
    tracer = Tracer()
    tally = {"attempted": 0, "failed": 0}
    own = own_phase(workload, tracer, OWN_SHARE * seconds, tally)
    workload.close()    # a serve workload's own server; the ladder has its own
    staged = staged_phase(workload, tracer, STAGED_SHARE * seconds, tally)
    ladder = ladder_phase(workload, tracer, LADDER_SHARE * seconds, tally)
    metrics = dict(own["metrics"])
    metrics.update(staged_metrics(staged))
    metrics.update(ladder)
    metrics["trace.path_coverage"] = path_coverage(
        workload, own["plain"], staged, ladder)
    tracer.write(OUT / f"trace-{workload.name}.json")
    return {"metrics": metrics, "samples": {"spans": len(tracer.spans)},
            **tally}
