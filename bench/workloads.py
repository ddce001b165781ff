"""The five workloads: what each one sends, and how each reply is checked.

Every workload is closed-loop on one thread: the next operation starts when
the previous one returned.  All inputs derive from ``--seed``; the program
under test sees only the generated requests.  A workload hands the runner

* ``rounds()`` — an endless, seed-determined stream of rounds, each a list
  of :class:`Op` that visits every group of the workload equally often,
* ``call(op)`` — the operation itself, the only part that is timed,
* ``digest(op, raw)`` — what to keep of the reply (untimed, right after), and
* ``failures(op, kept)`` — after the window, how many of the operation's
  requests errored, were refused, or disagree with the independent oracle.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.apps import REGISTRY
from repro.compiler import CompileOptions, compile_source
from repro.dataflow.lowering import CompiledProgram
from repro.runtime.cache import ProgramCache
from repro.runtime.engine import Engine, Request

from bench.serving import Server

#: The nine registered sources, in a fixed order.
APPS: Tuple[str, ...] = tuple(sorted(REGISTRY.servable_names()))
#: The cache misses of a ``serve-mixed`` call: one of these pairs of cheap
#: apps, so that calls of one group cost alike and each app comes as often.
MISS_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("hash-table", "search"), ("ip2int", "strlen"), ("isipv4", "murmur3"))
MISS_APPS = frozenset(app for pair in MISS_PAIRS for app in pair)
WARM_SEEDS = 4
NARROW = 8      # the ``Request`` default
WIDE = 128
MISS_THREADS = 32
CALL_SIZE = 8   # requests per serve-mixed call: 6 warm + 2 fresh


class Key(NamedTuple):
    """One deterministic request: what the oracle needs to predict it."""

    app: str
    n_threads: int
    seed: int

    def payload(self) -> Dict[str, Any]:
        return {"app": self.app, "n_threads": self.n_threads, "seed": self.seed}


class Op(NamedTuple):
    """One operation of a workload."""

    #: Operations of one group are alike; medians are taken per group.
    group: str
    #: Percentiles are taken per door: ``inproc``, ``ndjson`` or ``http``.
    door: str
    #: What the operation carries: request keys, or a program label.
    keys: Tuple[Any, ...]


class Oracle:
    """Expected outputs, computed without the engine, compiler or executor.

    An expectation is ``AppSpec.reference`` applied to a fresh
    ``AppSpec.make_instance``; the engine's own ``correct`` flag is ignored.
    """

    def __init__(self) -> None:
        self._kept: Dict[Key, List[int]] = {}

    def expected(self, key: Key) -> List[int]:
        kept = self._kept.get(key)
        if kept is not None:
            return kept
        spec = REGISTRY.get(key.app)
        return list(spec.reference(spec.make_instance(key.n_threads, key.seed)))

    def precompute(self, keys: Sequence[Key]) -> None:
        """Keep the expectations of keys that will be asked for many times."""
        for key in keys:
            self._kept[key] = self.expected(key)

    def matches(self, key: Key, outputs: Optional[Sequence[int]]) -> bool:
        if outputs is None:
            return False
        expected = self.expected(key)
        return list(outputs[:len(expected)]) == expected


def fingerprint(program: CompiledProgram) -> Tuple[Any, ...]:
    """A compiled program's shape: node histogram plus its input contract."""
    return (tuple(sorted(program.graph.count_ops().items())),
            tuple(program.arg_names), tuple(program.dram_names))


class Workload:
    """Base class; see the module docstring for the contract."""

    name = ""
    #: ``n_threads`` of the requests the staged and ladder drivers replay.
    shape = NARROW
    #: Staged stages an operation of this workload waits for.
    path: Tuple[str, ...] = ()
    #: ``peak_rss_mb`` is read when this many rounds of the window are done
    #: (about half of what fifteen seconds hold on the reference machine).
    memory_rounds = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.oracle = Oracle()
        #: Fresh request seeds count up from here: distinct by construction.
        self._next_seed = self.rng.randrange(100_000, 500_000)
        warm_base = self.rng.randrange(600_000, 900_000)
        self.warm_keys: List[Key] = [
            Key(app, self.shape, warm_base + i)
            for app in APPS for i in range(WARM_SEEDS)]
        #: Checks made during set-up count like any other operation.
        self.setup_attempted = 0
        self.setup_failed = 0

    def fresh_seed(self) -> int:
        self._next_seed += 1
        return self._next_seed

    def programs(self) -> List[Tuple[str, str, CompileOptions]]:
        """``(label, source, options)`` of every program the workload uses."""
        return [(f"{app}/default", REGISTRY.get(app).source, CompileOptions())
                for app in APPS]

    def staged_shape(self, app: str) -> int:
        """``n_threads`` at which the staged driver runs ``app``."""
        return self.shape

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def pids(self) -> List[int]:
        """Processes under the workload whose memory counts."""
        return []

    def rounds(self) -> Iterator[List[Op]]:
        raise NotImplementedError

    def call(self, op: Op) -> Any:
        raise NotImplementedError

    def digest(self, op: Op, raw: Any) -> Any:
        raise NotImplementedError

    def failures(self, op: Op, kept: Any) -> int:
        raise NotImplementedError

    def cache_counters(self) -> Dict[str, int]:
        """Cumulative program/result cache hits and misses behind the ops."""
        return {"program_hits": 0, "program_misses": 0,
                "result_hits": 0, "result_misses": 0}

    def ladder_warm_keys(self) -> List[Key]:
        """Keys every rung of the serving ladder warms before it is timed."""
        return self.warm_keys[::WARM_SEEDS]

    def ladder_calls(self, twin: int = 0
                     ) -> Iterator[Tuple[str, List[Dict[str, Any]]]]:
        """The stream the serving ladder replays at every rung, as ``(kind of
        call, request payloads)``.  Two rungs that share caches ask for
        different ``twin`` streams: alike in everything but their fresh seeds.

        By default: the ladder's warm keys, one request a call, so every rung
        answers from its result cache and only the serving layers' own cost
        remains.
        """
        while True:
            for key in self.ladder_warm_keys():
                yield key.app, [key.payload()]

    def _check_setup(self, key: Key, outputs: Optional[Sequence[int]]) -> None:
        self.setup_attempted += 1
        if not self.oracle.matches(key, outputs):
            self.setup_failed += 1


class CompileAll(Workload):
    """Compile each registered source with and without the optional passes."""

    name = "compile-all"
    shape = 4
    path = ("compile",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self._programs = {label: (source, options)
                          for label, source, options in self.programs()}
        self._fingerprints: Dict[str, Tuple[Any, ...]] = {}

    def programs(self) -> List[Tuple[str, str, CompileOptions]]:
        return [(f"{app}/{label}", REGISTRY.get(app).source, options)
                for label, options in (("default", CompileOptions()),
                                       ("none", CompileOptions.none()))
                for app in APPS]

    def setup(self) -> None:
        seed = self.warm_keys[0].seed
        for label, (source, options) in self._programs.items():
            program = compile_source(source, options=options)
            key = Key(label.split("/")[0], self.shape, seed)
            spec = REGISTRY.get(key.app)
            instance = spec.make_instance(key.n_threads, key.seed)
            program.run(instance.memory, **instance.args)
            self._check_setup(
                key, instance.memory.segment_data(spec.output_segment))
            self._fingerprints[label] = fingerprint(program)

    def rounds(self) -> Iterator[List[Op]]:
        labels = list(self._programs)
        while True:
            self.rng.shuffle(labels)
            yield [Op(label, "inproc", (label,)) for label in labels]

    def call(self, op: Op) -> CompiledProgram:
        source, options = self._programs[op.keys[0]]
        return compile_source(source, options=options)

    def digest(self, op: Op, raw: CompiledProgram) -> Tuple[Any, ...]:
        return fingerprint(raw)

    def failures(self, op: Op, kept: Any) -> int:
        # The compiler is deterministic, so a program that differs from the
        # one the oracle accepted during set-up is a wrong program.
        return int(kept != self._fingerprints[op.keys[0]])


class Exec(Workload):
    """``Engine.process`` of one fresh-seed request per app, in process."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.engine: Optional[Engine] = None

    def build_engine(self) -> Engine:
        raise NotImplementedError

    def setup(self) -> None:
        self.engine = self.build_engine()
        # One untimed round: imports, numpy, and (when on) the program cache.
        for op in next(self.rounds()):
            error, outputs = self.digest(op, self.call(op))
            self._check_setup(op.keys[0], None if error else outputs)

    def rounds(self) -> Iterator[List[Op]]:
        apps = list(APPS)
        while True:
            self.rng.shuffle(apps)
            yield [Op(app, "inproc", (Key(app, self.shape, self.fresh_seed()),))
                   for app in apps]

    def call(self, op: Op) -> Any:
        key = op.keys[0]
        return self.engine.process(
            [Request(app=key.app, n_threads=key.n_threads, seed=key.seed)])

    def digest(self, op: Op, raw: Any) -> Tuple[Optional[str], Any]:
        return raw[0].error, raw[0].outputs

    def failures(self, op: Op, kept: Any) -> int:
        error, outputs = kept
        return int(error is not None
                   or not self.oracle.matches(op.keys[0], outputs))

    def cache_counters(self) -> Dict[str, int]:
        program = self.engine.program_cache_stats
        result = self.engine.result_cache_stats
        return {"program_hits": program.hits, "program_misses": program.misses,
                "result_hits": result.hits, "result_misses": result.misses}


class ExecWide(Exec):
    name = "exec-wide"
    shape = WIDE
    memory_rounds = 10
    path = ("generate", "run", "reference", "model")

    def build_engine(self) -> Engine:
        return Engine(result_cache_capacity=0)


class ExecNarrow(Exec):
    name = "exec-narrow"
    shape = NARROW
    memory_rounds = 25
    path = ("compile", "schedule", "generate", "run", "reference", "model")

    def build_engine(self) -> Engine:
        return Engine(program_cache=ProgramCache(capacity=0),
                      result_cache_capacity=0, max_batch_size=1)


class Serve(Workload):
    """Requests through both front doors of one spawned server."""

    path = ("ladder",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.server: Optional[Server] = None

    def setup(self) -> None:
        self.oracle.precompute(self.warm_keys)
        self.server = Server()
        # Warm every key through both doors, so each later reply for it is a
        # result-cache hit whichever door asks.
        for key in self.warm_keys:
            reply = self.server.client.request(**key.payload())
            self._check_setup(key, reply.get("outputs"))
        for key in self.warm_keys:
            _, reply = self.server.post("/v1/request", key.payload())
            self._check_setup(key, (reply or {}).get("outputs"))

    def close(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.close()

    def pids(self) -> List[int]:
        return self.server.pids() if self.server is not None else []

    def ladder_warm_keys(self) -> List[Key]:
        return self.warm_keys

    def cache_counters(self) -> Dict[str, int]:
        pool = self.server.stats()["pool"]
        program, result = pool["program_cache"], pool["result_cache"]
        return {"program_hits": program["hits"],
                "program_misses": program["misses"],
                "result_hits": result["hits"],
                "result_misses": result["misses"]}


class ServeWarm(Serve):
    """Single requests for warm keys: every reply is a result-cache hit."""

    name = "serve-warm"
    memory_rounds = 80

    def rounds(self) -> Iterator[List[Op]]:
        keys = list(self.warm_keys)
        while True:
            round_ops: List[Op] = []
            for door in ("ndjson", "http"):
                self.rng.shuffle(keys)
                round_ops += [Op(f"{key.app}/{door}", door, (key,))
                              for key in keys]
            yield round_ops

    def call(self, op: Op) -> Any:
        payload = op.keys[0].payload()
        if op.door == "ndjson":
            return self.server.client.request(**payload)
        return self.server.post("/v1/request", payload)[1]

    def digest(self, op: Op, raw: Any) -> Any:
        return raw.get("outputs") if raw.get("ok") else None

    def failures(self, op: Op, kept: Any) -> int:
        return int(not self.oracle.matches(op.keys[0], kept))


class ServeMixed(Serve):
    """Batches of eight: six warm keys and two fresh-seed wider requests."""

    name = "serve-mixed"

    def staged_shape(self, app: str) -> int:
        return MISS_THREADS if app in MISS_APPS else self.shape

    def _call_keys(self, pair: Tuple[str, str]) -> Tuple[Key, ...]:
        keys = self.rng.sample(self.warm_keys, CALL_SIZE - len(pair))
        keys += [Key(app, MISS_THREADS, self.fresh_seed()) for app in pair]
        self.rng.shuffle(keys)
        return tuple(keys)

    def rounds(self) -> Iterator[List[Op]]:
        while True:
            ops = [Op(f"{'+'.join(pair)}/{door}", door, self._call_keys(pair))
                   for door in ("ndjson", "http") for pair in MISS_PAIRS]
            self.rng.shuffle(ops)
            yield ops

    def call(self, op: Op) -> Any:
        payloads = [key.payload() for key in op.keys]
        if op.door == "ndjson":
            return self.server.client.batch(payloads)
        reply = self.server.post("/v1/batch", {"requests": payloads})[1]
        return reply.get("responses") if reply.get("ok") else None

    def digest(self, op: Op, raw: Any) -> Any:
        if raw is None or len(raw) != len(op.keys):
            return None     # refused (429) or short: every request failed
        return [r.get("outputs") if r.get("ok") else None for r in raw]

    def failures(self, op: Op, kept: Any) -> int:
        return sum(not self.oracle.matches(key, outputs)
                   for key, outputs in zip(op.keys, kept))

    def ladder_calls(self, twin: int = 0
                     ) -> Iterator[Tuple[str, List[Dict[str, Any]]]]:
        # A private copy with the workload's own seed: every rung replays the
        # same calls, and a fresh seed is fresh at every rung.
        copy = ServeMixed(self.seed)
        copy._next_seed += 1_000_000 * twin
        for ops in copy.rounds():
            for op in ops:
                yield op.group.split("/")[0], [k.payload() for k in op.keys]


WORKLOADS = {cls.name: cls for cls in
             (CompileAll, ExecWide, ExecNarrow, ServeWarm, ServeMixed)}
