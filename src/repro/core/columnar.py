"""Vectorized columnar executor backend.

The token executor (:class:`repro.core.executor.Executor`) pushes Python
``Data``/``Barrier`` objects through the graph one token at a time.  This
module executes the same :class:`~repro.core.executor.NodeSchedule` plan
over *columns*: each SLTF link is represented as

* ``tags`` — one ``uint8`` per token position: ``0`` for a data element,
  ``level`` (1..15) for a barrier, and
* ``values`` — the data elements only, compacted into one ``int64``
  array (a value is a 64-bit word, see :mod:`repro.core.opcodes`).

Parallel live-value streams of one thread bundle share the *same* ``tags``
array object, so alignment checks are identity comparisons on the happy
path.  Straight-line (non-``while``) regions run as whole-array numpy ops.

``while`` regions drain one barrier group at a time, turn for turn like
the token executor (condition → boolean-mask partition → emit exiting rows
→ body → recirculate), with each turn's condition and body run columnar
over the group's still-live rows.  A program compiled without hierarchy
elimination therefore drains one narrow group per outer thread (``strlen``
at 128 threads: about 125 ms against 14 ms flattened).  The remedy is the
compiler pass, which hands the loop every thread in one group; the
executor does not re-derive that at run time.

Bit-identity contract
---------------------

A columnar run must be indistinguishable from a token run: identical
output streams, identical memory contents and :class:`MemoryStats`
counters, identical profile counts (``node_firings``, ``loop_iterations``),
and identical exception types/messages on malformed input.  Both apply one
opcode table (:mod:`repro.core.opcodes`), whose kernels wrap exactly as its
scalars do; a firing whose kernel traps (a zero divisor, a negative shift
count) or whose bundle is misaligned leaves the vector path — correctness
never depends on the fast path firing.

Where compiled programs leave the vector path
---------------------------------------------

There is one way off it, :meth:`ColumnarExecutor._exit`, and it counts
every use in ``ExecutionProfile.vector_exits`` as ``"<op>:<reason>"``, and
runs the token primitive, so a ``compute`` whose kernel traps
(``compute:trap``) raises the scalar's error.  The nine Table III apps,
compiled three ways (default options, ``CompileOptions.none()``, hierarchy
elimination off) and run at 4, 8, 32 and 128 threads, record none, and
``tests/core/test_columnar.py`` asserts so for its app runs.  Every reason
serves hand-built graphs, malformed ones included.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import primitives as prim
from repro.core.executor import ComputeRun, Executor, _as_stream, merge_bundles
from repro.core.graph import DFGraph, DFNode
from repro.core.memory import MemorySystem, _span
from repro.core.opcodes import INT64_MAX
from repro.core.sltf import MAX_BARRIER_LEVEL, Barrier, Data, Stream
from repro.errors import GraphError, PrimitiveError


def make_executor(graph: DFGraph, *, executor: Optional[str] = None, **kwargs):
    """Build the columnar executor (``None``/``"columnar"``) or the token
    reference (``"token"``); any other name raises ``ValueError``."""
    if executor is None or executor == "columnar":
        return ColumnarExecutor(graph, **kwargs)
    if executor == "token":
        return Executor(graph, **kwargs)
    raise ValueError(
        f"unknown executor {executor!r}; choose 'columnar' or 'token'")


# ---------------------------------------------------------------------------
# Column representation
# ---------------------------------------------------------------------------


class Column:
    """One SLTF link as (tags, values) arrays.

    ``tags[j] == 0`` marks a data element, ``tags[j] == level`` a barrier.
    ``values`` holds the data elements only, in stream order.  Columns are
    immutable by convention (every handler builds fresh arrays or shares
    inputs); aligned columns of one bundle share the same ``tags`` object.
    """

    __slots__ = ("tags", "values")

    def __init__(self, tags, values):
        self.tags = tags
        self.values = values

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def n_data(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({len(self.values)}d/{len(self.tags)}t)"


def from_stream(stream: Sequence) -> "Column":
    """Convert a token stream into a :class:`Column`."""
    n = len(stream)
    tags = np.zeros(n, dtype=np.uint8)
    vals: list = []
    append = vals.append
    for j, tok in enumerate(stream):
        if isinstance(tok, Data):
            append(tok.value)
        else:
            tags[j] = tok.level
    return Column(tags, np.array(vals, dtype=np.int64))


def to_stream(col: "Column") -> Stream:
    """Convert a :class:`Column` back into a token stream.

    ``ndarray.tolist()`` yields Python ints for ``int64`` values, so no
    numpy scalar ever leaks into a stream (or, downstream, into JSON).
    """
    out: Stream = []
    append = out.append
    vals = iter(col.values.tolist())
    for t in col.tags.tolist():
        append(Data(next(vals)) if t == 0 else Barrier(t))
    return out


def _align(cols: Sequence["Column"]) -> bool:
    """True when every column shares one structure.

    Canonicalizes equal-content tag arrays onto one shared object so later
    checks on the same bundle are identity-fast.
    """
    t0 = cols[0].tags
    for c in cols[1:]:
        t = c.tags
        if t is t0:
            continue
        if t.shape != t0.shape or not np.array_equal(t, t0):
            return False
        c.tags = t0
    return True


def _token_at(col: "Column", j: int):
    """Reconstruct the token at stream position ``j`` (error paths only)."""
    tag = int(col.tags[j])
    if tag:
        return Barrier(tag)
    return Data(int(col.values[np.count_nonzero(col.tags[:j] == 0)]))


def _misalignment(ins: Sequence["Column"]) -> Tuple[int, PrimitiveError]:
    """First position where equal-length ``while`` live columns disagree
    with the first one, and the error the token scan raises there."""
    tags0 = ins[0].tags
    diffs = [(np.flatnonzero(c.tags != tags0), i) for i, c in enumerate(ins)]
    j, i = min((int(d[0]), i) for d, i in diffs if d.size)
    tok = _token_at(ins[i], j)
    if tags0[j] == 0:
        return j, PrimitiveError(f"while live streams misaligned at {tok!r}")
    return j, PrimitiveError(
        f"while live streams have mismatched barriers at {tok!r}")


def _token_partition(streams: List[Stream]) -> List[Stream]:
    kept, dropped = prim.partition_streams(streams[1:], streams[0])
    return kept + dropped


#: Token semantics of the steps region ops take on columns, streams in and
#: streams out, for :meth:`ColumnarExecutor._exit`.
_TOKEN_STEPS: Dict[str, Callable[[List[Stream]], List[Stream]]] = {
    "counter": lambda streams: [prim.counter(*streams)],
    "partition": _token_partition,  # streams = (pred, *bundle)
    "merge": lambda streams: merge_bundles(
        streams[:len(streams) // 2], streams[len(streams) // 2:]),
}


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ColumnarExecutor(Executor):
    """Drop-in vectorized replacement for :class:`Executor`.

    Same constructor, same ``run()`` signature, same profile and memory
    side effects — only the internal stream representation differs (see
    the module docstring for the bit-identity contract).
    """

    def __init__(self, graph: DFGraph, memory: Optional[MemorySystem] = None):
        super().__init__(graph, memory=memory)
        #: id(graph) -> (graph, grouped steps with pre-resolved handlers and
        #: firing counts); graphs are kept alive by the tuple so ids cannot
        #: alias.
        self._bound_steps: Dict[int, tuple] = {}

    # -- public API ---------------------------------------------------------

    def run(self, inputs: Optional[Dict[str, Any]] = None) -> Dict[str, Stream]:
        """Execute the graph; same contract as :meth:`Executor.run`."""
        inputs = inputs or {}
        env: Dict[int, Column] = {}
        for value in self.graph.inputs:
            if value.name not in inputs:
                raise GraphError(f"missing input stream '{value.name}'")
            env[value.uid] = from_stream(_as_stream(inputs[value.name]))
        outputs = self._run_graph(self.graph, env)
        return {v.name: to_stream(outputs[v.uid]) for v in self.graph.outputs}

    # -- graph walk -----------------------------------------------------------

    def _run_graph(self, graph: DFGraph, env: Dict[int, Any]) -> Dict[int, Any]:
        firings = self.profile.node_firings
        bound = self._bound_steps.get(id(graph))
        if bound is None or bound[0] is not graph:
            steps = []
            for node, op, in_uids, out_uids in self._schedule.runs(graph):
                run = type(node) is ComputeRun
                steps.append((self._op_compute_run if run else self._handlers[op],
                              node, op, len(out_uids) if run else 1, in_uids,
                              out_uids))
            bound = self._bound_steps[id(graph)] = (graph, steps)
        for handler, node, op, fired, in_uids, out_uids in bound[1]:
            in_cols = [env[uid] for uid in in_uids]
            firings[op] = firings.get(op, 0) + fired
            out_cols = handler(node, in_cols)
            if len(out_cols) != len(out_uids):
                raise GraphError(
                    f"node {node!r} produced {len(out_cols)} streams, "
                    f"expected {len(out_uids)}"
                )
            env.update(zip(out_uids, out_cols))
        return env

    # -- the one way off the vector path ----------------------------------------

    def _exit(self, op: str, ins: Sequence[Column], reason: str,
              node: Optional[DFNode] = None) -> List[Column]:
        """Leave the vector path for one firing, counted in
        ``profile.vector_exits`` under ``"<op>:<reason>"``.

        The firing runs the token semantics over the bundle as streams —
        ``node``'s token handler, or the primitive behind a region op's
        ``counter`` / ``partition`` / ``merge`` step — so a trapping kernel
        or a malformed bundle raises exactly what the token executor raises.
        """
        exits = self.profile.vector_exits
        key = f"{op}:{reason}"
        exits[key] = exits.get(key, 0) + 1
        streams = [to_stream(c) for c in ins]
        if node is None:
            out = _TOKEN_STEPS[op](streams)
        else:
            out = getattr(Executor, f"_op_{op}")(self, node, streams)
        return [from_stream(s) for s in out]

    # -- element-wise and structural ops --------------------------------------

    def _op_compute(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            return self._exit("compute", ins, "misaligned", node)
        values = self._schedule.opcode(node).vector([c.values for c in ins])
        if values is None:
            return self._exit("compute", ins, "trap", node)
        return [Column(ins[0].tags, values)]

    def _op_compute_run(self, run: ComputeRun, ins: List[Column]) -> List[Column]:
        """Fire a :class:`ComputeRun`: one alignment check over its external
        inputs, then each member's kernel called directly on value arrays.

        Every member's link operands then share one structure, which is all
        ``_op_compute`` checks per node.  From the first member whose kernel
        traps, or from the first member when the check fails, the members
        run through ``_op_compute``.  ``_run_graph`` counts every member's
        firing; when a member raises, the ones after it are taken back off,
        so ``node_firings`` is what node-by-node execution counts.
        """
        constants, members = run.constants, run.members
        first_output = len(ins) + len(constants)
        outs: List[Column] = []
        k = 0
        try:
            if _align(ins):
                slots = [c.values for c in ins] + constants
                for _, vector, args, _ in members:
                    values = vector([slots[j] for j in args])
                    if values is None:
                        break
                    slots.append(values)
                    k += 1
                tags = ins[0].tags
                outs = [Column(tags, v) for v in slots[first_output:]]
            if k < len(members):
                # Link operands are inputs and outputs, never a constant slot.
                cols = ins + constants + outs
                for node, _, _, links in members[k:]:
                    cols.append(self._op_compute(node, [cols[j] for j in links])[0])
                    k += 1
                outs = cols[first_output:]
        except BaseException:
            # The step counted every member; the ones after member k never
            # fired.
            self.profile.node_firings["compute"] -= len(members) - k - 1
            raise
        return outs

    def _op_const(self, node: DFNode, ins: List[Column]) -> List[Column]:
        s = ins[0]
        values = np.empty(s.n_data, np.int64)
        values.fill(node.params["value"])  # half the cost of np.full when short
        return [Column(s.tags, values)]

    @staticmethod
    def _broadcast_column(outer: Column, inner: Column) -> Column:
        """``prim.broadcast``: each ``outer`` value over its ``inner`` group."""
        tags = inner.tags
        adv = (tags > 0).astype(np.int64)
        idx = np.cumsum(adv) - adv
        didx = idx[tags == 0]
        if didx.size and int(didx.max()) >= outer.n_data:
            raise PrimitiveError("broadcast ran out of outer elements")
        return Column(tags, outer.values[didx])

    def _counter_columns(self, lo_c: Column, hi_c: Column, step_c: Column) -> Column:
        """``prim.counter``: expand each (lo, hi, step) row into a group."""
        cols = [lo_c, hi_c, step_c]
        if not _align(cols):
            return self._exit("counter", cols, "misaligned")[0]
        lov, hiv, sv = lo_c.values, hi_c.values, step_c.values
        if bool((sv == 0).any()):
            return self._exit("counter", cols, "zero_step")[0]
        # Every row's lo - hi (and its negation) must be exact in int64.
        if len(lov):
            (lo_min, lo_max), (hi_min, hi_max) = _span(lov), _span(hiv)
            if max(hi_max - lo_min, lo_max - hi_min) > INT64_MAX:
                return self._exit("counter", cols, "overflow")[0]
        tags = lo_c.tags
        bvals = tags[tags > 0]
        if bvals.size and int(bvals.max()) >= MAX_BARRIER_LEVEL:
            # A raised barrier would exceed the encoding.
            return self._exit("counter", cols, "level")[0]
        n = np.maximum(-((lov - hiv) // sv), 0)  # len(range(lo, hi, step))
        total_data = int(n.sum())
        data_mask = tags == 0
        reps = np.ones(len(tags), dtype=np.int64)
        reps[data_mask] = n + 1
        total = int(reps.sum())
        out_tags = np.zeros(total, dtype=np.uint8)
        if len(tags):
            ends = np.cumsum(reps) - 1
            out_tags[ends[data_mask]] = 1
            bmask = ~data_mask
            out_tags[ends[bmask]] = tags[bmask] + 1
        offsets = np.cumsum(n) - n
        values = np.repeat(lov, n) + np.repeat(sv, n) * (
            np.arange(total_data, dtype=np.int64) - np.repeat(offsets, n)
        )
        return Column(out_tags, values)

    def _op_filter(self, node: DFNode, ins: List[Column]) -> List[Column]:
        pred = ins[-1]
        data_cols = ins[:-1]
        if not _align(ins):
            # The token path reproduces exact errors (and exact quirks) for
            # malformed bundles.
            return self._exit("filter", ins, "misaligned", node)
        keep_data = pred.values != 0
        tags = pred.tags
        data_mask = tags == 0
        full = ~data_mask
        full[data_mask] = keep_data
        new_tags = tags[full]
        return [Column(new_tags, c.values[keep_data]) for c in data_cols]

    def _partition_bundle(
        self, cols: Sequence[Column], pred: Column, empty_dropped: bool = True
    ) -> Tuple[List[Column], Optional[List[Column]]]:
        """Boolean-mask split of an aligned bundle (``prim.partition_streams``).

        With ``empty_dropped=False`` a dropped side that holds no data is
        ``None`` instead of its barrier-only columns.
        """
        bundle = [pred] + list(cols)
        if not _align(bundle):
            out = self._exit("partition", bundle, "misaligned")
            return out[:len(cols)], out[len(cols):]
        keep_data = pred.values != 0
        tags = pred.tags
        nk = int(np.count_nonzero(keep_data))
        # All-or-nothing turns dominate while drains (most turns no thread
        # exits; many `if` partitions are one-sided), so skip the fancy
        # indexing: the full side shares the input columns, the empty side
        # is barriers-only with an empty values view.
        if nk == len(keep_data):
            if not empty_dropped:
                return list(cols), None
            bar_tags = tags[tags != 0]
            empty = [Column(bar_tags, c.values[:0]) for c in cols]
            return list(cols), empty
        if nk == 0:
            bar_tags = tags[tags != 0]
            empty = [Column(bar_tags, c.values[:0]) for c in cols]
            return empty, list(cols)
        data_mask = tags == 0
        full_keep = ~data_mask
        full_keep[data_mask] = keep_data
        kept_tags = tags[full_keep]
        full_drop = ~data_mask
        drop_data = ~keep_data
        full_drop[data_mask] = drop_data
        dropped_tags = tags[full_drop]
        kept = [Column(kept_tags, c.values[keep_data]) for c in cols]
        dropped = [Column(dropped_tags, c.values[drop_data]) for c in cols]
        return kept, dropped

    # -- forward merge ---------------------------------------------------------

    def _merge_columns(
        self, a_cols: Sequence[Column], b_cols: Sequence[Column]
    ) -> List[Column]:
        """Positional forward merge of two bundles (``merge_bundles``)."""
        if not _align(a_cols) or not _align(b_cols):
            return self._exit("merge", [*a_cols, *b_cols], "misaligned")
        ta, tb = a_cols[0].tags, b_cols[0].tags
        a_b = np.nonzero(ta)[0]
        b_b = np.nonzero(tb)[0]
        la = ta[a_b]
        lb = tb[b_b]
        if a_b.size != b_b.size:
            raise PrimitiveError("forward merge inputs have mismatched barriers")
        neq = np.nonzero(la != lb)[0]
        if neq.size:
            j = int(neq[0])
            raise PrimitiveError(
                f"forward merge barrier mismatch: "
                f"{Barrier(int(la[j]))} vs {Barrier(int(lb[j]))}"
            )
        na = len(ta) - a_b.size
        nb = len(tb) - b_b.size
        # One-sided merges are the norm inside while drains (an `if` whose
        # other branch got no rows this turn): the empty side contributes
        # nothing to any group, so the result *is* the populated side.
        # The sides are aligned, so each already carries its bundle's tags.
        if nb == 0:
            return list(a_cols)
        if na == 0:
            return list(b_cols)
        G = int(a_b.size)
        a_at = (ta == 0).cumsum()[a_b]
        b_at = (tb == 0).cumsum()[b_b]
        # Per-group data counts, including the trailing (barrier-less) group
        # (hand-rolled diff-with-endpoints: np.diff's wrapper is measurable
        # at this call rate).
        ac = np.empty(G + 1, np.int64)
        ac[:G] = a_at
        ac[G] = na
        ac[1:] -= a_at
        bc = np.empty(G + 1, np.int64)
        bc[:G] = b_at
        bc[G] = nb
        bc[1:] -= b_at
        a_incl = ac.cumsum()
        b_incl = bc.cumsum()
        b_excl = b_incl - bc  # b-data before each group
        # Compacted output index per input data element.
        idx_a = np.arange(na, dtype=np.int64) + np.repeat(b_excl, ac)
        idx_b = np.arange(nb, dtype=np.int64) + np.repeat(a_incl, bc)
        sizes = ac + bc
        sizes[:G] += 1
        out_len = int(sizes.sum())
        out_tags = np.zeros(out_len, np.uint8)
        if G:
            bar_pos = sizes.cumsum()[:G] - 1
            out_tags[bar_pos] = la
        outs: List[Column] = []
        for a, b in zip(a_cols, b_cols):
            values = np.empty(na + nb, dtype=np.int64)
            values[idx_a] = a.values
            values[idx_b] = b.values
            outs.append(Column(out_tags, values))
        return outs

    def _op_fork(self, node: DFNode, ins: List[Column]) -> List[Column]:
        counts = ins[0]
        if not _align(ins):
            return self._exit("fork", ins, "misaligned", node)
        if len(ins) > 1 and bool((counts.values < 0).any()):
            # fork_stream raises on a negative count with a payload.
            return self._exit("fork", ins, "negative", node)
        n = np.maximum(counts.values, 0)  # range(-k) is empty in the token path
        total_data = int(n.sum())
        offsets = np.cumsum(n) - n
        idx_vals = np.arange(total_data, dtype=np.int64) - np.repeat(offsets, n)
        tags = counts.tags
        data_mask = tags == 0
        reps = np.ones(len(tags), dtype=np.int64)
        reps[data_mask] = n
        total = int(reps.sum())
        out_tags = np.zeros(total, np.uint8)
        if len(tags):
            ends = np.cumsum(reps) - 1
            bmask = ~data_mask
            out_tags[ends[bmask]] = tags[bmask]
        return [Column(out_tags, idx_vals)] + [
            Column(out_tags, np.repeat(c.values, n)) for c in ins[1:]]

    # -- memory ops -----------------------------------------------------------

    def _op_sram_alloc(self, node: DFNode, ins: List[Column]) -> List[Column]:
        site = node.params.get("site", "default")
        words = node.params.get("buffer_words", 64)
        max_buffers = node.params.get("max_buffers", 4096)
        if ins:
            tags, n = ins[0].tags, ins[0].n_data
        else:
            tags = np.array([0, 1], dtype=np.uint8)
            n = 1
        return [Column(tags, self.memory.sram_alloc_many(site, words, max_buffers, n))]

    def _op_sram_free(self, node: DFNode, ins: List[Column]) -> List[Column]:
        site = node.params.get("site", "default")
        col = ins[0]
        self.memory.sram_free_many(site, col.values)
        return [Column(col.tags, np.zeros(col.n_data, np.int64))]

    def _op_sram_read(self, node: DFNode, ins: List[Column]) -> List[Column]:
        site = node.params.get("site", "default")
        col = ins[0]
        return [Column(col.tags, self.memory.sram_read_many(site, col.values))]

    def _op_sram_write(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            return self._exit(node.op, ins, "misaligned", node)
        site = node.params.get("site", "default")
        a, v = ins
        self.memory.sram_write_many(site, a.values, v.values)
        return [Column(a.tags, np.zeros(a.n_data, np.int64))]

    def _op_dram_read(self, node: DFNode, ins: List[Column]) -> List[Column]:
        col = ins[0]
        return [Column(col.tags, self.memory.dram_read_many(col.values))]

    def _op_dram_write(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            return self._exit(node.op, ins, "misaligned", node)
        a, v = ins
        self.memory.dram_write_many(a.values, v.values)
        return [Column(a.tags, np.zeros(a.n_data, np.int64))]

    def _op_bulk_load(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            return self._exit(node.op, ins, "misaligned", node)
        site = node.params.get("site", "default")
        size = node.params["size"]
        d, s = ins
        self.memory.bulk_load_many(site, d.values, s.values, size)
        return [Column(d.tags, np.zeros(d.n_data, np.int64))]

    def _op_bulk_store(self, node: DFNode, ins: List[Column]) -> List[Column]:
        if not _align(ins):
            return self._exit(node.op, ins, "misaligned", node)
        site = node.params.get("site", "default")
        size = node.params["size"]
        d, s = ins[0], ins[1]
        if len(ins) > 2:
            counts = np.clip(ins[2].values, 0, size)
            self.memory.bulk_store_counted_many(site, d.values, s.values, counts)
        else:
            self.memory.bulk_store_many(site, d.values, s.values, size)
        return [Column(d.tags, np.zeros(d.n_data, np.int64))]

    # -- region ops -------------------------------------------------------------

    def _op_while(self, node: DFNode, ins: List[Column]) -> List[Column]:
        """Drain a forward-backward loop (see :meth:`Executor._op_while`).

        One barrier group at a time, turn for turn the token executor's
        drain; each turn's condition and body run columnar over the group's
        still-live rows.
        """
        cond_region, body_region = node.regions
        width = len(ins)
        label = node.params.get("label", f"while#{node.uid}")

        tags0 = ins[0].tags
        length = len(tags0)
        for other in ins[1:]:
            if len(other.tags) != length:
                raise PrimitiveError("while live streams have different lengths")
        # A misaligned bundle raises where the token drain does: after the
        # groups that end before the first misaligned position.
        stop, error = (length, None) if _align(ins) else _misalignment(ins)

        bpos = np.nonzero(tags0)[0]
        dcum = (tags0 == 0).cumsum()

        record_loop = self.profile.record_loop
        max_iterations = self.max_loop_iterations
        out_chunks: List[List[Any]] = [[] for _ in range(width)]
        group_counts: List[int] = []
        start = 0
        for p in bpos.tolist():
            if p >= stop:
                break
            end = int(dcum[p])
            n = end - start
            gt = np.zeros(n + 1, np.uint8)
            gt[n] = 1
            live = [Column(gt, c.values[start:end]) for c in ins]
            start = end
            exited = 0
            iterations = 0
            while True:
                record_loop(label, 1)
                cond = self._run_subgraph(cond_region, live)[0]
                continuing, exiting = self._partition_bundle(
                    live, cond, empty_dropped=False)
                if exiting is not None:
                    for i in range(width):
                        if len(exiting[i].values):
                            out_chunks[i].append(exiting[i].values)
                    exited += len(exiting[0].values)
                next_live = self._run_subgraph(body_region, continuing)
                t0 = next_live[0].tags
                n_re = len(next_live[0].values)
                if n_re == 0:
                    break
                iterations += 1
                if iterations > max_iterations:
                    raise PrimitiveError(
                        "forward-backward loop exceeded max_iterations; "
                        "possible livelock in loop body"
                    )
                # Body outputs that share one group's tags (n_re rows, then
                # a level-1 barrier) are already the next turn's bundle.
                if len(t0) == n_re + 1 and t0[n_re] == 1 and all(
                        s.tags is t0 for s in next_live):
                    live = next_live
                    continue
                gt2 = np.zeros(n_re + 1, np.uint8)
                gt2[n_re] = 1
                live = []
                for s in next_live:
                    if s.n_data == n_re:
                        live.append(Column(gt2, s.values))
                    else:
                        # Ragged body outputs surface as misalignment on the
                        # next turn, exactly as in the token path.
                        t = np.zeros(s.n_data + 1, np.uint8)
                        t[s.n_data] = 1
                        live.append(Column(t, s.values))
            group_counts.append(exited)
        if error is not None:
            raise error
        total_data = int(dcum[-1]) if length else 0
        if total_data > start:
            raise PrimitiveError(
                "forward-backward loop input missing final barrier")

        counts_arr = np.asarray(group_counts, np.int64)
        G = len(group_counts)
        out_total = int(counts_arr.sum()) + G
        out_tags = np.zeros(out_total, np.uint8)
        if G:
            bar_pos = np.cumsum(counts_arr + 1) - 1
            out_tags[bar_pos] = tags0[bpos]
        outs: List[Column] = []
        for i in range(width):
            chunks = out_chunks[i]
            values = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
            outs.append(Column(out_tags, values))
        return outs

    def _op_if(self, node: DFNode, ins: List[Column]) -> List[Column]:
        cond, live = ins[0], ins[1:]
        then_region, else_region = node.regions
        taken, fallthrough = self._partition_bundle(live, cond)
        then_out = self._run_subgraph(then_region, taken)
        else_out = self._run_subgraph(else_region, fallthrough)
        if not node.outputs:
            return []
        return self._merge_columns(then_out, else_out)

    def _op_foreach(self, node: DFNode, ins: List[Column]) -> List[Column]:
        indices = self._counter_columns(ins[0], ins[1], ins[2])
        self._run_subgraph(node.regions[0], [indices] + [
            self._broadcast_column(s, indices) for s in ins[3:]])
        return []
