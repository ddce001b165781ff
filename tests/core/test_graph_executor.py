"""Tests for structured dataflow graphs and the functional executor."""

import copy

import pytest

from repro.core import columnar
from repro.core.columnar import ComputeRun, NodeSchedule, schedule_for
from repro.core.executor import (Executor, make_executor, run_graph, unzip_stream,
                                 zip_streams)
from repro.core.graph import DFGraph, DFNode
from repro.core.memory import MemorySystem
from repro.core.opcodes import INT64_MAX, INT64_MIN, OPCODES
from repro.core.sltf import Barrier as B, Data as D, data_values, decode, encode
from repro.errors import GraphError, PrimitiveError, SLTFError


def build_add_one_graph():
    g = DFGraph("add_one")
    x = g.add_input("x")
    one = g.add_node("const", [x], params={"value": 1}, name="one")
    add = g.add_node("compute", [x, one.outputs[0]], params={"fn": "add"}, name="y")
    g.set_outputs([add.outputs[0]])
    return g


class TestGraphConstruction:
    def test_unknown_op_rejected(self):
        with pytest.raises(GraphError):
            DFNode(op="bogus")

    def test_verify_passes_for_valid_graph(self):
        g = build_add_one_graph()
        g.verify()

    def test_topo_order_detects_undefined_inputs(self):
        g = DFGraph()
        g.add_node("const", [g.add_input("a")], params={"value": 1})
        # Fabricate a node that uses a value never defined in this graph.
        other = DFGraph()
        foreign = other.add_input("foreign")
        g.add_node("compute", [foreign], params={"fn": "copy"})
        with pytest.raises(GraphError):
            g.topo_order()

    def test_verify_checks_output_defined(self):
        g = DFGraph()
        g.add_input("x")
        other = DFGraph()
        g.set_outputs([other.add_input("y")])
        with pytest.raises(GraphError):
            g.verify()

    def test_verify_node_arities(self):
        g = DFGraph()
        x = g.add_input("x")
        g.add_node("filter", [x], name="bad")  # needs (*data, pred)
        with pytest.raises(GraphError):
            g.verify()

    def test_opcode_table_covers_common_ops(self):
        assert OPCODES["add"].scalar(2, 3) == 5
        assert OPCODES["select"].scalar(1, 10, 20) == 10
        assert OPCODES["select"].scalar(0, 10, 20) == 20
        assert OPCODES["shr"].scalar(-1 & 0xFFFFFFFF, 28) == 0xF
        assert OPCODES["not"].scalar(0) == 1

    def test_fresh_names_are_unique(self):
        g = DFGraph()
        a = g.add_input("x")
        b = g.add_input("x")
        assert a.name != b.name

    def test_count_ops_and_walk(self):
        g = build_add_one_graph()
        counts = g.count_ops()
        assert counts == {"const": 1, "compute": 1}
        assert len(list(g.walk())) == 2

    def test_compute_fn_must_name_an_opcode(self):
        g = DFGraph()
        g.add_node("compute", [g.add_input("x")], params={"fn": lambda v: v})
        with pytest.raises(GraphError, match="unknown opcode"):
            g.verify()

    def test_foreach_yields_no_values(self):
        g = DFGraph()
        n = g.add_input("n")
        body = DFGraph("body")
        body.set_outputs([body.add_input("i")])
        g.add_node("foreach", [n, n, n], regions=[body])
        with pytest.raises(GraphError, match="foreach nodes yield no values"):
            g.verify()


def build_graph_around_region(region_op, add_node):
    """A ``while`` or an ``if`` over one live value ``x`` whose body yields
    the node ``add_node(body, x)`` adds."""
    g = DFGraph("outer")
    x = g.add_input("x")
    body = DFGraph("body")
    body.set_outputs([add_node(body, body.add_input("x")).outputs[0]])
    if region_op == "while":
        cond = DFGraph("cond")
        cx = cond.add_input("x")
        cond.set_outputs([cond.add_node("compute", [cx], params={"fn": "not"})
                          .outputs[0]])
        region = g.add_node("while", [x], regions=[cond, body])
    else:
        orelse = DFGraph("else")
        orelse.set_outputs([orelse.add_input("x")])
        region = g.add_node("if", [g.add_input("p"), x], regions=[body, orelse])
    g.set_outputs([region.outputs[0]])
    return g


class TestVerifyRecursesIntoRegions:
    """``DFGraph.verify`` checks every region graph, so the lowering's one
    call covers nodes nested in ``while``/``if``/``foreach`` bodies."""

    @pytest.mark.parametrize("region_op", ["while", "if"])
    def test_valid_region_body_passes(self, region_op):
        build_graph_around_region(region_op, lambda body, x: body.add_node(
            "compute", [x], params={"fn": "copy"})).verify()

    @pytest.mark.parametrize("region_op", ["while", "if"])
    @pytest.mark.parametrize("bad_node,message", [
        (lambda body, x: body.add_node("compute", [x], params={"fn": "nosuch"}),
         "unknown opcode 'nosuch'"),
        (lambda body, x: body.add_node("filter", [x]),
         "filter takes"),
    ], ids=["unknown-opcode", "bad-arity"])
    def test_bad_node_in_region_body_fails_at_the_parent(
            self, region_op, bad_node, message):
        with pytest.raises(GraphError, match=message):
            build_graph_around_region(region_op, bad_node).verify()


class _HandBuiltGraphs:
    """Hand-built graphs reach what no Revet source lowers to (a ``fork``
    over literal streams, malformed bundles, int64-edge values).
    The ``*Columnar`` subclasses below rerun every case under the other
    executor.
    """

    executor = "token"

    def run_graph(self, graph, inputs=None, memory=None):
        return make_executor(graph, executor=self.executor, memory=memory).run(inputs)


class TestExecutorBasics(_HandBuiltGraphs):
    def test_elementwise_pipeline(self):
        out = self.run_graph(build_add_one_graph(), {"x": [1, 2, 3]})
        assert data_values(out["y"]) == [2, 3, 4]

    def test_missing_input_raises(self):
        with pytest.raises(GraphError):
            self.run_graph(build_add_one_graph(), {})

    def test_accepts_token_streams_and_nested_lists(self):
        g = build_add_one_graph()
        out = self.run_graph(g, {"x": encode([5], 1)})
        assert data_values(out["y"]) == [6]
        out = self.run_graph(g, {"x": [[1, 2], [3]]})
        assert decode(out["y"], 2) == [[2, 3], [4]]

    def test_zip_unzip_roundtrip(self):
        a = encode([[1, 2], [3]], 2)
        b = encode([[10, 20], [30]], 2)
        zipped = zip_streams(a, b)
        ra, rb = unzip_stream(zipped, 2)
        assert ra == a and rb == b

    def test_filter_node(self):
        g = DFGraph()
        x = g.add_input("x")
        p = g.add_input("p")
        f = g.add_node("filter", [x, p], name="kept")
        g.set_outputs([f.outputs[0]])
        out = self.run_graph(g, {"x": [1, 2, 3, 4], "p": [1, 0, 1, 0]})
        assert data_values(out["kept"]) == [1, 3]

    def test_if_merge_keeps_threads_together(self):
        # The join after an ``if`` merges its two-value bundle jointly: each
        # thread's pair survives whichever branch it took.
        g = DFGraph()
        p, a, b = g.add_input("p"), g.add_input("a"), g.add_input("b")
        arms = []
        for name, fn in (("then", "neg"), ("else", "copy")):
            arm = DFGraph(name)
            x, y = arm.add_input("a"), arm.add_input("b")
            first = arm.add_node("compute", [x], params={"fn": fn})
            arm.set_outputs([first.outputs[0], y])
            arms.append(arm)
        m = g.add_node("if", [p, a, b], num_outputs=2, regions=arms)
        g.set_outputs(list(m.outputs))
        g.verify()
        out = self.run_graph(
            g, {"p": [1, 0, 1], "a": [1, 2, 3], "b": [10, 20, 30]})
        pairs = set(zip(data_values(out[m.outputs[0].name]),
                        data_values(out[m.outputs[1].name])))
        assert pairs == {(-1, 10), (2, 20), (-3, 30)}

    def test_fork_node(self):
        g = DFGraph()
        n = g.add_input("n")
        v = g.add_input("v")
        f = g.add_node("fork", [n, v], num_outputs=2, name="forked")
        g.set_outputs(list(f.outputs))
        g.verify()
        out = self.run_graph(g, {"n": [2, 1], "v": [7, 9]})
        assert data_values(out[f.outputs[0].name]) == [0, 1, 0]
        assert data_values(out[f.outputs[1].name]) == [7, 7, 9]

    def test_profile_records_firings(self):
        g = build_add_one_graph()
        ex = make_executor(g, executor=self.executor)
        ex.run({"x": [1, 2, 3]})
        assert ex.profile.node_firings == {"const": 1, "compute": 1}


class TestMemoryNodes(_HandBuiltGraphs):
    def test_sram_alloc_read_write_free(self):
        g = DFGraph()
        trig = g.add_input("trig")
        val = g.add_input("val")
        alloc = g.add_node(
            "sram_alloc", [trig], params={"site": "buf", "buffer_words": 4}, name="ptr"
        )
        addr = g.add_node(
            "compute",
            [alloc.outputs[0], g.add_node("const", [trig], params={"value": 4}).outputs[0]],
            params={"fn": "mul"},
            name="addr",
        )
        g.add_node(
            "sram_write", [addr.outputs[0], val], params={"site": "buf"}, name="st"
        )
        load = g.add_node("sram_read", [addr.outputs[0]], params={"site": "buf"}, name="ld")
        g.add_node("sram_free", [alloc.outputs[0]], params={"site": "buf"})
        g.set_outputs([load.outputs[0]])
        mem = MemorySystem()
        out = self.run_graph(g, {"trig": [0, 0], "val": [11, 22]}, memory=mem)
        # NOTE: reads observe the writes because nodes execute in topo order.
        assert data_values(out["ld"]) == [11, 22]
        assert mem.stats.allocations == 2
        assert mem.stats.frees == 2

    def test_dram_read_write_and_stats(self):
        mem = MemorySystem()
        seg = mem.dram_alloc("data", data=[5, 6, 7])
        g = DFGraph()
        addr = g.add_input("addr")
        rd = g.add_node("dram_read", [addr], name="rd")
        wr_val = g.add_node("compute", [rd.outputs[0]], params={"fn": "neg"}, name="nv")
        out_addr = g.add_node(
            "compute",
            [addr, g.add_node("const", [addr], params={"value": 10}).outputs[0]],
            params={"fn": "add"},
            name="oaddr",
        )
        g.add_node("dram_write", [out_addr.outputs[0], wr_val.outputs[0]], name="wr")
        g.set_outputs([rd.outputs[0]])
        mem.dram_alloc("out", size=16)
        out = self.run_graph(g, {"addr": [seg.base, seg.base + 2]}, memory=mem)
        assert data_values(out["rd"]) == [5, 7]
        assert mem.stats.dram_reads == 2
        assert mem.stats.dram_writes == 2

    def test_bulk_load_store(self):
        mem = MemorySystem()
        src = mem.dram_alloc("src", data=list(range(8)))
        dst = mem.dram_alloc("dst", size=8)
        g = DFGraph()
        base = g.add_input("base")
        sram = g.add_input("sram")
        load = g.add_node(
            "bulk_load", [base, sram], params={"site": "tile", "size": 8}, name="ld"
        )
        dst_base = g.add_node("const", [load.outputs[0]], params={"value": dst.base})
        store = g.add_node(
            "bulk_store",
            [dst_base.outputs[0], sram],
            params={"site": "tile", "size": 8},
            name="st",
        )
        g.set_outputs([store.outputs[0]])
        self.run_graph(g, {"base": [src.base], "sram": [0]}, memory=mem)
        assert mem.segment_data("dst") == list(range(8))


class TestRegionNodes(_HandBuiltGraphs):
    def test_while_region_collatz_steps(self):
        # Count the 3n+1 steps for each input value.
        g = DFGraph("collatz")
        n = g.add_input("n")
        steps = g.add_input("steps")

        cond = DFGraph("cond")
        cn = cond.add_input("n")
        cond.add_input("steps")
        one = cond.add_node("const", [cn], params={"value": 1})
        gt = cond.add_node("compute", [cn, one.outputs[0]], params={"fn": "gt"})
        cond.set_outputs([gt.outputs[0]])

        body = DFGraph("body")
        bn = body.add_input("n")
        bs = body.add_input("steps")
        two = body.add_node("const", [bn], params={"value": 2})
        odd = body.add_node("compute", [bn, two.outputs[0]], params={"fn": "rem"})
        half = body.add_node("compute", [bn, two.outputs[0]], params={"fn": "div"})
        three = body.add_node("const", [bn], params={"value": 3})
        trip = body.add_node("compute", [bn, three.outputs[0]], params={"fn": "mul"})
        one_b = body.add_node("const", [bn], params={"value": 1})
        trip1 = body.add_node("compute", [trip.outputs[0], one_b.outputs[0]], params={"fn": "add"})
        nxt = body.add_node(
            "compute",
            [odd.outputs[0], trip1.outputs[0], half.outputs[0]],
            params={"fn": "select"},
        )
        s1 = body.add_node("compute", [bs, one_b.outputs[0]], params={"fn": "add"})
        body.set_outputs([nxt.outputs[0], s1.outputs[0]])

        loop = g.add_node("while", [n, steps], num_outputs=2, regions=[cond, body])
        g.set_outputs([loop.outputs[1]])
        g.verify()

        out = self.run_graph(g, {"n": [6, 1, 7], "steps": [0, 0, 0]})

        def collatz_steps(v):
            c = 0
            while v > 1:
                v = 3 * v + 1 if v % 2 else v // 2
                c += 1
            return c

        assert sorted(data_values(out[g.outputs[0].name])) == sorted(
            collatz_steps(v) for v in [6, 1, 7]
        )

    def run_foreach(self, graph, n, **live):
        """Run a :func:`build_foreach_writer` graph over parents ``n``;
        return each parent's 8-word DRAM row."""
        memory = MemorySystem()
        out = memory.dram_alloc("out", size=8 * len(n))
        rows = [out.base + 8 * k for k in range(len(n))]
        self.run_graph(graph, {"n": n, "row": rows, **live}, memory=memory)
        data = memory.segment_data("out")
        return [data[8 * k:8 * k + 8] for k in range(len(n))]

    def test_foreach_region_sum_of_squares(self):
        def square(body, i, live):
            return body.add_node("compute", [i, i], params={"fn": "mul"}).outputs[0]

        rows = self.run_foreach(build_foreach_writer(square), [3, 5, 0])
        assert [sum(row) for row in rows] == [5, 30, 0]
        assert rows[1][:5] == [0, 1, 4, 9, 16]

    def test_foreach_broadcasts_parent_values(self):
        def scaled(body, i, live):
            return body.add_node("compute", [i, live[0]],
                                 params={"fn": "mul"}).outputs[0]

        graph = build_foreach_writer(scaled, live=["scale"])
        rows = self.run_foreach(graph, [3, 2], scale=[10, 100])
        assert rows == [[0, 10, 20, 0, 0, 0, 0, 0], [0, 100, 0, 0, 0, 0, 0, 0]]

    def test_foreach_empty_parent_writes_nothing(self):
        def index_plus_one(body, i, live):
            one = body.add_node("const", [i], params={"value": 1})
            return body.add_node("compute", [i, one.outputs[0]],
                                 params={"fn": "add"}).outputs[0]

        rows = self.run_foreach(build_foreach_writer(index_plus_one), [0, 2, 0])
        assert rows == [[0] * 8, [1, 2, 0, 0, 0, 0, 0, 0], [0] * 8]

    def test_replicate_region_is_functionally_transparent(self):
        g = DFGraph("rep")
        x = g.add_input("x")
        body = DFGraph("body")
        bx = body.add_input("x")
        doubled = body.add_node("compute", [bx, bx], params={"fn": "add"})
        body.set_outputs([doubled.outputs[0]])
        rep = g.add_node("replicate", [x], params={"factor": 4}, regions=[body], name="y")
        g.set_outputs([rep.outputs[0]])
        out = self.run_graph(g, {"x": [1, 2, 3]})
        assert data_values(out["y"]) == [2, 4, 6]

    def test_nested_while_inside_foreach(self):
        # Child i counts the turns of an inner countdown from i: it writes
        # i, so each parent's row sums to n*(n-1)/2.
        def countdown_turns(body, i, live):
            zero = body.add_node("const", [i], params={"value": 0})
            cond = DFGraph("cond")
            cv = cond.add_input("v")
            cond.add_input("count")
            czero = cond.add_node("const", [cv], params={"value": 0})
            cgt = cond.add_node("compute", [cv, czero.outputs[0]], params={"fn": "gt"})
            cond.set_outputs([cgt.outputs[0]])
            wbody = DFGraph("wbody")
            wv = wbody.add_input("v")
            wc = wbody.add_input("count")
            wone = wbody.add_node("const", [wv], params={"value": 1})
            dec = wbody.add_node("compute", [wv, wone.outputs[0]], params={"fn": "sub"})
            inc = wbody.add_node("compute", [wc, wone.outputs[0]], params={"fn": "add"})
            wbody.set_outputs([dec.outputs[0], inc.outputs[0]])
            loop = body.add_node("while", [i, zero.outputs[0]], num_outputs=2,
                                 regions=[cond, wbody])
            return loop.outputs[1]

        rows = self.run_foreach(build_foreach_writer(countdown_turns), [4, 1, 6])
        assert [sum(row) for row in rows] == [6, 0, 15]
        assert rows[2][:6] == [0, 1, 2, 3, 4, 5]

    def run_figure4(self, **inputs):
        """Run :func:`build_figure4_graph`: its (id, k, limit) outputs and
        the profile."""
        graph = build_figure4_graph()
        ex = make_executor(graph, executor=self.executor)
        out = ex.run(inputs)
        return [out[v.name] for v in graph.outputs], ex.profile

    def test_while_figure4_iteration_counts(self):
        # Figure 4: threads 1..4 iterate 2, 3, 1, 3 times; thread 3 exits
        # first, and the loop takes one turn per iteration plus the last.
        (ids, ks, _), profile = self.run_figure4(
            id=[1, 2, 3, 4], k=[0, 0, 0, 0], limit=[2, 3, 1, 3])
        assert data_values(ids) == [3, 1, 2, 4]
        assert data_values(ks) == [1, 2, 3, 3]
        assert profile.loop_iterations == {"figure4": 4}

    def test_while_keeps_threads_in_their_groups(self):
        (ids, ks, _), profile = self.run_figure4(
            id=[[1], [2, 3]], k=[[0], [0, 0]], limit=[[2], [1, 3]])
        assert decode(ids, 2) == [[1], [2, 3]]
        assert decode(ks, 2) == [[2], [1, 3]]
        assert profile.loop_iterations == {"figure4": 3 + 4}

    def test_while_empty_group_passes_through(self):
        (ids, _, _), profile = self.run_figure4(
            id=[[], [1]], k=[[], [0]], limit=[[], [0]])
        assert decode(ids, 2) == [[], [1]]
        # One turn finds the empty group empty, one drains the other.
        assert profile.loop_iterations == {"figure4": 2}


def build_foreach_writer(body_value, live=()):
    """``foreach (i < n) dram[row + i] = value`` over parent threads
    (n, row, *live): ``body_value(body, i, live_inputs)`` adds the nodes
    computing the value and returns it.  Children yield nothing back, as in
    every compiled program."""
    g = DFGraph("foreach_writer")
    n, row = g.add_input("n"), g.add_input("row")
    extra = [g.add_input(name) for name in live]
    zero = g.add_node("const", [n], params={"value": 0})
    one = g.add_node("const", [n], params={"value": 1})
    body = DFGraph("body")
    i, brow = body.add_input("i"), body.add_input("row")
    body_live = [body.add_input(name) for name in live]
    addr = body.add_node("compute", [brow, i], params={"fn": "add"})
    body.add_node("dram_write", [addr.outputs[0], body_value(body, i, body_live)])
    g.add_node("foreach", [zero.outputs[0], n, one.outputs[0], row, *extra],
               num_outputs=0, regions=[body])
    g.verify()
    return g


def build_figure4_graph():
    """``while (k < limit) k += 1`` over threads (id, k, limit)."""
    names = ("id", "k", "limit")
    g = DFGraph("figure4")
    live = [g.add_input(name) for name in names]
    cond = DFGraph("cond")
    _, ck, cl = (cond.add_input(name) for name in names)
    cond.set_outputs([cond.add_node("compute", [ck, cl], params={"fn": "lt"})
                      .outputs[0]])
    body = DFGraph("body")
    bid, bk, bl = (body.add_input(name) for name in names)
    one = body.add_node("const", [bk], params={"value": 1})
    step = body.add_node("compute", [bk, one.outputs[0]], params={"fn": "add"})
    body.set_outputs([bid, step.outputs[0], bl])
    loop = g.add_node("while", live, num_outputs=3, regions=[cond, body],
                      params={"label": "figure4"})
    g.set_outputs(list(loop.outputs))
    g.verify()
    return g


def build_countdown_graph(log_base, step=1):
    """``while (n > 0) { log[0] = n; n -= step; s += 1; t += 1 }`` over the
    live values (n, s, t); ``step=0`` never exits."""
    g = DFGraph("countdown")
    live = [g.add_input(name) for name in "nst"]
    cond = DFGraph("cond")
    cn, _, _ = (cond.add_input(name) for name in "nst")
    zero = cond.add_node("const", [cn], params={"value": 0})
    gt = cond.add_node("compute", [cn, zero.outputs[0]], params={"fn": "gt"})
    cond.set_outputs([gt.outputs[0]])
    body = DFGraph("body")
    bn, bs, bt = (body.add_input(name) for name in "nst")
    log = body.add_node("const", [bn], params={"value": log_base})
    body.add_node("dram_write", [log.outputs[0], bn])
    dec = body.add_node("const", [bn], params={"value": step})
    one = body.add_node("const", [bn], params={"value": 1})
    body.set_outputs([
        body.add_node("compute", [v, c.outputs[0]], params={"fn": fn}).outputs[0]
        for v, c, fn in ((bn, dec, "sub"), (bs, one, "add"), (bt, one, "add"))
    ])
    loop = g.add_node("while", live, num_outputs=3, regions=[cond, body],
                      params={"label": "countdown"})
    g.set_outputs(list(loop.outputs))
    return g


class TestMalformedGraphs(_HandBuiltGraphs):
    """Malformed bundles: each case pins the exception type, message, loop
    turns and memory, so the ``*Columnar`` rerun proves both executors fail
    the same way after the same work (``docs/executor.md``)."""

    def failure(self, graph, inputs, memory=None, max_loop_iterations=None):
        memory = memory if memory is not None else MemorySystem()
        ex = make_executor(graph, executor=self.executor, memory=memory)
        if max_loop_iterations is not None:
            ex.max_loop_iterations = max_loop_iterations
        with pytest.raises((PrimitiveError, GraphError)) as info:
            ex.run(inputs)
        self.firings = ex.profile.node_firings
        return (info.type, str(info.value), ex.profile.loop_iterations,
                memory.snapshot()["dram"], memory.stats.dram_writes)

    def countdown_failure(self, n, s, t, step=1, max_loop_iterations=None):
        memory = MemorySystem()
        graph = build_countdown_graph(memory.dram_alloc("log", size=1).base, step)
        return self.failure(graph, {"n": n, "s": s, "t": t}, memory,
                            max_loop_iterations)

    def test_filter_predicate_misaligned(self):
        for width in (1, 2):
            g = DFGraph()
            data = [g.add_input(f"x{i}") for i in range(width)]
            f = g.add_node("filter", data + [g.add_input("p")], num_outputs=width)
            g.set_outputs(list(f.outputs))
            inputs = {f"x{i}": [D(1), D(2), B(1)] for i in range(width)}
            inputs["p"] = [D(1), B(1), D(0)]
            assert self.failure(g, inputs) == (
                PrimitiveError, "filter predicate misaligned with data", {}, {}, 0)

    def test_if_arms_that_do_not_fit_the_node(self):
        """Arms that take fewer live values than the ``if`` passes them, or
        yield more than it has outputs, fail at the region boundary."""
        def if_graph(arm_inputs, num_outputs):
            g = DFGraph("if")
            p, a = g.add_input("p"), g.add_input("a")
            arms = [DFGraph("then"), DFGraph("else")]
            for arm in arms:
                x = [arm.add_input(f"x{i}") for i in range(arm_inputs)]
                arm.set_outputs([x[0], x[0]])
            node = g.add_node("if", [p, a, a], num_outputs=num_outputs,
                              regions=arms)
            g.set_outputs(list(node.outputs))
            return g, node

        inputs = {"p": [1, 0], "a": [5, 6]}
        graph, _ = if_graph(1, 2)
        assert self.failure(graph, inputs) == (
            GraphError, "region 'then' expects 1 inputs, got 2", {}, {}, 0)
        graph, node = if_graph(2, 1)
        assert self.failure(graph, inputs) == (
            GraphError, f"node {node!r} produced 2 streams, expected 1", {}, {}, 0)

    def test_compute_on_misaligned_streams(self):
        g = DFGraph()
        add = g.add_node("compute", [g.add_input("x"), g.add_input("y")],
                         params={"fn": "add"})
        g.set_outputs([add.outputs[0]])
        inputs = {"x": [D(1), D(2), B(1)], "y": [D(1), B(1), D(2)]}
        assert self.failure(g, inputs) == (
            PrimitiveError, "element-wise inputs misaligned at [D(2), B1]",
            {}, {}, 0)

    def test_while_misaligned_live_streams(self):
        # The first group drains (four turns, three writes) before the scan
        # reaches the misaligned position.
        ok = [D(0), B(1), D(0), B(1)]
        assert self.countdown_failure(
            [D(3), B(1), D(1), B(1)], [D(0), B(1), B(1), D(0)], ok) == (
            PrimitiveError, "while live streams misaligned at B1",
            {"countdown": 4}, {0: 1}, 3)
        # The earliest bad position wins, whichever live value it is in.
        assert self.countdown_failure(
            [D(3), B(1), D(1), B(1)], [D(0), B(1), B(1), D(0)],
            [D(0), B(2), D(0), B(1)]) == (
            PrimitiveError, "while live streams have mismatched barriers at B2",
            {}, {}, 0)

    def test_while_data_after_last_barrier(self):
        tail = [D(0), B(1), D(0)]
        assert self.countdown_failure([D(3), B(1), D(1)], tail, tail) == (
            PrimitiveError, "forward-backward loop input missing final barrier",
            {"countdown": 4}, {0: 1}, 3)

    def test_while_that_never_exits(self):
        live = [D(0), B(1)]
        assert self.countdown_failure(
            [D(2), B(1)], live, live, step=0, max_loop_iterations=3) == (
            PrimitiveError, "forward-backward loop exceeded max_iterations; "
            "possible livelock in loop body", {"countdown": 4}, {0: 2}, 4)


class TestExecutorBasicsColumnar(TestExecutorBasics):
    executor = "columnar"


class TestMemoryNodesColumnar(TestMemoryNodes):
    executor = "columnar"


class TestRegionNodesColumnar(TestRegionNodes):
    executor = "columnar"


class TestMalformedGraphsColumnar(TestMalformedGraphs):
    executor = "columnar"


@pytest.fixture(params=["interpreted", "generated"])
def tier(request, monkeypatch):
    """Every columnar run interprets, or every one runs generated code."""
    monkeypatch.setattr(columnar, "GENERATED_FROM_RUN",
                        0 if request.param == "generated" else float("inf"))
    return request.param


class TestMalformedGraphsGenerated(TestMalformedGraphsColumnar):
    """The same failures from generated code, the root graph's included,
    after the same firings as the token executor's."""

    @pytest.fixture(autouse=True)
    def _generated_from_the_first_run(self, monkeypatch):
        monkeypatch.setattr(columnar, "GENERATED_FROM_RUN", 0)

    def failure(self, graph, inputs, memory=None, max_loop_iterations=None):
        token, token_memory = TestMalformedGraphs(), copy.deepcopy(memory)
        outcome = super().failure(graph, inputs, memory, max_loop_iterations)
        assert callable(schedule_for(graph).generated[id(graph)])
        assert token.failure(graph, inputs, token_memory,
                             max_loop_iterations) == outcome
        assert token.firings == self.firings
        return outcome


# -- inputs a compiled program never makes: error and edge parity -----------

#: Two streams misaligned at their first token.
MISALIGNED = {"in0": [D(0), B(1)], "in1": [B(1), D(0)]}


def build_leaf_graph(op, n_inputs, params=None, num_outputs=1):
    """One ``op`` node over graph inputs ``in0``, ``in1``, ..."""
    g = DFGraph(op)
    node = g.add_node(op, [g.add_input(f"in{k}") for k in range(n_inputs)],
                      num_outputs=num_outputs, params=params)
    g.set_outputs(list(node.outputs))
    return g


def build_foreach_counter_graph():
    """``foreach`` over literal (lo, hi, step) rows; child ``i`` writes
    ``i`` to DRAM address ``i``."""
    g = DFGraph("counter")
    body = DFGraph("body")
    i = body.add_input("i")
    body.add_node("dram_write", [i, i])
    g.add_node("foreach", [g.add_input(name) for name in ("lo", "hi", "step")],
               num_outputs=0, regions=[body])
    return g


def build_if_graph(then_outputs):
    """``if (p)`` over live values (a, b): the then-arm yields
    ``then_outputs(arm, a, b)``, the else-arm (a, b) unchanged."""
    g = DFGraph("if")
    p, a, b = g.add_input("p"), g.add_input("a"), g.add_input("b")
    then, orelse = DFGraph("then"), DFGraph("else")
    then.set_outputs(then_outputs(then, then.add_input("a"), then.add_input("b")))
    orelse.set_outputs([orelse.add_input("a"), orelse.add_input("b")])
    node = g.add_node("if", [p, a, b], num_outputs=2, regions=[then, orelse])
    g.set_outputs(list(node.outputs))
    return g


def _filtered_and_whole(arm, a, b):
    """A misaligned bundle: ``a`` filtered by itself beside ``b``."""
    return [arm.add_node("filter", [a, a]).outputs[0], b]


#: Hand-built inputs no compiled program makes, keyed ``"<op>:<what>"``:
#: malformed bundles, trapping kernels and ``foreach`` rows at the int64
#: edges (``docs/executor.md``, "Malformed bundles").
PARITY_CASES = {
    "compute:misaligned": (build_leaf_graph("compute", 2, {"fn": "add"}),
                           {"in0": [D(1), D(2), B(1)], "in1": [D(1), B(1), D(2)]}),
    # Row 0 divides by zero before the scan reaches the misaligned position.
    "compute:trap_before_misaligned": (
        build_leaf_graph("compute", 2, {"fn": "div"}),
        {"in0": [D(1), D(2), B(1)], "in1": [D(0), B(1), D(2)]}),
    "compute:mismatched_levels": (
        build_leaf_graph("compute", 3, {"fn": "select"}),
        {"in0": [D(1), B(1)], "in1": [D(2), B(1)], "in2": [D(3), B(2)]}),
    "compute:lengths": (build_leaf_graph("compute", 2, {"fn": "add"}),
                        {"in0": [1, 2], "in1": [1]}),
    "compute:trap": (build_leaf_graph("compute", 2, {"fn": "shl"}),
                     {"in0": [1, 1], "in1": [3, -1]}),
    "filter:misaligned": (build_leaf_graph("filter", 2),
                          {"in0": [D(1), D(2), B(1)], "in1": [D(1), B(1), D(0)]}),
    "filter:lengths": (build_leaf_graph("filter", 2), {"in0": [1, 2], "in1": [1]}),
    "filter:barrier_in_a_data_slot": (
        build_leaf_graph("filter", 3, num_outputs=2),
        {"in0": [D(1), B(1), B(1)], "in1": [D(1), D(2), B(1)],
         "in2": [D(1), D(1), B(1)]}),
    "fork:misaligned": (build_leaf_graph("fork", 2, num_outputs=2), MISALIGNED),
    "fork:negative": (build_leaf_graph("fork", 2, num_outputs=2),
                      {"in0": [2, -1], "in1": [7, 9]}),
    # The first payload fits, so the negative count raises before the
    # second payload is zipped.
    "fork:negative_before_misaligned": (
        build_leaf_graph("fork", 3, num_outputs=3),
        {"in0": [D(2), D(-1), B(1)], "in1": [D(7), D(9), B(1)],
         "in2": [D(7), B(1), D(9)]}),
    "sram_write:misaligned": (build_leaf_graph("sram_write", 2, {"site": "buf"}),
                              MISALIGNED),
    "dram_write:misaligned": (build_leaf_graph("dram_write", 2), MISALIGNED),
    # Two words land before the scan reaches the misaligned position.
    "dram_write:misaligned_after_two_rows": (
        build_leaf_graph("dram_write", 2),
        {"in0": [D(1), D(2), B(1), D(3)], "in1": [D(5), D(6), D(7), B(1)]}),
    "bulk_load:misaligned": (build_leaf_graph("bulk_load", 2, {"size": 4}),
                             MISALIGNED),
    "bulk_store:misaligned": (build_leaf_graph("bulk_store", 2, {"size": 4}),
                              MISALIGNED),
    "counter:misaligned": (build_foreach_counter_graph(),
                           {"lo": [D(0), B(1)], "hi": [B(1), D(3)], "step": [1]}),
    "counter:zero_step": (build_foreach_counter_graph(),
                          {"lo": [0, 0], "hi": [3, 3], "step": [1, 0]}),
    # hi - lo is 2**64 - 1 in the first row, which int64 cannot hold; its
    # step makes it four children.
    "counter:overflow": (build_foreach_counter_graph(),
                         {"lo": [INT64_MIN, 0], "hi": [INT64_MAX, 3],
                          "step": [2**62, 1]}),
    # Raising a level-15 barrier would exceed the 4-bit encoding.
    "counter:level": (build_foreach_counter_graph(),
                      {"lo": [D(0), B(15)], "hi": [D(2), B(15)],
                       "step": [D(1), B(15)]}),
    "counter:zero_step_before_level": (
        build_foreach_counter_graph(),
        {"lo": [D(0), B(15)], "hi": [D(2), B(15)], "step": [D(0), B(15)]}),
    "counter:level_before_zero_step": (
        build_foreach_counter_graph(),
        {"lo": [D(0), B(15), D(0), B(15)], "hi": [D(2), B(15), D(2), B(15)],
         "step": [D(1), B(15), D(0), B(15)]}),
    "partition:misaligned": (build_if_graph(lambda arm, a, b: [a, b]),
                             {"p": [D(1), B(1), D(0)], "a": [D(1), D(2), B(1)],
                              "b": [D(1), D(2), B(1)]}),
    "partition:lengths": (build_if_graph(lambda arm, a, b: [a, b]),
                          {"p": [1], "a": [1, 2], "b": [1, 2]}),
    "partition:barrier_in_a_data_slot": (
        build_if_graph(lambda arm, a, b: [a, b]),
        {"p": [D(1), D(1), B(1)], "a": [D(1), B(1), B(1)],
         "b": [D(1), D(2), B(1)]}),
    "merge:misaligned": (build_if_graph(_filtered_and_whole),
                         {"p": [1, 1, 1], "a": [1, 0, 1], "b": [4, 5, 6]}),
}


def run_case(graph, inputs, executor):
    """(outputs or the error's type and text, DRAM, stats, firings, loop
    turns) of one run over a fresh memory with an 8-word segment."""
    memory = MemorySystem()
    memory.dram_alloc("out", size=8)
    ex = make_executor(graph, executor=executor, memory=memory)
    try:
        result = ex.run(inputs)
    except (ArithmeticError, PrimitiveError, SLTFError, ValueError) as error:
        result = (type(error), str(error))
    return (result, memory.snapshot()["dram"], vars(memory.stats),
            ex.profile.node_firings, ex.profile.loop_iterations)


@pytest.mark.parametrize("key", sorted(PARITY_CASES))
def test_columnar_matches_the_token_path(key, tier):
    """Same outputs or error, memory, firings and loop turns as the token
    executor, interpreted or from generated code."""
    graph, inputs = PARITY_CASES[key]
    assert run_case(graph, inputs, "columnar") == run_case(graph, inputs, "token")
    assert (id(graph) in schedule_for(graph).generated) == (tier == "generated")


@pytest.mark.parametrize("key", ["filter:barrier_in_a_data_slot",
                                 "partition:barrier_in_a_data_slot"])
@pytest.mark.parametrize("executor", ["token", "columnar"])
def test_a_barrier_in_a_data_slot_is_misaligned(key, executor):
    """The predicate has data where a link has a barrier: no filter or
    partition may pass that barrier on as a thread."""
    graph, inputs = PARITY_CASES[key]
    result = run_case(graph, inputs, executor)[0]
    assert result == (PrimitiveError, "filter predicate misaligned with data")


@pytest.mark.parametrize("executor", ["token", "columnar"])
def test_foreach_counts_int64_spans_exactly(executor):
    """Rows whose span fills int64, stepping up and down (by 2**62, and by
    INT64_MIN, whose magnitude int64 cannot hold): 4, 4 and 2 children."""
    lo, hi = [INT64_MIN, INT64_MAX, INT64_MAX], [INT64_MAX, INT64_MIN, INT64_MIN]
    step = [2**62, -(2**62), INT64_MIN]
    graph = build_foreach_counter_graph()
    result, dram, *_ = run_case(graph, {"lo": lo, "hi": hi, "step": step}, executor)
    children = [lo[0] + k * 2**62 for k in range(4)] + [
        lo[1] - k * 2**62 for k in range(4)] + [INT64_MAX, -1]
    assert all(INT64_MIN <= i <= INT64_MAX for i in children)
    assert result == {} and dram == {i: i for i in children if i}


def test_an_output_nothing_defines_fails_as_on_the_token_path(tier):
    g = DFGraph()
    g.add_input("x")
    g.set_outputs([DFGraph().add_input("y")])
    for executor in ("token", "columnar"):
        with pytest.raises(KeyError):
            make_executor(g, executor=executor).run({"x": [1]})
    assert schedule_for(g).generated == ({id(g): False} if tier == "generated" else {})


#: The inputs that once served bigints and ``bool`` values:
#: an int64 sum now wraps in the kernel, and anything that is not an
#: int64 word is refused at the graph input.
RETIRED_EXIT_CASES = {
    "compute:overflow": (build_leaf_graph("compute", 2, {"fn": "add"}),
                         {"in0": [2**62, 1], "in1": [2**62, 2]}, [INT64_MIN, 3]),
    "compute:object": (build_leaf_graph("compute", 2, {"fn": "and"}),
                       {"in0": [2**70 + 5, 6], "in1": [3, 2**64]}, GraphError),
    "fork:object": (build_leaf_graph("fork", 2, num_outputs=2),
                    {"in0": [True, 2], "in1": [7, 9]}, GraphError),
    "counter:object": (build_foreach_counter_graph(),
                       {"lo": [0], "hi": [3], "step": [True]}, GraphError),
}


@pytest.mark.parametrize("key", sorted(RETIRED_EXIT_CASES))
@pytest.mark.parametrize("executor", ["token", "columnar"])
def test_retired_exit_inputs_wrap_or_are_refused(key, executor):
    graph, inputs, expected = RETIRED_EXIT_CASES[key]
    ex = make_executor(graph, executor=executor, memory=MemorySystem())
    if expected is GraphError:
        with pytest.raises(GraphError, match="is not an int64 word"):
            ex.run(inputs)
        return
    (out,) = ex.run(inputs).values()
    assert data_values(out) == expected


class TestExecutorFastPath:
    """The serving fast path: node schedules shared by every executor."""

    def test_schedule_cached_until_graph_mutates(self):
        g = build_add_one_graph()
        first = schedule_for(g)
        assert schedule_for(g) is first  # memoized per structural version
        extra = g.add_node("const", [g.inputs[0]], params={"value": 9})
        g.set_outputs([extra.outputs[0]])
        rebuilt = schedule_for(g)
        assert rebuilt is not first
        assert rebuilt.version == g.version

    def test_schedule_does_not_keep_its_program_alive(self):
        """The cache is weak-keyed by the root graph; a schedule that held
        its own root would pin every program ever compiled."""
        import gc

        from repro.apps import REGISTRY
        spec = REGISTRY.get("strlen")

        def live_graphs_after(compiles):
            for _ in range(compiles):
                program = spec.compile()
                for _ in range(2):  # the second run generates its regions
                    instance = spec.make_instance(4, 0)
                    program.run(instance.memory, **instance.args)
                assert schedule_for(program.graph).generated
            del program
            gc.collect()  # frees the dead roots, whose schedules go with them
            gc.collect()  # frees the regions only those schedules still held
            return sum(isinstance(o, DFGraph) for o in gc.get_objects())

        assert live_graphs_after(10) == live_graphs_after(10)

    def test_schedule_rebuilt_when_a_region_mutates(self):
        """Generated code dies with its schedule: after a warm program's
        region mutates, the next run interprets the mutated graph."""
        from repro.apps import REGISTRY
        spec = REGISTRY.get("strlen")
        program = spec.compile()
        g = program.graph

        def run():
            instance = spec.make_instance(4, 0)
            return program.run(instance.memory, profile=True, **instance.args)

        before = run().profile.node_firings
        assert run().profile.node_firings == before
        first = schedule_for(g)
        assert first.columnar_runs == 2 and first.generated
        region = next(n for _, n in g.walk() if n.regions).regions[0]
        region.add_node("const", [region.inputs[0]], params={"value": 0})
        after = run().profile.node_firings
        rebuilt = schedule_for(g)
        assert rebuilt is not first
        assert rebuilt.columnar_runs == 1 and not rebuilt.generated
        assert after["const"] > before.get("const", 0)  # the new node fired
        assert run().profile.node_firings == after
        assert rebuilt.generated

    def test_schedule_preresolves_compute_opcodes(self):
        g = build_add_one_graph()
        schedule = schedule_for(g)
        compute = next(n for n in g.nodes if n.op == "compute")
        assert schedule.opcode(compute) is OPCODES["add"]
        assert {"const", "compute"} <= schedule.ops

    def test_executors_share_one_schedule(self):
        g = build_add_one_graph()
        a, b = Executor(g), Executor(g)
        assert a._schedule is b._schedule
        assert a.run({"x": [1, 2]}) == b.run({"x": [1, 2]})
        assert run_graph(g, {"x": [1, 2]}) == a.run({"x": [1, 2]})

    def test_topo_order_memoized(self):
        g = build_add_one_graph()
        order = g.topo_order()
        assert g.topo_order() is order
        g.add_node("const", [g.inputs[0]], params={"value": 0})
        assert g.topo_order() is not order


# -- immediate operands and fused compute runs -------------------------------


def build_compute_chain(*steps, n_inputs=1):
    """Consecutive ``compute`` nodes over inputs ``in0``, ...: step ``k`` is
    ``(fn, imm)``, reading the previous step's output (the first step reads
    every input) with ``imm`` as its ``(position, value)`` immediates."""
    g = DFGraph("chain")
    links = [g.add_input(f"in{k}") for k in range(n_inputs)]
    for k, (fn, imm) in enumerate(steps):
        params = {"fn": fn, "imm": imm} if imm else {"fn": fn}
        links = [g.add_node("compute", links, params=params,
                            name=f"s{k}").outputs[0]]
    g.set_outputs(links)
    return g


def run_token_and_columnar(graph, inputs):
    """Per executor: (outputs or the error's type and text, DRAM, stats,
    firings)."""
    outcomes = {}
    for executor in ("token", "columnar"):
        memory = MemorySystem()
        ex = make_executor(graph, executor=executor, memory=memory)
        try:
            result = ex.run(inputs)
        except (ArithmeticError, PrimitiveError, ValueError) as error:
            result = (type(error), str(error))
        outcomes[executor] = (result, memory.snapshot()["dram"], vars(memory.stats),
                              ex.profile.node_firings)
    return outcomes


def fused_runs(graph):
    """Member counts of the compute runs the schedule groups in ``graph``."""
    return [len(node.members) for node, *_ in schedule_for(graph).runs(graph)
            if isinstance(node, ComputeRun)]


class TestImmediates:
    """``params["imm"]`` operands: same values and errors on both
    executors, fused into one step or not."""

    @pytest.mark.parametrize("fn", ["div", "rem"])
    def test_division_by_an_immediate_zero_raises_the_same_error(self, fn):
        outcomes = run_token_and_columnar(
            build_leaf_graph("compute", 1, {"fn": fn, "imm": ((1, 0),)}),
            {"in0": [7, 8]})
        assert outcomes["columnar"] == outcomes["token"]
        assert outcomes["token"][0][0] is ZeroDivisionError

    def test_immediate_dividend_and_divisor_positions(self):
        g = build_compute_chain(("sub", ((0, 100),)), ("div", ((1, 7),)),
                                ("rem", ((0, 9),)))
        outcomes = run_token_and_columnar(g, {"in0": [1, 30, 60]})
        assert outcomes["columnar"] == outcomes["token"]
        (out,) = outcomes["token"][0].values()
        assert data_values(out) == [9 % ((100 - x) // 7) for x in (1, 30, 60)]

    def test_mul_by_a_large_immediate_wraps_on_the_vector_path(self):
        outcomes = run_token_and_columnar(
            build_leaf_graph("compute", 1, {"fn": "mul", "imm": ((1, 2**40),)}),
            {"in0": [3, 2**30, -(2**31), 2**30 + 5]})
        assert outcomes["columnar"] == outcomes["token"]
        (out,) = outcomes["token"][0].values()
        # 2**70 and -(2**71) keep no bit of the low 64.
        assert data_values(out) == [3 * 2**40, 0, 0, 5 * 2**40]

    def test_an_int64_edge_column_meets_an_immediate(self):
        graph = build_leaf_graph("compute", 1, {"fn": "and", "imm": ((0, 6),)})
        outcomes = run_token_and_columnar(graph, {"in0": [INT64_MIN + 5, 3, -1]})
        assert outcomes["columnar"] == outcomes["token"]
        (out,) = outcomes["token"][0].values()
        assert data_values(out) == [4, 2, 6]
        for executor in ("token", "columnar"):  # 2**70 + 5 is no word
            with pytest.raises(GraphError, match="is not an int64 word"):
                make_executor(graph, executor=executor).run({"in0": [2**70 + 5, 3]})

    def test_a_misaligned_fused_run_fails_as_one_node_does(self):
        """``TestMalformedGraphs.test_compute_on_misaligned_streams``'s
        inputs, now feeding a run of three ``compute`` nodes."""
        g = build_compute_chain(("add", ()), ("mul", ((1, 2),)),
                                ("sub", ((1, 1),)), n_inputs=2)
        assert fused_runs(g) == [3]
        outcomes = run_token_and_columnar(
            g, {"in0": [D(1), D(2), B(1)], "in1": [D(1), B(1), D(2)]})
        assert outcomes["columnar"] == outcomes["token"]
        assert outcomes["token"][0] == (
            PrimitiveError, "element-wise inputs misaligned at [D(2), B1]")

    def test_a_run_that_wrapped_to_object_values_stays_on_the_vector_path(self):
        """These steps once left the vector path at the ``mul`` and carried
        ``object`` values after it; every member now wraps."""
        g = build_compute_chain(("add", ((1, 1),)), ("mul", ((1, 2**40),)),
                                ("sub", ((1, 1),)), ("add", ((0, 1),)))
        assert fused_runs(g) == [4]
        outcomes = run_token_and_columnar(
            g, {"in0": [D(2**30), D(5), B(1), D(-7), B(2)]})
        assert outcomes["columnar"] == outcomes["token"]
        (out,) = outcomes["token"][0].values()
        assert data_values(out) == [2**40, 6 * 2**40, -6 * 2**40]
        assert outcomes["columnar"][3] == {"compute": 4}

    def test_a_run_that_traps_mid_run_matches_node_by_node(self, tier, monkeypatch):
        """The ``shl`` meets a negative count, so its kernel traps and its
        scalar raises; the members after it never fire, as if fired alone,
        interpreted or from generated code."""
        steps = (("add", ((1, 1),)), ("shl", ((0, 1),)),
                 ("sub", ((1, 1),)), ("add", ((0, 1),)))
        g = build_compute_chain(*steps)
        assert fused_runs(g) == [4]
        inputs = {"in0": [D(2), D(5), B(1), D(-7), B(2)]}
        outcomes = run_token_and_columnar(g, inputs)
        assert outcomes["columnar"] == outcomes["token"]
        assert outcomes["token"][0] == (ValueError, "negative shift count")
        assert outcomes["columnar"][3] == {"compute": 2}
        # The same nodes scheduled one step each raise the same way.
        monkeypatch.setattr(NodeSchedule, "_group", lambda self, steps: steps)
        alone = make_executor(build_compute_chain(*steps), executor="columnar")
        assert fused_runs(alone.graph) == []
        with pytest.raises(ValueError, match="negative shift count"):
            alone.run(inputs)
        assert alone.profile.node_firings == {"compute": 2}
        for graph in (g, alone.graph):
            assert (id(graph) in schedule_for(graph).generated) == (
                tier == "generated")
