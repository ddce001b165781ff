"""Unit tests for the individual compiler passes (Figure 8 middle stages)."""

import pytest

from repro.apps import REGISTRY
from repro.compiler import CompileOptions, build_pass_pipeline
from repro.frontend import compile_source_to_ir
from repro.ir import PassManager, ops_named, print_module, verify
from repro.passes import (
    AllocatorFusionPass,
    AllocatorHoistingPass,
    BufferizeReplicatePass,
    CanonicalizePass,
    HierarchyEliminationPass,
    IfToSelectPass,
    LowerIteratorsPass,
    LowerViewsPass,
    SubwordPackingPass,
)


def lower(src: str, *passes):
    module = compile_source_to_ir(src)
    PassManager(list(passes)).run(module)
    verify(module)
    return module


class TestCanonicalize:
    def test_folds_constants_and_removes_dead_ops(self):
        src = """
        DRAM<int> out;
        void f(int a) { int x = 2 + 3; out[a] = a + x; int dead = 7 * 6; }
        """
        module = lower(src, CanonicalizePass())
        constants = [op.attrs["value"] for op in ops_named(module, "arith.constant")]
        assert 5 in constants            # 2 + 3 folded into a live constant
        assert 42 not in constants       # dead computation removed entirely
        assert not ops_named(module, "arith.muli")
        assert len(ops_named(module, "arith.addi")) == 1  # only the live add remains
        assert ops_named(module, "revet.dram_store")

    def test_division_by_zero_not_folded(self):
        src = "DRAM<int> out;\nvoid f(int a) { out[a] = 1 / 0 + a; }"
        module = lower(src, CanonicalizePass())
        assert ops_named(module, "arith.divsi")


class TestLowerViews:
    SRC = """
    DRAM<int> offsets;
    DRAM<int> lengths;
    void main(int n) {
      foreach (n) { int i =>
        ReadView<16> rv(offsets, i);
        WriteView<16> wv(lengths, i);
        wv[0] = rv[0] + 1;
      };
    }
    """

    def test_views_become_memrefs_and_bulk_transfers(self):
        module = lower(self.SRC, LowerViewsPass())
        assert not ops_named(module, "revet.view_new")
        assert not ops_named(module, "revet.view_load")
        assert len(ops_named(module, "memref.alloc")) == 2
        assert len(ops_named(module, "revet.bulk_load")) == 1    # ReadView only
        assert len(ops_named(module, "revet.bulk_store")) == 1   # WriteView flush
        assert len(ops_named(module, "memref.dealloc")) == 2


class TestLowerIterators:
    SRC = """
    DRAM<char> text;
    DRAM<char> outp;
    void main(int n) {
      foreach (n) { int i =>
        ReadIt<8> r(text, i);
        ManualWriteIt<8> w(outp, i);
        *w = *r;
        r++;
        w++;
        flush(w);
      };
    }
    """

    def test_iterators_become_state_plus_tile_buffers(self):
        module = lower(self.SRC, LowerIteratorsPass())
        assert not ops_named(module, "revet.it_new")
        assert not ops_named(module, "revet.it_deref")
        # Two iterators -> two state buffers + two tile buffers.
        assert len(ops_named(module, "memref.alloc")) == 4
        # Demand refill and flush paths are guarded by scf.if.
        assert len(ops_named(module, "scf.if")) == 2
        assert ops_named(module, "revet.bulk_load")
        assert ops_named(module, "revet.bulk_store")


class TestIfToSelect:
    def test_pure_if_becomes_select(self):
        p = IfToSelectPass()
        module = lower("void f(int a) { int x = 0; if (a > 2) { x = a; } else { x = 7; } int y = x; }",
                       p)
        assert not ops_named(module, "scf.if")
        assert ops_named(module, "arith.select")
        assert p.converted == 1

    def test_if_with_memory_is_kept(self):
        src = """
        DRAM<int> out;
        void f(int a) { if (a > 2) { out[a] = 1; } }
        """
        module = lower(src, IfToSelectPass())
        assert len(ops_named(module, "scf.if")) == 1

    def test_if_with_inner_loop_is_kept(self):
        src = "void f(int a) { int x = 0; if (a) { while (x < a) { x++; }; } int y = x; }"
        module = lower(src, IfToSelectPass())
        assert len(ops_named(module, "scf.if")) == 1


class TestHierarchyElimination:
    SRC = """
    DRAM<int> out;
    void main(int n) {
      foreach (n) { int i =>
        pragma(eliminate_hierarchy);
        out[i] = i * 2;
      };
    }
    """

    def test_annotated_foreach_becomes_fork(self):
        p = HierarchyEliminationPass()
        module = lower(self.SRC, p)
        assert p.eliminated == 1
        assert len(ops_named(module, "revet.foreach")) == 0
        assert len(ops_named(module, "revet.fork")) == 1
        assert len(ops_named(module, "revet.exit")) == 1

    def test_unannotated_foreach_untouched(self):
        src = self.SRC.replace("pragma(eliminate_hierarchy);", "")
        p = HierarchyEliminationPass()
        module = lower(src, p)
        assert p.eliminated == 0
        assert len(ops_named(module, "revet.foreach")) == 1


class TestAnnotationPasses:
    SRC = """
    DRAM<char> text;
    DRAM<int> out;
    void main(int n) {
      foreach (n) { int i =>
        int len = 0;
        int extra = i + 1;
        replicate (4) {
          ReadIt<8> it(text, i);
          while (*it) { len = len + 1; it++; };
        };
        out[i] = len + extra;
      };
    }
    """

    def _module(self):
        return lower(self.SRC, LowerIteratorsPass(), AllocatorFusionPass(),
                     AllocatorHoistingPass(), BufferizeReplicatePass(),
                     SubwordPackingPass())

    def test_allocs_in_one_block_share_a_group(self):
        module = self._module()
        allocs = ops_named(module, "memref.alloc")
        groups = {a.attrs["alloc_group"] for a in allocs}
        assert len(groups) == 1  # state + tile buffer fused in the replicate body
        assert all(a.attrs["group_size"] == 2 for a in allocs)

    def test_replicate_with_single_group_is_hoisted_and_bufferized(self):
        module = self._module()
        rep = ops_named(module, "revet.replicate")[0]
        assert rep.attrs["hoisted_allocator"] is True
        assert rep.attrs["live_around_values"] >= 1  # `extra` lives around it
        assert rep.attrs["bufferized_values"] >= 1

    def test_subword_packing_records_live_counts(self):
        module = self._module()
        loops = ops_named(module, "scf.while")
        assert loops
        assert all("subword_live_values" in loop.attrs for loop in loops)
        assert all("packed_lanes" in loop.attrs for loop in loops)


class TestChangedIsTruthful:
    """``Pass.run`` returns True iff the printed module differs afterwards:
    ``PassManager`` re-verifies only after a pass that reports a change.  The
    pipeline is asked for its passes, so a new one is covered unlisted."""

    @pytest.mark.parametrize("options", [CompileOptions(), CompileOptions.none()],
                             ids=["default", "none"])
    @pytest.mark.parametrize("app", sorted(REGISTRY.names()))
    def test_every_pass_of_the_pipeline_on_every_app(self, app, options):
        module = compile_source_to_ir(REGISTRY.get(app).source)
        for each in build_pass_pipeline(options).passes:
            before = print_module(module)
            reported = each.run(module)
            assert bool(reported) == (print_module(module) != before), each.name

    def test_rerunning_an_annotating_pass_reports_no_change(self):
        module = compile_source_to_ir(REGISTRY.get("kD-tree").source)
        for each in (AllocatorFusionPass(), SubwordPackingPass()):
            assert each.run(module) is True
            assert each.run(module) is False
