"""The verifier's checks, each planted deep inside nested regions; the points at
which :class:`PassManager` verifies; and the order ``walk`` yields ops in.

Every message asserted in :class:`TestDefectsAtDepth` is the one the verifier
has always produced: the class passes unchanged on the commit before the
verifier became a single scoped pre-order pass.
"""

import pytest

from repro.apps import REGISTRY
from repro.compiler import CompileOptions, build_pass_pipeline, compile_source
from repro.errors import IRError
from repro.frontend import compile_source_to_ir
from repro.ir import (
    I32,
    Builder,
    Module,
    Operation,
    Pass,
    PassManager,
    pass_manager,
    verify,
    walk_ops,
)
from repro.ir.dialects import arith, func, scf

APPS = sorted(REGISTRY.servable_names())
OPTIONS = {"default": CompileOptions(), "none": CompileOptions.none()}


class Nest:
    """``func main(%a) { while { if { while { <inner> } } else { } } }``.

    ``inner`` is the body block of the innermost loop, four regions below the
    function; ``plant`` puts an op just before its terminator.
    """

    def __init__(self):
        self.module = Module("nest")
        main = func.func(self.module, "main", [I32], [], arg_names=["a"])
        top = Builder(func.entry_block(main))
        self.arg = func.entry_block(main).args[0]
        self.outer = self._loop(top, self.arg)
        body = Builder(scf.after_block(self.outer))
        flag = arith.cmpi(body, "ne", scf.after_block(self.outer).args[0], self.arg)
        self.if_op = scf.if_(body, flag)
        scf.yield_(body, [scf.after_block(self.outer).args[0]])
        self.then = Builder(scf.then_block(self.if_op))
        self.loop = self._loop(self.then, self.arg)
        scf.yield_(self.then)
        scf.yield_(Builder(scf.else_block(self.if_op)))
        self.inner = scf.after_block(self.loop)
        scf.yield_(Builder(self.inner), [self.inner.args[0]])
        func.ret(top)

    @staticmethod
    def _loop(builder, init):
        loop = scf.while_(builder, [init])
        before = Builder(scf.before_block(loop))
        carried = scf.before_block(loop).args[0]
        scf.condition(before, arith.cmpi(before, "ne", carried, init), [carried])
        return loop

    def plant(self, op, block=None):
        block = block or self.inner
        return block.insert_before(block.terminator, op)


def rejects(nest, message):
    with pytest.raises(IRError) as error:
        verify(nest.module)
    assert message in str(error.value)


class TestDefectsAtDepth:
    def test_the_nest_itself_verifies(self):
        nest = Nest()
        verify(nest.module)
        # A value of every enclosing block is visible in the innermost one.
        outer_arg = scf.after_block(nest.outer).args[0]
        nest.plant(Operation("arith.addi", [nest.arg, outer_arg], [I32]))
        verify(nest.module)

    def test_unregistered_op(self):
        nest = Nest()
        nest.plant(Operation("bogus.op"))
        rejects(nest, "unregistered operation 'bogus.op'")

    @pytest.mark.parametrize("count, message", [
        (1, "'arith.addi' expects at least 2 operands, got 1"),
        (3, "'arith.addi' expects at most 2 operands, got 3"),
    ])
    def test_operand_counts(self, count, message):
        nest = Nest()
        nest.plant(Operation("arith.addi", [nest.arg] * count, [I32]))
        rejects(nest, message)

    def test_result_count(self):
        nest = Nest()
        nest.plant(Operation("arith.addi", [nest.arg, nest.arg], [I32, I32]))
        rejects(nest, "'arith.addi' expects 1 results, got 2")

    def test_region_count(self):
        nest = Nest()
        nest.plant(Builder().create_detached("scf.if", [nest.arg], num_regions=1))
        rejects(nest, "'scf.if' expects 2 regions, got 1")

    def test_missing_required_attribute(self):
        nest = Nest()
        nest.plant(Operation("arith.cmpi", [nest.arg, nest.arg], [I32]))
        rejects(nest, "'arith.cmpi' is missing required attribute 'predicate'")

    def test_while_before_region_terminator(self):
        nest = Nest()
        scf.before_block(nest.loop).terminator.erase()
        rejects(nest, "scf.while before-region must end with scf.condition")

    def test_while_after_region_terminator(self):
        nest = Nest()
        nest.inner.terminator.erase()
        rejects(nest, "scf.while after-region must end with scf.yield")

    def test_if_with_results_needs_yields(self):
        nest = Nest()
        bad = nest.plant(Builder().create_detached("scf.if", [nest.arg], [I32],
                                                   num_regions=2))
        scf.yield_(Builder(scf.then_block(bad)), [nest.arg])
        rejects(nest, "scf.if with results needs scf.yield terminators")

    def test_function_must_end_with_return(self):
        nest = Nest()
        nest.plant(Builder().create_detached(
            "func.func", attrs={"sym_name": "inner", "type": None}, num_regions=1))
        rejects(nest, "function 'inner' must end with func.return")

    def test_use_before_definition(self):
        nest = Nest()
        late = Operation("arith.constant", result_types=[I32], attrs={"value": 1})
        user = nest.plant(Operation("arith.addi", [late.result(), nest.arg], [I32]))
        nest.plant(late)
        assert nest.inner.operations.index(user) < nest.inner.operations.index(late)
        rejects(nest, f"operand {late.result()!r} of 'arith.addi' used before definition")

    def test_use_of_a_sibling_regions_value(self):
        nest = Nest()
        in_then = nest.plant(
            Operation("arith.constant", result_types=[I32], attrs={"value": 1}),
            block=scf.then_block(nest.if_op))
        nest.plant(Operation("arith.addi", [in_then.result(), nest.arg], [I32]),
                   block=scf.else_block(nest.if_op))
        rejects(nest, f"operand {in_then.result()!r} of 'arith.addi' used before")

    def test_use_of_the_before_regions_value_in_the_body(self):
        nest = Nest()
        flag = scf.before_block(nest.loop).operations[0].result()
        nest.plant(Operation("arith.addi", [flag, nest.arg], [I32]))
        rejects(nest, f"operand {flag!r} of 'arith.addi' used before definition")

    def test_a_value_does_not_outlive_its_block(self):
        """Defined in the innermost block, read after the loop, after the
        ``if`` and after the outer loop: none of the three may see it."""
        for escape_to in ("then", "outer body", "function"):
            nest = Nest()
            inside = nest.plant(
                Operation("arith.constant", result_types=[I32], attrs={"value": 1}))
            block = {"then": scf.then_block(nest.if_op),
                     "outer body": scf.after_block(nest.outer),
                     "function": nest.module.function("main").region(0).entry}[escape_to]
            nest.plant(Operation("arith.addi", [inside.result(), nest.arg], [I32]),
                       block=block)
            rejects(nest, f"operand {inside.result()!r} of 'arith.addi' used before")


class BreakModule(Pass):
    """Plants a use-before-definition, and says it changed the module."""

    name = "breaker"

    def run(self, module):
        block = module.function("main").region(0).entry
        late = Operation("arith.constant", result_types=[I32], attrs={"value": 1})
        block.insert_before(block.terminator,
                            Operation("arith.addi", [late.result()] * 2, [I32]))
        block.insert_before(block.terminator, late)
        return True


class TestVerificationPoints:
    def test_a_pass_that_breaks_the_module_is_named(self):
        with pytest.raises(IRError) as error:
            PassManager([BreakModule()]).run(Nest().module)
        assert str(error.value).startswith(
            "after pass 'breaker': operand %v")
        assert str(error.value).endswith("of 'arith.addi' used before definition")

    def test_a_broken_pipeline_input_is_named(self):
        nest = Nest()
        nest.plant(Operation("bogus.op"))
        with pytest.raises(IRError) as error:
            PassManager([]).run(nest.module)
        assert str(error.value) == "frontend output: unregistered operation 'bogus.op'"

    def test_verify_each_off_verifies_nowhere(self):
        nest = Nest()
        nest.plant(Operation("bogus.op"))
        PassManager([BreakModule()], verify_each=False).run(nest.module)

    @pytest.mark.parametrize("label", OPTIONS)
    def test_verifier_runs_once_plus_once_per_reported_change(self, label, monkeypatch):
        calls = []
        monkeypatch.setattr(pass_manager, "verify",
                            lambda module: calls.append(module) or verify(module))
        total = 0
        for app in APPS:
            module = compile_source_to_ir(REGISTRY.get(app).source)
            pipeline = build_pass_pipeline(OPTIONS[label])
            del calls[:]
            pipeline.run(module)
            changes = sum(timing.changed for timing in pipeline.timings)
            assert len(calls) == 1 + changes
            assert all(verified is module for verified in calls)
            total += len(calls)
        # The skipped calls are real: fewer than one per pass, summed over apps.
        assert total < len(APPS) * len(pipeline.passes)


def reference_walk(op):
    yield op
    for region in op.regions:
        for block in region.blocks:
            for nested in block.operations:
                yield from reference_walk(nested)


class TestWalk:
    @pytest.mark.parametrize("label", OPTIONS)
    @pytest.mark.parametrize("app", APPS)
    def test_preorder_equals_the_recursive_reference(self, app, label):
        module = compile_source(REGISTRY.get(app).source, options=OPTIONS[label]).module
        expected = [op for top in module.operations for op in reference_walk(top)]
        assert list(module.walk()) == expected
        assert walk_ops(module) == expected
        main = module.function("main")
        assert list(main.walk()) == list(reference_walk(main))
        assert walk_ops(main.region(0).entry) == list(reference_walk(main))[1:]

    def test_erasing_the_yielded_op_neither_skips_nor_repeats_a_sibling(self):
        nest = Nest()
        planted = [nest.plant(Operation("arith.constant", result_types=[I32],
                                        attrs={"value": i})) for i in range(4)]
        expected = list(reference_walk(nest.module.function("main")))
        seen = []
        for op in nest.module.walk():
            seen.append(op)
            if op in planted:
                op.erase()
        assert seen == expected
        assert not set(planted) & set(nest.inner.operations)
        # A block is copied when the walk reaches it, not before: an op added
        # to a later block while an earlier one is being walked is visited.
        late = Operation("arith.constant", result_types=[I32], attrs={"value": 9})
        seen = []
        for op in nest.module.walk():
            seen.append(op)
            if op is scf.then_block(nest.if_op).operations[0]:
                nest.plant(late, block=scf.else_block(nest.if_op))
        assert late in seen and seen == list(reference_walk(nest.module.function("main")))
