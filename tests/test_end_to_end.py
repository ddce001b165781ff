"""End-to-end compiler tests: Revet source -> dataflow graph -> execution."""

import pytest

from repro.compiler import CompileOptions, compile_source
from repro.core.memory import MemorySystem
from repro.errors import IRError


STRLEN_SOURCE = """
DRAM<char> input;
DRAM<int> offsets;
DRAM<int> lengths;

void main(int count) {
  foreach (count by 8) { int outer =>
    ReadView<8> in_view(offsets, outer);
    WriteView<8> out_view(lengths, outer);
    foreach (8) { int idx =>
      pragma(eliminate_hierarchy);
      int len = 0;
      int off = in_view[idx];
      replicate (4) {
        ReadIt<16> it(input, off);
        while (*it) {
          len++;
          it++;
        };
      };
      out_view[idx] = len;
    };
  };
}
"""


def run_strlen(options=None):
    strings = [b"hello", b"", b"a", b"dataflow threads", b"revet", b"x" * 40,
               b"compiler", b"vrda!"]
    blob = bytearray()
    offsets = []
    for s in strings:
        offsets.append(len(blob))
        blob.extend(s + b"\0")
    memory = MemorySystem()
    memory.load_bytes("input", bytes(blob))
    memory.dram_alloc("offsets", data=offsets)
    memory.dram_alloc("lengths", size=len(strings))
    program = compile_source(STRLEN_SOURCE, options=options)
    program.run(memory, count=len(strings))
    return memory.segment_data("lengths"), [len(s) for s in strings], program


class TestStrlenEndToEnd:
    def test_strlen_matches_reference(self):
        got, expected, _ = run_strlen()
        assert got == expected

    def test_strlen_without_optimizations(self):
        got, expected, _ = run_strlen(options=CompileOptions.none())
        assert got == expected

    def test_strlen_records_pragmas_and_drams(self):
        _, _, program = run_strlen(options=CompileOptions.none())
        assert program.dram_names == ["input", "offsets", "lengths"]
        # Without hierarchy elimination the pragma survives into the program.
        assert "eliminate_hierarchy" in program.pragmas
        assert program.arg_names[0] == "count"
        _, _, optimized = run_strlen()
        assert optimized.dram_names == ["input", "offsets", "lengths"]

    def test_graph_contains_expected_structure(self):
        program = compile_source(STRLEN_SOURCE)
        ops = program.graph.count_ops()
        assert ops.get("foreach", 0) >= 1          # outer tiling loop
        assert ops.get("replicate", 0) == 1
        assert ops.get("while", 0) == 1
        assert ops.get("fork", 0) >= 1             # hierarchy-eliminated inner foreach
        assert ops.get("bulk_load", 0) >= 1        # view + iterator refills
        assert ops.get("bulk_store", 0) >= 1       # WriteView flush


SIMPLE_SOURCES = {
    "sum_indices": (
        """
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int acc = 0;
            int j = 0;
            while (j < i) {
              acc = acc + j;
              j++;
            };
            out[i] = acc;
          };
        }
        """,
        lambda n: [sum(range(i)) for i in range(n)],
    ),
    "conditional": (
        """
        DRAM<int> data;
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int v = data[i];
            int r = 0;
            if (v % 2 == 0) { r = v * 10; } else { r = v + 1; }
            out[i] = r;
          };
        }
        """,
        None,
    ),
}


class TestSmallPrograms:
    def test_nested_while_inside_foreach(self):
        src, expected = SIMPLE_SOURCES["sum_indices"]
        memory = MemorySystem()
        memory.dram_alloc("out", size=10)
        program = compile_source(src)
        program.run(memory, n=10)
        assert memory.segment_data("out") == expected(10)

    def test_if_else_per_thread(self):
        src, _ = SIMPLE_SOURCES["conditional"]
        data = [3, 4, 7, 10, 11, 0]
        memory = MemorySystem()
        memory.dram_alloc("data", data=data)
        memory.dram_alloc("out", size=len(data))
        program = compile_source(src)
        program.run(memory, n=len(data))
        expected = [v * 10 if v % 2 == 0 else v + 1 for v in data]
        assert memory.segment_data("out") == expected

    def test_if_else_without_if_conversion(self):
        src, _ = SIMPLE_SOURCES["conditional"]
        data = [1, 2, 3, 4]
        memory = MemorySystem()
        memory.dram_alloc("data", data=data)
        memory.dram_alloc("out", size=len(data))
        program = compile_source(src, options=CompileOptions().disabled("if_to_select"))
        program.run(memory, n=len(data))
        expected = [v * 10 if v % 2 == 0 else v + 1 for v in data]
        assert memory.segment_data("out") == expected

    @pytest.mark.parametrize("executor", ["token", "columnar"])
    def test_values_are_64_bit_words(self, executor):
        """Literals are words and arithmetic wraps, folded or not."""
        src = """
        DRAM<int> data;
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int x = data[i];
            out[i * 4] = x + 0x7fffffffffffffff;
            out[i * 4 + 1] = x * 0xcc9e2d51 & 0xffffffff;
            out[i * 4 + 2] = 0xffffffffffffffff;
            out[i * 4 + 3] = 9223372036854775807 + 1;
          };
        }
        """
        data = [1, 0xFFFFFFFF, -1]
        memory = MemorySystem()
        memory.dram_alloc("data", data=data)
        memory.dram_alloc("out", size=4 * len(data))
        compile_source(src).run(memory, executor=executor, n=len(data))
        expected = []
        for x in data:
            wrapped = (x + 2**63 - 1 + 2**63) % 2**64 - 2**63
            expected += [wrapped, x * 0xCC9E2D51 & 0xFFFFFFFF, -1, -(2**63)]
        assert memory.segment_data("out") == expected

    @pytest.mark.parametrize("executor", ["token", "columnar"])
    def test_a_constant_negative_shift_is_not_folded_but_traps(self, executor):
        src = """
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i => out[i] = 1 << -1; };
        }
        """
        program = compile_source(src)
        memory = MemorySystem()
        memory.dram_alloc("out", size=2)
        with pytest.raises(ValueError, match="negative shift count"):
            program.run(memory, executor=executor, n=2)

    def test_fork_based_expansion(self):
        src = """
        DRAM<int> counts;
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int c = counts[i];
            int child = fork(c);
            if (child != 0) { exit(); }
            out[i] = c;
          };
        }
        """
        counts = [2, 3, 1]
        memory = MemorySystem()
        memory.dram_alloc("counts", data=counts)
        memory.dram_alloc("out", size=len(counts))
        program = compile_source(src)
        program.run(memory, n=len(counts))
        assert memory.segment_data("out") == counts

    def test_write_iterator_round_trip(self):
        src = """
        DRAM<char> text;
        DRAM<char> copy;
        void main(int n) {
          foreach (n) { int i =>
            ReadIt<4> r(text, i * 8);
            ManualWriteIt<4> w(copy, i * 8);
            int j = 0;
            while (j < 8) {
              *w = *r;
              r++;
              w++;
              j++;
            };
            flush(w);
          };
        }
        """
        text = b"abcdefghABCDEFGH"
        memory = MemorySystem()
        memory.load_bytes("text", text)
        memory.dram_alloc("copy", size=len(text), element_bytes=1)
        program = compile_source(src)
        program.run(memory, n=2)
        assert memory.read_bytes("copy") == text

    PEEK_SOURCE = """
    DRAM<int> text;
    DRAM<int> out;
    void main(int n) {
      foreach (n) { int i =>
        PeekReadIt<8> it(text, i * 32);
        out[i] = peek(it, K);
      };
    }
    """

    @pytest.mark.parametrize("k", [0, 3, 7, 8, 12])
    @pytest.mark.parametrize("executor", ["token", "columnar"])
    def test_peek_reads_ahead_within_its_tile(self, k, executor):
        """``PeekReadIt<8>`` peeks fewer than 8 elements ahead (Table I); a
        constant offset past the tile is refused, not read from the wrong
        tile."""
        source = self.PEEK_SOURCE.replace("K", str(k))
        if k >= 8:
            with pytest.raises(IRError, match=f"peek offset {k} lies outside"):
                compile_source(source)
            return
        memory = MemorySystem()
        memory.dram_alloc("text", data=[100 + j for j in range(4 * 32)])
        memory.dram_alloc("out", size=4)
        compile_source(source).run(memory, executor=executor, n=4)
        assert memory.segment_data("out") == [100 + 32 * i + k for i in range(4)]

    @pytest.mark.parametrize("executor", ["token", "columnar"])
    def test_deref_after_peek_reads_its_own_position(self, executor):
        src = """
        DRAM<int> text;
        DRAM<int> a;
        DRAM<int> b;
        DRAM<int> c;
        DRAM<int> d;
        void main(int n) {
          foreach (n) { int i =>
            PeekReadIt<8> it(text, i * 32);
            a[i] = peek(it, 7);
            b[i] = *it;
            int j = 0;
            while (j < 5) {
              it++;
              j++;
            };
            c[i] = peek(it, 6);
            d[i] = *it;
          };
        }
        """
        memory = MemorySystem()
        memory.dram_alloc("text", data=[100 + j for j in range(4 * 32)])
        for name in "abcd":
            memory.dram_alloc(name, size=4)
        compile_source(src).run(memory, executor=executor, n=4)
        got = [memory.segment_data(name) for name in "abcd"]
        assert got == [[100 + 32 * i + k for i in range(4)] for k in (7, 0, 11, 5)]

    def test_profile_is_collected(self):
        src, _ = SIMPLE_SOURCES["sum_indices"]
        memory = MemorySystem()
        memory.dram_alloc("out", size=4)
        program = compile_source(src)
        executor = program.run(memory, n=4, profile=True)
        assert executor.profile.node_firings.get("compute")
        assert any(executor.profile.loop_iterations.values())
