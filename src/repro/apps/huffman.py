"""huff-enc / huff-dec: canonical Huffman coding (Table III rows 6-7).

The code table is a canonical prefix code over 64 symbols with a maximum
length of 16 bits, built from a geometric symbol distribution.  Each thread
encodes (or decodes) one fixed-size block of symbols into (or from) its own
region of the packed bitstream, so threads are independent.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.apps.base import AppInstance, AppSpec, REGISTRY, seeded_rng
from repro.core.memory import MemorySystem

NUM_SYMBOLS = 64
MAX_LEN = 16
SYMBOLS_PER_THREAD = 64
WORDS_PER_THREAD = 48  # worst case: 64 symbols * <=16 bits < 48 * 32 bits

ENCODE_SOURCE = """
DRAM<int> symbols_in;
DRAM<int> code;
DRAM<int> length;
DRAM<int> bits_out;
DRAM<int> out;

void main(int count, int per_thread, int words_per_thread) {
  foreach (count) { int t =>
    int acc = 0;
    int nbits = 0;
    int outw = t * words_per_thread;
    int n = 0;
    while (n < per_thread) {
      int s = symbols_in[t * per_thread + n];
      int c = code[s];
      int l = length[s];
      acc = (acc << l) | c;
      nbits = nbits + l;
      if (nbits >= 32) {
        int extra = nbits - 32;
        bits_out[outw] = (acc >> extra) & 0xffffffff;
        acc = acc & ((1 << extra) - 1);
        outw = outw + 1;
        nbits = extra;
      }
      n = n + 1;
    };
    if (nbits > 0) {
      bits_out[outw] = (acc << (32 - nbits)) & 0xffffffff;
      outw = outw + 1;
    }
    out[t] = outw - t * words_per_thread;
  };
}
"""

DECODE_SOURCE = """
DRAM<int> bits;
DRAM<int> first_code;
DRAM<int> first_index;
DRAM<int> counts;
DRAM<int> symbols;
DRAM<int> out;

void main(int count, int per_thread, int words_per_thread) {
  foreach (count) { int t =>
    int bitpos = t * words_per_thread * 32;
    int n = 0;
    while (n < per_thread) {
      int code = 0;
      int len = 0;
      int found = 0;
      while (found == 0) {
        int word = bits[bitpos / 32];
        int bit = (word >> (31 - (bitpos % 32))) & 1;
        code = code * 2 + bit;
        len = len + 1;
        bitpos = bitpos + 1;
        int offset = code - first_code[len];
        if (offset >= 0 && offset < counts[len]) {
          out[t * per_thread + n] = symbols[first_index[len] + offset];
          found = 1;
        }
      };
      n = n + 1;
    };
  };
}
"""


def build_canonical_code(weights: List[int]) -> Tuple[List[int], List[int]]:
    """Build canonical Huffman (code, length) tables from symbol weights."""
    heap = [(w, i, (i,)) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    lengths = [0] * len(weights)
    if len(heap) == 1:
        lengths[0] = 1
    while len(heap) > 1:
        wa, _, syms_a = heapq.heappop(heap)
        wb, _, syms_b = heapq.heappop(heap)
        for s in syms_a + syms_b:
            lengths[s] += 1
        heapq.heappush(heap, (wa + wb, min(syms_a + syms_b), syms_a + syms_b))
    # Canonical code assignment: sort by (length, symbol).
    order = sorted(range(len(weights)), key=lambda s: (lengths[s], s))
    codes = [0] * len(weights)
    code = 0
    prev_len = 0
    for sym in order:
        code <<= lengths[sym] - prev_len
        codes[sym] = code
        prev_len = lengths[sym]
        code += 1
    return codes, lengths


def build_decode_tables(codes: List[int], lengths: List[int]):
    """first_code / first_index / counts per length, plus canonical symbols."""
    order = sorted(range(len(codes)), key=lambda s: (lengths[s], s))
    counts = [0] * (MAX_LEN + 1)
    for s in order:
        counts[lengths[s]] += 1
    first_code = [0] * (MAX_LEN + 1)
    first_index = [0] * (MAX_LEN + 1)
    code = 0
    index = 0
    for ln in range(1, MAX_LEN + 1):
        code <<= 1
        first_code[ln] = code
        first_index[ln] = index
        code += counts[ln]
        index += counts[ln]
    return first_code, first_index, counts, order


def encode_reference(symbols: List[int], codes: List[int], lengths: List[int],
                     words_per_thread: int) -> Tuple[List[int], int]:
    """Encode one thread's block exactly as the kernel does."""
    words = []
    acc = 0
    nbits = 0
    for s in symbols:
        acc = (acc << lengths[s]) | codes[s]
        nbits += lengths[s]
        if nbits >= 32:
            extra = nbits - 32
            words.append((acc >> extra) & 0xFFFFFFFF)
            acc &= (1 << extra) - 1
            nbits = extra
    if nbits > 0:
        words.append((acc << (32 - nbits)) & 0xFFFFFFFF)
    used = len(words)
    words = words + [0] * (words_per_thread - len(words))
    return words, used


def _generate_symbols(rng, count: int) -> List[int]:
    symbols = []
    for _ in range(count):
        value = min(NUM_SYMBOLS - 1, int(rng.expovariate(1 / 8.0)))
        symbols.append(value)
    return symbols


def _weights(symbols: List[int]) -> List[int]:
    weights = [1] * NUM_SYMBOLS
    for s in symbols:
        weights[s] += 1
    return weights


def generate_encode(count: int, seed: int = 0) -> AppInstance:
    rng = seeded_rng(seed)
    symbols = _generate_symbols(rng, count * SYMBOLS_PER_THREAD)
    codes, lengths = build_canonical_code(_weights(symbols))
    memory = MemorySystem()
    memory.dram_alloc("symbols_in", data=symbols)
    memory.dram_alloc("code", data=codes)
    memory.dram_alloc("length", data=lengths)
    memory.dram_alloc("bits_out", size=count * WORDS_PER_THREAD)
    memory.dram_alloc("out", size=count)
    return AppInstance(
        memory=memory,
        args={"count": count, "per_thread": SYMBOLS_PER_THREAD,
              "words_per_thread": WORDS_PER_THREAD},
        context={"symbols": symbols, "codes": codes, "lengths": lengths},
        total_bytes=count * SYMBOLS_PER_THREAD * 4,
    )


def reference_encode(instance: AppInstance):
    symbols = instance.context["symbols"]
    codes, lengths = instance.context["codes"], instance.context["lengths"]
    count = len(symbols) // SYMBOLS_PER_THREAD
    used = []
    for t in range(count):
        block = symbols[t * SYMBOLS_PER_THREAD:(t + 1) * SYMBOLS_PER_THREAD]
        _, words_used = encode_reference(block, codes, lengths, WORDS_PER_THREAD)
        used.append(words_used)
    return used


def generate_decode(count: int, seed: int = 0) -> AppInstance:
    rng = seeded_rng(seed)
    symbols = _generate_symbols(rng, count * SYMBOLS_PER_THREAD)
    codes, lengths = build_canonical_code(_weights(symbols))
    first_code, first_index, counts, order = build_decode_tables(codes, lengths)
    bitstream = []
    for t in range(count):
        block = symbols[t * SYMBOLS_PER_THREAD:(t + 1) * SYMBOLS_PER_THREAD]
        words, _ = encode_reference(block, codes, lengths, WORDS_PER_THREAD)
        bitstream.extend(words)
    memory = MemorySystem()
    memory.dram_alloc("bits", data=bitstream)
    memory.dram_alloc("first_code", data=first_code)
    memory.dram_alloc("first_index", data=first_index)
    memory.dram_alloc("counts", data=counts)
    memory.dram_alloc("symbols", data=order)
    memory.dram_alloc("out", size=count * SYMBOLS_PER_THREAD)
    return AppInstance(
        memory=memory,
        args={"count": count, "per_thread": SYMBOLS_PER_THREAD,
              "words_per_thread": WORDS_PER_THREAD},
        context={"symbols": symbols},
        total_bytes=count * SYMBOLS_PER_THREAD * 4,
    )


def reference_decode(instance: AppInstance):
    return list(instance.context["symbols"])


ENCODE_SPEC = REGISTRY.register(AppSpec(
    name="huff-enc",
    description="Huffman compression, 64 codes with 16-bit maximum length",
    source=ENCODE_SOURCE,
    key_features=["ManualWriteIt", "while"],
    bytes_per_thread=256,
    avg_iterations_per_thread=SYMBOLS_PER_THREAD,
    paper_revet_gbs=409.0,
    paper_gpu_gbs=172.0,
    paper_cpu_gbs=35.0,
    generate=generate_encode,
    reference=reference_encode,
))

DECODE_SPEC = REGISTRY.register(AppSpec(
    name="huff-dec",
    description="Huffman decompression, 64 codes with 16-bit maximum length",
    source=DECODE_SOURCE,
    key_features=["ReadIt", "nested while"],
    bytes_per_thread=256,
    avg_iterations_per_thread=SYMBOLS_PER_THREAD * 6,
    paper_revet_gbs=380.0,
    paper_gpu_gbs=97.0,
    paper_cpu_gbs=19.0,
    generate=generate_decode,
    reference=reference_decode,
))
