"""Wavelet trees and wavelet forests over rank/select bitvectors.

A wavelet forest cuts the text into fixed-length blocks, builds one
small Huffman-shaped wavelet tree per block, and keeps a per-block
table of starting ranks, so a query touches one block-sized slice of
the structure instead of ranging across whole level bitmaps. The
package bundles the structures, an FM-index on either backend, a
deterministic data/query generator, and a benchmark harness with an
exact access-locality profiler.
"""

__version__ = "0.1.0"

from .bench import (BenchResult, LocalityProfile, LocalitySummary,
                    aggregate_locality, emit_csv, gen_rank_queries,
                    gen_text_patterns, profile, run_bench, summarize_locality)
from .bitvec import BitVector
from .fmindex import Bwt, FmIndex, build_bwt
from .huffman import CodeTable, build_code_table, zeroth_order_entropy
from .textgen import (Dataset, SymbolSequence, gen_bytes,
                      gen_query_positions, reinterpret, splitmix64_stream)
from .wforest import WaveletForest
from .wtree import WaveletTree

__all__ = [
    "BenchResult", "BitVector", "Bwt", "CodeTable", "Dataset", "FmIndex",
    "LocalityProfile", "LocalitySummary", "SymbolSequence", "WaveletForest",
    "WaveletTree", "aggregate_locality", "build_bwt", "build_code_table",
    "emit_csv", "gen_bytes", "gen_query_positions", "gen_rank_queries",
    "gen_text_patterns", "profile", "reinterpret", "run_bench",
    "splitmix64_stream", "summarize_locality", "zeroth_order_entropy",
]
