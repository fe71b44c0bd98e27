"""Command line front end: gen, build, bench, sweep.

gen    write a deterministic pseudo-random byte stream to a file
build  construct a wavelet tree or forest, or an FM-index over either,
       from raw bytes and save it
bench  time batches of queries against a saved structure, CSV out
sweep  benchmark a tree and a grid of forest block sizes in one go

Every run is reproducible from its flags: data comes from `gen` seeds
and queries from the bench seed. Failures print one diagnostic line to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (DEFAULT_GRANULARITIES, aggregate_locality, emit_csv,
                    gen_rank_queries, gen_text_patterns, profile, run_bench)
from .fmindex import STRUCTURES, FmIndex
from .textgen import gen_query_positions, iter_gen_chunks, reinterpret
from .wforest import WaveletForest
from .wtree import WaveletTree

CLI_ALPHABETS = (1, 2, 3, 4, 8)

DEFAULT_BLOCK_BYTES = "50000,100000,500000,1000000,5000000,10000000"


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")] if text.strip() else []


def _check_alphabet(bits: int) -> int:
    if bits not in CLI_ALPHABETS:
        raise ValueError(f"alphabet bits must be one of {CLI_ALPHABETS}, got {bits}")
    return bits


def _block_len(block_bytes: int, alphabet_bits: int) -> int:
    if block_bytes < 1:
        raise ValueError("block bytes must be positive")
    return block_bytes * 8 // alphabet_bits


def _load_structure(path: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    kind = STRUCTURES.get(blob[:4])
    if kind is None:
        raise ValueError(f"{path}: unrecognized structure file")
    return kind.from_bytes(blob)


def cmd_gen(args) -> int:
    if args.bytes < 0:
        raise ValueError("--bytes must be non-negative")
    with open(args.out, "wb") as fh:
        for chunk in iter_gen_chunks(args.seed, args.bytes):
            fh.write(chunk)
    print(f"wrote {args.bytes} bytes to {args.out} (seed {args.seed})")
    return 0


def cmd_build(args) -> int:
    bits = _check_alphabet(args.alphabet_bits)
    with open(args.input, "rb") as fh:
        raw = fh.read()
    seq = reinterpret(raw, bits)
    block_len = None
    if args.structure in ("forest", "fm-forest"):
        if args.block_bytes is None:
            raise ValueError(f"--structure {args.structure} requires --block-bytes")
        block_len = _block_len(args.block_bytes, bits)
    elif args.block_bytes is not None:
        raise ValueError("--block-bytes only applies to --structure forest "
                         "or fm-forest")
    if args.structure == "tree":
        structure = WaveletTree.build(seq.symbols, bits)
    elif args.structure == "forest":
        structure = WaveletForest.build(seq.symbols, block_len, bits)
    else:  # an FM-index over a tree or forest backend
        structure = FmIndex.build(seq.symbols, bits, args.structure[3:],
                                  block_len)
    blob = structure.to_bytes()
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(f"built {args.structure} over {len(seq)} symbols "
          f"({bits}-bit), {len(blob)} bytes -> {args.out}; "
          f"query tables {structure.index_bytes()} bytes in memory")
    return 0


def _bench_one(structure, kind, args, block_bytes=None) -> None:
    """Time one structure and optionally profile locality; appends the
    rows to the CSV files and prints them."""
    q = args.queries
    if isinstance(structure, FmIndex) != (kind == "count"):
        raise ValueError("count benchmarks need an FM-index file"
                         if kind == "count" else
                         "access/rank benchmarks need a tree or forest file")
    if kind == "count":
        calls = [(p,) for p in gen_text_patterns(structure, args.seed, q,
                                                 args.pattern_len)]
    elif kind == "access":
        calls = [(p,) for p in gen_query_positions(args.seed, q,
                                                   len(structure))]
    else:
        calls = gen_rank_queries(args.seed, q, len(structure),
                                 1 << structure.alphabet_bits)
    rows = run_bench(structure, kind, calls, args.repeats, block_bytes)
    emit_csv(rows, args.csv)
    if args.locality_csv:
        query = getattr(structure, kind)
        traces = [profile(query, *a)[1] for a in calls[:1000]]
        emit_csv([aggregate_locality(structure, traces, g, block_bytes)
                  for g in args.granularity or DEFAULT_GRANULARITIES],
                 args.locality_csv)
    for r in rows:
        print(f"{r.structure} bits={r.alphabet_bits} block_bytes={r.block_bytes} "
              f"{r.query_kind} queries={r.queries} repeat={r.repeat}: "
              f"{r.ns_per_query:.1f} ns/query, checksum {r.checksum:#x}")


def cmd_bench(args) -> int:
    _bench_one(_load_structure(args.structure_file), args.query_kind, args)
    return 0


def cmd_sweep(args) -> int:
    alphabets = _parse_int_list(args.alphabet_bits_list)
    if not alphabets:
        raise ValueError("--alphabet-bits-list must name at least one width")
    for bits in alphabets:
        _check_alphabet(bits)
    block_sizes = _parse_int_list(args.block_bytes_list)
    kind = args.query_kind
    with open(args.input, "rb") as fh:
        raw = fh.read()

    for bits in alphabets:
        symbols = reinterpret(raw, bits).symbols
        print(f"[sweep] {bits}-bit alphabet, {len(symbols)} symbols")
        tree = WaveletTree.build(symbols, bits)
        _bench_one(tree, kind, args, block_bytes=0)
        del tree
        for bb in block_sizes:
            forest = WaveletForest.build(symbols, _block_len(bb, bits), bits)
            _bench_one(forest, kind, args, block_bytes=bb)
            del forest
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wforest",
        description="wavelet tree / wavelet forest benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write deterministic random bytes")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--bytes", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_build = sub.add_parser("build", help="build and save a structure")
    p_build.add_argument("--input", required=True, help="raw byte file")
    p_build.add_argument("--alphabet-bits", type=int, required=True,
                         choices=CLI_ALPHABETS)
    p_build.add_argument("--structure", required=True,
                         choices=("tree", "forest", "fm-tree", "fm-forest"))
    p_build.add_argument("--block-bytes", type=int, default=None,
                         help="forest block size in text bytes "
                              "(forest and fm-forest only)")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--queries", type=int, default=10_000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--repeats", type=int, default=3)
    common.add_argument("--csv", required=True)
    common.add_argument("--locality-csv", default=None)
    common.add_argument("--granularity", type=int, action="append",
                        help="locality granularity in bytes, repeatable "
                             f"(default {list(DEFAULT_GRANULARITIES)})")

    p_bench = sub.add_parser("bench", parents=[common],
                             help="benchmark a saved structure")
    p_bench.add_argument("--structure-file", required=True)
    p_bench.add_argument("--query-kind", default="access",
                         choices=("access", "rank", "count"))
    p_bench.add_argument("--pattern-len", type=int, default=8,
                         help="pattern length for count benchmarks")
    p_bench.set_defaults(func=cmd_bench)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="tree vs forest grid benchmark")
    p_sweep.add_argument("--input", required=True, help="raw byte file")
    p_sweep.add_argument("--alphabet-bits-list", default="1,2,3,4,8")
    p_sweep.add_argument("--block-bytes-list", default=DEFAULT_BLOCK_BYTES)
    p_sweep.add_argument("--query-kind", default="access",
                         choices=("access", "rank"))
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
