"""Deterministic dataset and query generation.

Everything is derived from a splitmix64 stream so that runs are exactly
reproducible across machines: the k-th 64-bit output of a given seed is
a pure function of (seed, k). Byte streams serialize each output word
little-endian. Generated bytes can then be reinterpreted as packed
symbols of width 1..8 bits, read LSB-first within each byte, the first
bit read becoming the least significant bit of its group; a trailing
group narrower than the width is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_stream(seed: int):
    """Infinite generator of the splitmix64 outputs for a seed."""
    state = seed & _MASK
    while True:
        state = (state + _GOLDEN) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        yield z ^ (z >> 31)


def splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start..start+count-1 (0-based) as a uint64 array."""
    if count < 0:
        raise ValueError("count must be non-negative")
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + np.uint64(_GOLDEN) * idx
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


@dataclass
class Dataset:
    seed: int
    n_bytes: int
    raw: bytes


@dataclass
class SymbolSequence:
    alphabet_bits: int
    symbols: np.ndarray

    def __len__(self) -> int:
        return int(self.symbols.size)


_CHUNK_WORDS = 1 << 21  # 16 MB of output per chunk keeps temporaries small


def iter_gen_chunks(seed: int, n_bytes: int):
    """Yield the deterministic byte stream in bounded chunks."""
    if n_bytes < 0:
        raise ValueError("n_bytes must be non-negative")
    nwords = (n_bytes + 7) // 8
    for start in range(0, nwords, _CHUNK_WORDS):
        count = min(_CHUNK_WORDS, nwords - start)
        chunk = splitmix64_words(seed, start, count).astype("<u8").tobytes()
        yield chunk[:n_bytes - 8 * start]


def gen_bytes(seed: int, n_bytes: int) -> Dataset:
    """n_bytes deterministic pseudo-random bytes for a seed."""
    raw = b"".join(iter_gen_chunks(seed, n_bytes))
    return Dataset(seed=seed, n_bytes=n_bytes, raw=raw)


def reinterpret(data, bits: int) -> SymbolSequence:
    """View a byte string as packed symbols of the given bit width."""
    if bits < 1 or bits > 8:
        raise ValueError("bits must be in 1..8")
    raw = data.raw if isinstance(data, Dataset) else bytes(data)
    buf = np.frombuffer(raw, dtype=np.uint8)
    n = len(raw)
    if bits == 8:
        symbols = buf.copy()
    elif bits == 4:
        symbols = np.empty(2 * n, dtype=np.uint8)
        symbols[0::2] = buf & 0x0F
        symbols[1::2] = buf >> 4
    elif bits == 2:
        symbols = np.empty(4 * n, dtype=np.uint8)
        for k in range(4):
            symbols[k::4] = (buf >> (2 * k)) & 0x03
    elif bits == 1:
        symbols = np.unpackbits(buf, bitorder="little")
    else:
        symbols = _regroup_bits(buf, bits)
    return SymbolSequence(alphabet_bits=bits, symbols=symbols)


def _regroup_bits(buf: np.ndarray, bits: int) -> np.ndarray:
    """Generic widths: unpack to a bitstream and regroup, chunked so the
    8x blowup never materializes whole."""
    weights = (1 << np.arange(bits, dtype=np.uint8)).astype(np.uint8)
    # Chunks sized a multiple of `bits` bytes keep group boundaries on
    # chunk edges (8 * k * bits is divisible by bits).
    step = bits << 18
    parts = []
    for lo in range(0, len(buf), step):
        stream = np.unpackbits(buf[lo:lo + step], bitorder="little")
        m = (stream.size // bits) * bits
        groups = stream[:m].reshape(-1, bits)
        parts.append(groups @ weights)
    if not parts:
        return np.empty(0, dtype=np.uint8)
    return np.concatenate(parts).astype(np.uint8)


def gen_query_positions(seed: int, count: int, n: int) -> list[int]:
    """count positions uniform over 1..n, from the seed's stream."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count and n < 1:
        raise ValueError("n must be positive to draw positions")
    return [(w * n >> 64) + 1 for w in splitmix64_words(seed, 0, count).tolist()]
