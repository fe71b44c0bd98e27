"""Word-level helpers shared by the packed structures, and the one
encoding of a section's header word: a 4-byte magic, then byte fields."""

from __future__ import annotations

import sys

import numpy as np

_U64 = np.dtype("<u8")


def _ceil8(x):
    """x rounded up to a multiple of 8; works on ints and int64 arrays."""
    return (x + 7) & ~7


def header_word(magic: bytes, *fields: int) -> int:
    """A section's leading word: magic, then the byte fields, zero-filled."""
    return int.from_bytes(magic + bytes(fields).ljust(4, b"\0"), "little")


def header_fields(word, magic: bytes, what: str, version: int | None = None,
                  max_bits: int = 16) -> int:
    """Check a section's header word: magic, version byte if one is
    given, then alphabet_bits in 1..max_bits (trees hold at most 16),
    which it returns."""
    raw = int(word).to_bytes(8, "little")
    if raw[:4] != magic:
        raise ValueError(f"bad {what} magic")
    if version is not None and raw[4] != version:
        raise ValueError(f"unsupported {what} version {raw[4]}")
    bits = raw[4 if version is None else 5]
    if not 1 <= bits <= max_bits:
        raise ValueError(f"{what} alphabet_bits {bits} outside 1..{max_bits}")
    return bits


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an array of 0/1 bytes into little-endian 64-bit words.

    Bit i of the sequence ends up in word i // 64 at intra-word offset
    i % 64. The last word is zero-padded.
    """
    packed = np.packbits(bits, bitorder="little")
    out = np.zeros(-(-bits.size // 64) * 8, dtype=np.uint8)
    out[:packed.size] = packed
    return out.view(_U64)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word popcounts as int64."""
    return np.bitwise_count(words).astype(np.int64)


def select_in_word(word: int, j: int) -> int:
    """0-based offset of the j-th (1-based) set bit of a 64-bit word, by
    halving: skip the window's low half while it holds fewer than j set
    bits. Raises ValueError when the word holds fewer than j."""
    if not 1 <= j <= word.bit_count():
        raise ValueError("word holds fewer than j set bits")
    pos = 0
    for width in (32, 16, 8, 4, 2, 1):
        c = (word & ((1 << width) - 1)).bit_count()
        if c < j:
            j -= c
            word >>= width
            pos += width
    return pos


def select_in_words(words: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized select_in_word: 0-based offset of the r-th set bit of
    each word, as int64."""
    words = np.ascontiguousarray(words, dtype=_U64)
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    return np.argmax(np.cumsum(bits, axis=1) >= np.asarray(r)[:, None],
                     axis=1).astype(np.int64)


def ranges(starts, counts) -> np.ndarray:
    """Concatenation of arange(s, s + c) over paired starts and counts."""
    starts = np.asarray(starts, np.int64)
    counts = np.asarray(counts, np.int64)
    shift = starts - (np.cumsum(counts) - counts)
    return np.repeat(shift, counts) + np.arange(int(counts.sum()),
                                                dtype=np.int64)


def word_view(words: np.ndarray) -> memoryview:
    """View of a little-endian u64 array whose items read as Python ints,
    without copying. bitvec.rank1 reads a run of words as one
    little-endian integer, so the host must be little-endian too."""
    if sys.byteorder != "little":
        raise ValueError("packed structures need a little-endian host")
    return memoryview(words).cast("B").cast("Q")


# The integer types a table may take, smallest first, with their ranges.
_NARROW = [(np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
           for t in (np.uint8, np.int8, np.uint16, np.int16, np.uint32,
                     np.int32, np.uint64, np.int64)]


def narrowest(hi: int, lo: int = 0) -> np.dtype:
    """The smallest integer type holding every value in lo..hi."""
    return next(t for t, tmin, tmax in _NARROW if tmin <= lo and hi <= tmax)


def table(values, hi: int, lo: int = 0) -> memoryview:
    """A query table: values, all in lo..hi, as one contiguous array of
    the narrowest type that holds that range, read item by item through
    a memoryview, whose items are Python ints."""
    return memoryview(np.ascontiguousarray(values, narrowest(hi, lo)))


class TracedWords:
    """A word view that appends base + 8 * k to trace for every word k
    it serves, a slice's words in order: the byte offset, in the
    serialized layout, of each word a query reads, in the order read."""

    __slots__ = ("_mv", "_trace", "_base")

    def __init__(self, mv, trace: list, base: int):
        self._mv, self._trace, self._base = mv, trace, base

    def __getitem__(self, k):
        span = range(k.start, k.stop) if isinstance(k, slice) else (k,)
        self._trace.extend(self._base + 8 * j for j in span)
        return self._mv[k]


def truncated() -> ValueError:
    return ValueError("structure runs past the end of the buffer")


def inside(buf: np.ndarray, at) -> np.ndarray:
    """at as int64, after checking that every index lies inside buf."""
    at = np.asarray(at, np.int64)
    if at.size and (int(at.min()) < 0 or int(at.max()) >= len(buf)):
        raise truncated()
    return at


def read_words(buf: np.ndarray, at, limit: int | None = None) -> np.ndarray:
    """buf[at] as int64, after checking that every index lies inside buf
    and every value read is at most limit (default len(buf)), so that a
    value read from a damaged buffer can neither index nor size an
    allocation past it."""
    values = buf[inside(buf, at)]
    if values.size and int(values.max()) > (len(buf) if limit is None
                                            else limit):
        raise truncated()
    return values.astype(np.int64)


class WordBuffer:
    """A structure held as one array of little-endian u64 words, which is
    also its serialized form: to_bytes returns the words, from_buffer
    wraps them without copying. Subclasses index the words in __init__,
    and trim _buf to the structure's end."""

    __slots__ = ("_buf", "_mv")

    def _reader(self, trace, base: int):
        """The view a query reads its words through: the bare memoryview,
        or, given a trace list, one recording every word read at base."""
        return self._mv if trace is None else TracedWords(self._mv, trace, base)

    def size_bytes(self) -> int:
        return 8 * len(self._buf)

    def to_bytes(self) -> bytes:
        return self._buf.tobytes()

    @classmethod
    def from_buffer(cls, buf, offset: int = 0):
        """Wrap the structure at byte offset of buf, without copying;
        returns (structure, end offset)."""
        nbytes = memoryview(buf).nbytes
        if not 0 <= offset <= nbytes:
            raise truncated()
        structure = cls(np.frombuffer(buf, _U64, (nbytes - offset) // 8, offset))
        return structure, offset + structure.size_bytes()

    @classmethod
    def from_bytes(cls, blob):
        return cls.from_buffer(blob)[0]
