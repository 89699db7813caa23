"""MSB-first bit-level I/O for the certificate wire format.

:class:`BitWriter` packs fixed-width unsigned fields into a byte string;
:class:`BitReader` unpacks them in the same order.  Fields are written
most-significant-bit first, so the byte stream is a straight left-to-right
transcription of the format diagrams in ``docs/FORMAT.md``: the first
field written occupies the highest bits of the first byte.

The writer tracks the exact number of *semantic* bits
(:attr:`BitWriter.bit_length`) separately from the zero-padded byte
output of :meth:`BitWriter.to_bytes` — the measured certificate size the
reports quote is the former, never the padding.
"""

from __future__ import annotations


class BitStreamError(ValueError):
    """Raised on malformed writes (value overflow) or truncated reads."""


class BitWriter:
    """Accumulates fixed-width unsigned integers into a bit stream."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0  # bits not yet flushed to _bytes
        self._acc_bits = 0

    @property
    def bit_length(self) -> int:
        """Exact number of bits written so far (excludes padding)."""
        return 8 * len(self._bytes) + self._acc_bits

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as a ``width``-bit big-endian field."""
        if width < 0:
            raise BitStreamError("field width must be non-negative")
        if value < 0 or value >> width:
            raise BitStreamError(
                f"value {value} does not fit in {width} bits"
            )
        acc = (self._acc << width) | value
        bits = self._acc_bits + width
        # Drain whole bytes in one C-level conversion: wide fields (the
        # codec replays memoized multi-kilobit runs as single writes)
        # would otherwise pay a quadratic python shift loop.
        whole, rest = bits >> 3, bits & 7
        if whole:
            self._bytes += (acc >> rest).to_bytes(whole, "big")
            acc &= (1 << rest) - 1
        self._acc = acc
        self._acc_bits = rest

    def write_flag(self, flag: bool) -> None:
        """Append a single bit."""
        self.write(1 if flag else 0, 1)

    def to_bytes(self) -> bytes:
        """Return the stream, zero-padded up to the next byte boundary."""
        out = bytes(self._bytes)
        if self._acc_bits:
            out += bytes([(self._acc << (8 - self._acc_bits)) & 0xFF])
        return out


class BitReader:
    """Reads fixed-width unsigned integers back out of a bit stream."""

    def __init__(self, data: bytes, bit_length: int = None):
        """``bit_length`` bounds the readable bits (default: all of
        ``data``); reads past it raise :class:`BitStreamError` instead of
        silently consuming padding."""
        self._data = data
        self._limit = 8 * len(data) if bit_length is None else bit_length
        if self._limit > 8 * len(data):
            raise BitStreamError("bit_length exceeds the supplied data")
        self._pos = 0

    @property
    def position(self) -> int:
        """Bits consumed so far."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Readable bits left before the stream (or limit) ends."""
        return self._limit - self._pos

    def read(self, width: int) -> int:
        """Consume and return the next ``width``-bit unsigned field."""
        if width < 0:
            raise BitStreamError("field width must be non-negative")
        if self._pos + width > self._limit:
            raise BitStreamError(
                f"truncated stream: need {width} bits, have {self.remaining}"
            )
        value = 0
        pos = self._pos
        need = width
        while need:
            byte = self._data[pos >> 3]
            offset = pos & 7
            take = min(8 - offset, need)
            chunk = (byte >> (8 - offset - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
            need -= take
        self._pos = pos
        return value

    def read_flag(self) -> bool:
        """Consume and return a single bit."""
        return bool(self.read(1))


def width_for(count: int) -> int:
    """Field width needed to index ``count`` distinct values (min 1)."""
    if count < 0:
        raise BitStreamError("count must be non-negative")
    return max(1, (max(count, 2) - 1).bit_length())


def width_for_value(value: int) -> int:
    """Field width needed to store values ``0..value`` (min 1)."""
    if value < 0:
        raise BitStreamError("value must be non-negative")
    return max(1, value.bit_length())
