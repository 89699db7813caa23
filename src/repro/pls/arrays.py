"""Numpy round-array precompilation beside :class:`ViewFactory`.

``ViewFactory`` (``repro.pls.model``) slices python lists per vertex to
build ``LocalView`` objects.  The vectorized executor needs the same
round snapshot as flat ``int64`` arrays instead: CSR ``indptr`` /
``neighbors`` / ``incident``, plus the per-vertex identifier column.
:class:`RoundArrays` captures exactly that — it is deliberately *dumb*
(no certificate knowledge, no imports from ``repro.core``; the
dependency arrow runs ``repro.core -> repro.pls`` and must not reverse).

The module also provides a packed single-buffer representation
(:func:`pack_round_arrays` / :func:`unpack_round_arrays`) so the
artifact cache can persist a round's arrays as one int64 column and a
later process can rebuild zero-copy array views from it.

numpy is an optional dependency of the repo; importing this module
raises ``RuntimeError`` when it is absent so callers can gate cleanly
(``repro.api.vectorized`` catches this and falls back to the reference
path).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

try:  # pragma: no cover - exercised indirectly via HAVE_NUMPY
    import numpy as _np
except Exception:  # pragma: no cover - numpy is present in CI
    _np = None

HAVE_NUMPY = _np is not None

#: Sentinel for "no identifier" slots inside packed buffers.  Chosen far
#: outside the validated identifier range (see ``_check_int``) so it can
#: never collide with a real vertex id.
NONE_ID = -(1 << 61)

#: Identifiers and record ids must fit comfortably inside int64 with
#: headroom for the packed (hi << 31 | lo) segment keys the kernels use.
_ID_LIMIT = 1 << 60


class NotVectorizable(ValueError):
    """Raised when a round cannot be mirrored into flat int64 arrays."""


def _require_numpy():
    if _np is None:  # pragma: no cover - numpy is present in CI
        raise RuntimeError(
            "numpy is required for repro.pls.arrays; install it or use "
            "the serial executor"
        )
    return _np


def _check_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise NotVectorizable("%s is not a plain int: %r" % (what, value))
    if not (-_ID_LIMIT < value < _ID_LIMIT):
        raise NotVectorizable("%s out of int64 kernel range: %r" % (what, value))
    return value


class RoundArrays:
    """Flat int64 mirrors of one verification round's topology.

    Fields
    ------
    n, m:
        vertex / edge counts.
    indptr, neighbors, incident:
        the CSR arrays from :class:`repro.graphs.csr.CSRAdjacency`,
        converted to ``int64`` numpy arrays.  ``neighbors`` holds dense
        vertex indices, ``incident`` holds edge indices aligned with the
        canonical sorted edge tuple.
    identifiers:
        per-dense-vertex integer identifier (the ``ids`` assignment).
    """

    __slots__ = ("n", "m", "indptr", "neighbors", "incident", "identifiers")

    def __init__(self, n, m, indptr, neighbors, incident, identifiers):
        self.n = int(n)
        self.m = int(m)
        self.indptr = indptr
        self.neighbors = neighbors
        self.incident = incident
        self.identifiers = identifiers

    @classmethod
    def from_csr(cls, csr, identifiers: Sequence[int]) -> "RoundArrays":
        """Build from a ``CSRAdjacency`` plus an identifier column.

        ``identifiers[i]`` is the integer id of dense vertex ``i`` (the
        order of ``csr.vertices``).  Raises :class:`NotVectorizable` if
        any identifier is not a plain bounded int or collides with the
        packing sentinel.
        """
        np = _require_numpy()
        ids = [_check_int(x, "vertex identifier") for x in identifiers]
        if any(x == NONE_ID for x in ids):
            raise NotVectorizable("identifier collides with NONE_ID sentinel")
        n = len(csr.vertices)
        if len(ids) != n:
            raise NotVectorizable(
                "identifier column length %d != vertex count %d" % (len(ids), n)
            )
        return cls(
            n=n,
            m=len(csr.edges),
            indptr=np.asarray(csr.indptr, dtype=np.int64),
            neighbors=np.asarray(csr.neighbors, dtype=np.int64),
            incident=np.asarray(csr.incident, dtype=np.int64),
            identifiers=np.asarray(ids, dtype=np.int64),
        )

    def degree(self, dense_index: int) -> int:
        return int(self.indptr[dense_index + 1] - self.indptr[dense_index])


_PACK_MAGIC = 0x52415252  # "RARR"


def pack_round_arrays(arrays: RoundArrays, order: Optional[Sequence[int]] = None):
    """Serialise a :class:`RoundArrays` (+ optional vertex order) into one
    contiguous int64 buffer (the artifact cache's persisted form).

    Layout: ``[magic, n, m, len(order)] ++ indptr ++ neighbors ++
    incident ++ identifiers ++ order``.  Lengths of the CSR arrays are
    implied by ``n``/``m`` (indptr is ``n+1``, neighbors/incident are
    ``2m``).
    """
    np = _require_numpy()
    order_arr = (
        np.asarray(list(order), dtype=np.int64)
        if order is not None
        else np.zeros(0, dtype=np.int64)
    )
    header = np.array(
        [_PACK_MAGIC, arrays.n, arrays.m, order_arr.shape[0]], dtype=np.int64
    )
    return np.concatenate(
        [header, arrays.indptr, arrays.neighbors, arrays.incident,
         arrays.identifiers, order_arr]
    )


def unpack_round_arrays(buf) -> Tuple[RoundArrays, "object"]:
    """Inverse of :func:`pack_round_arrays`.

    ``buf`` is any int64 array-like (typically a column loaded from the
    artifact cache).  Returns ``(RoundArrays, order)`` where the
    array fields are zero-copy views into ``buf``.
    """
    np = _require_numpy()
    buf = np.asarray(buf, dtype=np.int64)
    if buf.shape[0] < 4 or int(buf[0]) != _PACK_MAGIC:
        raise ValueError("not a packed RoundArrays buffer")
    n, m, olen = int(buf[1]), int(buf[2]), int(buf[3])
    pos = 4
    indptr = buf[pos:pos + n + 1]; pos += n + 1
    neighbors = buf[pos:pos + 2 * m]; pos += 2 * m
    incident = buf[pos:pos + 2 * m]; pos += 2 * m
    identifiers = buf[pos:pos + n]; pos += n
    order = buf[pos:pos + olen]; pos += olen
    if pos != buf.shape[0]:
        raise ValueError("packed RoundArrays buffer has trailing bytes")
    return RoundArrays(n, m, indptr, neighbors, incident, identifiers), order
