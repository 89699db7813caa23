"""Columnar bulk codec: one interning pass over a whole labeling.

:meth:`EncodedLabeling.decode` rebuilds each edge's label independently,
so equal-content :class:`~repro.core.certificates.BasicInfo` and record
objects come back as *distinct* python objects — one fresh object graph
per edge even though certificates overwhelmingly share sub-structure
(the same tree node's info appears on every incident edge of its
subtree).  That costs decode time, resident memory, and — since PR 8 —
kernel compile time: the vectorized executors intern certificates by
content, and interning distinct-but-equal objects pays a deep dataclass
hash per occurrence where an identity hit would be a dict lookup.

:func:`decode_labeling_columnar` decodes a whole labeling in one bulk
pass instead.  The header's widths and tables are read once.  Each
label's bytes become one integer, and every field comes out of it by
shift and mask — with the reference decoder's checks (a read past
``bit_length``, a ``bit_length`` beyond the data, trailing bits, an
empty stack, a record starting with a ``V`` info, and invalid kind,
id, state and tag codes all raise :class:`~repro.codec.wire.CodecError`).  Every component is interned:
an info by its raw run (the fixed head of kind, node and lane mask
fixes the width of the rest, ``2·popcount(mask)·id_bits +
class_bits``), a pointer by its fixed-width raw run, a record by the
identities of its interned parts plus its scalar bits, a certificate
stack by its record identities.  So each distinct info or pointer is
parsed and validated once and every later occurrence is one dict hit;
because interned sub-objects are unique per content, the identity keys
are content-faithful without ever hashing a dataclass.  The result is
``==`` to the reference decode — pinned by tier-1 tests, including a
malformed-input fuzz against it — but maximally shared: the kernel
compiler's ``id()`` memo then hits once per distinct certificate
instead of once per edge.  The reference
:func:`~repro.codec.wire.decode_label` and
:class:`~repro.codec.bitio.BitReader` stay as the independent oracle.

:class:`ColumnarEncoder` is the encode-direction twin: instead
of running one pure-Python :class:`~repro.codec.bitio.BitWriter` loop
per label, it packs every field of every label into one flat
interleaved column of ``(payload << 6) | payload_bits`` integers —
memoizing each distinct info / record / certificate object's packed
run by identity, so shared sub-structure is walked once and replayed
as an O(1) list extend — and emits the whole labeling in a single
numpy pass (:meth:`~repro.codec.bitio.BitWriter.write_many`).  Each
label is zero-padded to a byte boundary inside the column (exactly the
padding :meth:`BitWriter.to_bytes` would emit), so the per-label byte
strings are *byte-identical* to
:func:`repro.codec.wire.encode_labeling` — property-tested in tier-1.
Any representability surprise (numpy missing, a field wider than the
57-bit packing limit, codec errors) falls back to the reference
encoder wholesale.
"""

from __future__ import annotations

from repro.core.certificates import (
    BasicInfo,
    BLevelRecord,
    EdgeCertificate,
    ELevelRecord,
    EmbeddedRecord,
    PLevelRecord,
    Theorem1Label,
    TLevelRecord,
)
from repro.codec.bitio import BitStreamError, BitWriter
from repro.codec.bitio import _np
from repro.courcelle.algebra import canonical_state_repr
from repro.codec.wire import (
    _KIND_BITS,
    _KIND_CODES,
    _KIND_NAMES,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    WireHeader,
    _EncodeMemo,
    encode_labeling,
)
from repro.pls.pointer import PointerLabel
from repro.pls.scheme import Labeling


def _truncated(need: int, have: int) -> CodecError:
    return CodecError(
        f"malformed label encoding: truncated stream: need {need} bits, "
        f"have {have}"
    )


def decode_labeling_columnar(encoded: EncodedLabeling) -> Labeling:
    """Decode a whole labeling with cross-edge structure sharing.

    Equal (``==``) to :meth:`EncodedLabeling.decode`'s result; differs
    only in object identity — shared sub-structure is decoded once and
    referenced everywhere it occurs.  Raises :class:`CodecError` on
    exactly the inputs the reference decoder rejects.

    Each label's bytes become one integer; a field is read by shifting
    it down to the cursor ``s`` (the count of still-unread bits to its
    right, so a read past ``bit_length`` is ``s < 0``) and masking.
    """
    h = encoded.header
    # Header-derived widths and tables, read once per labeling.
    id_table = h.id_table
    states = h.states
    tag_table = h.tags
    id_bits = h.id_index_bits
    id_mask = (1 << id_bits) - 1
    class_bits = h.class_bits
    class_mask = (1 << class_bits) - 1
    tag_bits = h.tag_bits
    tag_mask = (1 << tag_bits) - 1
    lane_index_bits = h.lane_index_bits
    lane_index_mask = (1 << lane_index_bits) - 1
    lane_bits = h.lane_bits
    lane_mask = (1 << lane_bits) - 1
    node_width = h.node_width
    node_mask = (1 << node_width) - 1
    counter_width = h.counter_width
    counter_mask = (1 << counter_width) - 1
    depth_width = h.depth_width
    depth_mask = (1 << depth_width) - 1
    embed_width = h.embed_width
    embed_mask = (1 << embed_width) - 1
    path_width = h.path_width
    path_mask = (1 << path_width) - 1
    child_width = h.child_width
    child_mask = (1 << child_width) - 1
    # Fixed-width runs: an info head (kind, node, lane mask), a pointer,
    # a T record's pointer + root id, the B and E scalar tails, and an
    # embedded record's ids and ranks.
    head_width = _KIND_BITS + node_width + lane_bits
    pointer_width = 3 * id_bits + 2 * counter_width
    t_tail_width = pointer_width + node_width
    t_tail_mask = (1 << t_tail_width) - 1
    b_tail_width = 2 * lane_index_bits + tag_bits + 2
    b_tail_mask = (1 << b_tail_width) - 1
    e_tail_width = 2 * id_bits + tag_bits
    e_tail_mask = (1 << e_tail_width) - 1
    embed_head_width = 2 * id_bits + 2 * counter_width
    embed_head_mask = (1 << embed_head_width) - 1

    # Interning tables.  Infos and pointers are keyed by their raw runs,
    # so each distinct one is parsed and validated once; records and
    # stacks are keyed by the identities of their (unique) interned
    # parts, so no dataclass is ever hashed.
    lane_specs = {}  # lane mask -> (run width, run mask, infos, lanes)
    infos_by_lanes = {}  # lane count -> {raw info run: info}
    pointers = {}
    records = {}
    certs = {}

    def new_lane_spec(mask):
        lanes = tuple(lane for lane in range(lane_bits) if mask >> lane & 1)
        width = head_width + 2 * len(lanes) * id_bits + class_bits
        spec = lane_specs[mask] = (
            width,
            (1 << width) - 1,
            # One table per run width, so equal raw integers of
            # different widths never share a key.
            infos_by_lanes.setdefault(len(lanes), {}),
            lanes,
        )
        return spec

    def new_info(spec, raw):
        width, _mask, infos, lanes = spec
        shift = width - _KIND_BITS
        kind_code = raw >> shift
        if kind_code not in _KIND_NAMES:
            raise CodecError(f"invalid kind code {kind_code}")
        shift -= node_width
        node_id = (raw >> shift & node_mask) - 1
        shift -= lane_bits
        in_ids = []
        for lane in lanes:
            shift -= id_bits
            in_ids.append((lane, id_table[raw >> shift & id_mask]))
        out_ids = []
        for lane in lanes:
            shift -= id_bits
            out_ids.append((lane, id_table[raw >> shift & id_mask]))
        info = infos[raw] = BasicInfo(
            kind=_KIND_NAMES[kind_code],
            node_id=node_id,
            lanes=lanes,
            in_ids=tuple(in_ids),
            out_ids=tuple(out_ids),
            state=states[raw & class_mask],
        )
        return info

    def read_info(v, s):
        # The fixed head ends with the lane mask, which fixes the width
        # of the rest; then the whole run is one read and one dict hit.
        s -= head_width
        if s < 0:
            raise _truncated(head_width, s + head_width)
        mask = v >> s & lane_mask
        spec = lane_specs.get(mask) or new_lane_spec(mask)
        s += head_width - spec[0]
        if s < 0:
            raise _truncated(spec[0] - head_width, s + spec[0] - head_width)
        raw = v >> s & spec[1]
        return spec[2].get(raw) or new_info(spec, raw), s

    def new_pointer(raw):
        shift = pointer_width - id_bits
        target = id_table[raw >> shift & id_mask]
        shift -= id_bits
        id_a = id_table[raw >> shift & id_mask]
        shift -= counter_width
        dist_a = raw >> shift & counter_mask
        shift -= id_bits
        id_b = id_table[raw >> shift & id_mask]
        pointer = PointerLabel(
            target_id=target,
            id_a=id_a,
            dist_a=dist_a,
            id_b=id_b,
            dist_b=raw & counter_mask,
        )
        pointers[raw] = pointer
        return pointer

    def read_record(v, s):
        info, s = read_info(v, s)
        kind = info.kind
        if kind == "T":
            member_info, s = read_info(v, s)
            member_subtree, s = read_info(v, s)
            s -= child_width
            if s < 0:
                raise _truncated(child_width, s + child_width)
            children = []
            for _ in range(v >> s & child_mask):
                child, s = read_info(v, s)
                children.append(child)
            s -= t_tail_width
            if s < 0:
                raise _truncated(t_tail_width, s + t_tail_width)
            tail = v >> s & t_tail_mask
            raw = tail >> node_width
            pointer = pointers.get(raw) or new_pointer(raw)
            root_raw = tail & node_mask
            key = (
                id(info),
                id(member_info),
                id(member_subtree),
                tuple(map(id, children)),
                id(pointer),
                root_raw,
            )
            record = records.get(key)
            if record is None:
                record = records[key] = TLevelRecord(
                    info=info,
                    member_info=member_info,
                    member_subtree=member_subtree,
                    child_subtrees=tuple(children),
                    pointer=pointer,
                    root_member_id=root_raw - 1,
                )
            return record, s
        if kind == "B":
            left, s = read_info(v, s)
            right, s = read_info(v, s)
            s -= b_tail_width
            if s < 0:
                raise _truncated(b_tail_width, s + b_tail_width)
            tail = v >> s & b_tail_mask
            key = (id(info), id(left), id(right), tail)
            record = records.get(key)
            if record is None:
                shift = b_tail_width - lane_index_bits
                i = tail >> shift & lane_index_mask
                shift -= lane_index_bits
                j = tail >> shift & lane_index_mask
                record = records[key] = BLevelRecord(
                    info=info,
                    left=left,
                    right=right,
                    bridge=(i, j),
                    bridge_tag=tag_table[tail >> 2 & tag_mask],
                    side=(tail & 3) - 1,
                )
            return record, s
        if kind == "E":
            s -= e_tail_width
            if s < 0:
                raise _truncated(e_tail_width, s + e_tail_width)
            tail = v >> s & e_tail_mask
            key = (id(info), tail)
            record = records.get(key)
            if record is None:
                record = records[key] = ELevelRecord(
                    info=info,
                    in_id=id_table[tail >> (id_bits + tag_bits) & id_mask],
                    out_id=id_table[tail >> tag_bits & id_mask],
                    tag=tag_table[tail & tag_mask],
                )
            return record, s
        if kind == "P":
            s -= path_width
            if s < 0:
                raise _truncated(path_width, s + path_width)
            id_codes = []
            for _ in range(v >> s & path_mask):
                s -= id_bits
                if s < 0:
                    raise _truncated(id_bits, s + id_bits)
                id_codes.append(v >> s & id_mask)
            s -= path_width
            if s < 0:
                raise _truncated(path_width, s + path_width)
            tag_codes = []
            for _ in range(v >> s & path_mask):
                s -= tag_bits
                if s < 0:
                    raise _truncated(tag_bits, s + tag_bits)
                tag_codes.append(v >> s & tag_mask)
            s -= counter_width
            if s < 0:
                raise _truncated(counter_width, s + counter_width)
            position = v >> s & counter_mask
            key = (id(info), tuple(id_codes), tuple(tag_codes), position)
            record = records.get(key)
            if record is None:
                record = records[key] = PLevelRecord(
                    info=info,
                    vertex_ids=tuple(id_table[code] for code in id_codes),
                    tags=tuple(tag_table[code] for code in tag_codes),
                    position=position,
                )
            return record, s
        raise CodecError(f"record cannot start with a {kind!r} node info")

    def read_certificate(v, s):
        s -= depth_width
        if s < 0:
            raise _truncated(depth_width, s + depth_width)
        depth = v >> s & depth_mask
        if depth < 1:
            raise CodecError("certificate stack cannot be empty")
        stack = []
        for _ in range(depth):
            record, s = read_record(v, s)
            stack.append(record)
        key = tuple(map(id, stack))
        cert = certs.get(key)
        if cert is None:
            cert = certs[key] = EdgeCertificate(tuple(stack))
        return cert, s

    mapping = {}
    try:
        for edge, e in encoded.labels.items():
            data = e.data
            bit_length = e.bit_length
            total = 8 * len(data)
            limit = total if bit_length is None else bit_length
            if limit > total:
                raise CodecError(
                    "malformed label encoding: bit_length exceeds the "
                    "supplied data"
                )
            # Drop the padding: the label is the low ``limit`` bits.
            v = int.from_bytes(data, "big") >> (total - limit)
            certificate, s = read_certificate(v, limit)
            s -= embed_width
            if s < 0:
                raise _truncated(embed_width, s + embed_width)
            embedded = []
            for _ in range(v >> s & embed_mask):
                s -= embed_head_width
                if s < 0:
                    raise _truncated(embed_head_width, s + embed_head_width)
                raw = v >> s & embed_head_mask
                payload, s = read_certificate(v, s)
                embedded.append(
                    EmbeddedRecord(
                        u_id=id_table[
                            raw >> (id_bits + 2 * counter_width) & id_mask
                        ],
                        v_id=id_table[raw >> (2 * counter_width) & id_mask],
                        forward=raw >> counter_width & counter_mask,
                        backward=raw & counter_mask,
                        payload=payload,
                    )
                )
            if bit_length is not None and s:
                raise CodecError(
                    f"trailing data: read {limit - s} of {bit_length} bits"
                )
            mapping[edge] = Theorem1Label(
                certificate=certificate, embedded=tuple(embedded)
            )
    except IndexError as exc:
        raise CodecError(f"malformed label encoding: {exc}") from exc
    return Labeling(
        location=encoded.location,
        mapping=mapping,
        size_context=h.size_context(),
    )


_PACK_LIMIT = 57  # max payload bits per interleaved column entry


def _pack_fields(values, widths, out) -> int:
    """Validate and pack raw ``(value, width)`` fields into ``out``.

    Each appended entry interleaves up to 57 payload bits with the
    entry's own bit count in one non-negative ``int64``-sized integer:
    ``(payload << 6) | payload_bits``.  Splitting points are invisible
    on the wire — concatenating the entries' payloads MSB-first yields
    exactly the raw field sequence — so any grouping preserves byte
    identity.  Returns the total payload bit count.  Raises
    :class:`BitStreamError` on a value/width mismatch (mirroring
    :meth:`BitWriter.write`) and :class:`CodecError` for a single field
    wider than the packing limit (the caller falls back to the
    reference encoder).
    """
    acc = 0
    bits = 0
    total = 0
    for v, w in zip(values, widths):
        if v < 0 or v >> w:
            raise BitStreamError(f"value {v} does not fit in {w} bits")
        if bits + w > _PACK_LIMIT:
            if bits:
                out.append((acc << 6) | bits)
                acc = 0
                bits = 0
            if w > _PACK_LIMIT:
                raise CodecError(
                    f"{w}-bit field exceeds the bulk packing limit"
                )
        acc = (acc << w) | v
        bits += w
        total += w
    if bits:
        out.append((acc << 6) | bits)
    return total


class ColumnarEncoder:
    """Shared interning state for one bulk encode (one header).

    Mirrors the reference ``_encode_*`` functions field-for-field, but
    instead of writing bits eagerly it packs fields into one flat
    interleaved column (:func:`_pack_fields`).  Each distinct info /
    record / certificate object's packed run is built once (keyed by
    identity, like ``_EncodeMemo``) and replayed by list extension, so
    a certificate shared by a thousand edges is walked exactly once and
    replays as a handful of integer appends.
    """

    __slots__ = (
        "header",
        "_memo",
        "_runs",
        "_record_runs",
        "_cert_runs",
        "_tails",
        "_t_tail_widths",
        "_b_widths",
        "_e_widths",
        "_b_total",
        "_e_total",
        "_info_widths",
        "_w_id",
        "_w_class",
        "_w_tag",
        "_w_lane_index",
        "_ids",
        "_tag_index",
        "_state_index",
        "_state_codes",
        "_canonical",
    )

    def __init__(self, header: WireHeader, memo=None):
        self.header = header
        # Only the canonical-state cache of the reference memo is used;
        # holding one keeps ``state_code`` lookups identical.
        self._memo = memo if memo is not None else _EncodeMemo()
        self._canonical = self._memo.canonical
        # Identity-keyed packed runs (see _pack_fields for the entry
        # format).  id(info) / id(record) / id(cert) -> (obj, packed
        # tuple, payload bits).  Element 0 pins the keyed object so the
        # id() key stays valid for the cache's lifetime.
        self._runs = {}
        self._record_runs = {}
        self._cert_runs = {}
        # pad width -> the shared "no embedded records" label tail.
        self._tails = {}
        # The derived widths are recomputed properties on the header;
        # the bulk walk touches them per field, so snapshot them once —
        # likewise the raw lookup dicts behind id/tag/state_code.
        self._w_id = header.id_index_bits
        self._w_class = header.class_bits
        self._w_tag = header.tag_bits
        self._w_lane_index = header.lane_index_bits
        self._ids = header._lookup("_id_index", header.id_table, lambda x: x)
        self._tag_index = header._lookup("_tag_index", header.tags, repr)
        self._state_index = header._lookup(
            "_state_index", header.states, canonical_state_repr
        )
        # id(state) -> (state, code): resolves each distinct state
        # object's class index exactly once per encoder.
        self._state_codes = {}
        cw = header.counter_width
        # Fixed scalar-field width patterns (pointer + root id tail of a
        # T record; the B and E scalar groups).
        self._t_tail_widths = (
            self._w_id,
            self._w_id,
            cw,
            self._w_id,
            cw,
            header.node_width,
        )
        self._b_widths = (
            self._w_lane_index,
            self._w_lane_index,
            self._w_tag,
            2,
        )
        self._e_widths = (self._w_id, self._w_id, self._w_tag)
        # Inline fast-path totals for the fixed scalar groups: usable
        # only when the whole group fits one packed entry.
        e_total = sum(self._e_widths)
        self._e_total = e_total if e_total <= _PACK_LIMIT else None
        b_total = sum(self._b_widths)
        self._b_total = b_total if b_total <= _PACK_LIMIT else None
        # number of id fields -> the info width pattern.
        self._info_widths = {}

    # -- field-run builders (same order as the reference encoders) ----
    def _info_run(self, info):
        """``(info, packed tuple, payload bits)``, cached by identity."""
        hit = self._runs.get(id(info))
        if hit is None:
            kind_code = _KIND_CODES.get(info.kind)
            if kind_code is None:
                raise CodecError(f"unknown node kind {info.kind!r}")
            mask = 0
            for lane in info.lanes:
                mask |= 1 << lane
            ids = self._ids
            state = info.state
            codes = self._state_codes
            chit = codes.get(id(state))
            if chit is None:
                chit = (state, self._state_index[self._canonical(state)])
                codes[id(state)] = chit
            vals = [kind_code, info.node_id + 1, mask]
            vals += [ids[x] for _lane, x in info.in_ids]
            vals += [ids[x] for _lane, x in info.out_ids]
            vals.append(chit[1])
            id_fields = len(info.in_ids) + len(info.out_ids)
            widths = self._info_widths.get(id_fields)
            if widths is None:
                h = self.header
                widths = (
                    (_KIND_BITS, h.node_width, h.lane_bits)
                    + (self._w_id,) * id_fields
                    + (self._w_class,)
                )
                self._info_widths[id_fields] = widths
            out = []
            bits = _pack_fields(vals, widths, out)
            hit = (info, tuple(out), bits)
            self._runs[id(info)] = hit
        return hit

    def _build_record(self, record, out) -> int:
        """Append ``record``'s packed run to ``out``; return its bits."""
        h = self.header
        runs = self._runs
        info_run = self._info_run
        info = record.info
        hit = runs.get(id(info)) or info_run(info)
        out += hit[1]
        bits = hit[2]
        if isinstance(record, TLevelRecord):
            info = record.member_info
            hit = runs.get(id(info)) or info_run(info)
            out += hit[1]
            bits += hit[2]
            info = record.member_subtree
            hit = runs.get(id(info)) or info_run(info)
            out += hit[1]
            bits += hit[2]
            count = len(record.child_subtrees)
            width = h.child_width
            if count >> width or width > _PACK_LIMIT:
                _pack_fields((count,), (width,), out)  # raise as generic
            out.append((count << 6) | width)
            bits += width
            for child in record.child_subtrees:
                hit = runs.get(id(child)) or info_run(child)
                out += hit[1]
                bits += hit[2]
            pointer = record.pointer
            ids = self._ids
            bits += _pack_fields(
                (
                    ids[pointer.target_id],
                    ids[pointer.id_a],
                    pointer.dist_a,
                    ids[pointer.id_b],
                    pointer.dist_b,
                    record.root_member_id + 1,
                ),
                self._t_tail_widths,
                out,
            )
        elif isinstance(record, BLevelRecord):
            info = record.left
            hit = runs.get(id(info)) or info_run(info)
            out += hit[1]
            bits += hit[2]
            info = record.right
            hit = runs.get(id(info)) or info_run(info)
            out += hit[1]
            bits += hit[2]
            i, j = record.bridge
            tag = self._tag_index[repr(record.bridge_tag)]
            side = record.side + 1
            total = self._b_total
            w_lane = self._w_lane_index
            w_tag = self._w_tag
            if (
                total is None
                or i < 0
                or i >> w_lane
                or j < 0
                or j >> w_lane
                or side < 0
                or side >> 2
            ):
                bits += _pack_fields(
                    (i, j, tag, side), self._b_widths, out
                )
            else:
                out.append(
                    ((((i << w_lane | j) << w_tag | tag) << 2 | side) << 6)
                    | total
                )
                bits += total
        elif isinstance(record, ELevelRecord):
            ids = self._ids
            a = ids[record.in_id]
            b = ids[record.out_id]
            tag = self._tag_index[repr(record.tag)]
            total = self._e_total
            w_id = self._w_id
            w_tag = self._w_tag
            if total is None or tag >> w_tag:
                bits += _pack_fields(
                    (a, b, tag), self._e_widths, out
                )
            else:
                out.append(
                    (((a << w_id | b) << w_tag | tag) << 6) | total
                )
                bits += total
        elif isinstance(record, PLevelRecord):
            ids = self._ids
            tag_index = self._tag_index
            vals = [len(record.vertex_ids)]
            vals += [ids[x] for x in record.vertex_ids]
            vals.append(len(record.tags))
            vals += [tag_index[repr(tag)] for tag in record.tags]
            vals.append(record.position)
            widths = (
                (h.path_width,)
                + (self._w_id,) * len(record.vertex_ids)
                + (h.path_width,)
                + (self._w_tag,) * len(record.tags)
                + (h.counter_width,)
            )
            bits += _pack_fields(vals, widths, out)
        else:
            raise CodecError(
                f"unknown record type {type(record).__name__}"
            )
        return bits

    def _record_run(self, record):
        """``(record, packed tuple, payload bits)``, cached."""
        hit = self._record_runs.get(id(record))
        if hit is None:
            out = []
            bits = self._build_record(record, out)
            hit = (record, tuple(out), bits)
            self._record_runs[id(record)] = hit
        return hit

    def _cert_run(self, cert):
        """One certificate's full run: depth field + stacked records.

        Assembled by replaying the member records' cached packed runs —
        record stacks share suffixes aggressively (the builder's
        stack-sharing), so each distinct record's Python fields are
        touched exactly once per encode and a certificate replays as a
        single small tuple extend.
        """
        hit = self._cert_runs.get(id(cert))
        if hit is None:
            out = []
            depth = len(cert.stack)
            width = self.header.depth_width
            if depth >> width or width > _PACK_LIMIT:
                _pack_fields((depth,), (width,), out)  # raise as generic
            out.append((depth << 6) | width)
            bits = width
            record_runs = self._record_runs
            record_run = self._record_run
            for record in cert.stack:
                rhit = record_runs.get(id(record)) or record_run(record)
                out += rhit[1]
                bits += rhit[2]
            hit = (cert, tuple(out), bits)
            self._cert_runs[id(cert)] = hit
        return hit

    # ------------------------------------------------------------------
    def encode(self, labeling: Labeling) -> EncodedLabeling:
        """Bulk-encode ``labeling`` against this encoder's header."""
        h = self.header
        counter_width = h.counter_width
        embed_width = h.embed_width
        w_id = self._w_id
        ids = self._ids
        column = []
        keys = []
        bit_lengths = []
        byte_counts = []
        cert_runs = self._cert_runs
        cert_run = self._cert_run
        tails = self._tails
        embed_widths = (w_id, w_id, counter_width, counter_width)
        embed_total = 2 * w_id + 2 * counter_width
        if embed_total > _PACK_LIMIT:
            embed_total = None
        for key, label in labeling.mapping.items():
            if not isinstance(label, Theorem1Label):
                raise CodecError(
                    f"expected a Theorem1Label, got {type(label).__name__}"
                )
            keys.append(key)
            cert = label.certificate
            chit = cert_runs.get(id(cert)) or cert_run(cert)
            column += chit[1]
            bits = chit[2]
            if label.embedded:
                count = len(label.embedded)
                if count >> embed_width or embed_width > _PACK_LIMIT:
                    _pack_fields((count,), (embed_width,), column)
                column.append((count << 6) | embed_width)
                bits += embed_width
                for record in label.embedded:
                    fwd = record.forward
                    bwd = record.backward
                    if (
                        embed_total is None
                        or fwd < 0
                        or fwd >> counter_width
                        or bwd < 0
                        or bwd >> counter_width
                    ):
                        bits += _pack_fields(
                            (
                                ids[record.u_id],
                                ids[record.v_id],
                                fwd,
                                bwd,
                            ),
                            embed_widths,
                            column,
                        )
                    else:
                        column.append(
                            (
                                (
                                    (
                                        (ids[record.u_id] << w_id)
                                        | ids[record.v_id]
                                    )
                                    << counter_width
                                    | fwd
                                )
                                << counter_width
                                | bwd
                            )
                            << 6
                            | embed_total
                        )
                        bits += embed_total
                    payload = record.payload
                    phit = cert_runs.get(id(payload)) or cert_run(payload)
                    column += phit[1]
                    bits += phit[2]
                pad = -bits % 8
                if pad:
                    # The zero padding BitWriter.to_bytes() appends:
                    # every label starts byte-aligned in the column
                    # (packed entry: payload 0, ``pad`` payload bits).
                    column.append(pad)
            else:
                bits += embed_width
                pad = -bits % 8
                tail = tails.get(pad)
                if tail is None:
                    grow = []
                    _pack_fields((0,), (embed_width,), grow)
                    if pad:
                        grow.append(pad)
                    tail = tuple(grow)
                    tails[pad] = tail
                column += tail
            bit_lengths.append(bits)
            byte_counts.append((bits + (-bits % 8)) // 8)
        writer = BitWriter()
        if column:
            col = _np.fromiter(column, _np.int64, len(column))
            writer.write_many(col >> 6, col & 63)
        data = writer.to_bytes()
        labels = {}
        offset = 0
        for key, bits, nbytes in zip(keys, bit_lengths, byte_counts):
            labels[key] = EncodedLabel(
                data=data[offset:offset + nbytes], bit_length=bits
            )
            offset += nbytes
        return EncodedLabeling(
            header=self.header, labels=labels, location=labeling.location
        )


def encode_labeling_columnar(labeling: Labeling, header=None):
    """Bulk twin of :func:`repro.codec.wire.encode_labeling`.

    Byte-identical output (same header, same per-label bytes and bit
    lengths); the only difference is cost — one interned field-column
    pass plus a single vectorized packing instead of a per-label bit
    loop.  Falls back to the reference encoder wholesale when numpy is
    unavailable or the labeling trips anything the bulk path cannot
    represent (so callers never need to care which path ran).
    """
    if _np is None:
        return encode_labeling(labeling, header)
    try:
        memo = _EncodeMemo()
        built = header
        if built is None:
            built = WireHeader.for_labeling(labeling, memo)
        return ColumnarEncoder(built, memo).encode(labeling)
    except Exception:
        return encode_labeling(labeling, header)
