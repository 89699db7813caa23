"""Columnar bulk decoder: one interning pass over a whole labeling.

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
from repro.codec.wire import (
    _KIND_BITS,
    _KIND_NAMES,
    CodecError,
    EncodedLabeling,
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

