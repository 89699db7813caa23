"""Batched numpy verification kernels.

The reference verifier (:mod:`repro.core.verifier`) checks one
:class:`~repro.pls.model.LocalView` at a time in pure python.  This
module evaluates a *whole round* as flat array kernels instead:

1. **Compile** — every edge certificate is interned by content
   (records, infos, stacks, tags all become dense integer ids), the
   pure per-record re-derivations (leaf classes, ``f_B`` bridge
   recompositions, ``f_P`` member folds) are evaluated once per unique
   record through the reference's own memoized functions, and each
   stack is assigned a *path id* chain mirroring the reference's
   recursive grouping (T-levels split by member node, B-levels by
   side).
2. **Kernel** — the round's (vertex, depth) incidences are expanded
   into rows, one ``np.lexsort`` over ``(vertex, path, next-path)``
   makes every reference "group" a contiguous segment, and all
   group-level checks (record equality, pointer rounds, bridge sides,
   path positions, the T-node member rules) become segment reductions
   and sorted-key joins.
3. **Fallback** — the kernels are *accept-only*: a vertex is
   kernel-accepted only when every reference check provably passes on
   the interned representation.  Anything unrepresentable (non-integer
   identifiers, unhashable adversarial fields, exotic record shapes)
   or failing *flags* the vertex, and flagged vertices are re-checked
   by the reference ``LocalView`` path — so rejections keep full
   per-vertex diagnostics and the round verdict is identical to the
   reference executors' by construction.  The hypothesis differential
   suite in ``tests/test_vectorized.py`` pins this equivalence.
"""

from __future__ import annotations

import hashlib
import os
from time import perf_counter
from typing import Optional

try:  # pragma: no cover - numpy is present in CI
    import numpy as np
except Exception:  # pragma: no cover
    np = None

from repro.api.plan import config_fingerprint
from repro.api.runtime import (
    VerificationExecutor,
    _ChunkOutcome,
    _run_range,
)
from repro.core.certificates import (
    BasicInfo,
    BLevelRecord,
    EdgeCertificate,
    ELevelRecord,
    PLevelRecord,
    Theorem1Label,
    TLevelRecord,
)
from repro.core.scheme import CertifyingScheme
from repro.core.verifier import (
    recompute_bridge,
    recompute_leaf_state,
    recompute_parent_fold,
)
from repro.codec.wire import WIRE_VERSION
from repro.courcelle.boundary import REAL, VIRTUAL
from repro.pls.arrays import (
    NONE_ID,
    NotVectorizable,
    RoundArrays,
    pack_round_arrays,
    unpack_round_arrays,
)
from repro.pls.model import ViewFactory
from repro.pls.pointer import PointerLabel

HAVE_NUMPY = np is not None

#: Record-type codes (column ``r_type``); -1 marks an unrepresentable
#: record, which flags every stack containing it.
_T, _B, _E, _P = 0, 1, 2, 3

#: Bound on any integer stored in a kernel column.  Far inside int64 so
#: packed keys and ``x - 1`` arithmetic can never wrap or collide with
#: the sentinels below.
_LIM = 1 << 60

#: "no value" sentinel (missing pointer record, ``out_id(...) is None``).
#: Outside the validated ``(-_LIM, _LIM)`` range, so it never equals a
#: real identifier or distance.
_MISS = NONE_ID

_SEG_SHIFT = 1 << 31

#: Version of the persisted compiled-round envelope
#: (:meth:`KernelRound.export_state`).  Bumped whenever the kernel table
#: layout or semantics change: a mismatched envelope is a cache *miss*
#: (the round recompiles), never an error.
COMPILED_ROUND_VERSION = 1

#: ``_Tables`` columns by dtype — the envelope stores exactly these, and
#: :meth:`KernelRound.from_state` re-coerces and bounds-checks each one.
_STATE_BOOL_COLS = (
    "r_root", "r_fold", "r_rmc", "r_ptok", "r_bok", "r_eok",
    "r_ptagok", "r_pok", "st_flag",
)
_STATE_I64_COLS = (
    "r_type", "r_info", "r_rmid", "r_minfo", "r_msub", "r_cs",
    "r_ptgt", "r_pida", "r_pda", "r_pidb", "r_pdb",
    "r_bleft", "r_bright", "r_bbr", "r_btag", "r_side",
    "r_ep1", "r_ep2", "r_etag", "r_ein", "r_eout",
    "r_pvids", "r_ptags", "r_ppos", "r_ptagc", "r_plen",
    "ch_counts", "ch_indptr", "ch_cid",
    "ch_ids_counts", "ch_ids_indptr", "ch_ids_flat",
    "min_counts", "min_indptr", "min_lane", "min_id",
    "tin", "pid_keys", "pid_t",
    "st_len", "st_indptr", "st_rec", "st_path", "st_next",
    "me_code",
)

#: Columns with one entry per interned record.
_STATE_RECORD_COLS = tuple(
    c for c in _STATE_I64_COLS + _STATE_BOOL_COLS if c.startswith("r_")
) + ("ch_counts", "min_counts")


def _dtype_signature():
    """Numpy dtype signature baked into every envelope: a restore on a
    platform whose int64/bool wire forms differ must miss, not load."""
    return (np.dtype(np.int64).str, np.dtype(bool).str)


class Unvectorizable(Exception):
    """The whole round cannot run under the kernels (full fallback)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class _BadRecord(Exception):
    """A record field the kernels cannot represent soundly."""


def _ival(x) -> int:
    """Validate a plain bounded int (bools and int subclasses rejected).

    The kernels compare identifiers with ``==`` on int64 columns; any
    value whose python ``==`` semantics differ from int64 equality
    (floats, bools, custom classes) must flag the record instead, so
    the reference path decides.
    """
    if type(x) is not int or not (-_LIM < x < _LIM):
        raise _BadRecord("unrepresentable integer field")
    return x


def _grouped_arange(counts):
    """[0..c0-1, 0..c1-1, ...] for an int64 counts array."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def _boundaries(*cols):
    """Start indices of maximal runs where every column is constant."""
    nrows = cols[0].shape[0]
    if nrows == 0:
        return np.zeros(0, dtype=np.int64)
    change = np.zeros(nrows, dtype=bool)
    change[0] = True
    for col in cols:
        change[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(change)


class _Interner:
    """Content-interning with an id() fast path.

    The prover shares record objects across edges but also builds fresh
    equal-content objects per call (``BasicInfo``); interning first by
    object identity and then by content collapses both into one dense
    id.  Interned objects are kept alive so id() keys stay valid.
    """

    __slots__ = ("by_id", "by_key", "objs")

    def __init__(self):
        self.by_id = {}
        self.by_key = {}
        self.objs = []

    def __len__(self) -> int:
        return len(self.objs)

    def intern(self, obj) -> int:
        oid = id(obj)
        hit = self.by_id.get(oid)
        if hit is not None:
            return hit
        cid = self.by_key.get(obj)  # TypeError (unhashable) propagates
        if cid is None:
            cid = len(self.objs)
            self.by_key[obj] = cid
        self.objs.append(obj)  # keep alive: id() keys must stay unique
        self.by_id[oid] = cid
        return cid


class _Tables:
    """Finalized numpy columns (plain attribute bag)."""


class KernelRound:
    """One round compiled for the kernels.

    Parameters
    ----------
    arrays:
        :class:`~repro.pls.arrays.RoundArrays` — CSR + identifiers.
    edge_labels:
        Per-edge label column aligned with the CSR edge index
        (``ViewFactory.edge_certificates``).
    algebra, max_width:
        The Theorem 1 verifier profile of the scheme.

    ``run(order)`` returns ``(accept, stats)``: ``accept[i]`` is True
    iff the kernels *prove* the reference verifier accepts dense vertex
    ``order[i]``; every other vertex must go through the reference
    fallback.  Compilation is incremental — only edges incident to
    requested vertices are ever interned — so subset rounds (the
    incremental recertifier's dirty regions) pay proportional cost.
    """

    def __init__(self, arrays: RoundArrays, edge_labels, algebra, max_width):
        if np is None:  # pragma: no cover
            raise Unvectorizable("numpy unavailable")
        self._n = arrays.n
        self._m = arrays.m
        self._indptr = arrays.indptr
        self._incident = arrays.incident
        self._ids_np = arrays.identifiers
        self._ids_py = [int(x) for x in arrays.identifiers.tolist()]
        self._edge_labels = edge_labels
        self._algebra = algebra
        self._max_width = max_width

        self._infos = _Interner()
        self._tags = _Interner()
        self._misc = _Interner()
        self._real_cid = self._tags.intern(REAL)
        self._virtual_cid = self._tags.intern(VIRTUAL)

        self._rec_by_id = {}
        self._rec_by_key = {}
        self._keep = []
        self._info_meta = {}
        self._idcode = {}
        # Int-keyed memos over interned sub-components: the deep
        # recomputations (folds, bridges) and derived columns repeat
        # across records that share members, and hashing small int
        # tuples is far cheaper than hashing nested dataclasses.
        self._cs_memo = {}
        self._minp_memo = {}
        self._fold_memo = {}
        self._rmc_memo = {}
        self._bok_memo = {}
        self._tin_keys = []
        self._pid_entries = []
        self._paths = {}
        self._path_count = 1  # 0 is the root path

        # Per-record columns (python lists; finalized to numpy).
        self._r_type = []
        self._r_info = []
        self._r_sel = []
        self._r_root = []
        self._r_rmid = []
        self._r_minfo = []
        self._r_msub = []
        self._r_cs = []
        self._r_fold = []
        self._r_rmc = []
        self._r_ptok = []
        self._r_ptgt = []
        self._r_pida = []
        self._r_pda = []
        self._r_pidb = []
        self._r_pdb = []
        self._r_children = []
        self._r_chids = []
        self._r_minpairs = []
        self._r_bleft = []
        self._r_bright = []
        self._r_bbr = []
        self._r_btag = []
        self._r_bok = []
        self._r_side = []
        self._r_bkl = []
        self._r_bkr = []
        self._r_ep1 = []
        self._r_ep2 = []
        self._r_etag = []
        self._r_ein = []
        self._r_eout = []
        self._r_eok = []
        self._r_leaf = []
        self._r_pvids = []
        self._r_ptags = []
        self._r_ppos = []
        self._r_ptagc = []
        self._r_ptagok = []
        self._r_pok = []
        self._r_plen = []

        # Per-stack tables (flattened at finalize).
        self._cert_by_id = {}
        self._stack_by_key = {}
        self._s_recs = []
        self._s_path = []
        self._s_next = []
        self._s_flag = []

        self._edge_sid = np.full(self._m, -3, dtype=np.int64)
        self._edge_emb = {}
        self._t: Optional[_Tables] = None
        self._dirty = True
        self.compile_seconds = 0.0
        # Attached (persisted-envelope) rounds skip the compile path:
        # the tables, edge stacks, and virtual-port results below were
        # restored by :meth:`from_state` instead of being compiled.
        self._attached = False
        self._vp_map: dict = {}
        self._vp_bad: set = set()

    # -- value/paths interning ------------------------------------------

    def _code_of(self, value: int) -> int:
        code = self._idcode.get(value)
        if code is None:
            code = len(self._idcode)
            self._idcode[value] = code
        return code

    def _path_of(self, parent: int, token) -> int:
        key = (parent, token)
        pid = self._paths.get(key)
        if pid is None:
            pid = self._path_count
            self._path_count += 1
            self._paths[key] = pid
        return pid

    # -- record extraction ----------------------------------------------

    def _new_record(self, rec, hashable: bool) -> int:
        cid = len(self._r_type)
        self._r_type.append(-1)
        self._r_info.append(0)
        self._r_sel.append(("bad",))
        self._r_root.append(False)
        self._r_rmid.append(0)
        self._r_minfo.append(0)
        self._r_msub.append(0)
        self._r_cs.append(0)
        self._r_fold.append(False)
        self._r_rmc.append(False)
        self._r_ptok.append(False)
        self._r_ptgt.append(0)
        self._r_pida.append(_MISS)
        self._r_pda.append(0)
        self._r_pidb.append(_MISS)
        self._r_pdb.append(0)
        self._r_children.append(())
        self._r_chids.append(())
        self._r_minpairs.append(())
        self._r_bleft.append(0)
        self._r_bright.append(0)
        self._r_bbr.append(0)
        self._r_btag.append(0)
        self._r_bok.append(False)
        self._r_side.append(0)
        self._r_bkl.append(False)
        self._r_bkr.append(False)
        self._r_ep1.append(_MISS)
        self._r_ep2.append(_MISS)
        self._r_etag.append(0)
        self._r_ein.append(0)
        self._r_eout.append(0)
        self._r_eok.append(False)
        self._r_leaf.append(False)
        self._r_pvids.append(0)
        self._r_ptags.append(0)
        self._r_ppos.append(0)
        self._r_ptagc.append(0)
        self._r_ptagok.append(False)
        self._r_pok.append(False)
        self._r_plen.append(0)
        if hashable:
            self._rec_by_key[rec] = cid
        try:
            self._extract(rec, cid)
        except Exception:
            # Unrepresentable record: every stack holding it is flagged
            # and its vertices take the reference path.
            self._r_type[cid] = -1
        self._dirty = True
        return cid

    def _intern_record(self, rec) -> int:
        oid = id(rec)
        hit = self._rec_by_id.get(oid)
        if hit is not None:
            return hit
        self._keep.append(rec)
        try:
            cid = self._rec_by_key.get(rec)
            hashable = True
        except TypeError:
            cid = None
            hashable = False
        if cid is None:
            cid = self._new_record(rec, hashable)
        self._rec_by_id[oid] = cid
        return cid

    def _info_meta_for(self, info: BasicInfo, icid: int) -> dict:
        meta = self._info_meta.get(icid)
        if meta is not None:
            return meta
        t_ok = True
        try:
            pairs = [(_ival(lane), _ival(x)) for lane, x in info.in_ids]
        except Exception:
            t_ok = False
            pairs = []
        if t_ok:
            for lane, x in pairs:
                if 0 <= lane < 256:
                    code = self._code_of(x)
                    self._tin_keys.append((((icid << 8) | lane) << 31) | code)
        try:
            lanes = info.lanes
            width = len(lanes)
            root_ok = 1 <= width <= self._max_width and lanes == tuple(
                range(width)
            )
            if root_ok:
                root_ok = bool(
                    self._algebra.accepts(info.state, len(info.boundary_ids))
                )
        except Exception:
            root_ok = False
        meta = {"t_ok": t_ok, "root_ok": bool(root_ok)}
        self._info_meta[icid] = meta
        return meta

    def _extract(self, rec, cid: int) -> None:
        info = rec.info
        if not isinstance(info, BasicInfo):
            raise _BadRecord("info is not a BasicInfo")
        icid = self._infos.intern(info)
        self._r_info[cid] = icid
        if isinstance(rec, TLevelRecord):
            self._extract_t(rec, cid, info, icid)
        elif isinstance(rec, BLevelRecord):
            self._extract_b(rec, cid, info)
        elif isinstance(rec, ELevelRecord):
            self._extract_e(rec, cid, info)
        elif isinstance(rec, PLevelRecord):
            self._extract_p(rec, cid, info)
        else:
            raise _BadRecord("unknown record type")

    def _extract_t(self, rec, cid: int, info, icid: int) -> None:
        meta = self._info_meta_for(info, icid)
        if not meta["t_ok"]:
            raise _BadRecord("T info in-terminals unrepresentable")
        minfo = rec.member_info
        msub = rec.member_subtree
        if not isinstance(minfo, BasicInfo) or not isinstance(msub, BasicInfo):
            raise _BadRecord("member infos are not BasicInfo")
        mnode = _ival(minfo.node_id)
        rmid = _ival(rec.root_member_id)
        cs = rec.child_subtrees
        if not isinstance(cs, tuple):
            raise _BadRecord("child_subtrees is not a tuple")
        ptr = rec.pointer
        if not isinstance(ptr, PointerLabel):
            raise _BadRecord("pointer is not a PointerLabel")
        self._r_ptgt[cid] = _ival(ptr.target_id)
        self._r_pida[cid] = _ival(ptr.id_a)
        self._r_pda[cid] = _ival(ptr.dist_a)
        self._r_pidb[cid] = _ival(ptr.id_b)
        self._r_pdb[cid] = _ival(ptr.dist_b)
        self._r_ptok[cid] = True
        minfo_cid = self._infos.intern(minfo)
        msub_cid = self._infos.intern(msub)
        cs_cid = self._misc.intern(cs)
        cs_cols = self._cs_memo.get(cs_cid)
        if cs_cols is None:
            try:
                children = []
                chids = []
                for child in cs:
                    if not isinstance(child, BasicInfo):
                        raise _BadRecord("child subtree is not a BasicInfo")
                    children.append(self._infos.intern(child))
                    chids.append(
                        tuple(_ival(x) for _lane, x in child.in_ids)
                    )
                cs_cols = (tuple(children), tuple(chids))
            except Exception:
                cs_cols = False
            self._cs_memo[cs_cid] = cs_cols
        if cs_cols is False:
            raise _BadRecord("child subtree unrepresentable")
        minp = self._minp_memo.get(msub_cid)
        if minp is None:
            try:
                minp = tuple(
                    (_ival(lane), _ival(x)) for lane, x in msub.in_ids
                )
            except Exception:
                minp = False
            self._minp_memo[msub_cid] = minp
        if minp is False:
            raise _BadRecord("member in-terminals unrepresentable")
        self._r_minpairs[cid] = minp
        self._r_minfo[cid] = minfo_cid
        self._r_msub[cid] = msub_cid
        self._r_cs[cid] = cs_cid
        self._r_children[cid] = cs_cols[0]
        self._r_chids[cid] = cs_cols[1]
        self._r_rmid[cid] = rmid
        self._r_sel[cid] = ("m", mnode)
        self._r_root[cid] = meta["root_ok"]
        fold_key = (minfo_cid, msub_cid, cs_cid)
        fold_ok = self._fold_memo.get(fold_key)
        if fold_ok is None:
            try:
                state, _b, in_ids, out_ids = recompute_parent_fold(
                    self._algebra, minfo, cs
                )
                fold_ok = (
                    state == msub.state
                    and in_ids == msub.in_ids
                    and out_ids == msub.out_ids
                )
            except Exception:
                fold_ok = False
            fold_ok = bool(fold_ok)
            self._fold_memo[fold_key] = fold_ok
        self._r_fold[cid] = fold_ok
        if mnode == rmid:
            rmc_key = (msub_cid, icid)
            rmc = self._rmc_memo.get(rmc_key)
            if rmc is None:
                try:
                    rmc = (
                        msub.state == info.state
                        and msub.in_ids == info.in_ids
                        and msub.out_ids == info.out_ids
                        and msub.lanes == info.lanes
                    )
                except Exception:
                    rmc = False
                rmc = bool(rmc)
                self._rmc_memo[rmc_key] = rmc
            self._r_rmc[cid] = rmc
        else:
            self._r_rmc[cid] = True
        self._r_type[cid] = _T

    def _extract_b(self, rec, cid: int, info) -> None:
        left = rec.left
        right = rec.right
        if not isinstance(left, BasicInfo) or not isinstance(right, BasicInfo):
            raise _BadRecord("bridge children are not BasicInfo")
        bridge = rec.bridge
        if not isinstance(bridge, tuple) or len(bridge) != 2:
            raise _BadRecord("bridge is not a 2-tuple")
        i, j = bridge
        side = rec.side
        if side not in (-1, 0, 1):
            raise _BadRecord("invalid bridge side marker")
        self._r_side[cid] = int(side)
        self._r_sel[cid] = ("s", side)
        left_cid = self._infos.intern(left)
        right_cid = self._infos.intern(right)
        br_cid = self._misc.intern(bridge)
        btag_cid = self._tags.intern(rec.bridge_tag)
        self._r_bleft[cid] = left_cid
        self._r_bright[cid] = right_cid
        self._r_bbr[cid] = br_cid
        self._r_btag[cid] = btag_cid
        icid = self._r_info[cid]
        bok_key = (left_cid, right_cid, br_cid, btag_cid, icid)
        cols = self._bok_memo.get(bok_key)
        if cols is None:
            try:
                ep1 = left.out_id(i)
                ep2 = right.out_id(j)
                ep1 = _MISS if ep1 is None else _ival(ep1)
                ep2 = _MISS if ep2 is None else _ival(ep2)
            except Exception:
                cols = False
                self._bok_memo[bok_key] = cols
            if cols is None:
                try:
                    state, _b, in_ids, out_ids = recompute_bridge(
                        self._algebra, left, right, i, j, rec.bridge_tag
                    )
                    ok = (
                        state == info.state
                        and in_ids == info.in_ids
                        and out_ids == info.out_ids
                    )
                except Exception:
                    ok = False
                for child in (left, right):
                    if child.kind == "V":
                        try:
                            vok = (
                                child.in_ids == child.out_ids
                                and len(child.lanes) == 1
                                and child.state
                                == self._algebra.new_vertices(1)
                            )
                        except Exception:
                            vok = False
                        ok = ok and vok
                cols = (
                    bool(ok),
                    ep1,
                    ep2,
                    left.kind == "T",
                    right.kind == "T",
                )
                self._bok_memo[bok_key] = cols
        if cols is False:
            raise _BadRecord("bridge endpoints unrepresentable")
        self._r_bok[cid] = cols[0]
        self._r_ep1[cid] = cols[1]
        self._r_ep2[cid] = cols[2]
        self._r_bkl[cid] = cols[3]
        self._r_bkr[cid] = cols[4]
        self._r_type[cid] = _B

    def _extract_e(self, rec, cid: int, info) -> None:
        e_in = _ival(rec.in_id)
        e_out = _ival(rec.out_id)
        self._r_etag[cid] = self._tags.intern(rec.tag)
        self._r_ein[cid] = e_in
        self._r_eout[cid] = e_out
        try:
            lanes = info.lanes
            lane = lanes[0]
            shape = (
                len(lanes) == 1
                and info.in_ids == ((lane, rec.in_id),)
                and info.out_ids == ((lane, rec.out_id),)
            )
        except Exception:
            shape = False
        self._r_eok[cid] = bool(shape and e_in != e_out)
        try:
            self._r_leaf[cid] = bool(
                recompute_leaf_state(self._algebra, rec) == info.state
            )
        except Exception:
            self._r_leaf[cid] = False
        self._r_sel[cid] = ("x",)
        self._r_type[cid] = _E

    def _extract_p(self, rec, cid: int, info) -> None:
        ids = rec.vertex_ids
        tags = rec.tags
        if not isinstance(ids, tuple) or not isinstance(tags, tuple):
            raise _BadRecord("P-node ids/tags are not tuples")
        vals = [_ival(x) for x in ids]
        pos = rec.position
        if type(pos) is not int or not (-_LIM < pos < _LIM):
            raise _BadRecord("P-node position unrepresentable")
        self._r_pvids[cid] = self._misc.intern(ids)
        self._r_ptags[cid] = self._misc.intern(tags)
        self._r_ppos[cid] = pos
        try:
            tag_at = tags[pos]
        except Exception:
            self._r_ptagok[cid] = False
        else:
            self._r_ptagc[cid] = self._tags.intern(tag_at)
            self._r_ptagok[cid] = True
        try:
            lanes = info.lanes
            shape = (
                len(lanes) == len(ids)
                and info.in_ids == tuple(zip(lanes, ids))
                and info.out_ids == tuple(zip(lanes, ids))
            )
        except Exception:
            shape = False
        self._r_pok[cid] = bool(
            len(set(vals)) == len(vals)
            and len(tags) == len(ids) - 1
            and shape
        )
        self._r_plen[cid] = len(ids)
        for t_index, x in enumerate(vals):
            self._pid_entries.append(
                (cid * _SEG_SHIFT + self._code_of(x), t_index)
            )
        try:
            self._r_leaf[cid] = bool(
                recompute_leaf_state(self._algebra, rec) == info.state
            )
        except Exception:
            self._r_leaf[cid] = False
        self._r_sel[cid] = ("x",)
        self._r_type[cid] = _P

    # -- stack + edge compilation ---------------------------------------

    def _compile_stack(self, recs: tuple) -> int:
        sid = len(self._s_recs)
        path = 0
        paths = []
        nexts = []
        flagged = False
        last_index = len(recs) - 1
        for depth, rc in enumerate(recs):
            paths.append(path)
            nxt = self._path_of(path, self._r_sel[rc])
            nexts.append(nxt)
            path = nxt
            rtype = self._r_type[rc]
            last = depth == last_index
            if rtype == _T:
                if last or (
                    self._r_info[recs[depth + 1]] != self._r_minfo[rc]
                ):
                    flagged = True
            elif rtype == _B:
                side = self._r_side[rc]
                if side == -1:
                    if not last:
                        flagged = True
                else:
                    child = (
                        self._r_bleft[rc] if side == 0 else self._r_bright[rc]
                    )
                    kind_t = (
                        self._r_bkl[rc] if side == 0 else self._r_bkr[rc]
                    )
                    if (
                        last
                        or not kind_t
                        or self._r_type[recs[depth + 1]] != _T
                        or self._r_info[recs[depth + 1]] != child
                    ):
                        flagged = True
            elif rtype in (_E, _P):
                if not last or not self._r_leaf[rc]:
                    flagged = True
            else:
                flagged = True
        if self._r_type[recs[0]] != _T:
            flagged = True
        self._s_recs.append(recs)
        self._s_path.append(tuple(paths))
        self._s_next.append(tuple(nexts))
        self._s_flag.append(flagged)
        self._dirty = True
        return sid

    def _intern_cert(self, cert) -> int:
        oid = id(cert)
        hit = self._cert_by_id.get(oid)
        if hit is not None:
            return hit
        self._keep.append(cert)
        sid = -1
        if isinstance(cert, EdgeCertificate):
            stack = cert.stack
            if isinstance(stack, (tuple, list)) and len(stack) >= 1:
                recs = tuple(self._intern_record(r) for r in stack)
                sid = self._stack_by_key.get(recs)
                if sid is None:
                    sid = self._compile_stack(recs)
                    self._stack_by_key[recs] = sid
        self._cert_by_id[oid] = sid
        return sid

    def _compile_edge(self, index: int) -> None:
        label = self._edge_labels[index]
        if not isinstance(label, Theorem1Label):
            self._edge_sid[index] = -1
            return
        try:
            embedded = tuple(label.embedded)
        except Exception:
            self._edge_sid[index] = -1
            return
        self._edge_sid[index] = self._intern_cert(label.certificate)
        if embedded:
            self._edge_emb[index] = embedded

    def prepare(self, req) -> None:
        """Compile every edge incident to the requested dense vertices."""
        req = np.asarray(req, dtype=np.int64)
        if req.size == 0:
            return
        deg = self._indptr[req + 1] - self._indptr[req]
        pos = np.repeat(self._indptr[req], deg) + _grouped_arange(deg)
        for k in np.unique(self._incident[pos]).tolist():
            if self._edge_sid[k] == -3:
                self._compile_edge(k)

    # -- the embedded / virtual-port pass (python; rare) ----------------

    def _virtual_ports(self, dense: int):
        """Mirror ``_reconstruct_ports``' embedded grouping for one vertex.

        Returns ``(payload_sids, ok)``; ``ok=False`` flags the vertex.
        """
        me = self._ids_py[dense]
        groups: dict = {}
        start = int(self._indptr[dense])
        stop = int(self._indptr[dense + 1])
        for position in range(start, stop):
            emb = self._edge_emb.get(int(self._incident[position]))
            if emb is None:
                continue
            for record in emb:
                try:
                    key = (record.u_id, record.v_id, record.payload)
                    groups.setdefault(key, []).append(
                        (record.forward, record.backward)
                    )
                except Exception:
                    return [], False
        out = []
        for (u_id, v_id, payload), hits in groups.items():
            try:
                totals = {f + b for f, b in hits}
                if len(totals) != 1:
                    return [], False
                total = totals.pop()
                if not all(1 <= f <= total - 1 for f, _b in hits):
                    return [], False
                if me == u_id:
                    if not (len(hits) == 1 and hits[0][0] == 1):
                        return [], False
                    out.append(payload)
                elif me == v_id:
                    if not (len(hits) == 1 and hits[0][1] == 1):
                        return [], False
                    out.append(payload)
                else:
                    if len(hits) != 2:
                        return [], False
                    (f1, _), (f2, _) = hits
                    if abs(f1 - f2) != 1:
                        return [], False
            except Exception:
                return [], False
        return [self._intern_cert(p) for p in out], True

    # -- finalize -------------------------------------------------------

    def _finalize(self) -> None:
        if (
            len(self._infos) >= (1 << 24)
            or len(self._r_type) >= _SEG_SHIFT
            or self._path_count >= _SEG_SHIFT
            or len(self._idcode) >= _SEG_SHIFT
        ):
            raise Unvectorizable("intern tables exceed packed-key range")
        t = _Tables()
        i64 = np.int64
        t.r_type = np.array(self._r_type, i64)
        t.r_info = np.array(self._r_info, i64)
        t.r_root = np.array(self._r_root, bool)
        t.r_rmid = np.array(self._r_rmid, i64)
        t.r_minfo = np.array(self._r_minfo, i64)
        t.r_msub = np.array(self._r_msub, i64)
        t.r_cs = np.array(self._r_cs, i64)
        t.r_fold = np.array(self._r_fold, bool)
        t.r_rmc = np.array(self._r_rmc, bool)
        t.r_ptok = np.array(self._r_ptok, bool)
        t.r_ptgt = np.array(self._r_ptgt, i64)
        t.r_pida = np.array(self._r_pida, i64)
        t.r_pda = np.array(self._r_pda, i64)
        t.r_pidb = np.array(self._r_pidb, i64)
        t.r_pdb = np.array(self._r_pdb, i64)
        t.r_bleft = np.array(self._r_bleft, i64)
        t.r_bright = np.array(self._r_bright, i64)
        t.r_bbr = np.array(self._r_bbr, i64)
        t.r_btag = np.array(self._r_btag, i64)
        t.r_bok = np.array(self._r_bok, bool)
        t.r_side = np.array(self._r_side, i64)
        t.r_ep1 = np.array(self._r_ep1, i64)
        t.r_ep2 = np.array(self._r_ep2, i64)
        t.r_etag = np.array(self._r_etag, i64)
        t.r_ein = np.array(self._r_ein, i64)
        t.r_eout = np.array(self._r_eout, i64)
        t.r_eok = np.array(self._r_eok, bool)
        t.r_pvids = np.array(self._r_pvids, i64)
        t.r_ptags = np.array(self._r_ptags, i64)
        t.r_ppos = np.array(self._r_ppos, i64)
        t.r_ptagc = np.array(self._r_ptagc, i64)
        t.r_ptagok = np.array(self._r_ptagok, bool)
        t.r_pok = np.array(self._r_pok, bool)
        t.r_plen = np.array(self._r_plen, i64)

        ch_counts = np.array([len(c) for c in self._r_children], i64)
        t.ch_counts = ch_counts
        t.ch_indptr = np.concatenate(
            [np.zeros(1, i64), np.cumsum(ch_counts)]
        )
        t.ch_cid = np.array(
            [c for row in self._r_children for c in row], i64
        )
        ids_counts = np.array(
            [len(ids) for row in self._r_chids for ids in row], i64
        )
        t.ch_ids_counts = ids_counts
        t.ch_ids_indptr = np.concatenate(
            [np.zeros(1, i64), np.cumsum(ids_counts)]
        )
        t.ch_ids_flat = np.array(
            [x for row in self._r_chids for ids in row for x in ids], i64
        )
        min_counts = np.array([len(p) for p in self._r_minpairs], i64)
        t.min_counts = min_counts
        t.min_indptr = np.concatenate(
            [np.zeros(1, i64), np.cumsum(min_counts)]
        )
        t.min_lane = np.array(
            [lane for row in self._r_minpairs for lane, _x in row], i64
        )
        t.min_id = np.array(
            [x for row in self._r_minpairs for _lane, x in row], i64
        )
        t.tin = np.unique(np.array(self._tin_keys, i64))
        if self._pid_entries:
            keys = np.array([k for k, _t in self._pid_entries], i64)
            tpos = np.array([tp for _k, tp in self._pid_entries], i64)
            ordering = np.argsort(keys, kind="stable")
            t.pid_keys = keys[ordering]
            t.pid_t = tpos[ordering]
        else:
            t.pid_keys = np.zeros(0, i64)
            t.pid_t = np.zeros(0, i64)

        lens = np.array([len(r) for r in self._s_recs], i64)
        t.st_len = lens
        t.st_indptr = np.concatenate([np.zeros(1, i64), np.cumsum(lens)])
        t.st_rec = np.array(
            [rc for recs in self._s_recs for rc in recs], i64
        )
        t.st_path = np.array(
            [p for paths in self._s_path for p in paths], i64
        )
        t.st_next = np.array(
            [p for nexts in self._s_next for p in nexts], i64
        )
        t.st_flag = np.array(self._s_flag, bool)
        t.me_code = np.array(
            [self._idcode.get(x, -1) for x in self._ids_py], i64
        )
        self._t = t
        self._dirty = False

    # -- persisted compiled rounds --------------------------------------

    def _emb_vertices(self):
        """Dense vertices incident to an edge with embedded records."""
        edge_has = np.zeros(self._m, dtype=bool)
        edge_has[np.array(list(self._edge_emb), dtype=np.int64)] = True
        counts = np.diff(self._indptr)
        vertex_of_pos = np.repeat(
            np.arange(self._n, dtype=np.int64), counts
        )
        return np.unique(vertex_of_pos[edge_has[self._incident]])

    def export_state(self) -> dict:
        """Serializable snapshot of the *fully* compiled round.

        Every edge is compiled and every virtual-port grouping is
        pre-evaluated, so a process that restores the snapshot through
        :meth:`from_state` runs the kernels with zero compile work.
        The envelope carries the compiled-round and wire format
        versions plus the numpy dtype signature; mismatches at restore
        time raise, which callers treat as a cache miss.
        """
        self.prepare(np.arange(self._n, dtype=np.int64))
        vp_map = {}
        vp_bad = []
        if self._edge_emb:
            for dense in self._emb_vertices().tolist():
                sids, ok = self._virtual_ports(dense)
                if not ok:
                    vp_bad.append(dense)
                elif sids:
                    vp_map[dense] = tuple(sids)
        if self._dirty or self._t is None:
            self._finalize()
        t = self._t
        tables = {
            name: getattr(t, name)
            for name in _STATE_I64_COLS + _STATE_BOOL_COLS
        }
        return {
            "compiled_round_version": COMPILED_ROUND_VERSION,
            "wire_version": WIRE_VERSION,
            "dtypes": _dtype_signature(),
            "n": self._n,
            "m": self._m,
            "edge_sid": self._edge_sid.copy(),
            "tables": tables,
            "vp_map": vp_map,
            "vp_bad": sorted(vp_bad),
        }

    @classmethod
    def from_state(cls, arrays, state, algebra, max_width):
        """Attach to a persisted compiled round.

        Raises on *any* version, dtype, shape, or structural mismatch —
        the caller maps every failure to a recompile, so a stale or
        corrupt envelope can only cost time, never correctness.
        """
        round_ = cls(arrays, None, algebra, max_width)
        round_._attach(state)
        return round_

    def _attach(self, state) -> None:
        def check(ok, what):
            if not ok:
                raise ValueError(what)

        check(isinstance(state, dict), "state is not a dict")
        check(
            state.get("compiled_round_version") == COMPILED_ROUND_VERSION,
            "compiled-round version mismatch",
        )
        check(
            state.get("wire_version") == WIRE_VERSION,
            "wire format version mismatch",
        )
        check(
            tuple(state.get("dtypes", ())) == _dtype_signature(),
            "numpy dtype signature mismatch",
        )
        check(
            state.get("n") == self._n and state.get("m") == self._m,
            "graph shape mismatch",
        )
        tables = state.get("tables")
        check(isinstance(tables, dict), "missing kernel tables")
        t = _Tables()
        for name in _STATE_I64_COLS:
            col = np.asarray(tables[name], dtype=np.int64)
            check(col.ndim == 1, f"column {name} is not flat")
            setattr(t, name, col)
        for name in _STATE_BOOL_COLS:
            col = np.asarray(tables[name], dtype=bool)
            check(col.ndim == 1, f"column {name} is not flat")
            setattr(t, name, col)
        nrecords = int(t.r_type.shape[0])
        for name in _STATE_RECORD_COLS:
            check(
                getattr(t, name).shape[0] == nrecords,
                f"record column {name} length mismatch",
            )
        for counts, indptr, flats in (
            (t.ch_counts, t.ch_indptr, (t.ch_cid,)),
            (t.ch_ids_counts, t.ch_ids_indptr, (t.ch_ids_flat,)),
            (t.min_counts, t.min_indptr, (t.min_lane, t.min_id)),
            (t.st_len, t.st_indptr, (t.st_rec, t.st_path, t.st_next)),
        ):
            check(
                counts.size == 0 or int(counts.min()) >= 0,
                "negative segment count",
            )
            check(
                np.array_equal(
                    indptr,
                    np.concatenate(
                        [np.zeros(1, np.int64), np.cumsum(counts)]
                    ),
                ),
                "segment index pointers are inconsistent",
            )
            total = int(indptr[-1]) if indptr.size else 0
            for flat in flats:
                check(flat.shape[0] == total, "segment payload truncated")
        check(
            t.ch_ids_counts.shape[0] == t.ch_cid.shape[0],
            "child-id counts misaligned",
        )
        nstacks = int(t.st_len.shape[0])
        check(t.st_flag.shape[0] == nstacks, "stack flags misaligned")
        check(
            t.st_rec.size == 0
            or (
                int(t.st_rec.min()) >= 0
                and int(t.st_rec.max()) < nrecords
            ),
            "stack record ids out of range",
        )
        check(
            t.pid_t.shape == t.pid_keys.shape,
            "P-node key table misaligned",
        )
        for sorted_col in (t.tin, t.pid_keys):
            check(
                sorted_col.size < 2
                or bool((np.diff(sorted_col) >= 0).all()),
                "searchsorted table is unsorted",
            )
        check(t.me_code.shape[0] == self._n, "me_code length mismatch")
        edge_sid = np.asarray(state.get("edge_sid"), dtype=np.int64)
        check(
            edge_sid.shape == (self._m,), "edge stack column misaligned"
        )
        check(
            edge_sid.size == 0
            or (
                int(edge_sid.min()) >= -3
                and int(edge_sid.max()) < nstacks
            ),
            "edge stack ids out of range",
        )
        vp_map = state.get("vp_map")
        vp_bad = state.get("vp_bad")
        check(isinstance(vp_map, dict), "vp_map is not a dict")
        clean_map = {}
        for dense, sids in vp_map.items():
            check(
                type(dense) is int and 0 <= dense < self._n,
                "virtual-port vertex out of range",
            )
            sids = tuple(sids)
            for sid in sids:
                check(
                    type(sid) is int and 0 <= sid < nstacks,
                    "virtual-port stack id out of range",
                )
            clean_map[dense] = sids
        clean_bad = set()
        for dense in vp_bad:
            check(
                type(dense) is int and 0 <= dense < self._n,
                "flagged vertex out of range",
            )
            clean_bad.add(dense)
        self._t = t
        self._edge_sid = edge_sid
        self._dirty = False
        self._attached = True
        self._vp_map = clean_map
        self._vp_bad = clean_bad

    # -- the kernels ----------------------------------------------------

    def run(self, order):
        """Kernel-verify dense vertices ``order``; returns (accept, stats)."""
        began = perf_counter()
        req = np.asarray(list(order), dtype=np.int64)
        vports = {}
        flagged_py = set()
        if self._attached:
            # Restored rounds are fully compiled: virtual ports were
            # pre-evaluated at export time, so the whole cold path
            # reduces to dictionary filtering.
            if self._vp_map or self._vp_bad:
                req_set = set(req.tolist())
                for dense, sids in self._vp_map.items():
                    if dense in req_set:
                        vports[dense] = list(sids)
                flagged_py = self._vp_bad & req_set
            compile_seconds = 0.0
        else:
            self.prepare(req)
            if self._edge_emb:
                emb_vertices = self._emb_vertices()
                req_mask = np.zeros(self._n, dtype=bool)
                req_mask[req] = True
                for dense in emb_vertices[req_mask[emb_vertices]].tolist():
                    sids, ok = self._virtual_ports(dense)
                    if not ok:
                        flagged_py.add(dense)
                    elif sids:
                        vports[dense] = sids
            if self._dirty or self._t is None:
                self._finalize()
            compile_seconds = perf_counter() - began
        self.compile_seconds += compile_seconds
        began = perf_counter()
        accept = self._kernels(req, vports, flagged_py)
        kernel_seconds = perf_counter() - began
        kernel_accepted = int(accept.sum())
        stats = {
            "compiled_vertices": int(req.size),
            "kernel_accepted": kernel_accepted,
            "fallback_vertices": int(req.size) - kernel_accepted,
            "compile_seconds": compile_seconds,
            "kernel_seconds": kernel_seconds,
            "records": int(self._t.r_type.shape[0]),
            "stacks": int(self._t.st_flag.shape[0]),
        }
        return accept, stats

    def _seg_all(self, pred, starts):
        return np.minimum.reduceat(pred.astype(np.int8), starts) > 0

    def _seg_any(self, pred, starts):
        return np.maximum.reduceat(pred.astype(np.int8), starts) > 0

    def _seg_eq(self, col, starts):
        return np.minimum.reduceat(col, starts) == np.maximum.reduceat(
            col, starts
        )

    def _kernels(self, req, vports, flagged_py):
        t = self._t
        flag = np.zeros(self._n, dtype=bool)
        for dense in flagged_py:
            flag[dense] = True
        indptr = self._indptr
        deg = indptr[req + 1] - indptr[req]
        flag[req[deg == 0]] = True  # no ports at all: reference rejects
        port_vertex = np.repeat(req, deg)
        pos = np.repeat(indptr[req], deg) + _grouped_arange(deg)
        port_sid = self._edge_sid[self._incident[pos]]
        port_tag = np.full(port_vertex.shape[0], self._real_cid, np.int64)
        if vports:
            vv = []
            vs = []
            for dense, sids in vports.items():
                for sid in sids:
                    vv.append(dense)
                    vs.append(sid)
            port_vertex = np.concatenate(
                [port_vertex, np.array(vv, np.int64)]
            )
            port_sid = np.concatenate([port_sid, np.array(vs, np.int64)])
            port_tag = np.concatenate(
                [port_tag, np.full(len(vs), self._virtual_cid, np.int64)]
            )
        bad_port = port_sid < 0
        flag[port_vertex[bad_port]] = True
        sid_safe = np.where(bad_port, 0, port_sid)
        bad_stack = t.st_flag[sid_safe] & ~bad_port
        flag[port_vertex[bad_stack]] = True
        keep = ~bad_port & ~bad_stack
        port_vertex = port_vertex[keep]
        port_sid = port_sid[keep]
        port_tag = port_tag[keep]

        lens = t.st_len[port_sid]
        if int(lens.sum()) == 0:
            return ~flag[req]
        row_port = np.repeat(
            np.arange(port_sid.shape[0], dtype=np.int64), lens
        )
        row_vertex = port_vertex[row_port]
        row_tag = port_tag[row_port]
        row_depth = _grouped_arange(lens)
        flat = np.repeat(t.st_indptr[port_sid], lens) + row_depth
        row_rec = t.st_rec[flat]
        row_path = t.st_path[flat]
        row_next = t.st_next[flat]
        ordering = np.lexsort((row_next, row_path, row_vertex))
        row_vertex = row_vertex[ordering]
        row_tag = row_tag[ordering]
        row_depth = row_depth[ordering]
        row_rec = row_rec[ordering]
        row_path = row_path[ordering]
        row_next = row_next[ordering]
        row_me = self._ids_np[row_vertex]

        starts = _boundaries(row_vertex, row_path)
        subs = _boundaries(row_vertex, row_path, row_next)
        nrows = row_vertex.shape[0]
        nsegs = starts.shape[0]
        sizes = np.diff(np.append(starts, nrows))
        seg_v = row_vertex[starts]
        seg_me = row_me[starts]
        seg_depth = row_depth[starts]
        first_rec = row_rec[starts]

        rt = t.r_type[row_rec]
        tmin = np.minimum.reduceat(rt, starts)
        tmax = np.maximum.reduceat(rt, starts)
        pure = tmin == tmax
        flag[seg_v[~pure]] = True
        is_t = pure & (tmin == _T)
        is_b = pure & (tmin == _B)
        is_e = pure & (tmin == _E)
        is_p = pure & (tmin == _P)

        # Root checks: the depth-0 segment must be all-T (single root
        # info via the equality check below) with an accepting class.
        d0 = seg_depth == 0
        root_all = self._seg_all(t.r_root[row_rec], starts)
        flag[seg_v[d0 & ~(is_t & root_all)]] = True

        info_eq = self._seg_eq(t.r_info[row_rec], starts)

        if is_t.any():
            self._t_kernels(
                t, flag, row_vertex, row_me, row_rec, starts, subs,
                seg_v, seg_me, first_rec, info_eq, is_t, nsegs,
            )
        if is_b.any():
            rmask = t.r_btag[row_rec]
            side = t.r_side[row_rec]
            ism1 = side == -1
            ok = (
                info_eq
                & self._seg_eq(t.r_bleft[row_rec], starts)
                & self._seg_eq(t.r_bright[row_rec], starts)
                & self._seg_eq(t.r_bbr[row_rec], starts)
                & self._seg_eq(rmask, starts)
                & self._seg_all(t.r_bok[row_rec], starts)
                & ~(
                    self._seg_any(side == 0, starts)
                    & self._seg_any(side == 1, starts)
                )
                & self._seg_all(~ism1 | (row_tag == rmask), starts)
            )
            cnt_m1 = np.add.reduceat(ism1.astype(np.int64), starts)
            has_m1 = cnt_m1 > 0
            at_ep = (seg_me == t.r_ep1[first_rec]) | (
                seg_me == t.r_ep2[first_rec]
            )
            ok &= (~at_ep | has_m1) & (cnt_m1 <= 1) & (~has_m1 | at_ep)
            flag[seg_v[is_b & ~ok]] = True
        if is_e.any():
            ok = (
                (sizes == 1)
                & t.r_eok[first_rec]
                & (row_tag[starts] == t.r_etag[first_rec])
                & (
                    (seg_me == t.r_ein[first_rec])
                    | (seg_me == t.r_eout[first_rec])
                )
            )
            flag[seg_v[is_e & ~ok]] = True
        if is_p.any():
            ok = (
                info_eq
                & self._seg_eq(t.r_pvids[row_rec], starts)
                & self._seg_eq(t.r_ptags[row_rec], starts)
                & self._seg_all(t.r_pok[row_rec], starts)
                & self._seg_all(t.r_ptagok[row_rec], starts)
                & self._seg_all(row_tag == t.r_ptagc[row_rec], starts)
            )
            code = t.me_code[seg_v]
            query = first_rec * _SEG_SHIFT + np.where(code >= 0, code, 0)
            found = np.zeros(nsegs, dtype=bool)
            tpos = np.zeros(nsegs, dtype=np.int64)
            if t.pid_keys.size:
                lookup = np.searchsorted(t.pid_keys, query)
                lookup_c = np.minimum(lookup, t.pid_keys.size - 1)
                found = (code >= 0) & (t.pid_keys[lookup_c] == query)
                tpos = t.pid_t[lookup_c]
            plen = t.r_plen[first_rec]
            e_low = tpos > 0
            e_high = tpos < plen - 1
            e_cnt = e_low.astype(np.int64) + e_high.astype(np.int64)
            pmin = np.minimum.reduceat(t.r_ppos[row_rec], starts)
            pmax = np.maximum.reduceat(t.r_ppos[row_rec], starts)
            single = np.where(e_low, tpos - 1, tpos)
            pos_ok = (sizes == e_cnt) & np.where(
                e_cnt == 2,
                (pmin == tpos - 1) & (pmax == tpos),
                (e_cnt == 1) & (pmin == pmax) & (pmin == single),
            )
            flag[seg_v[is_p & ~(ok & found & pos_ok)]] = True
        return ~flag[req]

    def _t_kernels(
        self, t, flag, row_vertex, row_me, row_rec, starts, subs,
        seg_v, seg_me, first_rec, info_eq, is_t, nsegs,
    ):
        """All T-segment checks: pointers, folds, member rules."""
        ida = t.r_pida[row_rec]
        idb = t.r_pidb[row_rec]
        own = np.where(
            row_me == ida,
            t.r_pda[row_rec],
            np.where(row_me == idb, t.r_pdb[row_rec], _MISS),
        )
        other = np.where(
            row_me == ida,
            t.r_pdb[row_rec],
            np.where(row_me == idb, t.r_pda[row_rec], _MISS),
        )
        tgt = t.r_ptgt[row_rec]
        own_first = own[starts]
        is_target = seg_me == tgt[starts]
        ptr_ok = (
            self._seg_all(t.r_ptok[row_rec], starts)
            & self._seg_eq(tgt, starts)
            & self._seg_all(own != _MISS, starts)
            & self._seg_eq(own, starts)
            & np.where(
                is_target,
                own_first == 0,
                (own_first != 0)
                & self._seg_any(other == own - 1, starts),
            )
        )
        ok = (
            info_eq
            & self._seg_eq(t.r_rmid[row_rec], starts)
            & self._seg_all(t.r_fold[row_rec], starts)
            & self._seg_all(t.r_rmc[row_rec], starts)
            & ptr_ok
        )
        flag[seg_v[is_t & ~ok]] = True

        # Member sub-segments (the reference's member_groups).
        seg_of_sub = np.searchsorted(starts, subs, side="right") - 1
        member_mask = is_t[seg_of_sub]
        m_first = subs[member_mask]
        if m_first.size == 0:
            return
        m_seg = seg_of_sub[member_mask]
        sub_ok = (
            self._seg_eq(t.r_minfo[row_rec], subs)
            & self._seg_eq(t.r_msub[row_rec], subs)
            & self._seg_eq(t.r_cs[row_rec], subs)
        )[member_mask]
        m_v = row_vertex[m_first]
        flag[m_v[~sub_ok]] = True
        m_rec = row_rec[m_first]
        m_me = row_me[m_first]
        m_msub = t.r_msub[m_rec]
        nmembers = m_rec.shape[0]
        member_keys = np.sort(m_seg * _SEG_SHIFT + m_msub)

        ch_counts = t.ch_counts[m_rec]
        total_children = int(ch_counts.sum())
        has_parent = np.zeros(nmembers, dtype=bool)
        if total_children:
            ch_parent = np.repeat(
                np.arange(nmembers, dtype=np.int64), ch_counts
            )
            ch_slot = np.repeat(
                t.ch_indptr[m_rec], ch_counts
            ) + _grouped_arange(ch_counts)
            ch_cid = t.ch_cid[ch_slot]
            ch_seg = m_seg[ch_parent]
            child_keys = np.sort(ch_seg * _SEG_SHIFT + ch_cid)
            query = m_seg * _SEG_SHIFT + m_msub
            total = np.searchsorted(
                child_keys, query, side="right"
            ) - np.searchsorted(child_keys, query, side="left")
            self_cnt = np.bincount(
                ch_parent,
                weights=(ch_cid == m_msub[ch_parent]),
                minlength=nmembers,
            )
            has_parent = (total - self_cnt.astype(np.int64)) > 0

            # Out-terminal materialization: a claimed child glued at
            # this vertex must have another member's edges here.
            id_counts = t.ch_ids_counts[ch_slot]
            anchored_claim = np.zeros(total_children, dtype=bool)
            if int(id_counts.sum()):
                id_claim = np.repeat(
                    np.arange(total_children, dtype=np.int64), id_counts
                )
                id_val = t.ch_ids_flat[
                    np.repeat(t.ch_ids_indptr[ch_slot], id_counts)
                    + _grouped_arange(id_counts)
                ]
                claim_me = m_me[ch_parent]
                anchored_claim = (
                    np.bincount(
                        id_claim,
                        weights=(id_val == claim_me[id_claim]),
                        minlength=total_children,
                    )
                    > 0
                )
            claim_query = ch_seg * _SEG_SHIFT + ch_cid
            claim_total = np.searchsorted(
                member_keys, claim_query, side="right"
            ) - np.searchsorted(member_keys, claim_query, side="left")
            claim_self = (m_msub[ch_parent] == ch_cid).astype(np.int64)
            claim_ok = ~anchored_claim | ((claim_total - claim_self) > 0)
            flag[m_v[ch_parent[~claim_ok]]] = True

        # Anchored-member chain rule.
        a_counts = t.min_counts[m_rec]
        anchored_any = np.zeros(nmembers, dtype=bool)
        if int(a_counts.sum()):
            a_parent = np.repeat(
                np.arange(nmembers, dtype=np.int64), a_counts
            )
            a_slot = np.repeat(
                t.min_indptr[m_rec], a_counts
            ) + _grouped_arange(a_counts)
            a_lane = t.min_lane[a_slot]
            a_id = t.min_id[a_slot]
            anchored = a_id == m_me[a_parent]
            seg_info = t.r_info[first_rec]
            a_info = seg_info[m_seg[a_parent]]
            a_code = t.me_code[m_v[a_parent]]
            lane_ok = (a_lane >= 0) & (a_lane < 256) & (a_code >= 0)
            query = (
                ((a_info << 8) | np.where(lane_ok, a_lane, 0)) << 31
            ) | np.where(a_code >= 0, a_code, 0)
            hit = np.zeros(a_parent.shape[0], dtype=bool)
            if t.tin.size:
                lookup = np.minimum(
                    np.searchsorted(t.tin, query), t.tin.size - 1
                )
                hit = lane_ok & (t.tin[lookup] == query)
            ok_anchor = ~anchored | has_parent[a_parent] | hit
            flag[m_v[a_parent[~ok_anchor]]] = True
            anchored_any = (
                np.bincount(a_parent, weights=anchored, minlength=nmembers)
                > 0
            )
        non_anchored = np.bincount(
            m_seg, weights=~anchored_any, minlength=nsegs
        )
        flag[seg_v[is_t & (non_anchored > 1)]] = True


# ----------------------------------------------------------------------
# Scheme profile detection + round caching
# ----------------------------------------------------------------------


def _theorem1_profile(scheme):
    """Return ``(algebra, max_width)`` when ``scheme.verify`` is exactly
    the Theorem 1 edge-labeled verifier; None for anything else."""
    if not isinstance(scheme, CertifyingScheme):
        return None
    if type(scheme).verify is not CertifyingScheme.verify:
        return None
    if getattr(scheme, "label_location", None) != "edges":
        return None
    return scheme.algebra, scheme.max_width


def _round_key(config, scheme, mapping, location):
    return (
        config,
        scheme,
        mapping,
        location,
        config.graph.csr,
        config.graph.labels_version,
    )


def _same_key(held, key) -> bool:
    return (
        held is not None
        and held[0] is key[0]
        and held[1] is key[1]
        and held[2] is key[2]
        and held[3] == key[3]
        and held[4] is key[4]
        and held[5] == key[5]
    )


def _arrays_cache_key(fingerprint: str) -> str:
    """Content key of a configuration's packed :class:`RoundArrays`.

    The packed columns depend only on the graph's CSR and the identifier
    assignment — exactly what ``config_fingerprint`` hashes, and
    ``fingerprint`` is that hash — so the artifact survives process
    restarts, unlike the identity-based ``_round_key`` that guards the
    held round.
    """
    return f"round-arrays:{fingerprint}"


def _cached_round_arrays(cache, config, fingerprint):
    """Look up a persisted pack for ``config``; return ``(arrays, key)``.

    ``fingerprint`` is ``config_fingerprint(config)``.  ``arrays`` is
    ``None`` on any miss, unpickling failure, or shape mismatch — the
    cache is an optimization, never a correctness dependency — while
    ``key`` is always the content key so the caller can store a freshly
    built pack under it.
    """
    key = _arrays_cache_key(fingerprint)
    if cache is None:
        return None, key
    entry = cache.get(key)
    if entry is None:
        return None, key
    try:
        arrays, _order = unpack_round_arrays(
            np.asarray(entry.outputs.get("pack"), dtype=np.int64).ravel()
        )
    except Exception:
        return None, key
    if arrays.n != len(config.graph.csr.vertices):
        return None, key
    return arrays, key


def _store_round_arrays(cache, key, arrays, seconds) -> None:
    """Persist one freshly packed round under its content key."""
    if cache is None:
        return
    try:
        pack = pack_round_arrays(arrays)
    except Exception:
        return
    cache.put(key, "round-arrays", {"pack": pack}, seconds)


def _compiled_round_cache_key(fingerprint, scheme, digest):
    """Content key of a persisted compiled round, or ``None``.

    The compiled tables depend on the graph (``fingerprint``, the
    ``config_fingerprint`` of the round's configuration),
    the exact labeling (its wire digest), the verifier profile, and the
    envelope/wire format versions — any of these changing must produce
    a different key, so stale envelopes are simply never looked up.
    Returns ``None`` when the labeling has no digest or the algebra has
    no stable key: identity-keyed state cannot survive a restart.
    """
    if digest is None:
        return None
    algebra_key = getattr(getattr(scheme, "algebra", None), "key", None)
    if algebra_key is None:
        return None
    raw = repr(
        (
            fingerprint,
            digest,
            algebra_key,
            scheme.max_width,
            COMPILED_ROUND_VERSION,
            WIRE_VERSION,
        )
    )
    token = hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()
    return f"compiled-round:{token}"


def _attach_compiled_round(cache, key, arrays, algebra, max_width):
    """Restore a persisted compiled round; ``None`` on any mismatch."""
    if cache is None or key is None:
        return None
    entry = cache.get(key)
    if entry is None:
        return None
    state = entry.outputs.get("state")
    if not isinstance(state, dict):
        return None
    try:
        return KernelRound.from_state(arrays, state, algebra, max_width)
    except Exception:
        return None


def _store_compiled_round(cache, key, round_) -> None:
    """Persist one freshly compiled round under its content key."""
    if cache is None or key is None:
        return
    began = perf_counter()
    try:
        state = round_.export_state()
        cache.put(
            key, "compiled-round", {"state": state},
            perf_counter() - began,
        )
    except Exception:
        # Export is best-effort: an unvectorizable tail or unpicklable
        # field only loses the cache entry, never the round.
        return


def _reference_outcome(factory, scheme, order, fail_fast, stats):
    outcome = _run_range(
        factory, scheme, order, 0, len(order), 0, fail_fast
    )
    return [
        _ChunkOutcome(
            index=outcome.index,
            size=outcome.size,
            verdicts=outcome.verdicts,
            exception_vertices=outcome.exception_vertices,
            views_built=outcome.views_built,
            seconds=outcome.seconds,
            rejected=outcome.rejected,
            kernel_stats=stats,
        )
    ]


class VectorizedExecutor(VerificationExecutor):
    """Whole-round numpy kernels with reference fallback.

    Verdict-identical to :class:`~repro.api.runtime.SerialExecutor` on
    every configuration and labeling: kernel-accepted vertices are
    exactly reference-accepts (the kernels only accept when every
    reference check provably passes), and all flagged vertices are
    re-checked through the reference ``LocalView`` path.  Schemes whose
    verifier is not the Theorem 1 profile run entirely on the
    reference path (``kernel_stats["mode"] == "reference"``).

    ``audit=True`` cross-checks every kernel-accepted vertex against
    the reference verifier and raises on divergence — the differential
    test harness runs under it to localize any kernel bug.
    """

    name = "vectorized"

    def __init__(self, audit: bool = False, artifacts=None):
        self.audit = audit or bool(os.environ.get("REPRO_VECTORIZED_AUDIT"))
        #: Optional :class:`~repro.api.artifacts.ArtifactCache` holding
        #: packed :class:`RoundArrays` across rounds *and processes*.
        self.artifacts = artifacts
        self._held_key = None
        self._held_round: Optional[KernelRound] = None
        self._held_arrays_cached = False
        self._held_compiled_cached = False
        self._pending_store = None
        self._offered = None

    def offer_labeling(self, labeling) -> None:
        """Digest handoff: the engine offers the labeling it is about to
        verify, and persisted compiled rounds are keyed on its wire
        digest (stamped by the encode path).  Identity of the mapping
        ties the offer to the exact ``execute`` call that follows."""
        digest = getattr(labeling, "wire_digest", None)
        mapping = getattr(labeling, "mapping", None)
        if digest is not None and mapping is not None:
            self._offered = (id(mapping), digest)
        else:
            self._offered = None

    def _digest_for(self, mapping):
        offered = self._offered
        if offered is not None and offered[0] == id(mapping):
            return offered[1]
        return None

    def adopt_artifacts(self, cache) -> None:
        """Accept a session's artifact cache unless one was configured.

        :class:`~repro.api.session.CertificationSession` offers its own
        cache before every round, so a store-backed session makes the
        packed columns persistent without any executor configuration.
        """
        if self.artifacts is None:
            self.artifacts = cache

    def _round_for(self, config, scheme, mapping, location, factory):
        profile = _theorem1_profile(scheme)
        if profile is None:
            return None, "scheme is not the Theorem 1 edge-labeled profile"
        if np is None:
            return None, "numpy unavailable"
        key = _round_key(config, scheme, mapping, location)
        if _same_key(self._held_key, key):
            return self._held_round, None
        began = perf_counter()
        # One content hash serves both cache keys.
        fingerprint = config_fingerprint(config)
        arrays, cache_key = _cached_round_arrays(
            self.artifacts, config, fingerprint
        )
        arrays_cached = arrays is not None
        if arrays is None:
            try:
                arrays = factory.round_arrays()
            except (NotVectorizable, RuntimeError) as exc:
                return None, str(exc)
            _store_round_arrays(
                self.artifacts, cache_key, arrays, perf_counter() - began
            )
        algebra, max_width = profile
        compiled_key = _compiled_round_cache_key(
            fingerprint, scheme, self._digest_for(mapping)
        )
        round_ = _attach_compiled_round(
            self.artifacts, compiled_key, arrays, algebra, max_width
        )
        self._pending_store = None
        if round_ is None:
            round_ = KernelRound(
                arrays, factory.edge_certificates, algebra, max_width
            )
            self._pending_store = compiled_key
        self._held_key = key
        self._held_round = round_
        self._held_arrays_cached = arrays_cached
        self._held_compiled_cached = round_._attached
        return round_, None

    def execute(self, config, scheme, mapping, location, vertices, fail_fast):
        if not vertices:
            return []
        began = perf_counter()
        factory = ViewFactory(config, mapping, location)
        order = [factory.index_of(v) for v in vertices]
        round_, reason = self._round_for(
            config, scheme, mapping, location, factory
        )
        base_stats = {"engine": self.name}
        if round_ is None:
            base_stats.update({"mode": "reference", "reason": reason})
            return _reference_outcome(
                factory, scheme, order, fail_fast, base_stats
            )
        try:
            accept, stats = round_.run(order)
        except Unvectorizable as exc:
            self._held_key = None
            self._held_round = None
            base_stats.update({"mode": "reference", "reason": exc.reason})
            return _reference_outcome(
                factory, scheme, order, fail_fast, base_stats
            )
        base_stats.update(stats)
        base_stats["mode"] = "kernel"
        base_stats["arrays_cached"] = self._held_arrays_cached
        base_stats["compiled_round_cached"] = self._held_compiled_cached
        if self._pending_store is not None:
            # The round just verified successfully from a fresh compile:
            # persist its compiled form so the next process attaches.
            _store_compiled_round(
                self.artifacts, self._pending_store, round_
            )
            self._pending_store = None
        names = factory.vertices
        verdicts = {}
        flagged = []
        accept_list = accept.tolist()
        for position, dense in enumerate(order):
            if accept_list[position]:
                verdicts[names[dense]] = True
            else:
                flagged.append(dense)
        if self.audit:
            for position, dense in enumerate(order):
                if not accept_list[position]:
                    continue
                try:
                    ok = bool(scheme.verify(factory.view_at(dense)))
                except Exception:
                    ok = False
                if not ok:
                    raise AssertionError(
                        "vectorized kernel accepted vertex "
                        f"{names[dense]!r} that the reference rejects"
                    )
        fallback = _run_range(
            factory, scheme, flagged, 0, len(flagged), 0, fail_fast
        )
        verdicts.update(fallback.verdicts)
        return [
            _ChunkOutcome(
                index=0,
                size=len(order),
                verdicts=verdicts,
                exception_vertices=fallback.exception_vertices,
                views_built=fallback.views_built,
                seconds=perf_counter() - began,
                rejected=fallback.rejected,
                kernel_stats=base_stats,
            )
        ]
