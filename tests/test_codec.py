"""Tests for the certificate wire codec (repro.codec).

The contract under test is the tentpole guarantee of the format:
``decode(encode(label)) == label`` for every label the pipeline can
produce, and the *measured* encoded size never exceeding the arithmetic
``label_bits`` accounting the reports used to quote.
"""

import functools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CertificationSession, certify
from repro.codec import (
    BitReader,
    BitStreamError,
    BitWriter,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    WireHeader,
    decode_label,
    decode_labeling_columnar,
    encode_label,
    encode_labeling,
    labeling_digest,
    width_for,
    width_for_value,
)
from repro.core.certificates import label_bits
from repro.experiments import lanewidth_workload, pathwidth_workload

_SRC = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Bit-level I/O.
# ----------------------------------------------------------------------
class TestBitIO:
    @given(
        st.lists(
            st.integers(min_value=1, max_value=40).flatmap(
                lambda w: st.tuples(
                    st.integers(min_value=0, max_value=2**w - 1), st.just(w)
                )
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_field_sequence_round_trip(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        assert writer.bit_length == sum(w for _v, w in fields)
        data = writer.to_bytes()
        assert len(data) == (writer.bit_length + 7) // 8
        reader = BitReader(data, writer.bit_length)
        for value, width in fields:
            assert reader.read(width) == value
        assert reader.remaining == 0

    def test_value_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(BitStreamError):
            writer.write(4, 2)
        with pytest.raises(BitStreamError):
            writer.write(-1, 8)

    def test_truncated_read_rejected(self):
        writer = BitWriter()
        writer.write(5, 3)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        reader.read(3)
        with pytest.raises(BitStreamError):
            reader.read(1)

    def test_bit_limit_excludes_padding(self):
        writer = BitWriter()
        writer.write(1, 1)
        # One semantic bit, seven padding bits in the byte output.
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert reader.read(1) == 1
        with pytest.raises(BitStreamError):
            reader.read(1)

    def test_width_helpers(self):
        assert width_for(1) == 1
        assert width_for(2) == 1
        assert width_for(3) == 2
        assert width_for(256) == 8
        assert width_for_value(0) == 1
        assert width_for_value(255) == 8
        assert width_for_value(256) == 9


# ----------------------------------------------------------------------
# Label round-trips over pipeline-generated labelings.
# ----------------------------------------------------------------------
def _lanewidth_labeling(width: int, n: int, seed: int):
    sequence, _graph = lanewidth_workload(width, n, seed)
    report = certify(sequence, "connected", rng=random.Random(seed + 1))
    assert not report.refused and report.accepted
    return report


def _accounted_bits(label, ctx) -> int:
    width = len(label.certificate.stack[0].info.lanes)
    return label_bits(label, ctx, width)


class TestLabelRoundTrip:
    @given(
        width=st.integers(min_value=2, max_value=4),
        n=st.integers(min_value=8, max_value=48),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=12, deadline=None)
    def test_lanewidth_round_trip_and_measured_bound(self, width, n, seed):
        report = _lanewidth_labeling(width, n, seed)
        labeling = report.labeling
        header = WireHeader.for_labeling(labeling)
        ctx = labeling.size_context
        for key, label in labeling.mapping.items():
            encoded = encode_label(label, header)
            decoded = decode_label(encoded.data, header, encoded.bit_length)
            assert decoded == label, f"round trip mismatch on edge {key}"
            # The wire encoding must never exceed the accounted size.
            assert encoded.bit_length <= _accounted_bits(label, ctx), key

    def test_pathwidth_mode_round_trip(self):
        graph, decomposition = pathwidth_workload(24, 2, seed=5)
        report = certify(
            graph,
            "connected",
            k=2,
            rng=random.Random(6),
            decomposer=lambda _g: decomposition,
        )
        assert report.accepted
        encoded = encode_labeling(report.labeling)
        assert encoded.decode().mapping == report.labeling.mapping

    def test_labeling_level_encode_matches_report_metrics(self):
        report = _lanewidth_labeling(3, 24, seed=11)
        encoded = encode_labeling(report.labeling)
        assert report.max_label_bits == encoded.max_bits
        assert report.total_label_bits == encoded.total_bits
        assert report.mean_label_bits == pytest.approx(encoded.mean_bits)
        # Measured is reported alongside (and below) the accounting.
        assert report.max_label_bits <= report.accounted_max_label_bits
        assert report.total_label_bits <= report.accounted_total_label_bits
        # The session attaches the wire form as a drill-down artifact.
        assert report.encoded.max_bits == encoded.max_bits

    def test_header_is_deterministic_and_picklable(self):
        report = _lanewidth_labeling(3, 20, seed=3)
        labeling = report.labeling
        h1 = WireHeader.for_labeling(labeling)
        h2 = WireHeader.for_labeling(labeling)
        assert h1 == h2
        revived = pickle.loads(pickle.dumps(h1))
        assert revived == h1
        # Decoding against the revived header (a fresh-process stand-in)
        # still reproduces the exact labels.
        key = next(iter(labeling.mapping))
        enc = encode_label(labeling.mapping[key], h1)
        assert decode_label(enc.data, revived, enc.bit_length) == (
            labeling.mapping[key]
        )

    def test_size_context_round_trip(self):
        report = _lanewidth_labeling(2, 16, seed=9)
        header = WireHeader.for_labeling(report.labeling)
        ctx = header.size_context()
        original = report.labeling.size_context
        assert (ctx.n, ctx.id_bits, ctx.counter_bits, ctx.class_bits) == (
            original.n,
            original.id_bits,
            original.counter_bits,
            original.class_bits,
        )


# ----------------------------------------------------------------------
# Malformed input handling.
# ----------------------------------------------------------------------
class TestMalformedStreams:
    def test_truncated_label_rejected(self):
        report = _lanewidth_labeling(2, 12, seed=21)
        labeling = report.labeling
        header = WireHeader.for_labeling(labeling)
        key = max(
            labeling.mapping, key=lambda k: len(labeling.mapping[k].certificate.stack)
        )
        enc = encode_label(labeling.mapping[key], header)
        with pytest.raises(CodecError):
            decode_label(enc.data[: len(enc.data) // 2], header)

    def test_wrong_bit_length_rejected(self):
        report = _lanewidth_labeling(2, 12, seed=22)
        labeling = report.labeling
        header = WireHeader.for_labeling(labeling)
        key = next(iter(labeling.mapping))
        enc = encode_label(labeling.mapping[key], header)
        with pytest.raises(CodecError):
            # Claiming extra trailing bits must be flagged, not ignored.
            decode_label(enc.data, header, enc.bit_length - 1)

    def test_non_theorem1_label_rejected(self):
        report = _lanewidth_labeling(2, 12, seed=23)
        header = WireHeader.for_labeling(report.labeling)
        with pytest.raises(CodecError):
            encode_label("not a label", header)

    def test_foreign_identifier_rejected(self):
        # A label mentioning an identifier outside the header's table
        # cannot be encoded against that header.
        a = _lanewidth_labeling(2, 12, seed=24)
        b = _lanewidth_labeling(2, 12, seed=941)
        header_a = WireHeader.for_labeling(a.labeling)
        foreign = next(iter(b.labeling.mapping.values()))
        with pytest.raises(CodecError):
            encode_label(foreign, header_a)

    def test_unsupported_version_rejected(self):
        report = _lanewidth_labeling(2, 12, seed=25)
        header = WireHeader.for_labeling(report.labeling)
        fields = {
            name: getattr(header, name)
            for name in (
                "n",
                "universe_bits",
                "class_count",
                "id_table",
                "states",
                "tags",
                "lane_bits",
                "node_width",
                "counter_width",
                "depth_width",
                "embed_width",
                "path_width",
                "child_width",
            )
        }
        with pytest.raises(CodecError):
            WireHeader(version=99, **fields)


# ----------------------------------------------------------------------
# Malformed-input parity: the bulk decoder rejects exactly what the
# reference decoder rejects, and always as CodecError.
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _pathwidth_encoded():
    """A pathwidth-2 labeling with T, B, E and P records and embedded
    records, encoded once for the whole module."""
    graph, decomposition = pathwidth_workload(24, 2, seed=5)
    report = certify(
        graph,
        "connected",
        k=2,
        rng=random.Random(6),
        decomposer=lambda _g: decomposition,
    )
    assert report.accepted
    return encode_labeling(report.labeling)


def _with_label(encoded, key, data, bit_length):
    labels = dict(encoded.labels)
    labels[key] = EncodedLabel(data=data, bit_length=bit_length)
    return EncodedLabeling(
        header=encoded.header, labels=labels, location=encoded.location
    )


def _decode_outcome(decode, encoded):
    """The decoded mapping, or ``CodecError`` when the input is refused
    (any other exception type propagates and fails the test)."""
    try:
        return decode(encoded).mapping
    except CodecError:
        return CodecError


_BOTH_DECODERS = pytest.mark.parametrize(
    "decode",
    [EncodedLabeling.decode, decode_labeling_columnar],
    ids=["reference", "bulk"],
)


def _longest_key(encoded):
    return max(encoded.labels, key=lambda k: encoded.labels[k].bit_length)


class TestBulkDecoderMalformedParity:
    @_BOTH_DECODERS
    def test_truncated_label_rejected(self, decode):
        encoded = _pathwidth_encoded()
        key = _longest_key(encoded)
        half = encoded.labels[key].data[: len(encoded.labels[key].data) // 2]
        with pytest.raises(CodecError):
            decode(_with_label(encoded, key, half, 8 * len(half)))
        with pytest.raises(CodecError):
            decode(_with_label(encoded, key, half, None))

    @_BOTH_DECODERS
    def test_bit_length_one_too_small_rejected(self, decode):
        encoded = _pathwidth_encoded()
        for key, label in list(encoded.labels.items())[:8]:
            with pytest.raises(CodecError):
                decode(
                    _with_label(
                        encoded, key, label.data, label.bit_length - 1
                    )
                )

    @_BOTH_DECODERS
    def test_bit_length_beyond_data_rejected(self, decode):
        encoded = _pathwidth_encoded()
        key = _longest_key(encoded)
        data = encoded.labels[key].data
        with pytest.raises(CodecError):
            decode(_with_label(encoded, key, data, 8 * len(data) + 1))

    @_BOTH_DECODERS
    def test_trailing_bits_rejected(self, decode):
        encoded = _pathwidth_encoded()
        padded = [
            (key, label)
            for key, label in encoded.labels.items()
            if label.bit_length % 8
        ]
        assert padded
        for key, label in padded[:8]:
            with pytest.raises(CodecError, match="trailing data"):
                decode(
                    _with_label(
                        encoded, key, label.data, label.bit_length + 1
                    )
                )

    @_BOTH_DECODERS
    def test_empty_stack_rejected(self, decode):
        encoded = _pathwidth_encoded()
        w = BitWriter()
        w.write(0, encoded.header.depth_width)
        w.write(0, encoded.header.embed_width)
        key = next(iter(encoded.labels))
        with pytest.raises(CodecError, match="empty"):
            decode(_with_label(encoded, key, w.to_bytes(), w.bit_length))

    def test_honest_labeling_decodes_equal(self):
        encoded = _pathwidth_encoded()
        assert decode_labeling_columnar(encoded).mapping == (
            encoded.decode().mapping
        )

    @given(
        index=st.integers(min_value=0, max_value=10**6),
        flips=st.lists(
            st.integers(min_value=0, max_value=10**6), max_size=4
        ),
        cut=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
        keep_bit_length=st.booleans(),
        bit_length_delta=st.integers(min_value=-2, max_value=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_label_same_outcome(
        self, index, flips, cut, keep_bit_length, bit_length_delta
    ):
        """Flip bits of one honest label, truncate it and/or misstate its
        bit length: both decoders refuse it, or both return equal
        mappings.  The bad label sits between two honest ones, so the
        bulk decoder meets it with interning tables already filled."""
        encoded = _pathwidth_encoded()
        keys = sorted(encoded.labels, key=repr)
        at = index % len(keys)
        key = keys[at]
        encoded = EncodedLabeling(
            header=encoded.header,
            labels={
                k: encoded.labels[k]
                for k in (keys[at - 1], key, keys[(at + 1) % len(keys)])
            },
            location=encoded.location,
        )
        label = encoded.labels[key]
        data = bytearray(label.data)
        for flip in flips:
            bit = flip % (8 * len(data))
            data[bit >> 3] ^= 0x80 >> (bit & 7)
        bit_length = label.bit_length + bit_length_delta
        if cut is not None:
            del data[cut % (len(data) + 1):]
            if not keep_bit_length:
                bit_length = min(bit_length, 8 * len(data))
        bad = _with_label(encoded, key, bytes(data), bit_length)
        assert _decode_outcome(decode_labeling_columnar, bad) == (
            _decode_outcome(EncodedLabeling.decode, bad)
        )


# ----------------------------------------------------------------------
# Session-level batch: every property's labeling on one host must
# round-trip, and sizes must come from the wire form.
# ----------------------------------------------------------------------
def test_session_batch_reports_measured_sizes():
    sequence, _graph = lanewidth_workload(3, 20, seed=31)
    session = CertificationSession(rng=random.Random(32))
    reports = session.certify(
        sequence, ["connected", "acyclic", "even-order"]
    )
    for key, report in reports.items():
        if report.refused:
            continue
        assert report.accepted, key
        assert report.max_label_bits == report.encoded.max_bits
        assert report.max_label_bits <= report.accounted_max_label_bits
        assert report.encoded.decode().mapping == report.labeling.mapping


# ----------------------------------------------------------------------
# Golden wire digests: stored labelings stay byte-identical across
# encoder changes.  A change here is a wire-format change and needs a
# WIRE_VERSION bump.
# ----------------------------------------------------------------------
class TestGoldenWireDigests:
    def test_lanewidth_digest(self):
        labeling = _lanewidth_labeling(3, 40, seed=17).labeling
        assert labeling_digest(encode_labeling(labeling)) == (
            "f5ab389bd5c5e29cefe8b50aae9ed601"
        )

    def test_pathwidth_digest(self):
        assert labeling_digest(_pathwidth_encoded()) == (
            "c5c08f3ca58a65fb2441757a9a922d67"
        )


# ----------------------------------------------------------------------
# Encoder memory: the encode must not need memory per output bit.  The
# witness decomposition of this host gives labels of up to 129 kbit.
# Certifying it peaks at ~56 MiB; an encoder holding an 8-byte index
# entry per output bit peaks at ~460 MiB, which the bound catches.
# ----------------------------------------------------------------------
_RSS_SCRIPT = """
import random, resource
from repro.api import certify
from repro.graphs.generators import random_pathwidth_graph
from repro.incremental import witness_decomposer
from repro.pathwidth import PathDecomposition

graph, bags = random_pathwidth_graph(512, 2, random.Random(101))
report = certify(
    graph, "connected", k=2, rng=random.Random(1),
    decomposer=witness_decomposer(PathDecomposition(graph, bags)),
)
assert report.accepted and not report.refused, report.summary()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="ru_maxrss is in KiB only on Linux",
)
def test_pathwidth_certify_peak_rss():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([_SRC, env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    peak_mib = int(result.stdout.strip()) / 1024
    assert peak_mib < 200, f"peak RSS {peak_mib:.0f} MiB"
