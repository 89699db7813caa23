"""Certificate wire codec: bit-level I/O and the versioned label format.

The reproduction's size claims are only as honest as the bytes behind
them.  This package materializes every
:class:`~repro.core.certificates.Theorem1Label` as an actual bit string:

* :mod:`repro.codec.bitio` — MSB-first :class:`BitWriter` /
  :class:`BitReader` primitives;
* :mod:`repro.codec.wire` — the versioned wire format (v1): a shared
  :class:`WireHeader` per labeling plus per-edge encodings, with
  ``decode(encode(label)) == label`` guaranteed by tier-1 property
  tests and the measured bit counts feeding
  :class:`~repro.api.results.CertificationReport`.

The byte-level layout is specified in ``docs/FORMAT.md``; persistence of
encoded labelings lives in :class:`repro.api.store.CertificateStore`.
"""

from repro.codec.bitio import (
    BitReader,
    BitStreamError,
    BitWriter,
    width_for,
    width_for_value,
)
from repro.codec.wire import (
    WIRE_VERSION,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    WireHeader,
    decode_label,
    decode_labeling,
    encode_label,
    encode_labeling,
    labeling_digest,
    stamp_wire_digest,
)
from repro.codec.columnar import (
    ColumnarEncoder,
    decode_labeling_columnar,
    encode_labeling_columnar,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "BitStreamError",
    "width_for",
    "width_for_value",
    "WIRE_VERSION",
    "CodecError",
    "WireHeader",
    "EncodedLabel",
    "EncodedLabeling",
    "encode_label",
    "decode_label",
    "encode_labeling",
    "decode_labeling",
    "labeling_digest",
    "stamp_wire_digest",
    "ColumnarEncoder",
    "decode_labeling_columnar",
    "encode_labeling_columnar",
]
