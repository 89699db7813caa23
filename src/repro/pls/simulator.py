"""The verification-round simulator (legacy surface).

One round: every vertex receives its local view and outputs accept or
reject; the scheme accepts iff all vertices accept (Section 1.1).  The
round itself now lives in :mod:`repro.api.runtime` — a
:class:`~repro.api.runtime.VerificationEngine` with pluggable executors,
fail-fast short-circuiting, and structured
:class:`~repro.api.runtime.VerificationReport` output.  These helpers
are kept as behavior-identical shims for legacy callers: a serial,
exhaustive round returning the plain :class:`VerificationResult`.

Verifiers still get a :class:`LocalView` and nothing else, which keeps
the locality guarantee auditable.
"""

from __future__ import annotations

from repro.pls.model import Configuration
from repro.pls.scheme import Labeling, ProofLabelingScheme, VerificationResult


def run_verification(
    config: Configuration,
    scheme: ProofLabelingScheme,
    labeling: Labeling,
) -> VerificationResult:
    """Run the distributed verification round and collect verdicts.

    Thin shim over :class:`repro.api.runtime.VerificationEngine` (serial
    executor, no short-circuit); use the engine directly for vectorized
    execution, fail-fast audits, or the structured report.  (The import
    is deferred: ``repro.api`` depends on this package.)
    """
    from repro.api.runtime import VerificationEngine

    return VerificationEngine().verify(config, scheme, labeling).as_result()


def prove_and_verify(config: Configuration, scheme: ProofLabelingScheme):
    """Convenience: run the honest prover then the verification round."""
    labeling = scheme.prove(config)
    result = run_verification(config, scheme, labeling)
    return labeling, result
