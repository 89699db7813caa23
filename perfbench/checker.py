"""Verdict checking: every op's answer against an independent one.

Each op ends in exactly one class:

* ``ok`` -- every verdict matches the independent answer;
* ``raised`` -- the op raised instead of answering;
* ``undecided`` -- the prover refused for lack of a width-<=k witness on a
  host that was generated with pathwidth <= k;
* ``wrong`` -- some verdict contradicts the independent answer (a false
  property certified, a true one refused, honest labels rejected, or a
  tampered host accepted).

``raised``, ``undecided`` and ``wrong`` ops are failed ops; only ``wrong``
makes a run incorrect.
"""

from __future__ import annotations

OK = "ok"
RAISED = "raised"
UNDECIDED = "undecided"
WRONG = "wrong"
CLASSES = (OK, RAISED, UNDECIDED, WRONG)

#: Prefix of the prover's refusal when no width-<=k decomposition is found.
WIDTH_REFUSAL = "no witness decomposition of width"


def classify_certify(truth: dict, outcome) -> str:
    """Class of one certify op.

    ``truth`` maps property key -> the independent answer
    (:func:`repro.experiments.property_truth`); ``outcome`` is the
    ``{key: CertificationReport}`` batch the op returned, or the
    exception it raised.
    """
    if isinstance(outcome, BaseException):
        return RAISED
    undecided = False
    for key, expected in truth.items():
        report = outcome[key]
        if report.refused:
            if str(report.refusal).startswith(WIDTH_REFUSAL):
                undecided = True
            elif expected:
                return WRONG  # a true property refused
        elif not expected or not report.accepted:
            return WRONG  # a false property certified, or honest labels rejected
    return UNDECIDED if undecided else OK


def classify_round(expected: bool, outcome) -> str:
    """Class of one verification round: ``outcome`` is its verdict or
    the exception it raised."""
    if isinstance(outcome, BaseException):
        return RAISED
    return OK if bool(outcome) == expected else WRONG


def tally(classes) -> dict:
    """``{class: count}`` over every class, zeros included."""
    counts = {name: 0 for name in CLASSES}
    for name in classes:
        counts[name] += 1
    return counts
