"""Spans around the program's layer entry points, installed from outside.

A :class:`Tracer` replaces each entry point named in :func:`_targets`
with a wrapper *where it is bound* (a class attribute, or a module
global such as ``encode_labeling_columnar`` as imported by
``repro.api.session``) and puts the originals back on
:meth:`Tracer.uninstall`.  No program file changes.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op]``
and nest under the op's root span.  A layer's self time is its spans'
durations minus the part their child spans cover, so the self times of
every layer plus the root span's own (``session.other_s``) add up to the
op's wall clock exactly.  Wrappers record only while an op is open;
calls made during set-up pass straight through.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from checker import WIDTH_REFUSAL

ROOT_SPAN = "op"


# ----------------------------------------------------------------------
# Counters read at the layer boundaries
# ----------------------------------------------------------------------
def _on_decompose(tracer, args, result, exc):
    stage, ctx = args[0], args[1]
    if exc is not None:
        if str(exc).startswith(WIDTH_REFUSAL):
            tracer.count("pathwidth.undecided")
        return
    heuristic = (ctx.decomposition_stats or {}).get("heuristic_width")
    if heuristic is not None and heuristic > stage.k:
        tracer.count("pathwidth.heuristic_misses")


def _on_evaluate(tracer, args, result, exc):
    if exc is not None:
        tracer.count("courcelle.refusals")


def _on_encode(tracer, args, result, exc):
    if exc is None:
        tracer.count("codec.encoded_bits", result.total_bits)


def _on_save(tracer, args, result, exc):
    if exc is None:
        tracer.count("store.bytes_written", Path(result).stat().st_size)


def _on_get(tracer, args, result, exc):
    tracer.ratio("artifacts.hit_ratio", result is not None)


def _on_verify(tracer, args, result, exc):
    if exc is not None:
        return
    stats = result.kernel_stats or {}
    if stats.get("mode") == "kernel":
        tracer.ratio(
            "verify.attach_ratio", bool(stats.get("compiled_round_cached"))
        )
    tracer.count("verify.fallback_views", result.views_built)


def _targets():
    """``(owner, attribute, span name, counter hook)`` per entry point."""
    from repro.api import artifacts, pipeline, runtime, session, store
    from repro.api import vectorized
    from repro.incremental import certifier, executor

    return (
        (pipeline.DecomposeStage, "run", "pathwidth.decompose", _on_decompose),
        (pipeline.LaneStage, "run", "core.lanes", None),
        (pipeline.CompletionStage, "run", "core.completion", None),
        (pipeline.MatchSequenceStage, "run", "core.match", None),
        (pipeline.HierarchyStage, "run", "core.hierarchy", None),
        (pipeline.EvaluateStage, "run", "courcelle.evaluate", _on_evaluate),
        (pipeline.LabelStage, "run", "core.label", None),
        (session, "encode_labeling_columnar", "codec.encode", _on_encode),
        (store, "encode_labeling_columnar", "codec.encode", _on_encode),
        (store, "decode_labeling_columnar", "codec.decode", None),
        (store.CertificateStore, "save", "store.save", _on_save),
        (store.CertificateStore, "load", "store.load", None),
        (artifacts.ArtifactCache, "get", "artifacts.get", _on_get),
        (artifacts.ArtifactCache, "put", "artifacts.put", None),
        # A store-backed cache rewrites the label entry on annotate.
        (artifacts.ArtifactCache, "annotate", "artifacts.put", None),
        (runtime.VerificationEngine, "verify", "verify.round", _on_verify),
        # KernelRound compiles lazily: construction only stores the
        # columns, the first run() interns records in prepare() and
        # builds the kernel tables in _finalize().
        (vectorized.KernelRound, "prepare", "verify.compile", None),
        (vectorized.KernelRound, "_finalize", "verify.compile", None),
        (vectorized.KernelRound, "from_state", "verify.attach", None),
        (certifier, "repair_decomposition", "incremental.repair", None),
        (executor.DirtyRegionExecutor, "verify_region",
         "incremental.region_round", None),
    )


class Tracer:
    """In-memory span and counter recorder for traced ops."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, op]
        self.ops = 0
        self.counts: dict = defaultdict(float)
        self.ratios: dict = defaultdict(lambda: [0, 0])  # name -> [hits, total]
        self.samples: dict = defaultdict(list)
        self._stack: list = []
        self._op = None
        self._saved: list = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, hook in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name, hook))
            else:
                patched = self._wrap(original, name, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, perf_counter_ns(), 0, tracer._stack[-1], tracer._op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter_ns()
                tracer._stack.pop()
                if hook is not None:
                    hook(tracer, args, None, exc)
                raise
            span[2] = perf_counter_ns()
            tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, result, None)
            return result

        return traced

    # -- ops and counters -----------------------------------------------
    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([ROOT_SPAN, perf_counter_ns(), 0, None, op_id])

    def end_op(self) -> None:
        index = self._stack.pop()
        self.spans[index][2] = perf_counter_ns()
        self.ops += 1
        self._op = None

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def ratio(self, name: str, hit: bool) -> None:
        pair = self.ratios[name]
        pair[0] += int(hit)
        pair[1] += 1

    def sample(self, name: str, value) -> None:
        self.samples[name].append(value)

    # -- results ----------------------------------------------------------
    def self_seconds(self, scale=None) -> dict:
        """``{span name: total self time in seconds}`` over every op.

        ``scale`` maps an op id to the factor its spans are multiplied by
        (the benchmark's calibration); missing ops count at 1.
        """
        scale = scale or {}
        covered = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict = defaultdict(float)
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            totals[name] += (end - start - covered[index]) * scale.get(op, 1.0)
        return {name: ns / 1e9 for name, ns in totals.items()}

    def op_seconds(self, scale=None) -> float:
        """Total wall clock of the traced ops' root spans."""
        scale = scale or {}
        return sum(
            (end - start) * scale.get(op, 1.0)
            for name, start, end, _parent, op in self.spans
            if name == ROOT_SPAN
        ) / 1e9

    def per_layer(self, names, scale=None) -> dict:
        """Per-op means for every catalog name (0 where nothing ran)."""
        ops = max(self.ops, 1)
        selfs = self.self_seconds(scale)
        values = {}
        for name in names:
            if name == "session.other_s":
                values[name] = selfs.get(ROOT_SPAN, 0.0) / ops
            elif name == "trace.op_s":
                values[name] = self.op_seconds(scale) / ops
            elif name in self.ratios:
                hits, total = self.ratios[name]
                values[name] = hits / total
            elif name in self.samples:
                values[name] = sum(self.samples[name]) / len(self.samples[name])
            elif name.endswith("_s"):
                values[name] = selfs.get(name[:-2], 0.0) / ops
            else:
                values[name] = self.counts.get(name, 0.0) / ops
        return values

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
