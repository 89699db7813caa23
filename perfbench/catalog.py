"""The benchmark's metric catalog.

``END_TO_END`` is what an untraced run (``--trace 0``) reports and
``PER_LAYER`` what a traced run (``--trace 1``) reports.  Each per-layer
row names the end-to-end metric and workload it should move, so a change
that claims a gain on one layer can cite both names.  ``BENCHMARK.json``
at the repository root lists the same names, units and directions
(``perfbench/tests/test_checker.py`` keeps the two in step).

Per-layer values are means per traced op: a time is the layer's self
time (its spans' durations minus their child spans), a count is events
per op, a ratio is taken over the whole run.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
}

#: (name, unit, better, what it should move)
PER_LAYER = (
    ("pathwidth.decompose_s", "s", "lower",
     "ops_per_s on certify-pathwidth; ~0 elsewhere"),
    ("pathwidth.undecided", "count", "lower",
     "failed ops on certify-pathwidth"),
    ("pathwidth.heuristic_misses", "count", "lower",
     "pathwidth.decompose_s on certify-pathwidth (a miss runs branch-and-bound)"),
    ("core.lanes_s", "s", "lower",
     "ops_per_s on certify-pathwidth and edit-stream"),
    ("core.completion_s", "s", "lower",
     "ops_per_s on certify-pathwidth and edit-stream"),
    ("core.match_s", "s", "lower",
     "ops_per_s on certify-lanewidth"),
    ("core.hierarchy_s", "s", "lower",
     "ops_per_s on certify-lanewidth and edit-stream"),
    ("courcelle.evaluate_s", "s", "lower",
     "ops_per_s on certify-lanewidth and certify-pathwidth"),
    ("courcelle.refusals", "count", "lower",
     "ops_per_s on the certify workloads (a refused property skips label/encode)"),
    ("core.label_s", "s", "lower",
     "ops_per_s on certify-lanewidth"),
    ("codec.encode_s", "s", "lower",
     "ops_per_s on the certify workloads"),
    ("codec.encoded_bits", "bits", "lower",
     "codec.decode_s and store.bytes_written"),
    ("codec.mean_label_bits", "bits", "lower",
     "the paper's label size; fixed for a seed"),
    ("codec.max_label_bits", "bits", "lower",
     "the paper's label size; fixed for a seed"),
    ("codec.decode_s", "s", "lower",
     "op_p50_s and ops_per_s on reverify-stored; absent from certify"),
    ("store.save_s", "s", "lower",
     "ops_per_s on the certify workloads"),
    ("store.load_s", "s", "lower",
     "op_p50_s on reverify-stored (decode is its own child span)"),
    ("store.bytes_written", "B", "lower",
     "store.save_s on the certify workloads"),
    ("artifacts.get_s", "s", "lower",
     "op_p50_s on edit-stream"),
    ("artifacts.put_s", "s", "lower",
     "op_p50_s on edit-stream; ops_per_s on certify (store-backed cache)"),
    ("artifacts.hit_ratio", "ratio", "higher",
     "op_p50_s on edit-stream"),
    ("verify.round_s", "s", "lower",
     "ops_per_s on every workload"),
    ("verify.compile_s", "s", "lower",
     "ops_per_s on every workload; the reject path of reverify-stored"),
    ("verify.attach_s", "s", "lower",
     "op_p50_s on reverify-stored"),
    ("verify.attach_ratio", "ratio", "higher",
     "op_p50_s on reverify-stored"),
    ("verify.fallback_views", "count", "lower",
     "ops_per_s on reverify-stored (reject path)"),
    ("incremental.repair_s", "s", "lower",
     "ops_per_s on edit-stream"),
    ("incremental.region_round_s", "s", "lower",
     "ops_per_s on edit-stream"),
    ("incremental.stages_run", "count", "lower",
     "ops_per_s on edit-stream"),
    ("incremental.region_vertices", "count", "lower",
     "incremental.region_round_s on edit-stream"),
    ("incremental.artifacts_reused", "count", "higher",
     "op_p50_s on edit-stream"),
    ("incremental.full_fallbacks", "count", "lower",
     "ops_per_s on edit-stream"),
    ("session.other_s", "s", "lower",
     "ops_per_s on every workload (plan runner, reports, pickling)"),
    ("trace.op_s", "s", "lower",
     "the traced op wall clock the self times above add up to"),
    ("trace.overhead", "ratio", "lower",
     "traced op wall clock over untraced op wall clock"),
)


def per_layer_names() -> list:
    return [row[0] for row in PER_LAYER]
