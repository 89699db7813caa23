"""E14 — cold-path annihilation: persisted rounds + bulk decode.

PR 10 attacks the costs that dominate a *cold* certification — the
first run in a fresh process, nothing resident:

* **kernel compile** — the vectorized round used to recompile its
  tables on every restart.  Now the compiled round is exported into a
  versioned envelope and persisted through the artifact cache, keyed by
  the labeling's wire digest; a restarted process attaches it with
  zero recompilation (``compiled_round_cached=True``,
  ``compile_seconds == 0``).
* **wire decode** — the bulk decoder reads each label as one integer
  and parses each distinct info and pointer once; its result is
  asserted ``==`` to the reference decode here.

Two legs per n:

* ``cold_s`` vs ``restart_s`` — full verification wall-clock with a
  fresh executor over an empty cache directory (compile + verify +
  envelope store) vs a fresh executor + fresh cache object over the
  *warmed* directory (attach + verify) — the restarted-process story.
* ``decode_perlabel_s`` vs ``decode_bulk_s`` — the reference
  :meth:`EncodedLabeling.decode` (one ``decode_label`` per edge, no
  sharing) vs :func:`decode_labeling_columnar` over the labeling's
  :func:`~repro.codec.encode_labeling` output, the two mappings
  asserted equal.  The legs run interleaved (same loop iteration,
  per-round ratios, median reported) because sequential timing on a
  noisy box skews either way by 30-50%.

The committed baseline lives at ``benchmarks/BENCH_E14.json`` (refresh
deliberately via ``E14_OUT``; the bench refuses to overwrite it
otherwise).  Knobs: ``E14_SIZES`` (comma-separated n values; CI smoke
uses a tiny workload), ``E14_ENCODE_ROUNDS`` (rounds of the decode
legs; the name predates the removal of the encode leg), and
``E14_REQUIRE_SPEEDUP`` — when set, assert at the largest n that the
restart leg is >= 2x cold and the bulk decode is >= 3x the per-label
decode (the gates the committed baseline was generated under).
"""

import gc
import json
import os
import statistics
import tempfile
import time

from repro.api import (
    ArtifactCache,
    CertificationSession,
    VerificationEngine,
    make_executor,
)
from repro.codec import decode_labeling_columnar, encode_labeling
from repro.experiments import Table, lanewidth_workload, seed_stream

SIZES = tuple(
    int(size) for size in os.environ.get("E14_SIZES", "64,256,1024").split(",")
)
ENCODE_ROUNDS = int(os.environ.get("E14_ENCODE_ROUNDS", "15"))
OUT_PATH = os.environ.get("E14_OUT", "BENCH_E14.json")
ROOT_SEED = 8
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_E14.json")


def _prove(n: int, seed: int):
    """Labels only; the session stamps the labeling's wire digest."""
    sequence, _graph = lanewidth_workload(3, n, seed)
    session = CertificationSession(rng=seed_stream(ROOT_SEED, "ids").rng(seed))
    report = session.certify(sequence, "connected", verify=False)
    assert not report.refused, report.refusal
    return report


def _timed_verify(engine, config, scheme, labeling):
    t0 = time.perf_counter()
    report = engine.verify(config, scheme, labeling)
    return report, time.perf_counter() - t0


def test_e14_cold_path(benchmark):
    table = Table(
        "E14: cold-path annihilation",
        [
            "n",
            "cold_s",
            "restart_s",
            "cold_x",
            "dec_perlabel_s",
            "dec_bulk_s",
            "dec_x",
        ],
    )
    payload = {"bench": "e14_cold_path", "property": "connected", "series": []}
    with tempfile.TemporaryDirectory() as root:
        for n in SIZES:
            report = _prove(n, seed=n)
            config, scheme, labeling = (
                report.config,
                report.scheme,
                report.labeling,
            )
            cache_root = os.path.join(root, f"cold-{n}")
            # Cold leg: fresh executor over an *empty* cache directory —
            # pays arrays pack + kernel compile + envelope store.
            cold_engine = VerificationEngine(
                make_executor(
                    "vectorized", artifacts=ArtifactCache(root=cache_root)
                )
            )
            cold_report, cold_s = _timed_verify(
                cold_engine, config, scheme, labeling
            )
            # Restart leg: fresh executor + fresh cache object over the
            # warmed directory — a restarted process attaching the
            # persisted compiled round.
            restart_engine = VerificationEngine(
                make_executor(
                    "vectorized", artifacts=ArtifactCache(root=cache_root)
                )
            )
            restart_report, restart_s = _timed_verify(
                restart_engine, config, scheme, labeling
            )
            assert cold_report.accepted
            assert restart_report.verdicts == cold_report.verdicts
            assert restart_report.accepted == cold_report.accepted
            kernel = (cold_report.kernel_stats or {}).get("mode") == "kernel"
            if kernel:
                assert (
                    cold_report.kernel_stats.get("compiled_round_cached")
                    is False
                ), "cold leg unexpectedly found a persisted round"
                assert (
                    restart_report.kernel_stats.get("compiled_round_cached")
                    is True
                ), "restart leg recompiled despite the persisted envelope"
                assert (
                    restart_report.kernel_stats.get("compile_seconds") == 0
                ), "attached round reported nonzero compile time"
            encoded = encode_labeling(labeling)
            # Decode legs, interleaved: the reference per-label decode
            # vs the bulk decoder on the same bytes, per-round ratios,
            # median.  Collector paused over the timed region (standard
            # bench hygiene — cyclic-GC pauses land on whichever leg is
            # running and at these sizes swamp the signal).
            perlabel_times, bulk_times, ratios = [], [], []
            gc.collect()
            gc.disable()
            try:
                for _ in range(ENCODE_ROUNDS):
                    t0 = time.perf_counter()
                    reference = encoded.decode()
                    t1 = time.perf_counter()
                    decoded = decode_labeling_columnar(encoded)
                    t2 = time.perf_counter()
                    perlabel_times.append(t1 - t0)
                    bulk_times.append(t2 - t1)
                    ratios.append((t1 - t0) / max(t2 - t1, 1e-9))
            finally:
                gc.enable()
            assert decoded.mapping == reference.mapping
            assert decoded.mapping == labeling.mapping
            # Headline ratio from each leg's best-of (timing noise is
            # one-sided additive — the same estimator pytest-benchmark
            # leads with); the per-round median rides in the payload.
            decode_perlabel_s = min(perlabel_times)
            decode_bulk_s = min(bulk_times)
            decode_x = decode_perlabel_s / max(decode_bulk_s, 1e-9)
            decode_x_median = statistics.median(ratios)
            cold_x = cold_s / max(restart_s, 1e-9)
            point = {
                "n": n,
                "cold_s": round(cold_s, 6),
                "restart_s": round(restart_s, 6),
                "cold_speedup": round(cold_x, 2),
                "decode_rounds": ENCODE_ROUNDS,
                "decode_perlabel_s": round(decode_perlabel_s, 6),
                "decode_bulk_s": round(decode_bulk_s, 6),
                "decode_speedup": round(decode_x, 2),
                "decode_speedup_median": round(decode_x_median, 2),
                "cold_kernel_stats": cold_report.kernel_stats,
                "restart_kernel_stats": restart_report.kernel_stats,
            }
            payload["series"].append(point)
            table.add(
                n,
                f"{cold_s:.3f}",
                f"{restart_s:.3f}",
                f"{cold_x:.1f}x",
                f"{decode_perlabel_s:.4f}",
                f"{decode_bulk_s:.4f}",
                f"{decode_x:.1f}x",
            )
        table.show()

    if os.environ.get("E14_REQUIRE_SPEEDUP"):
        # The PR 10 gates, checked at the largest n (the committed
        # baseline is generated under this knob; CI smoke runs tiny
        # workloads where fixed overheads drown the ratios).
        top = payload["series"][-1]
        assert top["cold_speedup"] >= 2.0, (
            f"restart leg only {top['cold_speedup']}x over cold at "
            f"n={top['n']} (need >= 2x)"
        )
        assert top["decode_speedup"] >= 3.0, (
            f"bulk decode only {top['decode_speedup']}x over the "
            f"per-label decode at n={top['n']} (need >= 3x)"
        )

    if (
        "E14_OUT" not in os.environ
        and os.path.abspath(OUT_PATH) == os.path.abspath(BASELINE_PATH)
    ):
        raise RuntimeError(
            "refusing to overwrite the committed baseline "
            f"{BASELINE_PATH}; set E14_OUT to refresh it deliberately"
        )
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("BENCH_JSON " + json.dumps(payload, sort_keys=True))

    # Time the steady-state attach-and-verify round for the plugin's
    # trend tracking; keep it tiny so CI smoke stays fast.
    small = min(SIZES)
    report = _prove(small, seed=small)
    engine = VerificationEngine(make_executor("vectorized"))
    engine.verify(report.config, report.scheme, report.labeling)
    benchmark(
        engine.verify, report.config, report.scheme, report.labeling
    )
