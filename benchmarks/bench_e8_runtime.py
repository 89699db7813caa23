"""E8 — prover, verifier, and store-backed re-verification runtime.

The prover is a centralized algorithm (quasi-linear here); the verifier
is a single local round, driven by the pluggable
:class:`repro.api.VerificationEngine`.  The table reports wall-clock
times per n for both executor kinds — the serial reference and the
vectorized (batched numpy kernels) executor — plus the **stored path**: persist the wire-encoded
certificates to a :class:`repro.api.CertificateStore`, then load +
re-verify from disk in a cold session (certify-once / re-verify-many,
no prover stages anywhere).

The vectorized executor compiles the round once and then evaluates it
in microseconds, so its row carries **two** numbers:

* ``cold_s`` — first verification of a never-seen round (compile +
  kernels; what a one-shot CLI run pays);
* ``steady_s`` — re-verifying the same resident round (what the daemon
  and the store's re-verify-many loop pay after warm-up; best of
  ``STEADY_REPEATS``).

Every executor row records its ``kind``, and the kernel rows their
``kernel_stats`` counters, so the trajectory file is self-describing.

The whole series is persisted for trajectory tracking: one
machine-readable ``BENCH_JSON`` line on stdout *and* a JSON file.  The
committed baseline lives at ``benchmarks/BENCH_E8.json``; to protect it
from accidental refreshes the benchmark **refuses** to overwrite that
exact file unless ``E8_OUT`` explicitly names it — the default output
goes to the working directory instead.

Gate: at the largest n, the vectorized steady round must beat the
serial round.

Environment knobs: ``E8_SIZES`` (comma-separated n values; CI's smoke
step uses a tiny workload) and ``E8_OUT`` (output path, may point at the
committed baseline to refresh it deliberately).
"""

import json
import os
import tempfile
import time

from repro.api import (
    ArtifactCache,
    CertificateStore,
    CertificationSession,
    VerificationEngine,
    make_executor,
)
from repro.experiments import Table, lanewidth_workload, seed_stream

SIZES = tuple(
    int(size) for size in os.environ.get("E8_SIZES", "64,256,1024").split(",")
)
OUT_PATH = os.environ.get("E8_OUT", "BENCH_E8.json")
ROOT_SEED = 8
STEADY_REPEATS = 3
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_E8.json")


def _prove(n: int, seed: int, store=None):
    """Certify one lanewidth host (labels only) through the session."""
    sequence, _graph = lanewidth_workload(3, n, seed)
    session = CertificationSession(
        rng=seed_stream(ROOT_SEED, "ids").rng(seed), store=store
    )
    report = session.certify(sequence, "connected", verify=False)
    assert not report.refused, report.refusal
    return report


def _timed_verify(engine, config, scheme, labeling):
    t0 = time.perf_counter()
    report = engine.verify(config, scheme, labeling)
    return report, time.perf_counter() - t0


def _steady(engine, config, scheme, labeling):
    """Best-of re-verification time for an already-resident round."""
    best = None
    for _ in range(STEADY_REPEATS):
        _, seconds = _timed_verify(engine, config, scheme, labeling)
        best = seconds if best is None else min(best, seconds)
    return best


def test_e8_runtime(benchmark):
    table = Table(
        "E8: runtime scaling (seconds)",
        [
            "n",
            "prove_s",
            "serial_s",
            "vec_cold_s",
            "compile_s",
            "vec_steady_s",
            "reverify_s",
        ],
    )
    payload = {"bench": "e8_runtime", "property": "connected", "series": []}
    serial = VerificationEngine(make_executor("serial"))
    with tempfile.TemporaryDirectory() as root:
        store = CertificateStore(root)
        for n in SIZES:
            # The kernel executor is per-n so every cold row really is
            # cold (its round cache is keyed by round identity).
            vectorized = VerificationEngine(make_executor("vectorized"))
            t0 = time.perf_counter()
            report = _prove(n, seed=n, store=store)
            t1 = time.perf_counter()
            config, scheme, labeling = (
                report.config,
                report.scheme,
                report.labeling,
            )
            serial_report, serial_s = _timed_verify(
                serial, config, scheme, labeling
            )
            vec_report, vec_cold_s = _timed_verify(
                vectorized, config, scheme, labeling
            )
            vec_steady_s = _steady(vectorized, config, scheme, labeling)
            # PR 9: fresh-process pack reuse.  A disk-backed artifact
            # cache persists the packed RoundArrays columns, so a
            # brand-new executor's cold round (a restarted process)
            # skips re-packing.  Gated on kernel_stats, not wall-clock:
            # the restart round must report arrays_cached=True.
            arrays_root = os.path.join(root, f"arrays-{n}")
            vec_persist = VerificationEngine(
                make_executor(
                    "vectorized", artifacts=ArtifactCache(root=arrays_root)
                )
            )
            persist_report, persist_cold_s = _timed_verify(
                vec_persist, config, scheme, labeling
            )
            vec_restart = VerificationEngine(
                make_executor(
                    "vectorized", artifacts=ArtifactCache(root=arrays_root)
                )
            )
            restart_report, restart_cold_s = _timed_verify(
                vec_restart, config, scheme, labeling
            )
            if (persist_report.kernel_stats or {}).get("mode") == "kernel":
                assert (
                    persist_report.kernel_stats.get("arrays_cached") is False
                ), "first cold round unexpectedly found a cached pack"
                assert (
                    restart_report.kernel_stats.get("arrays_cached") is True
                ), "restarted executor re-packed despite the artifact cache"
                # PR 10: the restarted process also attaches the
                # persisted *compiled round* — zero recompilation.
                assert (
                    persist_report.kernel_stats.get("compiled_round_cached")
                    is False
                ), "first cold round unexpectedly found a compiled round"
                assert (
                    restart_report.kernel_stats.get("compiled_round_cached")
                    is True
                ), "restarted executor recompiled despite the envelope"
                assert (
                    restart_report.kernel_stats.get("compile_seconds") == 0
                ), "attached round reported nonzero compile time"
            # Stored path: decode from disk + run the round, no prover.
            fingerprint = config.graph.fingerprint()
            t3 = time.perf_counter()
            stored = store.reverify(fingerprint, "connected", engine=serial)
            reverify_s = time.perf_counter() - t3
            assert serial_report.accepted
            # Scheduling must not change semantics (the smoke step's
            # every-executor == serial verdict assertion).
            for other in (vec_report, persist_report, restart_report):
                assert other.verdicts == serial_report.verdicts
                assert other.accepted == serial_report.accepted
            assert serial_report.views_built == n
            # The stored round sees the exact same certificates.
            assert stored.accepted
            assert stored.labeling.mapping == labeling.mapping
            vec_compile_s = float(
                (vec_report.kernel_stats or {}).get("compile_seconds", 0.0)
            )
            point = {
                "n": n,
                "prove_s": round(t1 - t0, 6),
                "vec_compile_s": round(vec_compile_s, 6),
                "serial_s": round(serial_s, 6),
                "reverify_s": round(reverify_s, 6),
                "serial_views_per_s": round(
                    serial_report.views_built / serial_s, 1
                ),
                "executors": [
                    {"kind": "serial", "verify_s": round(serial_s, 6)},
                    {
                        "kind": "vectorized",
                        "cold_s": round(vec_cold_s, 6),
                        "steady_s": round(vec_steady_s, 6),
                        "kernel_stats": vec_report.kernel_stats,
                    },
                    {
                        "kind": "vectorized+artifacts",
                        "cold_s": round(persist_cold_s, 6),
                        "restart_cold_s": round(restart_cold_s, 6),
                        "kernel_stats": restart_report.kernel_stats,
                    },
                ],
            }
            payload["series"].append(point)
            table.add(
                n,
                f"{point['prove_s']:.3f}",
                f"{serial_s:.3f}",
                f"{vec_cold_s:.3f}",
                f"{vec_compile_s:.4f}",
                f"{vec_steady_s:.4f}",
                f"{reverify_s:.3f}",
            )
        table.show()

    # Gate: at the largest n, the resident vectorized round must beat
    # the serial round.
    top = payload["series"][-1]
    vec_row = next(
        row for row in top["executors"] if row["kind"] == "vectorized"
    )
    assert vec_row["steady_s"] < top["serial_s"], (
        f"vectorized steady {vec_row['steady_s']}s is not faster "
        f"than serial {top['serial_s']}s at n={top['n']}"
    )

    if (
        "E8_OUT" not in os.environ
        and os.path.abspath(OUT_PATH) == os.path.abspath(BASELINE_PATH)
    ):
        raise RuntimeError(
            "refusing to overwrite the committed baseline "
            f"{BASELINE_PATH}; set E8_OUT to refresh it deliberately"
        )
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("BENCH_JSON " + json.dumps(payload, sort_keys=True))

    # Scale the timed prover with the workload so E8_SIZES smoke runs
    # (CI) stay tiny; the default series still times the n=256 prover.
    benchmark(_prove, min(256, max(SIZES)), 7)
