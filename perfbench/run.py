"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify-lanewidth --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
One process, one thread, a closed loop with one caller: each op starts
when the previous one has ended, until ``--seconds`` have passed.

* ``--trace 0`` reports the end-to-end metrics of ``catalog.END_TO_END``.
* ``--trace 1`` installs span wrappers around the program's layer entry
  points (``tracing.py``) on alternating blocks of ops and reports the
  per-layer metrics of ``catalog.PER_LAYER`` from the traced blocks,
  plus ``trace.overhead`` against the untraced blocks.

Times are *calibrated seconds*.  A fixed pure-Python job that touches
none of the program runs between ops, at least
``CALIBRATION_EVERY_S`` apart; an op's wall clock is scaled by
``CALIBRATION_REF_S`` over the mean time of the samples taken just
before and just after it.  On a shared machine whose speed drifts by
tens of percent within seconds, the scaled figure follows the program
rather than the neighbours.  Raw wall clocks and the peak resident
memory stay in the result file and the human-readable lines.

``setup_s`` is the median of three cold set-ups, calibrated the same
way: this process's own (imports, the workload's set-up and one warm-up
op on an extra host) and two more in fresh interpreters
(``--setup-probe``).

Human-readable lines (the stamp, the failure classes, the tail latency,
the per-layer table) come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, and in traced runs every span, is also written under
``.perfbench/results/``.  The exit code is 0 only for a correct run; a
checkout without ``src/`` exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import catalog
import checker
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Cold set-ups per run (this process plus fresh-interpreter probes).
SETUP_SAMPLES = 3
#: A seed never used while tuning the benchmark: a claimed gain must
#: also hold on it.
HELD_OUT_SEED = 4099
#: Tail latency is reported only with at least this many ops.
TAIL_MIN_OPS = 20
#: The calibration job's time on the machine calibrated seconds refer to
#: (its typical time under load on the 2-CPU Xeon the bounds were set on).
CALIBRATION_REF_S = 0.035
#: Least time between two calibration samples in the timed loop.
CALIBRATION_EVERY_S = 0.25


def calibration_seconds() -> float:
    """Time one fixed pure-Python job that touches none of the program."""
    gc.disable()
    try:
        start = perf_counter()
        rng = random.Random(12345)
        keys = [(rng.randrange(1 << 20), i & 1023) for i in range(20000)]
        table: dict = {}
        for key in keys:
            table[key] = table.get(key, 0) + 1
        pickle.dumps(sorted(keys))
        return perf_counter() - start
    finally:
        gc.enable()


def calibrated(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_REF_S / calibration


def load_program():
    """Import the program from this checkout's ``src/`` and the workloads."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.api

    origin = Path(repro.api.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise ImportError(f"repro resolved outside this checkout: {origin}")
    import workloads

    return workloads


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="time one cold set-up, print it, and exit",
    )
    return parser.parse_args(argv)


@dataclass
class OpRecord:
    index: int
    seconds: float  # raw wall clock
    calibration_seconds: float  # the calibration job around this op
    verdict: str
    traced: bool

    @property
    def calibrated(self) -> float:
        return calibrated(self.seconds, self.calibration_seconds)


def probe_setup(args) -> dict:
    """One cold set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


class Calibrator:
    """Calibration samples at least ``CALIBRATION_EVERY_S`` apart.

    An op's calibration is the mean of the last sample taken before it
    started and the first taken after it ended, so long ops are
    bracketed one to one while short ops share their samples.
    """

    def __init__(self):
        self.samples: list = []  # (taken at, calibration seconds)

    def sample(self, force: bool = False) -> None:
        if force or not self.samples or (
            perf_counter() - self.samples[-1][0] >= CALIBRATION_EVERY_S
        ):
            seconds = calibration_seconds()
            self.samples.append((perf_counter(), seconds))

    def around(self, start: float, end: float) -> float:
        times = [taken for taken, _s in self.samples]
        before = self.samples[bisect.bisect_right(times, start) - 1][1]
        after = self.samples[bisect.bisect_left(times, end)][1]
        return (before + after) / 2


def run_loop(workload, seconds, tracer):
    """The closed loop; returns the op records and label-bit samples."""
    spans = []  # (index, start, end, verdict, traced)
    bits = []
    calibrator = Calibrator()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        op = workload.make_input(i)
        # Collect what earlier ops left behind, then freeze the survivors:
        # the collections an op triggers scan only objects it created, so
        # no op pays for a full pass over state that earlier ops built.
        gc.collect()
        gc.freeze()
        traced = tracer is not None and (i // workload.block) % 2 == 0
        calibrator.sample(force=not spans)
        if traced:
            tracer.install()
            tracer.begin_op(i)
        start = perf_counter()
        try:
            outcome = workload.run(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome = exc
        end = perf_counter()
        if traced:
            tracer.end_op()
            tracer.uninstall()
        calibrator.sample()
        if isinstance(outcome, Exception):
            traceback.print_exception(outcome, file=sys.stderr)
        verdict = workload.check(op, outcome)
        if verdict == checker.OK and (tracer is None or traced):
            op_bits = workload.label_bits(outcome)
            bits.extend(op_bits)
            if traced:
                workload.record(tracer, outcome)
                for mean, largest in op_bits:
                    tracer.sample("codec.mean_label_bits", mean)
                    tracer.sample("codec.max_label_bits", largest)
        workload.cleanup(op)
        spans.append((i, start, end, verdict, traced))
        i += 1
        # A traced run ends on whole traced/untraced block pairs, so both
        # halves see the same mix of ops.
        enough = tracer is None or i % (2 * workload.block) == 0
        if enough and perf_counter() >= deadline:
            break
    calibrator.sample(force=True)
    records = [
        OpRecord(index, end - start, calibrator.around(start, end), verdict, traced)
        for index, start, end, verdict, traced in spans
    ]
    return records, bits


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    if len(latencies) < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    return {
        "value": ordered[-11],
        "percentile": 100.0 * (len(ordered) - 10) / len(ordered),
        "samples": len(ordered),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "calibration_ref_s": CALIBRATION_REF_S,
    }


def end_to_end(records, setups) -> dict:
    done = [r.calibrated for r in records if r.verdict == checker.OK]
    wall = sum(r.calibrated for r in records)
    return {
        "ops_per_s": len(done) / wall,
        "op_p50_s": statistics.median(done) if done else 0.0,
        "setup_s": statistics.median(s["calibrated"] for s in setups),
    }


def per_layer(records, tracer) -> dict:
    scale = {
        r.index: CALIBRATION_REF_S / r.calibration_seconds
        for r in records if r.traced
    }
    values = tracer.per_layer(catalog.per_layer_names(), scale)
    traced = [r.calibrated for r in records if r.traced]
    untraced = [r.calibrated for r in records if not r.traced]
    values["trace.overhead"] = statistics.fmean(traced) / statistics.fmean(untraced)
    return values


def print_layers(values, tracer) -> None:
    print(f"per-layer means over {tracer.ops} traced ops (calibrated seconds):")
    for name, unit, _better, moves in catalog.PER_LAYER:
        print(f"  {name:30s} {values[name]:14.6g} {unit:6s} -> {moves}")
    layers = sum(
        values[name] for name, unit, *_ in catalog.PER_LAYER
        if unit == "s" and name != "trace.op_s"
    )
    print(
        f"  self times + session.other_s = {layers:.6f} s; "
        f"traced op wall clock = {values['trace.op_s']:.6f} s; "
        f"trace.overhead = {values['trace.overhead']:.4f}"
    )


def main(argv=None) -> int:
    args = parse(argv)
    calibration = calibration_seconds()
    began = perf_counter()
    try:
        workloads = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        workload.warm_up()
        seconds = perf_counter() - began
        calibration = (calibration + calibration_seconds()) / 2
        setups = [{
            "seconds": seconds,
            "calibration_seconds": calibration,
            "calibrated": calibrated(seconds, calibration),
        }]
        if args.setup_probe:
            print(json.dumps(setups[0]))
            return 0
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(probe_setup(args))
        records, bits = run_loop(workload, args.seconds, tracer)
        final_ok = workload.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = checker.tally(r.verdict for r in records)
    attempted = len(records)
    failed = attempted - counts[checker.OK]
    correct = counts[checker.WRONG] == 0 and final_ok
    if tracer is None:
        metrics = end_to_end(records, setups)
        units = {name: unit for name, (unit, _b) in catalog.END_TO_END.items()}
    else:
        metrics = per_layer(records, tracer)
        units = {name: unit for name, unit, *_ in catalog.PER_LAYER}
    done = [r for r in records if r.verdict == checker.OK]
    raw = [r.seconds for r in done]
    result = {
        "stamp": stamp(args),
        "correct": correct,
        "final_state_check": final_ok,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "classes": counts,
        "op_tail_s": tail([r.calibrated for r in done]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": {
            "ops_per_s": len(done) / sum(r.seconds for r in records),
            "op_p50_s": statistics.median(raw) if raw else None,
            "op_tail_s": tail(raw),
        },
        "setups": setups,
        "label_bits": {
            "mean": statistics.fmean(m for m, _ in bits) if bits else None,
            "max": max((x for _, x in bits), default=None),
        },
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "ops": [vars(r) for r in records],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{base}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        tracer.dump(results / f"{base}-spans.jsonl")

    print(f"stamp {json.dumps(result['stamp'])}")
    print(
        f"ops {attempted}: " + ", ".join(f"{k} {v}" for k, v in counts.items())
        + f"; failed_share {result['failed_share']:.4f}"
        + ("" if final_ok else "; FINAL STATE CHECK FAILED")
    )
    print(
        f"raw wall clock: ops_per_s {result['raw']['ops_per_s']:.4f}, "
        f"op_p50_s {result['raw']['op_p50_s']}; "
        f"peak_rss_mb {result['peak_rss_mb']:.1f}"
    )
    if result["op_tail_s"] is None:
        print(f"op_tail_s not reported: {len(done)} ops, needs {TAIL_MIN_OPS}")
    else:
        t = result["op_tail_s"]
        print(
            f"op_tail_s {t['value']:.6f} s at p{t['percentile']:.1f} "
            f"over {t['samples']} ops"
        )
    if tracer is not None:
        print_layers(metrics, tracer)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
