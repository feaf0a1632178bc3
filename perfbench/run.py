#!/usr/bin/env python3
"""qhermite benchmark: closed-loop workloads, end to end and per module.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 55 --trace 0

Workloads (see workloads.py): verify_all, verify_seeds, cli_requests,
scale_sweep.  One client runs one operation at a time; every operation's
output is checked.

--trace 0 reports the end-to-end metrics: setup_s (median wall time of
fresh interpreters that import qhermite and finish the warm-up op),
ops_per_s (successful ops per wall-clock second, median over blocks of
ops), op_p50_ms, op_tail_ms (the highest percentile with 10 samples
beyond it) and peak_rss_mb.  The times are reported at a reference machine
speed: a fixed kernel (speed.py) is timed before every block, and the
times are divided by its run median over REFERENCE_S; the record keeps
them as measured too.  failed_frac and the failures by op class are
printed and recorded as well.

--trace 1 runs a fixed number of ops untraced, then as many again with
spans around every public function of every module (spans.py), and
reports the per-layer metrics per op.

The last stdout line is the result object; the full record, with the
environment, input digest, failure ledger and traced counts, is written to
.bench_results/ in the checkout.
"""

import os

# one BLAS thread, set before numpy loads here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_S, kernel_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports nothing from qhermite)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REQUIRED = ("src/qhermite/__init__.py", "scripts/make_tables.py", "out")
RESULTS_DIR = ROOT / ".bench_results"
SCRATCH_DIR = ROOT / ".bench_tmp"

#: fresh interpreters timed per run for setup_s, one before each 1/SETUP_PROBES of the run
SETUP_PROBES = 7
#: op_tail_ms is the highest percentile with this many samples above it
TAIL_BEYOND = 10
#: inputs hashed into the input digest
DIGEST_OPS = 256


class Tally:
    """Attempted ops, latencies of successful ones, failures by op class."""

    def __init__(self, known_failures) -> None:
        self.known = known_failures
        self.attempted = 0
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.known_seen: Counter = Counter()
        self.unexpected = 0
        self.unexpected_examples: list[dict] = []

    def add(self, op, seconds: float, error: BaseException | None) -> bool:
        self.attempted += 1
        if error is None:
            self.latencies.append(seconds)
            return True
        exc = type(error).__name__
        self.failures[f"{op.cls}{'@' + op.band if op.band else ''}: {exc}"] += 1
        key = next((k for k in self.known if k[:3] == (op.cls, op.band, exc) and k[3] in ("", str(error))), None)
        if key is not None:
            self.known_seen[key] += 1
        else:
            self.unexpected += 1
            if len(self.unexpected_examples) < 20:
                self.unexpected_examples.append(
                    {"op": op.cls, "band": op.band, "input": op.spec, "exception": exc, "message": str(error)[:400]}
                )
        return False

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latencies)


def execute(op, tracer=None) -> tuple[float, BaseException | None]:
    """Time one op's library call, then gate its result (outside its latency, untraced)."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except (Exception, SystemExit) as exc:  # argparse exits on bad argv
        return time.perf_counter() - t0, exc
    seconds = time.perf_counter() - t0
    try:
        with tracer.paused() if tracer else contextlib.nullcontext():
            op.check(result)
    except Exception as exc:
        return seconds, exc
    return seconds, None


def run_blocks(stream, block: int, tally: Tally, *, n_blocks=None, deadline=None, tracer=None, kernel=None):
    """Run whole blocks of ops; returns [(successful ops, wall seconds)].

    Ops are drawn from the stream with spans paused, so building an op's
    inputs never counts as library work.  If ``kernel`` is a list, the
    speed reference kernel is timed before each block and appended to it.
    """
    draw = tracer.paused if tracer else contextlib.nullcontext
    blocks = []
    while not blocks or (n_blocks is not None and len(blocks) < n_blocks) or (
        deadline is not None and time.perf_counter() < deadline
    ):
        if kernel is not None:
            kernel.append(kernel_seconds())
        ok, t0 = 0, time.perf_counter()
        for _ in range(block):
            with draw():
                op = next(stream)
            seconds, error = execute(op, tracer)
            if tracer is not None:
                tracer.end_op()
            ok += tally.add(op, seconds, error)
        blocks.append((ok, time.perf_counter() - t0))
    return blocks


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the sample with TAIL_BEYOND samples above it.

    Falls back to the maximum when there are too few samples.
    """
    ordered = sorted(values)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return (100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 100.0), ordered[k]


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports qhermite and runs the warm-up op."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return seconds


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read directly, never above ROOT)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy

    blas: dict = {}
    with contextlib.suppress(TypeError, KeyError):  # the config layout differs across numpy versions
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qhermite").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def input_digest(workload) -> str:
    """sha256 of the warm-up input and the first DIGEST_OPS inputs of the stream."""
    h = hashlib.sha256()
    for op in itertools.chain([workload.warmup()], itertools.islice(workload.stream(), DIGEST_OPS)):
        h.update(json.dumps([op.cls, op.band, op.spec]).encode() + b"\n")
    return h.hexdigest()


def block_rate(blocks) -> float:
    return sum(ok for ok, _ in blocks) / sum(wall for _, wall in blocks)


def timed_run(workload, args, tally: Tally, record: dict) -> dict:
    # the set-up probes are spread over the run, so that their median sees
    # the same changes in machine speed as the blocks do
    stream, setup, blocks, kernel = workload.stream(), [], [], []
    for _ in range(SETUP_PROBES):
        kernel.append(kernel_seconds())
        setup.append(setup_probe(args.workload, args.seed))
        deadline = time.perf_counter() + args.seconds / SETUP_PROBES
        blocks += run_blocks(stream, workload.block, tally, deadline=deadline, kernel=kernel)
    lat = tally.latencies
    if not lat:
        raise RuntimeError("no operation succeeded")
    tail_p, tail_s = tail(lat)
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(ok / wall for ok, wall in blocks),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
    }
    # times at the reference machine speed (speed.py): divided by the
    # run's slowness, rates multiplied by it
    slowness = statistics.median(kernel) / REFERENCE_S
    record.update(
        setup_s_samples=setup,
        blocks=[{"ok": ok, "wall_s": wall} for ok, wall in blocks],
        op_tail={"percentile": tail_p, "samples": len(lat), "beyond": sum(v > tail_s for v in lat)},
        kernel_s_samples=kernel,
        slowness=slowness,
        raw_metrics=raw,
    )
    return {
        "setup_s": {"value": raw["setup_s"] / slowness, "unit": "s"},
        "ops_per_s": {"value": raw["ops_per_s"] * slowness, "unit": "1/s"},
        "op_p50_ms": {"value": raw["op_p50_ms"] / slowness, "unit": "ms"},
        "op_tail_ms": {"value": raw["op_tail_ms"] / slowness, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def traced_run(workload, args, tally: Tally, record: dict) -> dict:
    from spans import Tracer, metric_specs

    n_blocks = workload.trace_blocks(args.seconds)
    stream = workload.stream()
    untraced = run_blocks(stream, workload.block, tally, n_blocks=n_blocks)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_blocks(stream, workload.block, tally, n_blocks=n_blocks, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = 1.0 - block_rate(traced) / block_rate(untraced)
    values = tracer.metrics(n_blocks * workload.block, overhead)
    counts = tracer.counts()
    record.update(
        traced_ops=n_blocks * workload.block,
        ops_per_s_untraced=block_rate(untraced),
        ops_per_s_traced=block_rate(traced),
        missing_functions=tracer.missing,
        counts=counts,
        counts_sha256=hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest(),
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        workload = WORKLOADS[args.workload](ROOT, args.seed)
        _, error = execute(workload.warmup())
        if error is not None:
            print(f"perfbench: warm-up op failed: {error!r}", file=sys.stderr)
            return 1
        return 0

    SCRATCH_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH_DIR))
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)
        tally = Tally(workload.known_failures)
        record: dict = {"environment": environment(args), "input_sha256": input_digest(workload)}
        _, error = execute(workload.warmup())
        if error is not None:
            raise RuntimeError(f"warm-up op failed: {error!r}")
        run = traced_run if args.trace else timed_run
        metrics = run(workload, args, tally, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_DIR.rmdir()

    correct = tally.unexpected == 0
    record.update(
        correct=correct,
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed / tally.attempted,
        failures=dict(sorted(tally.failures.items())),
        unexpected_failures=tally.unexpected_examples,
        ledger=[
            {"op": c, "band": b, "exception": e, "message": m, "observed": tally.known_seen[(c, b, e, m)]}
            for c, b, e, m in workload.known_failures
        ],
        metrics=metrics,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<52} {record['failed_frac']:>14.6g} frac  ({tally.failed} of {tally.attempted})")
    if "raw_metrics" in record:
        print(f"machine slowness {record['slowness']:.4g}; as measured: "
              + ", ".join(f"{k} {v:.6g}" for k, v in record["raw_metrics"].items()))
    if "op_tail" in record:
        t = record["op_tail"]
        print(f"op_tail_ms is p{t['percentile']:.3f} of {t['samples']} samples ({t['beyond']} beyond)")
    for key, n in sorted(tally.failures.items()):
        print(f"failure: {key} x{n}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
