#!/usr/bin/env python3
"""Checks of the benchmark itself; exits non-zero on the first failed check.

    python3 perfbench/selfcheck.py [--seconds 2]

1. BENCHMARK.json lists exactly the per-layer metrics spans.py reports.
2. The tracer rebinds every name that reaches a traced function: the
   ``from .qcore import ...`` names in each module, the package namespace
   and the ``verify.SUITES`` table.
3. One traced verify_all op shows 26 gft_apply calls and 60
   rogers_theta_rule calls over 6 distinct arguments.
4. Two traced runs of each workload with the same seed give identical
   inputs and identical counts; the tracing overhead is printed.
5. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import TRACED, Tracer, metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def declared_per_layer() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    check(declared == metric_specs(), f"BENCHMARK.json declares the {len(declared)} per-layer metrics spans.py reports")


def rebinding() -> None:
    import qhermite
    from qhermite import coherent, polyfam, qcore, verify

    tracer = Tracer()
    tracer.install()
    try:
        check(not tracer.missing, f"every traced function exists ({sum(map(len, TRACED.values()))})")
        for mod, name in ((verify, "e_q"), (coherent, "e_q_tilde"), (polyfam, "q_pochhammer"),
                          (qcore, "as_qparam"), (qhermite, "gram_matrix")):
            check(hasattr(getattr(mod, name), "__wrapped__"), f"{mod.__name__}.{name} is traced")
        check(all(hasattr(fn, "__wrapped__") for fn in verify.SUITES.values()), "verify.SUITES entries are traced")
        op = WORKLOADS["verify_all"](ROOT, 0).warmup()
        op.check(op.call())
        tracer.end_op()
        calls = tracer.calls
        check(calls["transform.gft_apply"] == 26, f"one verify op: gft_apply calls = {calls['transform.gft_apply']}")
        check(calls["polyfam.rogers_theta_rule"] == 60,
              f"one verify op: rogers_theta_rule calls = {calls['polyfam.rogers_theta_rule']}")
        distinct = tracer.distinct_calls["polyfam.rogers_theta_rule"]
        check(distinct == 6, f"one verify op: rogers_theta_rule distinct arguments = {distinct}")
        print(f"     one verify op: recurrence_coeff calls = {calls['polyfam.recurrence_coeff']}, "
              f"distinct arguments = {tracer.distinct_calls['polyfam.recurrence_coeff']}")
    finally:
        tracer.uninstall()
    check(not hasattr(verify.e_q, "__wrapped__") and not hasattr(verify.SUITES["gft"], "__wrapped__"),
          "uninstall restores the original bindings")


def run_bench(cwd: Path, workload: str, seconds: float) -> tuple[int, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def traced_repeatable(seconds: float) -> None:
    for name in WORKLOADS:
        records = []
        for _ in range(2):
            status, out = run_bench(ROOT, name, seconds)
            check(status == 0 and json.loads(out.splitlines()[-1])["correct"], f"{name}: traced run is correct")
            records.append(json.loads((ROOT / ".bench_results" / f"{name}-seed7-trace1.json").read_text()))
        a, b = records
        check(a["input_sha256"] == b["input_sha256"], f"{name}: same seed, same input digest")
        check(a["counts_sha256"] == b["counts_sha256"], f"{name}: same seed, identical traced counts")
        print(f"     {name}: tracing_overhead_frac = {b['metrics']['tracing_overhead_frac']['value']:.3f}")


def bare_directory() -> None:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        status, out = run_bench(bare, "verify_all", 1)
        check(status != 0 and "correct" not in out, f"without the sources run.py exits {status} and prints no result")
    finally:
        shutil.rmtree(bare)
        if not any(scratch.iterdir()):
            scratch.rmdir()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=2.0, help="run length of the traced runs")
    args = parser.parse_args()
    declared_per_layer()
    rebinding()
    traced_repeatable(args.seconds)
    bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
