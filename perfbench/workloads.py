"""Seeded inputs, operations and correctness gates of the three workloads.

Every workload is a closed loop with one client: an operation starts only
after the previous one has returned.  A workload turns the seed into a
deterministic stream of inputs; the library sees only those inputs.

An operation fails when its call raises (the library's own exception) or
when its gate rejects the result (``GateFailed``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


class GateFailed(Exception):
    """An operation returned, but its output failed the correctness gate."""


@dataclass(frozen=True)
class Op:
    """One generated operation.

    ``call`` is the timed library call; ``check`` receives its result and
    raises ``GateFailed`` if it is wrong (outside the op's latency).  ``cls``
    names the operation class for failure records and the known-failure
    ledger, ``spec`` is the JSON-able input that fed the library, and
    ``band`` is the q band of a scale-sweep operation.
    """

    cls: str
    spec: object
    call: Callable[[], object]
    check: Callable[[object], None]
    band: str = ""


class Workload:
    """Base class: a name, a seeded op stream, a warm-up op and block size.

    ``block`` ops form one throughput sample; the timed loop always runs
    whole blocks.  ``trace_blocks`` sizes each phase of a traced run from
    the run length alone, so the traced ops depend only on (seed, seconds).
    """

    name = ""
    block = 1
    nominal_block_s = 1.0
    #: failures known at the parent commit: (op class, q band, exception type,
    #: message or "" for any message); a failure outside this ledger makes a
    #: run incorrect
    known_failures: tuple[tuple[str, str, str, str], ...] = ()

    def __init__(self, root: Path, seed: int, scratch: Path | None = None) -> None:
        self.root = root
        self.seed = seed
        self.scratch = scratch  # a directory the workload may write into

    def stream(self) -> Iterator[Op]:
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError

    def trace_blocks(self, seconds: float) -> int:
        return max(1, round(0.4 * seconds / self.nominal_block_s))


def _rng(workload: str, seed: int, stream: str = "ops") -> random.Random:
    return random.Random(f"{workload}:{stream}:{seed}")


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------


#: the suite seed of ``qhermite verify`` (cli.py) and of the verify suites
CLI_SUITE_SEED = 1234


class VerifyAll(Workload):
    """``verify.run_suites("all", q=0.5, seed=1234)``; every check must pass.

    This is what ``qhermite verify --suite all`` runs: q and the suite seed
    are the CLI defaults, so every op has the same inputs and ``--seed``
    changes none of them.  ``verify_seeds`` draws the suite seed instead.
    """

    name = "verify_all"
    block = 4
    nominal_block_s = 1.0

    def _op(self, suite_seed: int) -> Op:
        from qhermite import verify

        def check(reports) -> None:
            failed = [f"{r.suite}: {c.name}" for r in reports for c in r.checks if not c.passed]
            if failed:
                raise GateFailed("; ".join(failed))

        return Op("verify_all", {"q": 0.5, "seed": suite_seed},
                  lambda: verify.run_suites("all", q=0.5, seed=suite_seed), check)

    def stream(self) -> Iterator[Op]:
        while True:
            yield self._op(CLI_SUITE_SEED)

    def warmup(self) -> Op:
        return self._op(CLI_SUITE_SEED)


class VerifySeeds(VerifyAll):
    """``verify_all`` with the suite seed of each op drawn from ``--seed``."""

    name = "verify_seeds"
    # about 1 suite seed in 300 puts a type-II cross-evaluation defect above
    # its 1e-10 bound (2.7e-10 at seed 1277145278)
    known_failures = (("verify_all", "", "GateFailed", "crosseval: type-II series vs recurrence, n<=12"),)

    def stream(self) -> Iterator[Op]:
        rng = _rng(self.name, self.seed)
        while True:
            yield self._op(rng.randrange(2**31))

    def warmup(self) -> Op:
        return self._op(_rng(self.name, self.seed, "warmup").randrange(2**31))


# ---------------------------------------------------------------------------
# cli_requests
# ---------------------------------------------------------------------------

#: the kinds of request, taken in turn: every CLI subcommand and table kind
#: except ``verify`` (the verify_all workload) and ``table --kind coherent``,
#: then one scripts/make_tables.py job (which covers the coherent table).
#: Each entry is (class, families the command accepts); the rest are
#: rejected by the library as out of domain.
REQUEST_KINDS = (
    ("eval", ("rogers", "discrete1", "discrete2")),
    ("coherent", ("rogers", "discrete2")),
    ("oscillator", ("rogers", "discrete2")),
    ("gft", ("rogers",)),
    ("table.spectrum", ("rogers", "discrete2")),
    ("table.polys", ("rogers", "discrete1", "discrete2")),
    ("table.gram", ("rogers", "discrete2")),
    ("golden", ()),
)

#: the largest size a request draws: the larger of the CLI default
#: (cli.py) and the value a scripts/make_tables.py job passes for the same
#: option.  eval draws one entry of the polys table, so it shares that
#: table's degree cap and x span.
SIZE_CAPS = {"table.spectrum": 25, "table.polys": 10, "table.gram": 10, "oscillator": 8, "gft": 8}
#: |z| cap of coherent requests: the z of the make_tables coherent jobs
Z_CAPS = {"rogers": 1.0, "discrete2": 2.0}
#: the x span of ``table --kind polys`` (cli.py)
X_SPANS = {"rogers": 0.99, "discrete1": 3.0, "discrete2": 3.0}
OPERATOR_KINDS = ("position", "momentum", "raising", "lowering", "number", "hamiltonian")


def _load_make_tables_jobs(root: Path) -> list[list[str]]:
    import importlib.util

    spec = importlib.util.spec_from_file_location("_bench_make_tables", root / "scripts" / "make_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [list(job) for job in module.JOBS]


def _golden_name(job: list[str]) -> str:
    # the file name scripts/make_tables.py gives each job
    return "_".join([job[2], job[4], f"q{job[6]}"]) + ".csv"


def _random_request(rng: random.Random, kind: str, families: tuple[str, ...]) -> tuple[str, list[str]]:
    """One CLI request of the given kind with its own q in [0.1, 0.9].

    Sizes are uniform from the smallest the library accepts up to the cap.
    """
    q = rng.uniform(0.1, 0.9)
    family = rng.choice(families)
    command, _, table_kind = kind.partition(".")
    opts: dict[str, object] = {"kind": table_kind} if table_kind else {}
    if kind != "gft":
        opts["family"] = family
    if kind == "eval":
        span = X_SPANS[family]
        opts.update(n=rng.randint(0, SIZE_CAPS["table.polys"]), x=repr(rng.uniform(-span, span)))
    elif kind == "coherent":
        r, phi = rng.uniform(0.0, Z_CAPS[family]), rng.uniform(0.0, 2.0 * math.pi)
        opts["z"] = f"{r * math.cos(phi)!r},{r * math.sin(phi)!r}"
    elif kind == "oscillator":
        # an operator truncation needs dim >= 2
        opts.update(kind=rng.choice(OPERATOR_KINDS), dim=rng.randint(2, SIZE_CAPS[kind]))
    else:
        opts["nmax"] = rng.randint(0, SIZE_CAPS[kind])
    opts.update(q=repr(q), format="json")
    cls = kind if kind == "gft" else f"{kind}.{family}"
    # one --name=value token per option: argparse takes a separate value
    # token such as -3.7e-05 or -0.3,0.2 for an unknown flag
    return cls, [command] + [f"--{k}={v}" for k, v in opts.items()]


class CliRequests(Workload):
    """In-process ``cli.main(argv)`` calls with output captured in memory.

    The stream takes the REQUEST_KINDS in turn.  Random requests must exit
    0 and print JSON.  The make_tables jobs write into a scratch directory
    and must reproduce the committed ``out/*.csv`` byte for byte.
    """

    name = "cli_requests"
    block = 25 * len(REQUEST_KINDS)
    nominal_block_s = 1.0

    def __init__(self, root: Path, seed: int, scratch: Path | None = None) -> None:
        super().__init__(root, seed, scratch)
        self.jobs = _load_make_tables_jobs(root)
        self.golden = {_golden_name(j): (root / "out" / _golden_name(j)).read_bytes() for j in self.jobs}

    def _request(self, cls: str, argv: list[str]) -> Op:
        from qhermite import cli

        def call() -> tuple[int, str, str]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            return status, out.getvalue(), err.getvalue()

        def check(result: tuple[int, str, str]) -> None:
            status, out, err = result
            if status != 0:
                raise GateFailed(f"exit status {status}: {err.strip()}")
            try:
                json.loads(out)
            except ValueError as exc:
                raise GateFailed(f"output is not JSON: {exc}") from None

        return Op(cls, argv, call, check)

    def _golden(self, job: list[str]) -> Op:
        from qhermite import cli

        name = _golden_name(job)
        want = self.golden[name]
        target = self.scratch / name
        argv = job + ["--format", "csv", "--out", str(target)]

        def check(status: int) -> None:
            if status != 0:
                raise GateFailed(f"exit status {status}")
            written = target.read_bytes()
            target.unlink()  # the next replay of this job must write it afresh
            if written != want:
                raise GateFailed(f"{name} differs from out/{name}")

        return Op(f"golden.{name[:-4]}", job + ["--format", "csv", "--out", name], lambda: cli.main(argv), check)

    def stream(self) -> Iterator[Op]:
        rng = _rng(self.name, self.seed)
        golden = itertools.cycle(self.jobs)
        for kind, families in itertools.cycle(REQUEST_KINDS):
            if kind == "golden":
                yield self._golden(next(golden))
            else:
                yield self._request(*_random_request(rng, kind, families))

    def warmup(self) -> Op:
        return self._request(*_random_request(_rng(self.name, self.seed, "warmup"), *REQUEST_KINDS[0]))


# ---------------------------------------------------------------------------
# scale_sweep
# ---------------------------------------------------------------------------

#: q bands: (label, centre, half-width); each op draws its own q in a band
Q_BANDS = (("q0.05", 0.05, 0.005), ("q0.5", 0.5, 0.005), ("q0.9", 0.9, 0.005), ("q0.99", 0.99, 0.001))

#: grid points that fail at the parent commit; they stay in the sweep
KNOWN_FAILURES = (
    ("resolution_moment_profile.n15", "q0.99", "ConvergenceError", ""),
    ("build_operator.discrete2.dim1000", "q0.05", "OverflowError", ""),
    ("commutator_residual.discrete2.dim400", "q0.05", "OverflowError", ""),
)

#: grid for eval_orthonormal_sequence: degrees 0..EOS_NMAX on EOS_POINTS points
EOS_NMAX, EOS_POINTS = 1000, 20_000


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailed(what)


def _gram(family: str, nmax: int):
    def make(q: float):
        from qhermite import polyfam

        fam = getattr(polyfam, family)(q)

        def check(rep) -> None:
            _check(rep.max_offdiag < 1e-8, f"Gram off-diagonal {rep.max_offdiag:.3e}")

        return lambda: polyfam.gram_matrix(fam, nmax), check

    return f"gram_matrix.{family}.nmax{nmax}", make


def _gft(q: float):
    import numpy as np

    from qhermite import transform

    def check(f_mat) -> None:
        unit = float(np.max(np.abs(f_mat.conj().T @ f_mat - np.eye(len(f_mat)))))
        _check(unit < 1e-7, f"unitarity defect {unit:.3e}")

    return lambda: transform.gft_matrix(40, q), check


def _eval_sequence(q: float):
    import numpy as np

    from qhermite import polyfam

    fam = polyfam.rogers(q)
    xs = np.linspace(-1.0, 1.0, EOS_POINTS)

    def check(vals) -> None:
        _check(bool(np.all(np.isfinite(vals))), "non-finite recurrence values")
        for n, j in ((EOS_NMAX, 0), (EOS_NMAX, EOS_POINTS // 3), (EOS_NMAX // 2, EOS_POINTS - 1)):
            ref = polyfam.eval_orthonormal(fam, n, float(xs[j]))
            err = abs(vals[n, j] - ref) / max(1.0, abs(ref))
            _check(err < 1e-12, f"vector vs scalar recurrence at n={n}: {err:.3e}")

    return lambda: polyfam.eval_orthonormal_sequence(fam, EOS_NMAX, xs), check


#: (family, b_n source, commutation relation, residual bound)
_OSCILLATORS = {
    "rogers": ("rogers_bn", "ARIK_COON", 1e-12),
    "discrete2": ("discrete2_bn", "Q_INVERSE", 1e-10),
}


def _commutator(family: str, dim: int):
    def make(q: float):
        from qhermite import oscillator

        source_fn, relation, bound = _OSCILLATORS[family]
        source, rel = getattr(oscillator, source_fn)(), oscillator.Relation[relation]

        def check(res) -> None:
            _check(res < bound, f"commutator residual {res:.3e}")

        return lambda: oscillator.commutator_residual(rel, source, q, dim), check

    return f"commutator_residual.{family}.dim{dim}", make


def _build(family: str):
    def make(q: float):
        import numpy as np

        from qhermite import oscillator

        source = getattr(oscillator, _OSCILLATORS[family][0])()

        def check(op) -> None:
            m = op.entries
            _check(bool(np.all(np.isfinite(m))), "non-finite operator entries")
            _check(bool(np.array_equal(m, m.T)), "position operator not symmetric")
            _check(m[op.dim - 1, op.dim - 2] == source.coeff(op.dim - 2, q), "sub-diagonal differs from b_n")

        return lambda: oscillator.build_operator(oscillator.OperatorKind.POSITION, source, q, 1000), check

    return f"build_operator.{family}.dim1000", make


def _moments(q: float):
    from qhermite import coherent

    def check(profile) -> None:
        worst = max(abs(c - e) / e for c, e in profile)
        _check(worst < 1e-8, f"Jackson moment defect {worst:.3e}")

    return lambda: coherent.resolution_moment_profile(15, q), check


def _bg(family: str):
    def make(q: float):
        from qhermite import coherent, polyfam

        fam = getattr(polyfam, family)(q)
        z = complex(0.5 * coherent.rogers_radius(q) if family == "rogers" else 2.0)

        def check(state) -> None:
            res = coherent.eigen_residual(state)
            _check(res < 1e-9, f"eigen-residual {res:.3e}")

        return lambda: coherent.bg_expansion(fam, z), check

    return f"bg_expansion.{family}", make


#: the grid of one q band: (op class, make) where make(q) builds that op's
#: (call, check); the gates use the bounds the library pins in verify.py
SCALE_GRID = (
    *(_gram("rogers", nmax) for nmax in (10, 40, 160)),
    *(_gram("discrete2", nmax) for nmax in (10, 40)),
    ("gft_matrix.nmax40", _gft),
    (f"eval_orthonormal_sequence.nmax{EOS_NMAX}", _eval_sequence),
    *(_commutator(family, dim) for dim in (100, 400) for family in ("rogers", "discrete2")),
    _build("rogers"),
    _build("discrete2"),
    ("resolution_moment_profile.n15", _moments),
    _bg("rogers"),
    _bg("discrete2"),
)


class ScaleSweep(Workload):
    """Few large calls; one block is one pass over every (q band, op) pair.

    Each op draws a fresh q inside its band, so no (q, size) pair repeats
    within a run and no cache can reuse a previous op's work.
    """

    name = "scale_sweep"
    block = len(SCALE_GRID) * len(Q_BANDS)
    nominal_block_s = 4.0

    def stream(self) -> Iterator[Op]:
        rng = _rng(self.name, self.seed)
        while True:
            for band, centre, half in Q_BANDS:
                for cls, make in SCALE_GRID:
                    q = centre + rng.uniform(-half, half)
                    yield Op(cls, {"op": cls, "q": q}, *make(q), band)

    def warmup(self) -> Op:
        q = 0.5 + _rng(self.name, self.seed, "warmup").uniform(-0.005, 0.005)
        cls, make = SCALE_GRID[0]
        return Op(cls, {"op": cls, "q": q}, *make(q), "q0.5")

    known_failures = KNOWN_FAILURES


WORKLOADS = {w.name: w for w in (VerifyAll, VerifySeeds, CliRequests, ScaleSweep)}
