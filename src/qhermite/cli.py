"""Command-line surface: evaluation tables, verification suites, exports.

Subcommands: eval, table, verify, oscillator, coherent, gft.  Output goes
to stdout or --out as pretty text, CSV (header row, LF, UTF-8), or JSON
({"meta": {...}, "rows": [...]}).  Floats are emitted in shortest
round-trip form so CSV and JSON carry bit-identical values.  Exit status:
0 success, 1 failed verification, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import coherent, oscillator, polyfam, transform, verify
from .errors import ConvergenceError, DomainError, InsufficientData, PoleError, QHermiteError, QuadratureError
from .polyfam import Family, FamilyDescriptor
from .qcore import as_qparam


@dataclass
class RunConfig:
    command: str
    family: str = "rogers"
    q: float = 0.5
    n: int | None = None
    nmax: int | None = None
    dim: int | None = None
    x: float | None = None
    z: complex | None = None
    lattice_scale: float = 1.0
    tol: float | None = None
    seed: int = 1234
    fmt: str = "pretty"
    out: str | None = None
    suite: str | None = None
    kind: str | None = None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("complex values are written RE,IM")
    return complex(float(parts[0]), float(parts[1]))


def _family_descriptor(cfg: RunConfig) -> FamilyDescriptor:
    kind = Family(cfg.family)
    return FamilyDescriptor(kind, as_qparam(cfg.q), cfg.lattice_scale)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the shared, process-wide argument parser.

    It is built on the first call and reused by every later ``main`` call;
    ``parse_args`` keeps no state on it between calls.  Callers must not
    mutate it.
    """
    parser = argparse.ArgumentParser(prog="qhermite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", choices=["rogers", "discrete1", "discrete2"], default="rogers")
        p.add_argument("--q", type=float, default=0.5)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--x", type=float, default=None)
        p.add_argument("--z", type=_parse_complex, default=None, metavar="RE,IM")
        p.add_argument("--c", dest="lattice_scale", type=float, default=1.0,
                       help="lattice scale of the discrete-II family")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=1234)
        p.add_argument("--format", dest="fmt", choices=["csv", "json", "pretty"], default="pretty")
        p.add_argument("--out", type=str, default=None)

    common(sub.add_parser("eval", help="evaluate one polynomial value"))
    p_table = sub.add_parser("table", help="emit a rectangular data table")
    common(p_table)
    p_table.add_argument("--kind", choices=["polys", "spectrum", "gram", "coherent"],
                         default="spectrum")
    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("--suite", default="all",
                          help="suite name or 'all' (%s)" % ", ".join(sorted(verify.SUITES)))
    p_osc = sub.add_parser("oscillator", help="dump a truncated operator matrix")
    common(p_osc)
    p_osc.add_argument("--kind", choices=[k.value for k in oscillator.OperatorKind],
                       default="hamiltonian")
    common(sub.add_parser("coherent", help="coherent-state expansion summary"))
    common(sub.add_parser("gft", help="generalized Fourier transform diagnostics"))
    return parser


def _num(v):
    """Shortest round-trip value for emission (floats stay floats).

    Non-finite values become strings so the JSON output stays standard.
    """
    if isinstance(v, (bool, int, str)):
        return v
    f = float(v)
    if f != f or f in (float("inf"), float("-inf")):
        return repr(f)
    return f


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(meta: dict, rows: list[dict], cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        text = json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        if rows:
            header = list(rows[0].keys())
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(row[k]) for k in header])
        text = buf.getvalue()
    else:
        lines = [f"# {k} = {_fmt_cell(v)}" for k, v in meta.items()]
        if rows:
            header = list(rows[0].keys())
            widths = [max(len(h), max(len(_fmt_cell(r[h])) for r in rows)) for h in header]
            lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
            for row in rows:
                lines.append("  ".join(_fmt_cell(row[h]).ljust(w) for h, w in zip(header, widths)))
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    n = cfg.n if cfg.n is not None else 0
    x = cfg.x if cfg.x is not None else 0.0
    if cfg.family == "discrete1":
        value = polyfam.discrete1_eval(n, x, cfg.q)
    else:
        value = polyfam.eval_orthonormal(_family_descriptor(cfg), n, x)
    meta = {"command": "eval", "family": cfg.family, "q": _num(cfg.q)}
    return meta, [{"n": n, "x": _num(x), "value": _num(value)}], 0


def _cmd_table(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    nmax = cfg.nmax if cfg.nmax is not None else 10
    meta = {"command": "table", "kind": cfg.kind, "family": cfg.family, "q": _num(cfg.q)}
    rows: list[dict] = []
    if cfg.kind == "spectrum":
        src = oscillator.source_for_family(_family_descriptor(cfg))
        for n, lam in enumerate(oscillator.spectrum(src, cfg.q, nmax)):
            rows.append({"n": n, "lambda": _num(lam)})
    elif cfg.kind == "polys":
        if nmax < 0:
            raise DomainError("nmax must be non-negative")
        fam = _family_descriptor(cfg)
        span = 0.99 if cfg.family == "rogers" else 3.0
        xs = np.linspace(-span, span, 41)
        if cfg.family == "discrete1":
            vals = [polyfam.discrete1_eval(n, xs, cfg.q) for n in range(nmax + 1)]
        else:
            vals = polyfam.eval_orthonormal_sequence(fam, nmax, xs)
        for j, xv in enumerate(xs):
            row = {"x": _num(xv)}
            for n in range(nmax + 1):
                row[f"p{n}"] = _num(vals[n][j])
            rows.append(row)
    elif cfg.kind == "gram":
        report = polyfam.gram_matrix(_family_descriptor(cfg), nmax)
        meta["max_offdiag"] = _num(report.max_offdiag)
        meta["diag_spread"] = _num(report.diag_spread)
        for i in range(report.dimension):
            row = {"i": i}
            for j in range(report.dimension):
                row[f"g{j}"] = _num(report.matrix[i, j])
            rows.append(row)
    else:  # coherent
        z = cfg.z if cfg.z is not None else complex(1.0, 0.0)
        state = coherent.bg_expansion(_family_descriptor(cfg), z, dim=cfg.dim)
        meta.update(
            z_re=_num(z.real), z_im=_num(z.imag),
            norm_sq_closed=_num(state.norm_sq_closed),
            norm_sq_partial=_num(state.norm_sq_partial),
        )
        for n, cval in enumerate(state.coefficients):
            rows.append({"n": n, "abs": _num(abs(cval)), "re": _num(cval.real), "im": _num(cval.imag)})
    return meta, rows, 0


def _cmd_verify(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    reports = verify.run_suites(
        cfg.suite or "all",
        q=cfg.q,
        nmax=cfg.nmax,
        dim=cfg.dim,
        seed=cfg.seed,
        family=cfg.family if cfg.suite == "commutator" else None,
        lattice_scale=cfg.lattice_scale,
    )
    rows = []
    overall = True
    for rep in reports:
        for chk in rep.checks:
            bound, passed = chk.bound, chk.passed
            # a user tolerance overrides defect bounds; negative controls
            # (which must EXCEED their floor) keep the built-in semantics
            if cfg.tol is not None and "[control>]" not in chk.name:
                bound, passed = cfg.tol, chk.measured < cfg.tol
            rows.append(
                {
                    "suite": rep.suite,
                    "check": chk.name,
                    "measured": _num(chk.measured),
                    "bound": _num(bound),
                    "passed": bool(passed),
                }
            )
            overall = overall and passed
    meta = {
        "command": "verify",
        "suite": cfg.suite or "all",
        "q": _num(cfg.q),
        "seed": cfg.seed,
        "overall": overall,
    }
    return meta, rows, 0 if overall else 1


def _cmd_oscillator(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    dim = cfg.dim if cfg.dim is not None else 8
    fam = _family_descriptor(cfg)
    src = oscillator.source_for_family(fam)
    kind = oscillator.OperatorKind(cfg.kind or "hamiltonian")
    op = oscillator.build_operator(kind, src, cfg.q, dim)
    meta = {"command": "oscillator", "family": cfg.family, "q": _num(cfg.q),
            "kind": kind.value, "dim": dim}
    if fam.kind is Family.ROGERS:
        meta["arik_coon_residual"] = _num(
            oscillator.commutator_residual(oscillator.Relation.ARIK_COON, src, cfg.q, max(dim, 3))
        )
    else:
        meta["q_inverse_residual"] = _num(
            oscillator.commutator_residual(oscillator.Relation.Q_INVERSE, src, cfg.q, max(dim, 3))
        )
    rows = []
    for i in range(dim):
        row: dict = {"i": i}
        for j in range(dim):
            row[f"re{j}"] = _num(op.entries[i, j].real)
            row[f"im{j}"] = _num(op.entries[i, j].imag)
        rows.append(row)
    return meta, rows, 0


def _cmd_coherent(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    z = cfg.z if cfg.z is not None else complex(1.0, 0.0)
    state = coherent.bg_expansion(_family_descriptor(cfg), z, dim=cfg.dim)
    meta = {
        "command": "coherent",
        "family": cfg.family,
        "q": _num(cfg.q),
        "z_re": _num(z.real),
        "z_im": _num(z.imag),
        "dim": state.dim,
        "norm_sq_closed": _num(state.norm_sq_closed),
        "norm_sq_partial": _num(state.norm_sq_partial),
        "eigen_residual": _num(coherent.eigen_residual(state)),
    }
    rows = [
        {"n": n, "abs": _num(abs(c)), "re": _num(c.real), "im": _num(c.imag)}
        for n, c in enumerate(state.coefficients)
    ]
    return meta, rows, 0


def _cmd_gft(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    nmax = cfg.nmax if cfg.nmax is not None else 8
    f_mat = transform.gft_matrix(nmax, cfg.q)
    eye = np.eye(nmax + 1)
    expected = (-1j) ** np.arange(nmax + 1)
    diag_dev = float(np.max(np.abs(np.diag(f_mat) - expected)))
    meta = {
        "command": "gft",
        "q": _num(cfg.q),
        "nmax": nmax,
        "max_diag_deviation": _num(diag_dev),
        "unitarity_defect": _num(float(np.max(np.abs(f_mat.conj().T @ f_mat - eye)))),
        "fourth_power_defect": _num(float(np.max(np.abs(np.linalg.matrix_power(f_mat, 4) - eye)))),
    }
    rows = [
        {
            "n": n,
            "diag_re": _num(f_mat[n, n].real),
            "diag_im": _num(f_mat[n, n].imag),
            "expected_re": _num(expected[n].real),
            "expected_im": _num(expected[n].imag),
        }
        for n in range(nmax + 1)
    ]
    return meta, rows, 0


_COMMANDS = {
    "eval": _cmd_eval,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "oscillator": _cmd_oscillator,
    "coherent": _cmd_coherent,
    "gft": _cmd_gft,
}


#: failures of a computation on valid input, reported as "numerical error"
_NUMERICAL_ERRORS = (ArithmeticError, ConvergenceError, QuadratureError, PoleError, InsufficientData)


def run(cfg: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    try:
        if cfg.tol is not None and not cfg.tol > 0:
            raise DomainError("--tol must be positive")
        meta, rows, status = _COMMANDS[cfg.command](cfg)
    except _NUMERICAL_ERRORS as exc:
        print(f"qhermite: numerical error: {exc}", file=sys.stderr)
        return 2
    except (QHermiteError, ValueError, KeyError) as exc:
        print(f"qhermite: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(meta, rows, cfg)
    except OSError as exc:
        print(f"qhermite: cannot write output: {exc}", file=sys.stderr)
        return 2
    return status


_RUN_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(**{k: v for k, v in vars(ns).items() if k in _RUN_CONFIG_FIELDS})
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
