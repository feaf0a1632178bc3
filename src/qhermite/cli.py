"""Command-line surface: evaluation tables, verification suites, exports.

Subcommands: eval, table, verify, oscillator, coherent, gft.  Each takes
--format, --out and only the options it reads (_COMMANDS); any other
option exits 2.  Output goes to stdout or --out as pretty text, CSV (header
row, LF, UTF-8), or JSON (json.dumps({"meta": {...}, "rows": [...]},
indent=2)).  Floats are emitted in shortest round-trip form so CSV and JSON
carry bit-identical values.  Exit status: 0 success, 1 failed verification,
2 a configuration or numerical error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import coherent, oscillator, polyfam, transform, verify
from .errors import ConvergenceError, DomainError, InsufficientData, PoleError, QHermiteError, QuadratureError
from .polyfam import Family, FamilyDescriptor


@dataclass
class RunConfig:
    """One command and its options; a default stands for an option the argv leaves out."""

    command: str
    family: str = "rogers"
    q: float = 0.5
    n: int = 0
    nmax: int | None = None
    dim: int | None = None
    x: float = 0.0
    z: complex = complex(1.0, 0.0)
    lattice_scale: float = 1.0
    tol: float | None = None
    seed: int = 1234
    fmt: str = "pretty"
    out: str | None = None
    suite: str = "all"
    kind: str | None = None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("complex values are written RE,IM")
    return complex(float(parts[0]), float(parts[1]))


def _family_descriptor(cfg: RunConfig) -> FamilyDescriptor:
    return FamilyDescriptor(Family(cfg.family), cfg.q, cfg.lattice_scale)


#: every option, once: its add_argument keywords.  An option left out of the
#: argv is left out of the namespace, and RunConfig supplies its default.
_OPTIONS = {
    "family": dict(choices=["rogers", "discrete1", "discrete2"]),
    "q": dict(type=float),
    "n": dict(type=int),
    "nmax": dict(type=int),
    "dim": dict(type=int),
    "x": dict(type=float),
    "z": dict(type=_parse_complex, metavar="RE,IM"),
    "c": dict(dest="lattice_scale", type=float, help="lattice scale of the discrete-II family"),
    "tol": dict(type=float),
    "seed": dict(type=int),
    "suite": dict(help="suite name or 'all' (%s)" % ", ".join(sorted(verify.SUITES))),
    "format": dict(dest="fmt", choices=["csv", "json", "pretty"]),
    "out": dict(),
}

#: the --kind choices of the commands that read --kind
_KINDS = {
    "table": ["polys", "spectrum", "gram", "coherent"],
    "oscillator": [k.value for k in oscillator.OperatorKind],
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the shared, process-wide argument parser.

    It is built on the first call and reused by every later ``main`` call;
    ``parse_args`` keeps no state on it between calls.  Callers must not
    mutate it.  Each subcommand takes --format, --out and the options its
    command function reads; any other option exits 2.
    """
    parser = argparse.ArgumentParser(prog="qhermite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        # no abbreviations: a prefix such as --n would otherwise reach --nmax
        p = sub.add_parser(name, help=help_text, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        for opt in options + ("format", "out"):
            p.add_argument(f"--{opt}", **(dict(choices=_KINDS[name]) if opt == "kind" else _OPTIONS[opt]))
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


def _texts(col, json_out: bool, pad: str) -> list[str]:
    """Each cell's _fmt_cell text, or its JSON text nested `pad` deep; one repr pass for one number type."""
    kinds = set(map(type, col))
    if kinds == {float} or kinds == {int}:
        texts = list(map(repr, col))
        if not json_out or {"nan", "inf", "-inf"}.isdisjoint(texts):  # JSON spells these NaN, Infinity, -Infinity
            return texts
    return [json.dumps(v, indent=2).replace("\n", "\n" + pad) for v in col] if json_out else list(map(_fmt_cell, col))


def emit(meta: dict, rows: list[dict], cfg: RunConfig) -> None:
    """Write meta and rows, each with the first row's keys in its order, formatting a column at a time."""
    json_out = cfg.fmt == "json"
    header = list(rows[0]) if rows else []
    cols = [_texts(list(map(itemgetter(h), rows)), json_out, " " * 6) for h in header]
    if json_out:
        items = [f"    {encode_basestring_ascii(k)}: {_texts((v,), True, ' ' * 4)[0]}" for k, v in meta.items()]
        fields = [list(map(f"      {encode_basestring_ascii(h)}: ".__add__, col)) for h, col in zip(header, cols)]
        records = list(zip(*fields)) or [()] * len(rows)
        objects = ["    {\n" + ",\n".join(r) + "\n    }" if r else "    {}" for r in records]
        meta_text = "{\n" + ",\n".join(items) + "\n  }" if items else "{}"
        rows_text = "[\n" + ",\n".join(objects) + "\n  ]" if objects else "[]"
        text = f'{{\n  "meta": {meta_text},\n  "rows": {rows_text}\n}}\n'
    else:
        table = [[h, *col] for h, col in zip(header, cols)]  # the header row, then the rows
        if cfg.fmt == "pretty":
            table = [[c.ljust(w) for c in col] for col in table for w in [max(map(len, col))]]
        records = list(zip(*table)) or [()] * (len(rows) + 1 if rows else 0)
        if cfg.fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(records)
            text = buf.getvalue()
        else:
            text = "\n".join([*(f"# {k} = {_fmt_cell(v)}" for k, v in meta.items()), *map("  ".join, records)]) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows(columns: dict) -> list[dict]:
    """Zip equal-length named columns, in the dict's order, into rows; a finite float array in one .tolist()."""
    names = list(columns)
    cols = [c.tolist() if isinstance(c, np.ndarray) and c.dtype.kind == "f" and np.isfinite(c).all()
            else map(_num, c) for c in columns.values()]
    return [dict(zip(names, cells)) for cells in zip(*cols)]


def _coherent_rows(state: coherent.CoherentStateExpansion) -> list[dict]:
    c = state.coefficients.tolist()
    # Python's abs: np.abs can differ from it in the last bit
    return _rows({"n": range(len(c)), "abs": [abs(v) for v in c],
                  "re": [v.real for v in c], "im": [v.imag for v in c]})


def _cmd_eval(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    if cfg.family == "discrete1":
        value = polyfam.discrete1_eval(cfg.n, cfg.x, cfg.q)
    else:
        value = polyfam.eval_orthonormal(_family_descriptor(cfg), cfg.n, cfg.x)
    meta = {"command": "eval", "family": cfg.family, "q": _num(cfg.q)}
    return meta, [{"n": cfg.n, "x": _num(cfg.x), "value": _num(value)}], 0


def _cmd_table(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    nmax = cfg.nmax if cfg.nmax is not None else 10
    kind = cfg.kind or "spectrum"
    meta = {"command": "table", "kind": kind, "family": cfg.family, "q": _num(cfg.q)}
    if kind == "spectrum":
        lam = oscillator.spectrum(oscillator.source_for_family(_family_descriptor(cfg)), cfg.q, nmax)
        rows = _rows({"n": range(len(lam)), "lambda": lam})
    elif kind == "polys":
        if nmax < 0:
            raise DomainError("nmax must be non-negative")
        fam = _family_descriptor(cfg)
        span = 0.99 if cfg.family == "rogers" else 3.0
        xs = np.linspace(-span, span, 41)
        if cfg.family == "discrete1":
            vals = polyfam.discrete1_eval(np.arange(nmax + 1)[:, None], xs, cfg.q)  # row n: degree n
        else:
            vals = polyfam.eval_orthonormal_sequence(fam, nmax, xs)
        rows = _rows({"x": xs} | {f"p{n}": vals[n] for n in range(nmax + 1)})
    elif kind == "gram":
        report = polyfam.gram_matrix(_family_descriptor(cfg), nmax)
        meta["max_offdiag"] = _num(report.max_offdiag)
        meta["diag_spread"] = _num(report.diag_spread)
        dim = report.dimension
        rows = _rows({"i": range(dim)} | {f"g{j}": report.matrix[:, j] for j in range(dim)})
    else:  # coherent
        state = coherent.bg_expansion(_family_descriptor(cfg), cfg.z, dim=cfg.dim)
        meta.update(
            z_re=_num(cfg.z.real), z_im=_num(cfg.z.imag),
            norm_sq_closed=_num(state.norm_sq_closed),
            norm_sq_partial=_num(state.norm_sq_partial),
        )
        rows = _coherent_rows(state)
    return meta, rows, 0


def _cmd_verify(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    reports = verify.run_suites(cfg.suite, tol=cfg.tol, q=cfg.q, nmax=cfg.nmax, dim=cfg.dim, seed=cfg.seed,
                                lattice_scale=cfg.lattice_scale)
    rows = [{"suite": rep.suite, "check": chk.name, "measured": _num(chk.measured), "bound": _num(chk.bound),
             "passed": chk.passed} for rep in reports for chk in rep.checks]
    overall = all(rep.overall for rep in reports)
    meta = {"command": "verify", "suite": cfg.suite, "q": _num(cfg.q), "seed": cfg.seed,
            "overall": overall}
    return meta, rows, 0 if overall else 1


def _cmd_oscillator(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    dim = cfg.dim if cfg.dim is not None else 8
    fam = _family_descriptor(cfg)
    src = oscillator.source_for_family(fam)
    kind = oscillator.OperatorKind(cfg.kind or "hamiltonian")
    op = oscillator.build_operator(kind, src, cfg.q, dim)
    meta = {"command": "oscillator", "family": cfg.family, "q": _num(cfg.q),
            "kind": kind.value, "dim": dim}
    relation, key = ((oscillator.Relation.ARIK_COON, "arik_coon_residual") if fam.kind is Family.ROGERS
                     else (oscillator.Relation.Q_INVERSE, "q_inverse_residual"))
    meta[key] = _num(oscillator.commutator_residual(relation, src, cfg.q, max(dim, 3)))
    cols = {"i": range(dim)}
    for j in range(dim):
        cols[f"re{j}"], cols[f"im{j}"] = op.entries[:, j].real, op.entries[:, j].imag
    return meta, _rows(cols), 0


def _cmd_coherent(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    state = coherent.bg_expansion(_family_descriptor(cfg), cfg.z, dim=cfg.dim)
    meta = {
        "command": "coherent",
        "family": cfg.family,
        "q": _num(cfg.q),
        "z_re": _num(cfg.z.real),
        "z_im": _num(cfg.z.imag),
        "dim": state.dim,
        "norm_sq_closed": _num(state.norm_sq_closed),
        "norm_sq_partial": _num(state.norm_sq_partial),
        "eigen_residual": _num(coherent.eigen_residual(state)),
    }
    return meta, _coherent_rows(state), 0


def _cmd_gft(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    nmax = cfg.nmax if cfg.nmax is not None else 8
    f_mat = transform.gft_matrix(nmax, cfg.q)
    eye = np.eye(nmax + 1)
    diag = np.diag(f_mat)
    expected = (-1j) ** np.arange(nmax + 1)
    meta = {
        "command": "gft",
        "q": _num(cfg.q),
        "nmax": nmax,
        "max_diag_deviation": _num(float(np.max(np.abs(diag - expected)))),
        "unitarity_defect": _num(float(np.max(np.abs(f_mat.conj().T @ f_mat - eye)))),
        "fourth_power_defect": _num(float(np.max(np.abs(np.linalg.matrix_power(f_mat, 4) - eye)))),
    }
    rows = _rows({"n": range(nmax + 1), "diag_re": diag.real, "diag_im": diag.imag,
                  "expected_re": expected.real, "expected_im": expected.imag})
    return meta, rows, 0


#: command -> (its function, help, the options it reads besides --format and --out)
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate one polynomial value", ("family", "q", "n", "x")),
    "table": (_cmd_table, "emit a rectangular data table", ("kind", "family", "q", "nmax", "z", "dim", "c")),
    "verify": (_cmd_verify, "run a verification suite",
               ("suite", "q", "nmax", "dim", "c", "tol", "seed")),
    "oscillator": (_cmd_oscillator, "dump a truncated operator matrix", ("kind", "family", "q", "dim")),
    "coherent": (_cmd_coherent, "coherent-state expansion summary", ("family", "q", "z", "dim")),
    "gft": (_cmd_gft, "generalized Fourier transform diagnostics", ("q", "nmax")),
}


#: failures of a computation on valid input, reported as "numerical error"
_NUMERICAL_ERRORS = (ArithmeticError, ConvergenceError, QuadratureError, PoleError, InsufficientData)


def run(cfg: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    try:
        meta, rows, status = _COMMANDS[cfg.command][0](cfg)
    except _NUMERICAL_ERRORS as exc:
        print(f"qhermite: numerical error: {exc}", file=sys.stderr)
        return 2
    except (QHermiteError, ValueError, KeyError) as exc:
        print(f"qhermite: configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"qhermite: request too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    try:
        emit(meta, rows, cfg)
    except OSError as exc:
        print(f"qhermite: cannot write output: {exc}", file=sys.stderr)
        return 2
    return status


def main(argv: list[str] | None = None) -> int:
    return run(RunConfig(**vars(build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
