"""The committed out/*.csv tables regenerate byte for byte."""

import importlib.util
import pathlib

from qhermite import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _make_tables_jobs():
    spec = importlib.util.spec_from_file_location("make_tables", ROOT / "scripts" / "make_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.JOBS


def test_goldens_regenerate_bit_identical(tmp_path):
    jobs = _make_tables_jobs()
    assert len(jobs) == 8
    for job in jobs:
        # the file name scripts/make_tables.py gives each job
        name = "_".join([job[2], job[4], f"q{job[6]}"]) + ".csv"
        assert cli.main(job + ["--format", "csv", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name
