#!/usr/bin/env python3
"""Write tests/data/verify_measured.json, the reference of every verify value.

    python scripts/verify_measured.py

For each suite and each q of QS it records the repr of every check's
measured value, or the type and message of the exception the suite raises.
tests/test_verify_measured.py compares a fresh run against the file, so a
change that moves any value, by as little as one ulp, shows there.  A change
that means to move values regenerates the file and lists each move.
"""

import json
import pathlib
import sys

from qhermite import verify
from qhermite.errors import QHermiteError

PATH = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "verify_measured.json"

#: the q grid of the reference, from near 0 to near 1
QS = (0.05, 0.3, 0.5, 0.7, 0.9, 0.95)


def measured() -> dict:
    """{suite: {repr(q): {check name: repr(measured), ...} or {"raises": type, "message": text}}}"""
    out = {}
    for name, suite in verify.SUITES.items():
        out[name] = {}
        for q in QS:
            try:
                checks = suite(q=q).checks
            except (QHermiteError, ArithmeticError) as exc:  # a suite failing on valid input, as the CLI reports it
                out[name][repr(q)] = {"raises": type(exc).__name__, "message": str(exc)}
            else:
                values = {c.name: repr(c.measured) for c in checks}
                if len(values) != len(checks):
                    raise ValueError(f"suite {name} at q={q} repeats a check name")
                out[name][repr(q)] = values
    return out


def main() -> int:
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(measured(), indent=1, ensure_ascii=False) + "\n")
    print("wrote", PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
