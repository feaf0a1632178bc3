#!/usr/bin/env python3
"""Run every verification suite: ``qhermite verify --suite all``, one row per check.

Further arguments go to the command, e.g. ``--format csv`` or ``--q 0.7``.
Exits 0 when every check passes, 1 when one fails, 2 on an error.
"""

import sys

from qhermite import cli

if __name__ == "__main__":
    sys.exit(cli.main(["verify", "--suite", "all", *sys.argv[1:]]))
