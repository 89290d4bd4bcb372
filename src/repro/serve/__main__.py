"""Bare server entry point: ``python -m repro.serve [--port N] ...``.

An alias for ``python -m repro.experiments serve``: it calls that CLI's
:func:`~repro.experiments.__main__.main` with ``serve`` prepended and
declares no flags of its own, so both accept the identical flag set
(serve knobs, ``--jobs``, ``--trace``, ``--metrics``, ``--profile``,
the resilience controls and ``--mc-precision``) and share one run
wrapper for the trace, the manifest and the profile.
"""

from __future__ import annotations

import sys

from repro.experiments.__main__ import main as cli_main


def main(argv=None) -> int:
    return cli_main(["serve", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
