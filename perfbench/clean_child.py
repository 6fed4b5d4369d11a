"""A traced ``pfd-discover`` process for the clean_wide workload.

Usage: ``python3 perfbench/clean_child.py TRACE_JSON <pfd-discover args...>``

Installs the layer wrappers, runs the CLI exactly as ``python3 -m repro.cli``
would, and dumps the spans for the parent benchmark to merge.  The imports
the wrappers trigger happen inside the process, so they stay part of the
op's (unattributed) time, as they are for an untraced run.
"""

import sys
from pathlib import Path

from spans import Tracer


def main(argv: list[str]) -> int:
    trace_path = Path(argv[0])
    tracer = Tracer()
    tracer.install()
    try:
        from repro.cli import main as cli_main

        return cli_main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
