"""Traced launcher for the solve daemon.

``python perfbench/daemon.py --spans PATH -- <repro.service arguments>``
installs the span wrappers, then runs ``repro.service.__main__.main`` in this
process, so the traced daemon has the same process layout as the untraced
``python -m repro.service``.  The spans are written to ``PATH`` when the
daemon stops (SIGINT).
"""

from __future__ import annotations

import argparse
import sys

from spans import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    service_args = args.service_args[1:] if args.service_args[:1] == ["--"] else args.service_args

    from repro.service.__main__ import main as service_main

    tracer = Tracer().install()
    try:
        status = service_main(service_args)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)
    return status


if __name__ == "__main__":
    sys.exit(main())
