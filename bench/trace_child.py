"""Run the nrquad CLI once, as ``python -m nrquad`` would, with its layers traced.

usage: python trace_child.py SPANS_FILE ARG...

The traced run of the ``cli`` workload launches this script in place of
``python -m nrquad``.  The spans are written to SPANS_FILE when the
command ends, also when it raises.
"""

import sys
from pathlib import Path

import nrquad.cli

from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    cli_main = tracer.wrap(nrquad.cli.main, "cli.main")
    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())
