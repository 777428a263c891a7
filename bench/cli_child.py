"""One traced CLI call, for the traced cli-session run.

Usage: python3 bench/cli_child.py SPANS_FILE ARGV...  (with the library's
src/ on PYTHONPATH).  Installs the span recorder, runs
``smile_domain.cli.main(ARGV)`` with stdout passed through, writes the
spans and solver counters to SPANS_FILE as JSON and exits with main's code.
"""

import json
import sys

import spans

tracer = spans.Tracer().install()
from smile_domain import cli  # noqa: E402 - bound to the traced main by install()

try:
    code = cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump({"spans": tracer.spans, "solves": tracer.solves, "fevals": tracer.fevals}, fh)
sys.exit(code)
