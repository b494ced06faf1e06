"""Traced CLI process: ``python bench/cli_child.py <cli args>`` (document on stdin).

Does what ``python -m inellipse.cli`` does, with the tracer installed, and
writes its folded spans to stderr as one ``TRACE <json>`` line at exit.
"""

import json
import sys

import tracer
from inellipse import cli

if __name__ == "__main__":
    tr = tracer.Tracer()
    tr.install()
    code = cli.run(sys.argv[1:])
    sys.stdout.flush()
    tr.fold()
    sys.stderr.write("TRACE " + json.dumps(tr.totals.as_dict()) + "\n")
    sys.exit(code)
