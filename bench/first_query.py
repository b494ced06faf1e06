"""Set-up probe: a fresh interpreter imports the package and answers one query.

Usage: ``python bench/first_query.py '<query json>'`` with ``src`` on
PYTHONPATH.  Prints ``done`` once the first query has completed; the caller
times process start to that line.
"""

import json
import sys

import calls

if __name__ == "__main__":
    calls.solve(json.loads(sys.argv[1]))
    sys.stdout.write("done\n")
    sys.stdout.flush()
