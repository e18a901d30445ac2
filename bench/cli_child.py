"""Run one ``carboncast`` CLI command with every layer traced.

    python -X importtime bench/cli_child.py SPANS.json ARG...

Behaves like ``python -m carboncast.cli ARG...`` (same output, same exit
code) and writes the command's spans to SPANS.json. ``carboncast`` must be
importable, for example with ``PYTHONPATH=src``.
"""

import sys

import carboncast.cli

from spans import ROOT, Tracer

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call(ROOT, carboncast.cli.main, argv)
    finally:
        tracer.dump(out)
    sys.exit(code)
