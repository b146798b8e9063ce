"""The server process under test: ``repro serve`` through its CLI entry.

``python perfbench/serve_host.py [--spans PATH] -- serve --index ...``
calls ``repro.cli.main`` with the arguments after ``--``.  With
``--spans`` it first installs the tracing wrappers and, once the server
has shut down (SIGINT), writes the recorded spans to ``PATH``.  Traced
and untraced runs therefore execute one code path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: serve_host.py [--spans PATH] -- <repro cli args>", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv[:split])
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[split + 1:])
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
