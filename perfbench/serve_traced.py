"""Run `homevitals serve` with the benchmark's layer wrappers installed.

    python perfbench/serve_traced.py --spans OUT.json serve --config FILE

Spans stay in memory. The summary is written to OUT.json when the server
stops (Ctrl-C / SIGINT) and also on SIGUSR1, which the benchmark sends just
before it kills the server with SIGKILL.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402


def _write(tracer, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(tracer.summary()))
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path = Path(argv[1])
    tracer = layers.new_tracer()
    layers.install_all(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: _write(tracer, spans_path))
    from homevitals import cli

    try:
        return cli.main(argv[2:])
    finally:
        _write(tracer, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
