"""The splitkit CLI with the benchmark's tracer installed.

Usage: ``python perfbench/traced_cli.py <splitkit cli arguments>`` with
``PERFBENCH_TRACE_OUT`` naming the file the trace summary is written to
when the command ends.  Behaves like ``python -m splitkit.cli``.

Reading stdin is traced as its own span (``cli.stdin``), so the time a
long-lived command waits for its next input line is not counted as CLI
work.
"""

import os
import sys

import tracer


class _Stdin:
    """sys.stdin whose line iteration goes through a traced generator."""

    def __init__(self, stream, lines):
        self._stream = stream
        self._lines = lines

    def __iter__(self):
        return self._lines(self._stream)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _read_lines(stream):
    yield from stream


if __name__ == "__main__":
    active = tracer.install()
    sys.stdin = _Stdin(sys.stdin, active.wrap("cli.stdin", _read_lines, "cli.stdin"))
    from splitkit import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        active.write(os.environ["PERFBENCH_TRACE_OUT"])
    sys.exit(code)
