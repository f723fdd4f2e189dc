"""The text of CSV rows, and the helper that formats float rows beside the CLI.

``cells`` and ``rows_text`` are the one row formatter. The CLI's
``_write_csv`` calls them for the rows it formats itself. A helper, this
file run as ``python -I -S csvrows.py WIDTH``, calls them for the rows it
is given: WIDTH float64 columns of one length, in native byte order, one
after another on stdin. It writes their text to stdout, which the caller
points at a temporary file and appends to its table in row order. The
bytes are the same whichever process formats a row.

The helper is not a ``workers.WorkerPool`` worker, and this module
imports nothing beyond the standard library, because start-up decides
it. On a 2-vCPU VM, ``python -I -S`` starts in 8-12 ms, a child that
imports numpy in about 174 ms, and a pool worker, which imports the whole
package, in about 0.5 s, while the ``imfs.csv`` of a 32768-sample record
(12 columns) takes about 0.25 s to format. The pool's start rule
(``workers.START_AFTER_S`` of map work) also never fires in a
one-command CLI process.
"""

from __future__ import annotations

import signal
import sys

# Rows formatted and written per block: the whole of a 32768-row table
# at once would hold every cell's text in memory together.
CSV_BLOCK_ROWS = 2048


def cells(values: list) -> list[str]:
    """The text of each value, by one ``repr`` of the list: ``repr`` of
    each value is its ``str``, and for a float the shortest round-trip
    form, so identical values give identical bytes."""
    return repr(values)[1:-1].split(", ")


def rows_text(columns: list[list[str]]) -> str:
    """The lines of a block of rows, given the cell texts of each column."""
    return "\n".join(map(",".join, zip(*columns)))


def serve(width: int) -> None:
    """Write the rows of the float64 columns on stdin to stdout, each
    ``CSV_BLOCK_ROWS`` rows formatted together and followed by a newline."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller ends its helpers
    values = memoryview(sys.stdin.buffer.read()).cast("d")
    n = len(values) // width
    for start in range(0, n, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, n)
        block = [cells(values[c * n + start : c * n + stop].tolist()) for c in range(width)]
        sys.stdout.write(rows_text(block) + "\n")


if __name__ == "__main__":
    serve(int(sys.argv[1]))
