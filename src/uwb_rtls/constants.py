"""Constants shared across the package, its row blocks and its one diagnostics counter."""

from typing import Iterator

SPEED_OF_LIGHT = 299792458.0  # meters per second, in air taken as vacuum

# Rows per pass wherever a pass over every row would make temporaries as long
# as the run.  Its users: deploy's HDoP grid (points per block, each block's
# sums taken anchor by anchor), the simulator's blink ranges and its clock
# reads (reports of the sorted order), the sync's blink placements with their
# schedule hints, and cli's lines read, parsed, rendered and written at a time.
ROW_BLOCK = 4096


def row_blocks(n: int) -> Iterator[slice]:
    """Slices of ``ROW_BLOCK`` rows that cover ``n`` rows, in order."""
    return (slice(lo, lo + ROW_BLOCK) for lo in range(0, n, ROW_BLOCK))


def tally(diagnostics: dict | None, key: str, n: int = 1) -> None:
    """Add ``n`` to ``diagnostics[key]``, if any; a key stays absent at 0."""
    if n and diagnostics is not None:
        diagnostics[key] = diagnostics.get(key, 0) + int(n)
