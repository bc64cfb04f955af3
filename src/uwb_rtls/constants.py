"""Constants shared across the package, and its one diagnostics counter."""

SPEED_OF_LIGHT = 299792458.0  # meters per second, in air taken as vacuum

# Rows per pass wherever a pass over every row would make temporaries as long
# as the run: HDoP grid points, simulated blinks' ranges, the sync's blink
# placements, and the lines read, parsed, rendered and written at a time.
ROW_BLOCK = 4096


def tally(diagnostics: dict | None, key: str, n: int = 1) -> None:
    """Add ``n`` to ``diagnostics[key]``, if any; a key stays absent at 0."""
    if n and diagnostics is not None:
        diagnostics[key] = diagnostics.get(key, 0) + int(n)
