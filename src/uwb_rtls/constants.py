"""Constants shared across the package."""

SPEED_OF_LIGHT = 299792458.0  # meters per second, in air taken as vacuum

# Rows per pass wherever a pass over every row would make temporaries as long
# as the run: HDoP grid points, simulated blinks' ranges, the sync's blink
# placements, and the lines read, parsed, rendered and written at a time.
ROW_BLOCK = 4096
