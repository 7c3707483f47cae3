"""The standing size rule: src/circext/*.py stays below its 2856-line seed.

A change that adds code says what it removes; this test fails once the
count, as `cat src/circext/*.py | wc -l` gives it, reaches the seed.
"""

import pathlib

SEED_LINES = 2856
SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "circext"


def test_source_stays_below_the_seed():
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCE.glob("*.py"))
    assert lines < SEED_LINES, f"src/circext/*.py has {lines} lines; the budget is {SEED_LINES - 1}"
