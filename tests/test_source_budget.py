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


def test_exports_are_the_public_names_of_the_package():
    # __all__ is derived from the imports in __init__.py; a star import gives
    # those names, and no submodule rides along
    import types

    import circext

    public = {name for name, value in vars(circext).items() if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(circext, name), types.ModuleType)}
    assert circext.__all__ == sorted(public - modules)
    assert {"feasibility_certificate", "find_threshold", "maxent_solve", "newton_solve"} <= set(circext.__all__)
    namespace = {}
    exec("from circext import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(circext.__all__)
