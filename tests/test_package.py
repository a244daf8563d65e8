from pathlib import Path

import sgmc

# Lines of src/sgmc/*.py, counted as `cat src/sgmc/*.py | wc -l` counts them.  A change
# that grows src/ raises this constant and says why in CHANGES.md.
SRC_LINE_BUDGET = 2283


def test_every_export_resolves():
    # a deletion that leaves its name in __all__ fails here, not in a user's import *
    missing = []
    for name in sgmc.__all__:
        try:
            getattr(sgmc, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_src_line_budget():
    sources = sorted((Path(__file__).parents[1] / "src" / "sgmc").glob("*.py"))
    assert sources
    total = sum(path.read_bytes().count(b"\n") for path in sources)
    assert total <= SRC_LINE_BUDGET
