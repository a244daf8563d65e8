from pathlib import Path

import sgmc

# Lines of src/sgmc/*.py, counted as `cat src/sgmc/*.py | wc -l` counts them.  A change
# that grows src/ raises this constant and says why in CHANGES.md.
SRC_LINE_BUDGET = 2269
SRC_LINE_WIDTH = 99  # columns
SOURCES = sorted((Path(__file__).parents[1] / "src" / "sgmc").glob("*.py"))


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
    assert SOURCES
    total = sum(path.read_bytes().count(b"\n") for path in SOURCES)
    assert total <= SRC_LINE_BUDGET


def test_src_line_width():
    # so that the line budget cannot be met by merging statements into long lines
    wide = [f"{path.name}:{number}" for path in SOURCES
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > SRC_LINE_WIDTH]
    assert wide == []
