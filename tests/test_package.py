import sgmc


def test_every_export_resolves():
    # a deletion that leaves its name in __all__ fails here, not in a user's import *
    missing = []
    for name in sgmc.__all__:
        try:
            getattr(sgmc, name)
        except AttributeError:
            missing.append(name)
    assert missing == []
