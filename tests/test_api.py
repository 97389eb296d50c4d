"""The package namespace: ``numlaws.__all__`` lists exactly what it exports."""

import types

import numlaws


def test_all_matches_the_public_names():
    """Every listed name resolves, none is listed twice, and every public
    attribute other than a submodule is listed."""
    assert len(set(numlaws.__all__)) == len(numlaws.__all__)
    assert [name for name in numlaws.__all__ if not hasattr(numlaws, name)] == []
    public = {
        name
        for name, value in vars(numlaws).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(numlaws.__all__)) == []
