import types

import soclelab


def test_every_exported_name_resolves_once():
    assert len(soclelab.__all__) == len(set(soclelab.__all__))
    missing = [name for name in soclelab.__all__ if not hasattr(soclelab, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(soclelab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(soclelab.__all__)) == []
