"""The package's export list."""

import types

import entclass as ec


def test_all_is_the_public_api():
    assert len(ec.__all__) == len(set(ec.__all__))
    for name in ec.__all__:
        assert not isinstance(getattr(ec, name), types.ModuleType), name
    assert "monotone_trial" in ec.__all__
    assert "__version__" in ec.__all__
