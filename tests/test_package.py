"""The package's public surface."""

import lyapid


def test_every_exported_name_resolves():
    missing = [name for name in lyapid.__all__ if not hasattr(lyapid, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(lyapid.__all__)) == len(lyapid.__all__)
