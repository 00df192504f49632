"""The package's public surface: every exported name resolves."""

import smile


def test_every_export_resolves():
    missing = [name for name in smile.__all__ if not hasattr(smile, name)]
    assert missing == []
    assert len(set(smile.__all__)) == len(smile.__all__)
