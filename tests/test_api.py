import glasd


def test_public_names_resolve_once():
    assert len(glasd.__all__) == len(set(glasd.__all__))
    missing = [name for name in glasd.__all__ if not hasattr(glasd, name)]
    assert missing == []
