import ishkit


def test_every_exported_name_resolves_and_appears_once():
    assert len(ishkit.__all__) == len(set(ishkit.__all__))
    for name in ishkit.__all__:
        assert hasattr(ishkit, name), name
    namespace: dict = {}
    exec("from ishkit import *", namespace)
    assert set(ishkit.__all__) <= set(namespace)
