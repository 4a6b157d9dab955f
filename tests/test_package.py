import chaossde


def test_every_public_name_resolves():
    assert len(chaossde.__all__) == len(set(chaossde.__all__))
    for name in chaossde.__all__:
        assert getattr(chaossde, name) is not None


def test_star_import():
    namespace = {}
    exec("from chaossde import *", namespace)
    assert set(chaossde.__all__) <= set(namespace)
