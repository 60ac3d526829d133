import gch


def test_all_names_resolve():
    missing = [name for name in gch.__all__ if not hasattr(gch, name)]
    assert missing == []
    assert len(set(gch.__all__)) == len(gch.__all__)


def test_star_import_runs():
    namespace: dict = {}
    exec("from gch import *", namespace)
    assert set(gch.__all__) <= set(namespace)
