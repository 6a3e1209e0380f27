import pairclone


def test_star_import_and_every_exported_name_resolve():
    namespace = {}
    exec("from pairclone import *", namespace)
    missing = [name for name in pairclone.__all__ if name not in namespace]
    assert not missing
