import recdig


def test_every_public_name_imports():
    # A star import raises AttributeError for a name __all__ lists but the
    # package does not define.
    namespace = {}
    exec("from recdig import *", namespace)
    assert set(recdig.__all__) <= namespace.keys()
