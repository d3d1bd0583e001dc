import importlib
import pkgutil

import rackforge


def test_public_names_resolve_once_and_star_import_works():
    modules = [rackforge] + [
        importlib.import_module("rackforge." + info.name)
        for info in pkgutil.iter_modules(rackforge.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(names) == len(set(names)), module.__name__
    namespace = {}
    exec("from rackforge import *", namespace)
    assert set(rackforge.__all__) <= set(namespace)
