"""Racks of p-cycle classes: classification, witness search, cohomology.

The package decides whether the conjugacy class of p-cycles in an
alternating group of degree p or p+1 is of type D, exhibits verified
witness pairs or proves their absence by exhaustion, identifies the
subgroup two p-cycles generate against a fixed case list, and computes
second rack cohomology of small racks over the integers. The public names
are each module's `__all__` and `__version__`.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = []
for _name in ("perm", "numth", "gf", "groups", "constructions", "rack",
              "homology", "classify", "acceptance"):
    _module = import_module("." + _name, __name__)
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
__all__.append("__version__")
del _name, _module, import_module
