"""Layer names a module binds when a function that reads them runs.

``cli`` and ``harness`` each map the layer names their functions read to
the layer that defines each, so importing ``cli`` loads no layer and
importing ``harness`` no NumPy: a command binds the names its body reads,
and a scenario that needs NumPy binds every name ``harness`` maps, before
it runs, so a call loads only the layers it uses.
"""

from __future__ import annotations

import importlib

__all__ = ["layer_binding"]


def layer_binding(namespace: dict, layer_of: dict[str, str]):
    """``(bind, module_getattr)`` for the module whose globals are ``namespace``.

    ``bind(names)`` binds each name among ``names`` that ``layer_of`` maps to
    a layer, from ``cesaro.<layer>``; a name already bound stays bound, so a
    name a caller replaced (``bench/tracer.py`` wraps some) keeps its wrapper.
    ``module_getattr`` is the module's ``__getattr__``: looking a layer name
    up on the module from outside binds every layer name first.
    """

    def bind(names) -> None:
        for name in names:
            if name in layer_of:
                module = importlib.import_module(f"cesaro.{layer_of[name]}")
                namespace.setdefault(name, getattr(module, name))

    def module_getattr(name: str):
        if name not in layer_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind(layer_of)
        return namespace[name]

    return bind, module_getattr
