"""The package's public name list."""

from __future__ import annotations

from types import ModuleType

import modescatter
import modescatter.applications


def test_all_lists_each_public_name_once() -> None:
    names = modescatter.__all__
    assert len(names) == len(set(names))
    assert "__version__" in names
    for name in names:
        assert not isinstance(getattr(modescatter, name), ModuleType), name
    assert set(modescatter.applications.__all__) <= set(names)


def test_star_import_resolves_every_name() -> None:
    namespace: dict[str, object] = {}
    exec("from modescatter import *", namespace)
    for name in modescatter.__all__:
        assert namespace[name] is getattr(modescatter, name)
