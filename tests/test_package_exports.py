"""Every name a ``repro`` package lists in ``__all__`` resolves, so an export
left behind when its module is deleted fails here at once."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    missing = [export for export in package.__all__
               if not hasattr(package, export)]
    assert missing == []
