"""The package's ``__all__`` lists exactly the public names it binds."""

from __future__ import annotations

from types import ModuleType

import topodata


def test_all_matches_public_names():
    bound = {name for name, value in vars(topodata).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(topodata.__all__) == bound
    assert len(topodata.__all__) == len(bound)
