"""Export lists: every name in the package's ``__all__`` and in each
module's ``__all__`` resolves, so deleting a name cannot leave a stale
export behind."""

import importlib
import pkgutil

import densetsnet

MODULES = ["densetsnet"] + [f"densetsnet.{m.name}"
                            for m in pkgutil.iter_modules(densetsnet.__path__)]


def test_every_exported_name_resolves():
    listed = {}
    for name in MODULES:
        mod = importlib.import_module(name)
        exports = getattr(mod, "__all__", None)
        if exports is None:
            continue
        assert len(set(exports)) == len(exports), name
        listed[name] = [n for n in exports if not hasattr(mod, n)]
    assert {"densetsnet", "densetsnet.autodiff"} <= set(listed)
    assert all(not missing for missing in listed.values()), listed
