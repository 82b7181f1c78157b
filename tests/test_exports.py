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


def test_every_public_op_has_a_library_caller():
    """An op that only tests call belongs in ``tests/helpers.py``: every op
    in ``autodiff.__all__`` is used by another module of the package, as
    ``ad.<name>`` or imported by name."""
    import ast
    from pathlib import Path

    import densetsnet.autodiff as ad

    used = set()
    for path in Path(densetsnet.__file__).parent.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "ad"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
                used.update(alias.name for alias in node.names)
    not_ops = {"Tensor", "backward", "grad_check", "no_grad"}
    assert sorted(set(ad.__all__) - not_ops - used) == []


def test_every_op_parameter_is_set_by_a_library_caller():
    """A parameter with a default that no library call sets is a knob with
    one value in use: every such parameter of an op in ``autodiff.__all__``
    is passed, by keyword or by position, at some call in the package."""
    import ast
    import inspect
    from pathlib import Path

    import densetsnet.autodiff as ad

    # the library runs every depthwise conv through a fused op or conv1d's
    # router; groups stays for the composed reference in tests/helpers.py
    exempt = {("conv1d", "groups")}
    not_ops = {"Tensor", "backward", "grad_check", "no_grad"}
    ops = {name: inspect.signature(getattr(ad, name)).parameters
           for name in set(ad.__all__) - not_ops}
    knobs = {(name, p) for name, params in ops.items() for p, par in params.items()
             if par.default is not par.empty}
    passed = set()
    for path in Path(densetsnet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.attr if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == "ad" else f.id if isinstance(f, ast.Name) else None)
            if name not in ops:
                continue
            passed.update((name, kw.arg) for kw in node.keywords)
            passed.update((name, p) for p in list(ops[name])[:len(node.args)])
    assert sorted(knobs - exempt - passed) == []


def test_no_option_of_a_configured_subcommand_sets_a_config_key():
    """A subcommand that takes ``--set`` reads every config key from the
    defaults, ``--config`` and ``--set`` alone: no other option is named
    after a key (``cli._KEYS``) or changes the configs it builds, whichever
    of its values it is given."""
    import argparse

    from densetsnet.cli import _KEYS, _build_configs, build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    configured = {name: p for name, p in sub.choices.items()
                  if any(a.dest == "set" for a in p._actions)}
    assert set(configured) == {"train", "eval", "inspect"}
    setters = set()
    for name, parser in configured.items():
        required = [s for a in parser._actions if a.required for s in (a.option_strings[0], "1")]
        base = _build_configs(parser.parse_args(required))
        for a in parser._actions:
            if not a.option_strings or a.dest in ("help", "config", "set"):
                continue
            for value in [[]] if a.nargs == 0 else [[v] for v in a.choices or ["1"]]:
                args = parser.parse_args(required + [a.option_strings[0]] + value)
                if a.dest in _KEYS or _build_configs(args) != base:
                    setters.add((name, a.option_strings[0]))
    assert sorted(setters) == []
