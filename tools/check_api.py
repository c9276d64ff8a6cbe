#!/usr/bin/env python3
"""The type gate that runs without installing anything.

Every file under ``src`` must compile, and every annotation on the
public surface of the packages below must resolve to a real object
(``typing.get_type_hints``): with ``from __future__ import annotations``
an annotation is an unevaluated string, so a name whose import was
removed stays silent until something evaluates it.  This does not
replace a type checker; it is what the ``tests`` job and a container
without ``mypy`` can both run.

Run from the repo root:  python tools/check_api.py
"""

import compileall
import importlib
import inspect
import pathlib
import sys
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGES = ("repro.core", "repro.service", "repro.server")


def public_callables(package: str):
    """``(qualified name, object)`` for every function and class a
    package exports, and for the functions each such class defines."""
    module = importlib.import_module(package)
    for name in module.__all__:
        exported = getattr(module, name)
        if not (inspect.isfunction(exported) or inspect.isclass(exported)):
            continue
        yield f"{package}.{name}", exported
        if inspect.isclass(exported):
            for attribute, member in vars(exported).items():
                member = getattr(member, "__func__", member)  # static/class
                member = getattr(member, "fget", member)  # property
                if inspect.isfunction(member):
                    yield f"{package}.{name}.{attribute}", member


def main() -> int:
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1, force=True):
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    checked = 0
    failures = []
    for package in PACKAGES:
        for name, target in public_callables(package):
            checked += 1
            try:
                typing.get_type_hints(target)
            except Exception as error:  # any failure to resolve is a finding
                failures.append(f"{name}: {type(error).__name__}: {error}")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"check_api: {checked} signatures checked, {len(failures)} unresolved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
