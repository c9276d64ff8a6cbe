"""The guarded-by passes: lock discipline for annotated attributes.

Three passes over the declared guards:

* **guarded-by** — every read/write of a lock-guarded attribute must be
  lexically dominated by a ``with <lock>`` on the declared lock, happen
  inside a ``*_locked`` helper (which asserts the lock is already
  held), or happen in ``__init__`` (construction precedes publication).
  Calls *to* ``*_locked`` helpers are checked against the locks the
  helper transitively requires.
* **loop-confined** — attributes guarded by ``@loop`` (event-loop
  confinement) must never be touched from code dispatched to a worker
  thread (``run_in_executor`` / ``Executor.submit`` /
  ``threading.Thread`` targets and lambdas).
* **structured-acquisition** — bare ``.acquire()`` / ``.release()``
  calls on recognized locks are flagged: the guarded-by analysis (and
  exception safety) assume context-manager acquisition.
"""

from __future__ import annotations

from typing import List

from ...diagnostics import Diagnostic
from .annotations import LOOP_GUARD
from .facts import CodebaseFacts
from .framework import CONCURRENCY_PASSES
from .model import ClassSummary, FunctionSummary, ModuleModel

#: Methods where unguarded access is fine: the object is not yet (or no
#: longer) shared when they run.
_EXEMPT_METHODS = {"__init__", "__del__", "__post_init__"}


def _check_method_guards(
    module: ModuleModel,
    cls: ClassSummary,
    name: str,
    method: FunctionSummary,
    requirements,
    out: List[Diagnostic],
) -> None:
    assumed = name.endswith("_locked")
    for access in method.accesses:
        guard = cls.guards.get(access.attr)
        if guard is None or guard == LOOP_GUARD:
            continue
        if assumed and not access.escaped:
            continue
        if guard in access.held and not access.escaped:
            continue
        kind = "write" if access.is_write else "read"
        where = (
            "from thread-dispatched code"
            if access.escaped
            else f"in {cls.name}.{name}"
        )
        out.append(
            Diagnostic(
                "error",
                f"unguarded-{kind}",
                f"self.{access.attr} is guarded by self.{guard} but "
                f"{kind} without holding it {where}",
                path=module.path,
                line=access.line,
                col=access.col,
            )
        )
    if assumed:
        return  # a helper's own calls are covered by its requirements
    for call in method.calls:
        if (
            call.chain is None
            or len(call.chain) != 2
            or call.chain[0] != "self"
        ):
            continue
        helper = call.chain[1]
        if not helper.endswith("_locked") or helper not in cls.methods:
            continue
        missing = sorted(requirements.get(helper, frozenset()) - call.held)
        if missing or call.escaped:
            needs = ", ".join(f"self.{lock}" for lock in missing)
            out.append(
                Diagnostic(
                    "error",
                    "unguarded-call",
                    f"{cls.name}.{helper} assumes {needs or 'its locks'} "
                    f"held, but {cls.name}.{name} calls it without",
                    path=module.path,
                    line=call.line,
                    col=call.col,
                )
            )


@CONCURRENCY_PASSES.register(
    "guarded-by",
    "guarded attributes accessed only under their declared lock",
)
def check_guarded_by(facts: CodebaseFacts) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for module in facts.modules:
        for cls in module.classes.values():
            if not cls.guards:
                continue
            requirements = facts.helper_requirements(module, cls)
            for name, method in cls.methods.items():
                if name in _EXEMPT_METHODS:
                    continue
                _check_method_guards(
                    module, cls, name, method, requirements, out
                )
    return out


@CONCURRENCY_PASSES.register(
    "loop-confined",
    "@loop attributes never touched from thread-dispatched code",
)
def check_loop_confined(facts: CodebaseFacts) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for module in facts.modules:
        for cls in module.classes.values():
            confined = {
                attr
                for attr, guard in cls.guards.items()
                if guard == LOOP_GUARD
            }
            if not confined:
                continue
            for name, method in cls.methods.items():
                if name in _EXEMPT_METHODS:
                    continue
                method_escaped = name in cls.escaped_methods
                for access in method.accesses:
                    if access.attr not in confined:
                        continue
                    if access.escaped or method_escaped:
                        out.append(
                            Diagnostic(
                                "error",
                                "loop-confined-escape",
                                f"self.{access.attr} is event-loop-"
                                f"confined (@loop) but touched from "
                                f"code dispatched to a worker thread "
                                f"(via {cls.name}.{name})",
                                path=module.path,
                                line=access.line,
                                col=access.col,
                            )
                        )
    return out


@CONCURRENCY_PASSES.register(
    "structured-acquisition",
    "locks acquired only via with statements",
)
def check_structured_acquisition(
    facts: CodebaseFacts,
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for module in facts.modules:
        for cls in module.classes.values():
            for name, method in cls.methods.items():
                for raw in method.raw_acquires:
                    lock = (
                        f"self.{raw.target}"
                        if not raw.target.startswith("local:")
                        else raw.target[len("local:"):]
                    )
                    out.append(
                        Diagnostic(
                            "warning",
                            "unstructured-acquire",
                            f"{lock}.{raw.method}() in {cls.name}.{name}: "
                            f"use 'with {lock}:' so the release is "
                            f"exception-safe and visible to the "
                            f"guarded-by analysis",
                            path=module.path,
                            line=raw.line,
                        )
                    )
        for name, function in module.functions.items():
            for raw in function.raw_acquires:
                lock = raw.target.replace("local:", "", 1)
                out.append(
                    Diagnostic(
                        "warning",
                        "unstructured-acquire",
                        f"{lock}.{raw.method}() in {name}: use "
                        f"'with {lock}:' so the release is exception-"
                        f"safe and visible to the guarded-by analysis",
                        path=module.path,
                        line=raw.line,
                    )
                )
    return out
