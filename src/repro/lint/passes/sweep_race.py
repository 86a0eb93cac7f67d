"""sweep-race: worker processes must not mutate shared state.

The sweep executor forks workers that inherit the parent's modules
copy-on-write.  A worker that stores to a module global, a class
attribute or a closed-over mutable *appears* to work — each forked
child updates its own copy — but the parent never sees the writes, so
the "shared" accumulator is silently empty (and under the ``spawn``
start method the same code races or pickles stale state).  The only
safe protocol is the one ``repro.robustness.supervisor`` uses: workers
receive arguments, return results, and the parent aggregates.

This pass finds every function run on a worker — the first argument
of ``.submit(f, ...)`` / ``.map(f, ...)`` / ``.starmap`` / ``.imap`` /
``.apply_async`` calls, and the ``target=`` of any ``Process(...)``
call (the sweep executor's own workers) — and checks, through the
module call graph, that neither the worker nor any helper it
transitively calls stores outside its local scope: no ``global``
assignment, no ``STATE[...] = ...`` / ``STATE.attr = ...`` on a
module-level name, no ``SomeClass.attr = ...``, no
``shared.append(...)``-style in-place mutation of a closed-over or
global container.

Pool *initializers* (an executor's ``initializer=``) are deliberately
exempt: priming per-worker module state is their job.
"""

import ast

from repro.lint.flow.summaries import ModuleSummaries
from repro.lint.framework import LintPass, register

#: Attribute-call names whose first argument is run on pool workers.
_SUBMIT_METHODS = frozenset({
    "submit", "map", "starmap", "imap", "imap_unordered", "apply_async",
})


def _worker_target(call):
    """The worker expression of *call*, or ``None`` if it starts none."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    if name == "Process":
        return next(
            (kw.value for kw in call.keywords if kw.arg == "target"), None
        )
    if isinstance(func, ast.Attribute) and name in _SUBMIT_METHODS \
            and call.args:
        return call.args[0]
    return None


def _submitted_functions(tree):
    """``{function_name: first submit line}`` for worker-run names."""
    submitted = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _worker_target(node)
        if isinstance(target, ast.Name):
            submitted.setdefault(target.id, node.lineno)
    return submitted


@register
class SweepRacePass(LintPass):
    id = "sweep-race"
    description = (
        "functions run on worker processes must not store to"
        " module globals, class attributes or closed-over mutables"
    )

    def check_module(self, module, project):
        submitted = _submitted_functions(module.tree)
        if not submitted:
            return
        summaries = ModuleSummaries(module.tree)
        reported = set()
        for worker, submit_line in sorted(submitted.items()):
            if worker not in summaries.functions:
                continue  # imported or builtin callable — out of scope
            for mutation, chain in summaries.external_mutations(worker):
                key = (mutation.lineno, mutation.kind, mutation.name)
                if key in reported:
                    continue
                reported.add(key)
                if len(chain) > 1:
                    via = " -> ".join(chain)
                    route = f" (reached via {via})"
                else:
                    route = ""
                yield self.finding(
                    module, mutation.lineno,
                    f"{mutation.func}() stores to"
                    f" {mutation.describe()} but {worker}() runs on"
                    f" worker processes (started at line"
                    f" {submit_line}){route}; forked workers mutate a"
                    " copy the parent never sees — return results"
                    " instead",
                )
