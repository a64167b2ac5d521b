"""No library parameter that no caller sets.

A defaulted parameter that no call passes is a switch with one setting:
the default is a constant under another name, and a caller could still
pass a different value (a looser acceptance slack, say) where none is
meant.  This guard reads every function of `src/mcflow` and every call in
`src/`, `demos/`, `perfbench/` and `tests/` from their syntax trees, and
asks that each defaulted parameter is set by at least one call.
"""

import ast
import collections
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "mcflow")
CALLERS = ("src", "demos", "perfbench", "tests")


def _trees(directory):
    for base, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), path)


def _defaulted(fn):
    """(position, name) of each defaulted parameter of `fn`; position is
    the index a positional argument takes (None for keyword-only), not
    counting the `self` or `cls` of a method."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    found = [(i - skip, positional[i].arg)
             for i in range(first, len(positional))]
    found += [(None, arg.arg) for arg, default
              in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return found


def _called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _sets(call, position, name) -> bool:
    """Whether `call` passes the parameter at `position` named `name`."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_parameters() -> list:
    """'module.function(parameter)' for each defaulted parameter of a
    function of `src/mcflow` that no call sets; names defined more than
    once in the package, and dunder methods, are not judged."""
    functions = []
    for path, tree in _trees(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        functions += [(module, node) for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))]
    defined = collections.Counter(fn.name for _, fn in functions)
    calls = collections.defaultdict(list)
    for directory in CALLERS:
        for _, tree in _trees(os.path.join(ROOT, directory)):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    calls[_called_name(node)].append(node)
    return [f"{module}.{fn.name}({name})" for module, fn in functions
            if defined[fn.name] == 1 and not fn.name.startswith("__")
            for position, name in _defaulted(fn)
            if not any(_sets(call, position, name)
                       for call in calls[fn.name])]


def test_every_defaulted_parameter_is_set_by_a_call():
    assert unset_parameters() == []


def test_the_scan_reads_positions_keywords_and_unpacking():
    # a call sets a parameter by position or keyword, or may set any
    # through *args or **kwargs
    tree = ast.parse("def f(a, b=1, *, c=2): pass\nf(0, 5)\n")
    fn, call = tree.body[0], tree.body[1].value
    assert _defaulted(fn) == [(1, "b"), (None, "c")]
    assert _sets(call, 1, "b") and not _sets(call, None, "c")
    assert _sets(ast.parse("f(**kw)").body[0].value, None, "c")
    assert _sets(ast.parse("f(*args)").body[0].value, 1, "b")
