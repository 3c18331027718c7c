"""
The program's surface: every top-level name in ``src/logmeans`` is reached from
``cli.main``, or is one the benchmark's tracer pins, every method of a reached
class is named by reached code, and every defaulted parameter of reached code is
passed by a reached call.  A helper that only a test or a criterion calls
lives in ``tests/conftest.py`` instead.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "logmeans"

#: Names that ``bench/tracer.py`` wraps by ``getattr`` but no command reaches.  They stay
#: until the tracer is re-pinned on the layers the commands run (ROADMAP item 5).
PINNED_BY_BENCH = {
    ("fourier", "dirichlet_matrix"),
    ("fourier", "fourier_coeffs"),
    ("fourier", "evaluate_grid"),
    ("means", "l1_distance"),
    ("kernels", "log_kernel_direct"),
    ("kernels", "log_kernel_closed"),
    ("kernels", "lemma_main_check"),
    ("kernels", "sin_sum"),
}


#: Methods of reached classes that only tests and criteria call.  They belong to the 2-D grid route,
#: which ROADMAP item 4 settles after item 3 gives it a consumer.
KEPT_FOR_THE_2D_ROUTE = {
    ("grid", "GridFunction2D", "from_function"),
    ("grid", "GridFunction2D", "constant"),
}


def _assigned(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned(element)


def read_modules():
    """
    Every module of the package but ``__init__``, as {module: (definitions, bindings)}:
    its top-level functions, classes and assignments by name, and its relative imports,
    each bound name mapped to (module, name), or to (module, None) for a module.
    """
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        definitions, bindings = {}, {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    definitions.update((name, node) for name in _assigned(target))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:  # from . import mod [as alias]
                        bindings[bound] = (alias.name, None)
                    else:
                        bindings[bound] = (node.module, alias.name)
        modules[path.stem] = (definitions, bindings)
    return modules


def reached_from(modules, roots):
    """The (module, name) definitions that the definitions ``roots`` name, directly or not."""
    reached, todo = set(), list(roots)
    while todo:
        module, name = todo.pop()
        if (module, name) in reached or name not in modules.get(module, ({}, {}))[0]:
            continue
        reached.add((module, name))
        definitions, bindings = modules[module]
        # every name in the whole node: body, decorators, defaults and annotations
        for node in ast.walk(definitions[name]):
            if isinstance(node, ast.Name):
                if node.id in definitions:
                    todo.append((module, node.id))
                elif node.id in bindings and bindings[node.id][1] is not None:
                    todo.append(bindings[node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                source, attr = bindings.get(node.value.id, (None, ""))
                if source is not None and attr is None:  # alias.attr of a bound module
                    todo.append((source, node.attr))
    return reached


def test_every_top_level_name_is_reached_from_the_cli_or_pinned_by_the_bench():
    modules = read_modules()
    defined = {(module, name) for module, (definitions, _) in modules.items() for name in definitions}
    assert PINNED_BY_BENCH <= defined
    unreached = defined - reached_from(modules, {("cli", "main"), *PINNED_BY_BENCH})
    assert not unreached, f"reached by no command: {sorted(unreached)}; move them into tests/conftest.py"


def test_every_method_of_a_reached_class_is_named_by_reached_code():
    # a method, property or constructor that no reached code names outside its own body is dead;
    # dunder methods are called by Python itself
    modules = read_modules()
    reached = reached_from(modules, {("cli", "main"), *PINNED_BY_BENCH})
    nodes = [modules[module][0][name] for module, name in reached]
    named = Counter(node.attr for root in nodes for node in ast.walk(root) if isinstance(node, ast.Attribute))
    unnamed = set()
    for module, name in reached:
        cls = modules[module][0][name]
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or method.name.startswith("__"):
                continue
            own = sum(isinstance(node, ast.Attribute) and node.attr == method.name for node in ast.walk(method))
            if named[method.name] == own:
                unnamed.add((module, name, method.name))
    assert unnamed == KEPT_FOR_THE_2D_ROUTE, (
        f"named by no reached code: {sorted(unnamed - KEPT_FOR_THE_2D_ROUTE)}; "
        f"kept but now named, so drop them from the list: {sorted(KEPT_FOR_THE_2D_ROUTE - unnamed)}"
    )


def test_no_bench_pin_is_reached_from_the_cli():
    # a pinned name that a command reaches needs no pin, so the list stays minimal
    assert not PINNED_BY_BENCH & reached_from(read_modules(), {("cli", "main")})


#: Defaulted parameters that no reached call passes by design: the console script calls cli.main()
#: with no argv, so that argparse reads sys.argv.
PASSED_FROM_OUTSIDE = {("cli", "main", "argv")}


def _is_static(method):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list)


def _defaulted(function, bound):
    """The parameters of a def that have defaults, each as (name, position or None when keyword-only)."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if bound else 0  # self or cls is not written at the call
    yield from ((p.arg, i - shift) for i, p in enumerate(positional) if i >= first)
    yield from ((k.arg, None) for k, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None)


def _passes(call, name, position):
    """Whether a call passes the parameter ``name``, at ``position`` (None: keyword-only), or may through a splat."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    splat = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (position < len(call.args) or splat)


def test_every_defaulted_parameter_is_passed_by_reached_code():
    # a parameter with a default that no call reached from cli.main passes, by position or by
    # keyword, is a mode no command runs; the bench pins are reached by no command, so their
    # parameters and their calls are out of scope
    modules = read_modules()
    reached = reached_from(modules, {("cli", "main")})
    calls = [
        (module, node)
        for module, name in reached
        for node in ast.walk(modules[module][0][name])
        if isinstance(node, ast.Call)
    ]

    def calls_of(module, name):
        for caller, call in calls:
            bindings, func = modules[caller][1], call.func
            if isinstance(func, ast.Name):
                if (caller, func.id) == (module, name) or bindings.get(func.id) == (module, name):
                    yield call
            elif isinstance(func, ast.Attribute) and func.attr == name and isinstance(func.value, ast.Name):
                if bindings.get(func.value.id) == (module, None):
                    yield call

    def method_calls(name):
        return (call for _, call in calls if isinstance(call.func, ast.Attribute) and call.func.attr == name)

    unpassed = set()
    for module, name in reached:
        node = modules[module][0][name]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            targets = [(name, node, False, list(calls_of(module, name)))]
        elif isinstance(node, ast.ClassDef):
            targets = [
                (f"{name}.{method.name}", method, not _is_static(method), list(method_calls(method.name)))
                for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        else:
            continue
        for qualname, function, bound, found in targets:
            for parameter, position in _defaulted(function, bound):
                if not any(_passes(call, parameter, position) for call in found):
                    unpassed.add((module, qualname, parameter))
    assert unpassed == PASSED_FROM_OUTSIDE, f"passed by no reached call: {sorted(unpassed - PASSED_FROM_OUTSIDE)}"
