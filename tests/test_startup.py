"""Start-up cost: what ``import moranlab`` and each subcommand load.

Each check runs in a fresh interpreter and reads ``sys.modules`` at its
end, so modules imported by earlier tests in this process do not count.
"""

import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent

# runs ``python -m moranlab`` with the arguments after ``-c``, then writes the
# loaded module names and the collector's state at exit to stderr as the last line
RUN_CLI = (
    "import atexit, gc, json, runpy, sys\n"
    "atexit.register(lambda: sys.stderr.write('\\n' + json.dumps({'modules': sorted(sys.modules),"
    " 'gc_enabled': gc.isenabled(), 'frozen': gc.get_freeze_count()})))\n"
    "runpy.run_module('moranlab', run_name='__main__', alter_sys=True)\n"
)
HEAVY = {"moranlab.dimension", "moranlab.pressure", "moranlab.subconstruction"}


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=PKG_ROOT, env=env
    )


def state_at_exit(*argv) -> tuple:
    """The exit code of ``python -m moranlab *argv`` and what its ``atexit`` hook saw."""
    result = python("-c", RUN_CLI, *argv)
    return result.returncode, json.loads(result.stderr.splitlines()[-1])


def modules_after_cli(*argv) -> set:
    code, state = state_at_exit(*argv)
    assert code in (0, 1), state
    return set(state["modules"])


def test_import_moranlab_loads_no_numpy():
    result = python("-c", "import json, sys, moranlab; print(json.dumps(sorted(sys.modules)))")
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert "numpy" not in loaded
    assert not {m for m in loaded if m.startswith("moranlab.")}


def test_beta_runs_without_numpy():
    loaded = modules_after_cli("beta", "--layers", "2,1", "--alpha", "2.5")
    assert "moranlab.stratification" in loaded
    assert not {m for m in loaded if m == "numpy" or m.startswith("numpy.")}


SKIPPED = [
    (["generate", "specs/cantor.json", "--depth", "3"], HEAVY | {"moranlab.models"}),
    (["probe", "specs/cantor.json", "--probe", "epsilon", "--x", "0.5", "--depth", "4"],
     HEAVY | {"moranlab.models"}),
    (["validate", "specs/cantor.json", "--depth", "6"], HEAVY),
    # the ratio scans' distinct extremes come from a sort, not np.unique (numpy.ma)
    (["validate", "specs/nsq.json", "--axioms", "cmc", "--depth", "6"], HEAVY | {"numpy.ma"}),
    (["validate", "specs/selfaffine.json", "--axioms", "cmc", "--depth", "6"],
     HEAVY | {"numpy.ma"}),
]


@pytest.mark.parametrize("argv,skipped", SKIPPED, ids=[" ".join(a[:2] + a[3:4]) for a, _ in SKIPPED])
def test_subcommands_skip_the_modules_they_do_not_use(argv, skipped):
    loaded = modules_after_cli(*argv)
    assert "moranlab.systems" in loaded
    assert loaded.isdisjoint(skipped)


# one per exit path of ``main``
EXITS = [
    ("success", ["beta", "--layers", "2,1", "--alpha", "2.5"], 0),
    ("violated", ["validate", str(PKG_ROOT / "specs" / "nsq.json"), "--axioms", "cmc", "--depth", "6"], 1),
    ("unusable-flag", ["beta", "--layers", "2,1", "--alpha", "x"], 2),
    ("domain-error", ["beta", "--layers", "2,1", "--alpha", "0"], 3),
    ("argparse-exit", ["beta"], 2),
]


@pytest.mark.parametrize("argv,code", [c[1:] for c in EXITS], ids=[c[0] for c in EXITS])
def test_a_cli_process_never_collects(argv, code):
    """``python -m moranlab`` runs with the collector off and exits with the heap
    frozen, so the interpreter's shutdown collects nothing."""
    exit_code, state = state_at_exit(*argv)
    assert exit_code == code
    assert state["gc_enabled"] is False and state["frozen"] > 0, state


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv,code", [c[1:] for c in EXITS], ids=[c[0] for c in EXITS])
def test_main_leaves_the_collector_alone(argv, code, enabled):
    """In-process callers of ``cli.main`` keep their collector state on every exit path."""
    from moranlab.cli import main

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.get_freeze_count()
        try:
            exit_code = main(argv)
        except SystemExit as exc:  # argparse's
            exit_code = exc.code
        assert exit_code == code
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, before)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_every_public_name_resolves_in_a_fresh_process():
    code = (
        "import moranlab\n"
        "missing = [n for n in moranlab.__all__ if getattr(moranlab, n, None) is None]\n"
        "assert not missing, missing\n"
        "namespace = {}\n"
        "exec('from moranlab import *', namespace)\n"
        "assert set(moranlab.__all__) <= set(namespace)\n"
        "try:\n"
        "    moranlab.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown names must raise AttributeError')\n"
    )
    result = python("-c", code)
    assert result.returncode == 0, result.stderr


def test_submodules_are_attributes_in_a_fresh_process():
    code = (
        "import moranlab\n"
        "dimension = getattr(moranlab, 'dimension')\n"
        "assert dimension.box_count is moranlab.box_count\n"
        "assert moranlab.cli.main\n"
    )
    result = python("-c", code)
    assert result.returncode == 0, result.stderr


def test_spaces_imports_only_errors_and_words():
    """Spaces describe their points; reading them from spec files is ``specio``'s job."""
    tree = ast.parse((PKG_ROOT / "src" / "moranlab" / "spaces.py").read_text())
    named = set()
    for node in ast.walk(tree):  # module level and inside functions alike
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["moranlab" if node.level else "", node.module]))
            # ``from . import x`` and ``from moranlab import x`` name the module x
            modules = [module + "." + a.name for a in node.names] if module == "moranlab" else [module]
        else:
            continue
        named.update(m.split(".", 1)[1] for m in modules if m.startswith("moranlab."))
    assert named == {"errors", "words"}, named


def test_no_module_branches_on_the_python_version():
    """One float path on every supported Python: no module reads ``sys.version_info``
    (by attribute or by ``from sys import``), so each CI leg runs the same code."""
    readers = set()
    for path in (PKG_ROOT / "src" / "moranlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "version_info" or (
                isinstance(node, ast.alias) and node.name == "version_info"
            ):
                readers.add(path.name)
    assert not readers


# Function bodies that may import a moranlab module: each subcommand loads only its
# own modules, and building a spec or a system loads ``models`` only for a model.
LAZY_IMPORTS_BY_DESIGN = {("specio", "model_from_dict"), ("systems", "ContractionSystem.induced_model")}


def test_modules_import_each_other_at_the_top():
    """A module-level import is the rule; a function-local one once hid the
    ``spaces``/``words`` import cycle."""
    lazy = set()
    for path in (PKG_ROOT / "src" / "moranlab").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            methods = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for func in methods:
                if not isinstance(func, ast.FunctionDef):
                    continue
                name = func.name if func is stmt else "%s.%s" % (stmt.name, func.name)
                for node in ast.walk(func):
                    if isinstance(node, ast.ImportFrom):
                        modules = ["moranlab" if node.level else node.module or ""]
                    elif isinstance(node, ast.Import):
                        modules = [a.name for a in node.names]
                    else:
                        continue
                    if any(m.startswith("moranlab") for m in modules):
                        lazy.add((path.stem, name))
    assert {(m, f) for m, f in lazy if m != "cli"} == LAZY_IMPORTS_BY_DESIGN


# Public names that nothing outside their unit tests calls yet, each kept on purpose.
UNCALLED_BY_DESIGN = {
    "hausdorff_upper_sum": "the Hausdorff measure bracket on the ROADMAP builds on it",
    "carnot_branch_sequence": "the public form of the rule that carnot_cmsc_verify applies; "
    "its tests pin the rule's values",
}


def _references(path: Path) -> set:
    """Names a file reads, imports or spells as a string, less each definition's own name."""
    out = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            own = {stmt.name}
        else:
            own = {t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)}
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        out |= names - own
    return out


def test_every_public_name_has_a_caller():
    """Each exported name is used by the library, the benchmark or an acceptance criterion."""
    import moranlab

    files = [p for p in _caller_files() if p.name != "__init__.py"]
    used = set().union(*map(_references, files))
    uncalled = set(moranlab.__all__) - used - set(UNCALLED_BY_DESIGN)
    assert not uncalled, sorted(uncalled)
    assert set(UNCALLED_BY_DESIGN) <= set(moranlab.__all__)


def _caller_files() -> list:
    """The library's modules, the benchmark and the acceptance criteria: the code
    whose calls count as a use of the public API."""
    return [*(PKG_ROOT / "src" / "moranlab").glob("*.py"), *(PKG_ROOT / "bench").glob("*.py"),
            PKG_ROOT / "tests" / "test_acceptance.py"]


def _passed_arguments(paths) -> dict:
    """Per called name (``f`` of ``f(...)`` or ``obj.f(...)``), the largest number of
    positional arguments and the keywords that its calls pass; a starred argument
    passes every parameter.  A ``def`` in ``bench/`` counts as passing each parameter
    it declares: the tracer's wrappers are named after what they wrap and forward
    every argument they take to it."""
    passed: dict = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                        k.arg is None for k in node.keywords):
                    count, keywords = float("inf"), {"*"}
                else:
                    count, keywords = len(node.args), {k.arg for k in node.keywords}
                name = call_name(node)
            elif isinstance(node, ast.FunctionDef) and path.parent.name == "bench":
                count, keywords, name = 0, {a.arg for a in node.args.args}, node.name
            else:
                continue
            most, names = passed.get(name, (0, set()))
            passed[name] = (max(most, count), names | keywords)
    return passed


def _defaults(moranlab) -> set:
    """``(qualified name, called name, position, parameter)`` for each parameter with a
    default of an exported function, of an exported class's constructor (tuples
    aside: NamedTuple records) and of an exported class's public methods; a
    keyword-only parameter's position is ``inf``."""
    import inspect

    found = set()

    def add(func, called, skip):
        params = list(inspect.signature(func).parameters.values())[skip:]
        for k, p in enumerate(params):
            if p.default is not p.empty:
                at = k if p.kind <= p.POSITIONAL_OR_KEYWORD else float("inf")
                found.add((func.__qualname__, called, at, p.name))

    for name in moranlab.__all__:
        obj = getattr(moranlab, name)
        if inspect.isfunction(obj):
            add(obj, name, 0)
        elif isinstance(obj, type) and not issubclass(obj, tuple):
            if inspect.isfunction(obj.__init__):
                add(obj.__init__, name, 1)
            for attr in dir(obj):
                member = inspect.getattr_static(obj, attr)
                static = isinstance(member, staticmethod)
                func = member.__func__ if static else member
                if not attr.startswith("_") and inspect.isfunction(func):
                    add(func, attr, 0 if static else 1)
    return found


def test_every_default_has_a_caller():
    """A parameter with a default is a setting: some call in the library, the
    benchmark or the acceptance criteria passes it, by position or by keyword.
    A value only tests set is a constant of its module."""
    import moranlab

    passed = _passed_arguments(_caller_files())
    unset = []
    for qualname, called, k, param in sorted(_defaults(moranlab)):
        most, keywords = passed.get(called, (0, set()))
        if most <= k and not keywords & {param, "*"}:
            unset.append("%s(%s)" % (qualname, param))
    assert not unset, unset


# Classes that may define their own sequence or equality protocol, each with its reason;
# every other result record is a ``typing.NamedTuple``, which brings both.
PROTOCOLS_BY_DESIGN = {
    "PointCloud": "a sequence of rows: len is its point count",
    "_LevelPoints": "the exact rows of a cloud, a Sequence that builds a point on each read",
    "QuadraticNumber": "a number: equal values compare equal across types",
}


def test_records_are_named_tuples():
    """No class outside the allowlist hand-writes ``__iter__``, ``__len__`` or ``__eq__``."""
    offenders = set()
    for path in (PKG_ROOT / "src" / "moranlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name in ("__iter__", "__len__", "__eq__")
                for f in node.body
            ):
                offenders.add(node.name)
    assert offenders <= set(PROTOCOLS_BY_DESIGN), sorted(offenders - set(PROTOCOLS_BY_DESIGN))


def test_only_the_cli_renders_output():
    """The 12-digit format and the CSV and JSON shapes live in ``cli`` alone."""
    offenders = set()
    for path in (PKG_ROOT / "src" / "moranlab").glob("*.py"):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in ("to_csv", "to_json"):
                offenders.add("%s: def %s" % (path.name, node.name))
            elif isinstance(node, ast.Constant) and "%.12g" in str(node.value):
                offenders.add("%s: %r" % (path.name, node.value))
    assert not offenders, sorted(offenders)


def test_one_float_row_builder():
    """``MetricSpace.coordinates`` builds every space's float rows; only the
    symbol space (letter rows) and the snowflake (its base's rows) differ."""
    owners = set()
    for node in ast.parse((PKG_ROOT / "src" / "moranlab" / "spaces.py").read_text()).body:
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            # ``def coordinates`` or ``coordinates = ...`` in the class body
            names = [item.name] if isinstance(item, ast.FunctionDef) else [
                t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)]
            if "coordinates" in names:
                owners.add(node.name)
    assert owners == {"MetricSpace", "SymbolSpace", "SnowflakeSpace"}, sorted(owners)


EXACT_TYPES = {"Fraction", "QuadraticNumber"}


def test_exactness_is_decided_once():
    """``_field`` alone tests a value against the exact types in ``systems.py``
    (``_integer_parts``, which splits a scalar already decided exact, aside),
    and ``exactnum`` has no second test."""
    import moranlab.exactnum

    readers = set()
    for func in ast.walk(ast.parse((PKG_ROOT / "src" / "moranlab" / "systems.py").read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                tested = node.args[1:]
            elif isinstance(node, ast.Compare) and any(
                isinstance(n, ast.Call) and getattr(n.func, "id", None) == "type"
                for n in [node.left, *node.comparators]
            ):
                tested = [node.left, *node.comparators]
            else:
                continue
            if EXACT_TYPES & {getattr(n, "id", None) for t in tested for n in ast.walk(t)}:
                readers.add(func.name)
    assert readers == {"_field", "_integer_parts"}, sorted(readers)
    assert not hasattr(moranlab.exactnum, "exact_value")


def test_ball_membership_is_read_through_within():
    """``dimension`` orders no ``distances(...)`` result against a radius:
    its covers and packings ask ``space.within``, the one ball test."""
    orders = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    offenders = []
    for node in ast.walk(ast.parse((PKG_ROOT / "src" / "moranlab" / "dimension.py").read_text())):
        if isinstance(node, ast.Compare) and any(isinstance(op, orders) for op in node.ops):
            if any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "distances"
                   for side in [node.left, *node.comparators] for n in ast.walk(side)):
                offenders.append(node.lineno)
    assert not offenders, offenders


def call_name(call: ast.Call):
    """``f`` for a call ``f(...)`` or ``obj.f(...)``."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def call_owners(is_target) -> set:
    """``(file, owner)`` for each call in ``src/`` that ``is_target`` accepts, where
    ``owner`` is the dotted name of the enclosing class and function, ``""`` at
    module level."""
    found = set()
    for path in (PKG_ROOT / "src" / "moranlab").glob("*.py"):
        stack = [(ast.parse(path.read_text()), "")]
        while stack:
            node, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = owner
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = "%s.%s" % (owner, child.name) if owner else child.name
                elif isinstance(child, ast.Call) and is_target(child):
                    found.add((path.name, owner))
                stack.append((child, name))
    return found


@pytest.mark.parametrize("space", ["EuclideanSpace", "HeisenbergSpace"])
def test_distances_and_within_share_one_pre_root_helper(space):
    """``distances`` and ``within`` call one pre-root helper, whatever the query's
    shape, and nothing else in ``src/`` calls it: one kernel per space."""
    tree = ast.parse((PKG_ROOT / "src" / "moranlab" / "spaces.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == space]
    calls = {f.name: {call_name(n) for n in ast.walk(f) if isinstance(n, ast.Call)}
             for f in cls.body if isinstance(f, ast.FunctionDef)}
    shared = calls["distances"] & calls["within"]
    assert len(shared) == 1, sorted(shared)
    (helper,) = shared
    callers = call_owners(lambda call: call_name(call) == helper)
    assert callers == {("spaces.py", "%s.%s" % (space, m)) for m in ("distances", "within")}, sorted(callers)


def test_level_steps_go_through_level_step():
    """No ``.outer(`` and no ``(p[:, None] + s).ravel()`` or ``* s`` broadcast in
    ``src/``: a word-indexed array's next level is built by ``words.level_step``."""
    step = re.compile(r"\.outer\(|\[:, None\] [+*].*\)\.ravel\(\)")
    offenders = [
        "%s:%d" % (path.name, k)
        for path in sorted((PKG_ROOT / "src" / "moranlab").glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), start=1)
        if step.search(line)
    ]
    assert not offenders, offenders


# The functions that may run a map's ``apply``: the word map, the one level
# builder (with any helper nested in it) and the exhaustive cylinder check.
APPLY_CALLERS = (
    "ContractionSystem.apply_word",
    "ContractionSystem.levels",
    "proper_semiconformality_check_symbolic",
)


def test_maps_are_applied_only_by_the_level_builder():
    """Clouds, the epsilon and the W1 check read ``levels``; none maps points itself."""
    applies = call_owners(lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == "apply")
    strays = {"%s: %s" % (path, owner or "<module>") for path, owner in applies
              if not any((owner + ".").startswith(a + ".") for a in APPLY_CALLERS)}
    assert not strays, sorted(strays)
