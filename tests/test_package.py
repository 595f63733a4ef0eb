"""Package surface: each module's ``__all__`` lists its public names,
every public name has a caller, and the source keeps its tooling rules."""

import ast
import functools
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# public names kept without a caller in the package or the bench: the
# correctness claims on tolerance per unit time and on time reversal
# rest on them
KEPT_WITHOUT_CALLER = {"evolve_timedep", "reverse_schedule"}

MODULES = ("lattice", "spectral", "evolve", "protocols", "crab", "routing",
           "cli", "acceptance")


def _top_level(tree):
    """Functions, classes and constants a module defines, not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_names(name):
    module = importlib.import_module(f"clsnet.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    public = {n for n in _top_level(ast.parse(inspect.getsource(module)))
              if not n.startswith("_")}
    assert set(module.__all__) == public


@functools.cache
def _references():
    """How often each name is read in ``src/clsnet`` and ``bench/``: as
    a loaded name, an attribute or a string (getattr-style patch
    targets), not counting definitions and ``__all__`` lists."""
    seen = Counter()
    files = sorted((ROOT / "src" / "clsnet").glob("*.py")) + \
        sorted((ROOT / "bench").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text())
        listed = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)
                  for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if id(node) in listed:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen[node.id] += 1
            elif isinstance(node, ast.Attribute):
                seen[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen[node.value] += 1
    return seen


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_caller(name):
    module = importlib.import_module(f"clsnet.{name}")
    seen = _references()
    unused = {n for n in module.__all__ if not seen[n]} - KEPT_WITHOUT_CALLER
    assert not unused


def _registered(node):
    """Whether ``node`` is a criterion that ``@_criterion(...)`` registers."""
    return any(isinstance(d, ast.Call) and ast.unparse(d.func) == "_criterion"
               for d in getattr(node, "decorator_list", ()))


def test_every_private_name_is_read():
    # a private helper nothing reads is dead code; a registered criterion
    # is read through the registry
    seen = _references()
    unread = []
    for name, tree in _source_trees():
        registered = {n.name for n in tree.body if _registered(n)}
        unread += [(name, n) for n in _top_level(tree) - registered
                   if n.startswith("_") and not n.startswith("__")
                   and not seen[n]]
    assert not unread


# parameters kept unread: bench/ passes them positionally
UNREAD_KEPT = {("extract_star", "H")}


def _is_stub(fn):
    """Body is a docstring at most and a raise of NotImplementedError."""
    body = [s for s in fn.body if not (isinstance(s, ast.Expr) and
                                       isinstance(s.value, ast.Constant))]
    return len(body) == 1 and isinstance(body[0], ast.Raise) and \
        "NotImplementedError" in ast.unparse(body[0])


def test_every_parameter_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "clsnet").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        functions += [m for c in tree.body if isinstance(c, ast.ClassDef)
                      for m in c.body if isinstance(m, ast.FunctionDef)]
        for fn in functions:
            if _is_stub(fn):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(fn.name, p) for p in params
                       if p not in read and p not in ("self", "cls")]
    assert set(unread) == UNREAD_KEPT, sorted(set(unread) ^ UNREAD_KEPT)


def _source_trees():
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted((ROOT / "src" / "clsnet").glob("*.py"))]


def test_no_assert_statements():
    # python -O strips them, so a check must raise on its own
    found = [(name, node.lineno) for name, tree in _source_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_runtime_imports_only_stdlib_and_numpy():
    # scipy and hypothesis stay test-only
    allowed = set(sys.stdlib_module_names) | {"numpy", "clsnet"}
    foreign = []
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [(name, r) for r in roots if r not in allowed]
    assert not foreign


def test_only_evolve_rebuilds_the_matrix_in_force():
    # ProtocolSchedule.walk owns the rule for the static matrix in
    # force; no other module negates a flipped coupling in a matrix or
    # takes a segment's end snapshot itself
    callers = {name for name, tree in _source_trees()
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and ast.unparse(node.func).split(".")[-1] in (
                   "evaluate_grid", "negate")}
    assert callers == {"evolve.py"}


def test_trusted_shares_a_validated_base():
    # TimedHamiltonian._trusted skips validation, so the base it gets
    # must be the ``base`` of an instance that was validated: never a
    # matrix built or copied at the call; and it gets nothing else but
    # the overrides, so no cache or plan rides along on an instance
    calls = [(name, node) for name, tree in _source_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func).endswith("TimedHamiltonian._trusted")]
    assert calls
    for name, call in calls:
        # ``**cached`` is a keyword whose arg is None
        passed = ["*" if isinstance(a, ast.Starred) else "" for a in
                  call.args] + [k.arg for k in call.keywords]
        assert len(passed) == 2 and set(passed) <= {"", "base", "overrides"}, \
            f"{name}:{call.lineno} passes {ast.unparse(call)}"
        base = call.args[0] if call.args else \
            next(k.value for k in call.keywords if k.arg == "base")
        assert isinstance(base, ast.Attribute) and base.attr == "base", \
            f"{name}:{call.lineno} passes {ast.unparse(base)}"


# evolve's integrator plan: the value-keyed table and its size, the
# plan itself and the chiral split it is built from
PLAN_NAMES = {"_PLANS", "_PLANS_KEPT", "_CF4Plan", "_sublattices"}


def _named(tree):
    """Every name a module reads, defines, imports, passes as a keyword
    or spells as a string (getattr-style)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef, ast.keyword)):
            yield getattr(n, "name", getattr(n, "arg", None))
        elif isinstance(n, ast.alias):
            yield n.asname or n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_only_evolve_names_a_plan():
    # evolve owns the CF4 plan: no other module, bench/ included, keeps,
    # presets, spies on or rebuilds it, and no TimedHamiltonian carries it
    files = sorted((ROOT / "src" / "clsnet").glob("*.py")) + \
        sorted((ROOT / "bench").glob("*.py"))
    naming = {path.name: PLAN_NAMES & set(_named(ast.parse(path.read_text())))
              for path in files}
    assert {name for name, found in naming.items() if found} == {"evolve.py"}
    assert naming["evolve.py"] == PLAN_NAMES


def test_only_run_criterion_times_and_looks_up_criteria():
    # criteria only compute: run_criterion alone times them and applies
    # the suite-wide bounds, so no criterion keeps a stopwatch or re-runs
    # another through the registry
    tree = ast.parse((ROOT / "src" / "clsnet" / "acceptance.py").read_text())
    owners = {"perf_counter": set(), "_REGISTRY": set()}
    for node in tree.body:
        # a def by its name, a module-level assignment by its target
        owner = getattr(node, "name", None) or \
            ast.unparse(getattr(node, "targets", [node])[0])
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            else:
                continue
            if name in owners:
                owners[name].add(owner)
    assert owners == {"perf_counter": {"run_criterion"},
                      "_REGISTRY": {"_criterion", "CRITERION_IDS",
                                    "run_criterion"}}


def _scopes(tree):
    """(name, node) of each function, method (Class.method) and other
    module-level statement (<module>) of a module."""
    scopes = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    scopes += [(f"{c.name}.{f.name}", f) for c in tree.body
               if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, ast.FunctionDef)]
    return scopes + [("<module>", n) for n in tree.body
                     if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]


def test_only_the_timeline_converts_to_ticks():
    # planning reads exact ticks and everything after it reads
    # Timeline.windows, so a jump's times are converted in three places:
    # its holds, its route's start and its one emitted record
    tree = ast.parse((ROOT / "src" / "clsnet" / "routing.py").read_text())
    callers = {name for name, node in _scopes(tree) for n in ast.walk(node)
               if isinstance(n, ast.Call) and ast.unparse(n.func) == "_ticks"}
    assert callers == {"_jump_holds", "Timeline.jumps", "Timeline.windows"}


def test_only_the_plans_index_blocks_and_lay_node_grids():
    # what a pulsed run keeps fixed is built once per plan: np.ix_ only
    # where lattice._block_plan cuts the base block, and the C1/C2 node
    # grid only in evolve._CF4Plan.grid, so the per-evaluation path
    # cannot grow either back
    found = {(name, scope) for name, tree in _source_trees()
             for scope, node in _scopes(tree) for n in ast.walk(node)
             if isinstance(n, ast.Attribute) and n.attr == "ix_"
             or isinstance(n, ast.Name) and n.id in ("_C1", "_C2")
             and isinstance(n.ctx, ast.Load)}
    assert found == {("lattice.py", "_block_plan"),
                     ("evolve.py", "_CF4Plan.grid")}


def test_routing_runs_one_engine():
    # simulate_route certifies a set by its support walk or refuses it;
    # routing imports run_schedule only for bench/tracing.py to wrap, so
    # a full-lattice pass there cannot come back unnoticed
    tree = ast.parse((ROOT / "src" / "clsnet" / "routing.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for a in n.names]
    assert "run_schedule" in imported
    assert list(_named(tree)).count("run_schedule") == 1


# ROADMAP's cap on src/clsnet, counted as ``wc -l`` counts: newlines
LINE_CAP = 3874


def test_source_stays_under_the_line_cap():
    lines = sum(path.read_bytes().count(b"\n")
                for path in (ROOT / "src" / "clsnet").glob("*.py"))
    assert lines <= LINE_CAP


@functools.cache
def _traced_targets():
    """(module, attribute, span name) of each row of bench/tracing.py's
    ``_TARGETS``, read from its source: the suite does not import the
    bench."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign) and
                   [ast.unparse(t) for t in node.targets] == ["_TARGETS"])
    return [(row.elts[0].id, row.elts[1].value, row.elts[2].value)
            for row in targets.elts]


def test_every_traced_attribute_resolves():
    # bench/tracing.py wraps (module, attribute) pairs by getattr: a
    # name a refactor drops from a module would break only a traced
    # benchmark run
    pairs = [(m, a) for m, a, _ in _traced_targets()]
    assert pairs
    missing = [(m, a) for m, a in pairs
               if not hasattr(importlib.import_module(f"clsnet.{m}"), a)]
    assert not missing


def test_every_traced_span_is_called():
    # a wrapper sees only calls that look the attribute up where it is
    # wrapped: by its bare name inside clsnet/<module>.py, or as
    # <module>.<attribute> in the package or the bench.  A span none of
    # whose pairs is called that way stays empty, and a traced run with
    # an empty span has no measurement for its layer
    bare, dotted = {}, set()
    for path in sorted((ROOT / "src" / "clsnet").glob("*.py")) + \
            sorted((ROOT / "bench").glob("*.py")):
        where = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.setdefault(where, set()).add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name):
                dotted.add((node.value.id, node.attr))
    spans = {}
    for m, a, name in _traced_targets():
        called = a in bare.get(f"src/clsnet/{m}.py", ()) or (m, a) in dotted
        spans[name] = spans.get(name, False) or called
    assert spans
    assert [name for name, called in spans.items() if not called] == []
