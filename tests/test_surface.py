"""Dead-surface guard: every definition in ``src/cdslab`` has a caller.

A top-level function or class, or a public method, that nothing in
``src/`` or ``cdsbench/`` refers to is library surface kept alive only by
its own tests.  Such a name is deleted, or it goes on ``KEEP`` with the
reason it stays.

A reference to a top-level name is a name or attribute in the code, or a
string constant that spells a (dotted) identifier, as the benchmark's
lookup tables do.  A public method is referenced only by an attribute
access or by a part of a dotted string such as the tracer's
``"Class.method"``: a local variable or a plain string of the same name
does not keep it alive.  Definitions, imports and ``__all__`` entries are
not references, and nor is anything inside a definition's own body: a
recursive call, or a string constant that spells its name, does not keep
it alive.  Method references match by attribute name alone, so the
guard can miss a dead method that shares its name with a live attribute,
but it never flags a live one.

The options guard does the same for parameters: every defaulted
parameter of a ``def`` in ``src/cdslab`` whose name does not start with
``_`` is set by some call in ``src/`` or ``cdsbench/``, or it goes on
``KEEP_OPTIONS`` with the reason it stays.  A call sets a parameter by
keyword, by position, or through ``*``/``**`` unpacking; it matches by
callee name, by class name for ``__init__`` and by attribute name for
methods.  Dataclass fields are not ``def`` parameters, so the guard does
not see them.  No ``def`` or ``lambda`` gives a default to a parameter
whose name starts with ``_``: such a parameter would be a knob this guard
cannot see, so a closure reads the captured name directly instead.

The import guard fails on any name a module in ``src/``, ``tests/`` or
``cdsbench/`` imports and never uses.

The export guard holds ``cdslab.qcore.__all__`` to the public names
``qcore/__init__.py`` imports, so a stale export fails here and not at
``from cdslab.qcore import *``.

The framework guard keeps ``_draws``, ``_grid`` and ``_tally`` inside
``framework.py``, so the classical regime keeps one tally.

The tracing guard resolves every name the benchmark's traced pass looks
up (``COUNTED`` and ``SPANNED`` in ``cdsbench/tracing.py``), so a rename
fails here and not only in a traced benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import cdslab.qcore
from cdslab.qcore import identity_channel

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdslab"
CALLER_TREES = (ROOT / "src", ROOT / "cdsbench")
IMPORT_TREES = (ROOT / "src", ROOT / "tests", ROOT / "cdsbench")

#: names with no caller outside the tests, and why each stays
KEEP = {
    "always_zero_function": "the hiding-everywhere toy function the verifier tests judge against",
    "circuit_unitary": "dense oracle the forrelation simulator is checked against (criterion 6)",
    "correctness_probability": "BHM single-shot correctness, checked by criterion 5",
    "depolarized": "noisy toy behind the open epsilon-interval evidence",
    "diamond_distance_bounds": "the two-sided diamond bound the CDQS verifier is to adopt",
    "dj_shorten": "the full Deutsch-Jozsa outcome distribution, oracle for dj_equal_probability",
    "ensemble_sqrt_fidelity_check": "fidelity inequality checked by criterion 11",
    "fuchs_van_de_graaf_gaps": "trace-distance/fidelity bounds checked by criterion 11",
    "leaky": "insecure toy behind the open delta and cheating-bound evidence",
    "maximally_mixed": "reference state of criterion 11",
    "partial_trace": "DensityMatrix-level oracle for partial_trace_matrix",
    "productness_check": "mid-protocol witness of criterion 7",
    "psm_to_cds": "the PSM-to-CDS reduction, checked exactly on AND",
    "run_cdqs": "executes a protocol on an explicit secret; oracle for mid_protocol_state",
    "system_bounds_ok": "purification-dimension bounds of the two-prover proof",
    "table_psm": "generic PSM for any small function, input of psm_to_cds",
    "transcript_form": "exact rational twin of the dense pad lift, its cross-check",
    "unencrypted": "cleartext toy whose delta = 3/2 is the evidence for the open delta interval",
}


def _definitions() -> tuple:
    """Top-level functions and classes, and public methods, each by name."""
    top, methods = {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.setdefault(node.name, path.relative_to(ROOT))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        methods.setdefault(item.name, path.relative_to(ROOT))
    return top, methods


def _owned(tree: ast.Module, in_package: bool):
    """Every node of ``tree`` with the names of the judged definitions it
    sits in: the top-level function or class, and the public method of a
    top-level class.  Outside the package no definition is judged."""
    stack = [(tree, frozenset(), frozenset())]
    while stack:
        node, top, methods = stack.pop()
        yield node, top, methods
        for child in ast.iter_child_nodes(node):
            if in_package and node is tree and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                stack.append((child, top | {child.name}, methods))
            elif (
                in_package
                and isinstance(node, ast.ClassDef)
                and node in tree.body
                and isinstance(child, ast.FunctionDef)
                and not child.name.startswith("_")
            ):
                stack.append((child, top, methods | {child.name}))
            else:
                stack.append((child, top, methods))


def _references() -> tuple:
    """The names that refer to top-level definitions, and those that refer
    to methods: attribute accesses and the parts of dotted string constants.
    A reference inside a definition's own body does not count for that
    definition."""
    names, attributes = set(), set()
    for tree_root in CALLER_TREES:
        for path in sorted(tree_root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    exported.update(id(sub) for sub in ast.walk(node.value))
            for node, top, methods in _owned(tree, path.is_relative_to(PACKAGE)):
                if isinstance(node, ast.Name):
                    names.update({node.id} - top)
                elif isinstance(node, ast.Attribute):
                    names.update({node.attr} - top)
                    attributes.update({node.attr} - methods)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in exported
                ):
                    parts = node.value.split(".")
                    if all(part.isidentifier() for part in parts):
                        names.update(set(parts) - top)
                        if len(parts) > 1:
                            attributes.update(set(parts) - methods)
    return names, attributes


def _dead() -> dict:
    """Definitions with no reference, KEEP entries included, by name."""
    top, methods = _definitions()
    names, attributes = _references()
    dead = {name: path for name, path in methods.items() if name not in attributes}
    dead.update((name, path) for name, path in top.items() if name not in names)
    return dead


def test_every_definition_has_a_caller_or_a_reason():
    dead = sorted(f"{path}: {name}" for name, path in _dead().items() if name not in KEEP)
    assert not dead, "defined but used only by tests (delete, or add to KEEP):\n" + "\n".join(dead)


def test_keep_list_is_current():
    dead = _dead()
    stale = sorted(name for name in KEEP if name not in dead)
    assert not stale, f"KEEP entries that are gone or now have a caller: {stale}"


# ---------------------------------------------------------------------------
# options guard: every defaulted parameter is set by some caller
# ---------------------------------------------------------------------------

#: defaulted parameters that no call in ``src/`` or ``cdsbench/`` sets, and why each stays
KEEP_OPTIONS = {
    "one_way_decide.epsilon": "the correctness budget of the one-way reduction (Theorem 1)",
    "one_way_decide.delta": "the security budget of the one-way reduction (Theorem 1)",
    "proof_lab_report.epsilon_hat": "the correctness budget the two-prover proof is judged on",
    "proof_lab_report.delta_hat": "the security budget the two-prover proof is judged on",
    "circuit_unitary.x": "oracle data, so the dense unitary can stand in for a test oracle",
    "circuit_unitary.y": "oracle data, so the dense unitary can stand in for a test oracle",
}


def _options() -> dict:
    """Defaulted public parameters of every ``def`` in the package.

    Keys are ``"<callee>.<parameter>"``, where the callee is the function
    name, or the class name for ``__init__``.  Values are ``(path,
    position)``: ``position`` counts positional arguments at the call site
    (``self`` or ``cls`` excluded) and is None for keyword-only parameters.
    """
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[id(item)] = node.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = methods.get(id(node))
            skip = 1 if owner else 0
            callee = owner if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(a, i - skip) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for arg, position in defaulted:
                if not arg.arg.startswith("_"):
                    out[f"{callee}.{arg.arg}"] = (path.relative_to(ROOT), position)
    return out


def _settings() -> dict:
    """Per callee name, what its calls in ``src/`` and ``cdsbench/`` set:
    keyword names, the largest positional count, and whether any call
    unpacks ``*`` or ``**`` (which may set anything)."""
    seen = {}
    for tree_root in CALLER_TREES:
        for path in sorted(tree_root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                else:
                    continue
                entry = seen.setdefault(name, {"keywords": set(), "positional": 0, "any": False})
                entry["keywords"].update(k.arg for k in node.keywords if k.arg is not None)
                entry["positional"] = max(entry["positional"], len(node.args))
                if any(k.arg is None for k in node.keywords) or any(
                    isinstance(a, ast.Starred) for a in node.args
                ):
                    entry["any"] = True
    return seen


def _unset_options() -> dict:
    settings = _settings()
    unset = {}
    for key, (path, position) in _options().items():
        callee, name = key.rsplit(".", 1)
        entry = settings.get(callee)
        if entry and (
            entry["any"]
            or name in entry["keywords"]
            or (position is not None and position < entry["positional"])
        ):
            continue
        unset[key] = path
    return unset


def test_every_option_is_set_by_a_caller_or_has_a_reason():
    unset = sorted(f"{path}: {key}" for key, path in _unset_options().items()
                   if key not in KEEP_OPTIONS)
    assert not unset, (
        "defaulted parameters no caller sets (write the default into the body, "
        "or add to KEEP_OPTIONS):\n" + "\n".join(unset)
    )


def test_keep_options_is_current():
    unset = _unset_options()
    stale = sorted(key for key in KEEP_OPTIONS if key not in unset)
    assert not stale, f"KEEP_OPTIONS entries that are gone or now have a caller: {stale}"


def test_no_default_on_a_private_parameter():
    hidden = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            hidden += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {a.arg}"
                for a in defaulted
                if a.arg.startswith("_")
            ]
    assert not hidden, (
        "defaults on _-named parameters (read the captured name in the body):\n"
        + "\n".join(hidden)
    )


# ---------------------------------------------------------------------------
# unused imports
# ---------------------------------------------------------------------------

def test_every_imported_name_is_used():
    """Each name a module imports is used in it.  ``__init__.py`` files
    re-export and ``__future__`` imports switch features, so neither counts."""
    unused = []
    for tree_root in IMPORT_TREES:
        for path in sorted(tree_root.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound not in used:
                            unused.append(f"{path.relative_to(ROOT)}: {bound}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# ---------------------------------------------------------------------------
# qcore's exports
# ---------------------------------------------------------------------------

def test_qcore_exports_are_the_names_it_imports():
    tree = ast.parse((PACKAGE / "qcore" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    exported = cdslab.qcore.__all__
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert sorted(exported) == sorted(imported)


# ---------------------------------------------------------------------------
# the classical enumeration's privates
# ---------------------------------------------------------------------------

#: the enumeration's draws and their one sort into runs
FRAMEWORK_ONLY = {"_draws", "_grid", "_tally"}


def test_the_draws_and_their_tally_stay_in_framework():
    """Only ``framework.py`` draws transcripts and sorts them into runs;
    every other module in ``src/`` or ``cdsbench/`` counts through its
    public tallies, so no second tally grows beside it.  A name, an
    attribute, an imported name or a part of a dotted string counts as a
    reference; the tests may still reach in."""
    found = []
    for tree_root in CALLER_TREES:
        for path in sorted(tree_root.rglob("*.py")):
            if path == PACKAGE / "framework.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.alias):
                    names = {node.name, node.asname}
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = set(node.value.split("."))
                else:
                    continue
                found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                          for name in sorted(names & FRAMEWORK_ONLY)]
    assert not found, "framework privates used outside framework.py:\n" + "\n".join(found)


# ---------------------------------------------------------------------------
# names the traced benchmark pass looks up
# ---------------------------------------------------------------------------

def _traced_names() -> list:
    """``(module, attribute or Class.method)`` of every ``COUNTED`` and
    ``SPANNED`` entry, read from ``cdsbench/tracing.py`` by import."""
    spec = importlib.util.spec_from_file_location(
        "cdsbench_tracing", ROOT / "cdsbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return list(tracing.COUNTED.values()) + [(m, t) for m, t, _ in tracing.SPANNED]


def test_every_traced_name_resolves():
    missing = []
    for mod_name, target in _traced_names():
        module = importlib.import_module(mod_name)
        if "." in target:
            cls_name, method = target.split(".")
            cls = getattr(module, cls_name, None)
            # the tracer replaces the class's own attribute, not an inherited one
            if cls is None or method not in cls.__dict__:
                missing.append(f"{mod_name}.{target}")
        elif not hasattr(module, target):
            missing.append(f"{mod_name}.{target}")
    assert not missing, f"traced names that no longer resolve: {missing}"
    # the tracer sizes channel applications by the Kraus operator count
    channel = identity_channel((("Q", 2),))
    assert len(channel.kraus_operators) == len(channel.kraus_stack)
