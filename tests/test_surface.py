"""Dead-surface guard: every definition in ``src/cdslab`` has a caller.

A top-level function or class, or a public method, that nothing in
``src/`` or ``cdsbench/`` refers to is library surface kept alive only by
its own tests.  Such a name is deleted, or it goes on ``KEEP`` with the
reason it stays.

A reference is a name or attribute in the code, or a string constant
that spells a (dotted) identifier, as the benchmark's lookup tables do.
Definitions, imports and ``__all__`` entries are not references.  Method
references match by attribute name alone, so the guard can miss a dead
method that shares its name with a live attribute, but it never flags a
live one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdslab"
CALLER_TREES = (ROOT / "src", ROOT / "cdsbench")

#: names with no caller outside the tests, and why each stays
KEEP = {
    "always_zero_function": "the hiding-everywhere toy function the verifier tests judge against",
    "circuit_unitary": "dense oracle the forrelation simulator is checked against (criterion 6)",
    "correctness_probability": "BHM single-shot correctness, checked by criterion 5",
    "depolarized": "noisy toy behind the open epsilon-interval evidence",
    "diamond_distance_bounds": "the two-sided diamond bound the CDQS verifier is to adopt",
    "dj_equal_probability": "Deutsch-Jozsa collision probability, checked by criterion 2",
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
    "transcript_block_checks": "validates transcript blocks independently of their consumers",
    "transcript_form": "exact rational twin of the dense pad lift, its cross-check",
}


def _definitions() -> dict:
    """Top-level functions and classes and public methods, by name."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.setdefault(node.name, path.relative_to(ROOT))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.setdefault(item.name, path.relative_to(ROOT))
    return out


def _references() -> set:
    names = set()
    for tree_root in CALLER_TREES:
        for path in sorted(tree_root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    exported.update(id(sub) for sub in ast.walk(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in exported
                ):
                    parts = node.value.split(".")
                    if all(part.isidentifier() for part in parts):
                        names.update(parts)
    return names


def test_every_definition_has_a_caller_or_a_reason():
    defined = _definitions()
    referenced = _references()
    dead = sorted(
        f"{path}: {name}"
        for name, path in defined.items()
        if name not in referenced and name not in KEEP
    )
    assert not dead, "defined but used only by tests (delete, or add to KEEP):\n" + "\n".join(dead)


def test_keep_list_is_current():
    defined = _definitions()
    referenced = _references()
    stale = sorted(name for name in KEEP if name not in defined or name in referenced)
    assert not stale, f"KEEP entries that are gone or now have a caller: {stale}"
