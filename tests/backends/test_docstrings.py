"""A pydocstyle-lite docstring contract, scoped to ``repro.backends``.

The backend package is the repo's public ABI surface — five execution
tiers behind one protocol — so its docstrings are load-bearing: they are
where units (cycles, seconds, raw bit patterns), thread-safety, and
failure modes are specified.  Rather than depend on pydocstyle itself
(not in the container), this test walks the package with ``ast`` and
enforces the subset of checks we care about:

* D100-lite: every module has a docstring;
* D101/D102/D103-lite: every public class and public function/method has
  a docstring (private ``_names`` and dunders are exempt, and — like
  pydocstyle's overridden-member convention — implementations of the
  ``api.py`` protocol methods inherit the contract docstring rather
  than repeat it);
* D400-lite: the docstring's first line ends with a period;
* ABI-strict: the public contract symbols in ``api.py`` and
  ``modelcache.compile_cached`` must have *multi-line* docstrings — a
  one-line summary cannot document units, thread-safety, and failure
  modes, which is the whole point of the satellite this test rode in on.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

BACKENDS = Path(__file__).resolve().parents[2] / "src" / "repro" / "backends"

MODULES = sorted(BACKENDS.rglob("*.py"))

#: api.py symbols forming the backend ABI: docstrings must be multi-line
#: (summary + body covering units / thread-safety / failure modes).
ABI_STRICT = {
    "api.py": {
        "saturate",
        "StepResult",
        "Simulation",
        "Simulation.poke",
        "Simulation.peek",
        "Simulation.step",
        "Simulation.drive",
        "Simulation.cover_counts",
        "InputBlock",
        "drive",
        "SimulatorBackend",
        "SimulatorBackend.compile",
        "SimulatorBackend.compile_state",
        "metered_step",
        "reset_and_run",
    },
    "modelcache.py": {"compile_cached"},
}

#: methods whose contract lives on the api.py protocols; implementations
#: (TreadleSimulation.poke, CBackend.compile, ...) inherit those docs.
INHERITS_ABI_DOC = {"poke", "peek", "step", "cover_counts", "compile", "compile_state"}


def is_public(name: str) -> bool:
    return not name.startswith("_")


def iter_public_defs(tree: ast.Module):
    """Yield ``(qualname, node)`` for public defs needing docstrings."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and is_public(node.name):
            yield node.name, node
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if is_public(child.name):
                        yield f"{node.name}.{child.name}", child


def violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    rel = path.relative_to(BACKENDS).as_posix()
    strict = ABI_STRICT.get(rel, set())
    found = []
    if ast.get_docstring(tree) is None:
        found.append(f"{rel}: missing module docstring")
    for qualname, node in iter_public_defs(tree):
        doc = ast.get_docstring(node)
        where = f"{rel}:{node.lineno} {qualname}"
        if doc is None:
            inherited = (
                rel != "api.py"
                and "." in qualname
                and qualname.rsplit(".", 1)[1] in INHERITS_ABI_DOC
            )
            if not inherited:
                found.append(f"{where}: missing docstring")
            continue
        first = doc.strip().splitlines()[0].strip()
        if not first.endswith("."):
            found.append(f"{where}: first docstring line must end with '.'")
        if qualname in strict and "\n" in doc.strip():
            strict.discard(qualname)
        elif qualname in strict:
            found.append(
                f"{where}: ABI symbol needs a multi-line docstring "
                "(units, thread-safety, failure modes)"
            )
            strict.discard(qualname)
    for missing in sorted(strict):
        found.append(f"{rel}: ABI symbol {missing} not found (renamed?)")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(BACKENDS).as_posix())
def test_backend_module_docstrings(path):
    assert not violations(path), "\n".join(violations(path))


def test_abi_strict_list_is_live():
    """Every ABI_STRICT entry must name a real module (catch renames)."""
    for rel in ABI_STRICT:
        assert (BACKENDS / rel).is_file(), f"ABI_STRICT names missing module {rel}"
