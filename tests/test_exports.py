"""Every name a package module exports through ``__all__`` resolves, and
every public definition of the package, and every public method, property
and dataclass field of its classes, is read somewhere in it or in its
benchmark."""

import ast
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["cvsheet", "cvsheet.front"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


#: public definitions nothing in the package or its benchmark reads, and why
#: they stay
_UNREAD_ALLOWED = {
    "sheared_sheet_state": "the non-constant basic-state family of the tests",
    "boundary_quadratic_form": "the paper's boundary form, checked by "
                               "acceptance 4",
    "coefficient_jacobians": "the oracle that c_matrix's closed form is "
                             "checked against",
}


#: public class members nothing in the package or its benchmark reads, and
#: why they stay
_UNREAD_MEMBERS_ALLOWED = {
    "ThetaSchedule.bounds_hold": "the paper's pinched-decrement property, "
                                 "checked by acceptance 9",
    "SheetOperators.linearized_L": "the one-base-point entry to walk that "
                                   "the operator-property tests use",
    "ValidationReport.ok": "the verdict on the paper's basic-state "
                           "hypotheses, asserted by acceptance 3",
}


#: public class fields nothing in the package or its benchmark reads, and
#: why they stay
_UNREAD_FIELDS_ALLOWED = {
    **dict.fromkeys(
        ("BoundaryFormDecomposition.leading", "BoundaryFormDecomposition.lot",
         "BoundaryFormDecomposition.leading_coeff",
         "BoundaryFormDecomposition.constraint_warning"),
        "the split of the paper's boundary form, checked by acceptance 4"),
    "Trajectory.timings": "the run's wall-time split per observer",
}


def _read_names(paths):
    """(names, members) read in ``paths``: every name an AST Name, Attribute
    or import alias reads, and every name an Attribute reads or a string
    constant spells (a ``getattr`` dispatch), the ways a member is read."""
    names, members = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                members.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                members.add(node.value)
    return names, members


def _package_and_read_names():
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "cvsheet"
    return package, *_read_names([*package.rglob("*.py"),
                                  *(root / "perfbench").glob("*.py")])


def test_every_public_definition_is_read():
    # code that nothing in the package runs is deleted, not kept for tests
    package, read, _ = _package_and_read_names()
    unread = sorted(
        f"{path.stem}.{node.name}"
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read and node.name not in _UNREAD_ALLOWED)
    assert not unread, f"public definitions nothing reads: {unread}"
    stale = sorted(name for name in _UNREAD_ALLOWED if name in read)
    assert not stale, f"allowed as unread, but read: {stale}"


def test_every_public_member_is_read():
    # a method or property that only tests read is as dead as an unread
    # function; a local variable of the same name does not read it
    package, _, read = _package_and_read_names()
    unread = sorted(
        f"{cls.name}.{node.name}"
        for path in package.glob("*.py")
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in read
        and f"{cls.name}.{node.name}" not in _UNREAD_MEMBERS_ALLOWED)
    assert not unread, f"public members nothing reads: {unread}"
    stale = sorted(key for key in _UNREAD_MEMBERS_ALLOWED
                   if key.split(".")[1] in read)
    assert not stale, f"allowed as unread, but read: {stale}"


def test_every_public_field_is_read():
    # a field that only tests read is built on every call for nothing;
    # setting it (a keyword, a positional argument) does not read it
    package, _, read = _package_and_read_names()
    unread = sorted(
        f"{cls.name}.{node.target.id}"
        for path in package.glob("*.py")
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and not node.target.id.startswith("_")
        and node.target.id not in read
        and f"{cls.name}.{node.target.id}" not in _UNREAD_FIELDS_ALLOWED)
    assert not unread, f"public fields nothing reads: {unread}"
    stale = sorted(key for key in _UNREAD_FIELDS_ALLOWED
                   if key.split(".")[1] in read)
    assert not stale, f"allowed as unread, but read: {stale}"
