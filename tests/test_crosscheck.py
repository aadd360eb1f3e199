import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import magnetkit
from magnetkit.errors import StructuralError, crosscheck

SRC = pathlib.Path(magnetkit.__file__).parent


def test_crosscheck_raises_the_formatted_message_only_on_failure():
    crosscheck(True, "unused %r %r")
    with pytest.raises(StructuralError, match=r"^closed subset \[1, 2\] is off$"):
        crosscheck(False, "closed subset %r is off", [1, 2])


def test_no_assert_statements_in_the_package():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_solver_is_reached_by_one_name():
    # the traced benchmark run charges solver time by wrapping this attribute
    from magnetkit import diophantine, monoids

    assert monoids.has_nonneg_solution is diophantine.has_nonneg_solution
    callers = sorted(
        path.name for path in SRC.glob("*.py") if "has_nonneg_solution" in path.read_text()
    )
    assert callers == ["diophantine.py", "monoids.py"]


def test_no_floats_in_the_package():
    # exact arithmetic: no float literal and no use of the name float
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert found == []


def test_imports_are_stdlib_click_jsonschema_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"click", "jsonschema", "magnetkit"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside the package
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name.partition(".")[0] not in allowed]
    assert found == []


# each script breaks one route of a dual-route check and prints what the
# checked call did; it runs under -O, where a bare assert would be skipped
FORCED = {
    "faces": """
        from magnetkit import monoids
        from magnetkit.groups import FgAbelianGroup
        from magnetkit.monoids import Submonoid

        Z = FgAbelianGroup(1)
        monoids.units = lambda N: Submonoid.zero(N.ambient)
        call = lambda: monoids.faces(Submonoid.generated_by(Z, [[1], [-1]]))
    """,
    "iterated_attractor": """
        from magnetkit import graded
        from magnetkit.groups import FgAbelianGroup
        from magnetkit.monoids import Submonoid

        Z = FgAbelianGroup(1)
        P = graded.FreePoly(Z, (("x", Z.element([1])), ("y", Z.element([-1]))))
        graded.intersection = lambda N, L: N
        call = lambda: graded.iterated_attractor(
            P, Submonoid.full(Z), Submonoid.generated_by(Z, [[1]]))
    """,
}


@pytest.mark.parametrize("site", sorted(FORCED))
def test_forced_disagreement_raises_under_optimize(site):
    script = textwrap.dedent(FORCED[site]) + textwrap.dedent("""
        import sys
        from magnetkit.errors import StructuralError
        try:
            call()
        except StructuralError as e:
            print("optimize=%d raised: %s" % (sys.flags.optimize, e))
        else:
            print("optimize=%d returned" % sys.flags.optimize)
    """)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("optimize=1 raised: "), out.stdout
