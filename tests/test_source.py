"""Guards on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitcheck"


def _einsum_operands(call: ast.Call) -> int | None:
    """Array operands of an einsum call, None for any other call."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    if name != "einsum":
        return None
    first = call.args[0] if call.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return len(call.args) - 1
    # interleaved form: operand, sublist, operand, sublist, ..., [output]
    return len(call.args) // 2


def _wide_einsums(source: str) -> list[tuple[int, int]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            count = _einsum_operands(node)
            if count is not None and count > 2:
                found.append((node.lineno, count))
    return found


@pytest.mark.parametrize("source, wide", [
    ("np.einsum('ij,jk->ik', a, b)", []),
    ("np.einsum('ijk,i,j->k', c, x, y)", [(1, 3)]),
    ("numpy.einsum(a, [0, 1], b, [1, 2], c, [2, 3], [0, 3])", [(1, 3)]),
    ("einsum('abc,ai,bj,ck->ijk', t, p, q, r)", [(1, 4)]),
])
def test_einsum_guard_counts_operands(source, wide):
    assert _wide_einsums(source) == wide


def test_no_einsum_in_the_package_takes_more_than_two_operands():
    # Without ``optimize`` numpy runs an einsum of three or more operands
    # as one nested loop over every index, with no BLAS. Contract the
    # structure tensor through pair_bracket_tensor and matmuls instead.
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = [f"{path.name}:{line} ({count} operands)"
                 for path in files
                 for line, count in _wide_einsums(path.read_text())]
    assert not offenders, offenders


def _kron_uses(source: str) -> list[tuple[str, int]]:
    """(enclosing top-level function, line) of every np.kron use."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, ast.FunctionDef) else ""
        found += [(name, node.lineno) for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "kron"
                  or isinstance(node, ast.Name) and node.id == "kron"
                  or isinstance(node, ast.ImportFrom)
                  and any(alias.name == "kron" for alias in node.names)]
    return found


@pytest.mark.parametrize("source, uses", [
    ("np.kron(a, b)", [("", 1)]),
    ("from numpy import kron\ndef f(a, b):\n    return kron(a, b)",
     [("", 1), ("f", 3)]),
    ("np.einsum('ij,kl->ikjl', a, b)  # a Kronecker product", []),
])
def test_kron_guard_finds_every_form(source, uses):
    assert _kron_uses(source) == uses


def _tol_parameters(source: str) -> list[str]:
    """Functions of ``source`` with a parameter named ``tol``."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(arg.arg == "tol" for arg in (
                *node.args.posonlyargs, *node.args.args,
                *node.args.kwonlyargs))]


@pytest.mark.parametrize("source, named", [
    ("def f(x, tol=1e-8):\n    pass", ["f"]),
    ("class C:\n    def check(self, *, tol):\n        pass", ["check"]),
    ("def f(x, atol=0.0):\n    pass", []),
])
def test_tol_guard_finds_every_form(source, named):
    assert _tol_parameters(source) == named


def test_no_structural_check_takes_a_tolerance():
    # the split, the modules and the filter are checked once, at
    # spaces.STRUCTURE_TOL; a per-call tol would need a per-call check
    offenders = [f"{name}:{fn}" for name in ("spaces.py", "filters.py")
                 for fn in _tol_parameters((SRC / name).read_text())]
    assert not offenders, offenders


def test_no_kronecker_system_in_the_package():
    # spaces.commutant pairs eigenvalues of one generic element; a dense
    # Kronecker system grows like (dim m)^4 and lives only in the tests'
    # reference commutant. The one use left builds so(p) x 1 + 1 x so(q)
    # on R^p x R^q, matrices of size pq <= 16.
    allowed = {("zoo.py", "embed_so_x_so_tensor")}
    offenders = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for name, line in _kron_uses(path.read_text())
                 if (path.name, name) not in allowed]
    assert not offenders, offenders
