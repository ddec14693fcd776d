import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcheck import catalog, cli, core, zoo
from orbitcheck.cli import main
from orbitcheck.linalg import DEFAULT_TOL


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_validate_catalog_target(runner):
    result = invoke(runner, ["validate", "go-3-k2"])
    assert result.exit_code == 0
    assert "so(5)" in result.output


def test_validate_exits_1_when_validation_fails(runner, tmp_path,
                                               broken_su3_spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": broken_su3_spec, "name": "bad"}))
    result = invoke(runner, ["validate", str(path), "--json"])
    assert result.exit_code == 1
    data = json.loads(result.output)
    assert data["ok"] is False
    assert data["validation"] == {"antisymmetry": 0.0, "jacobi": 2.0,
                                  "mode": "exact", "passed": False,
                                  "invariance": 1.0}


def test_validate_passes_every_catalog_entry(runner):
    for entry in catalog.catalog_list(constructible=True):
        result = invoke(runner, ["validate", entry.id, "--json"])
        assert result.exit_code == 0, entry.id
        report = json.loads(result.output)["validation"]
        assert (report["passed"], report["invariance"]) == (True, 0.0)


def test_validate_exits_1_on_a_gram_that_is_not_ad_invariant(runner,
                                                              tmp_path):
    # su(2) with Gram diag(1, 2, 3) is a Lie algebra whose inner product
    # is not ad-invariant: <[e1, e2], e3> + <e2, [e1, e3]> = 3 - 2, read
    # exactly off the integer Gram and relative to its largest entry
    data = zoo.classical("su", 2).to_json_dict()
    data["inner_product"] = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    path = tmp_path / "su2.json"
    path.write_text(json.dumps({"algebra": data, "name": "su2"}))
    result = invoke(runner, ["validate", str(path), "--json"])
    assert result.exit_code == 1
    report = json.loads(result.output)["validation"]
    assert report == {"antisymmetry": 0.0, "jacobi": 0.0, "mode": "exact",
                      "passed": False, "invariance": 4 / 3}
    result = invoke(runner, ["validate", str(path)])
    assert result.exit_code == 1
    assert "invariance: 1.3333333333333333" in result.output


@pytest.mark.parametrize("spec", ["euclidean3_spec", "heisenberg_spec"])
def test_validate_refuses_a_non_compact_algebra(runner, tmp_path, spec,
                                                request):
    path = tmp_path / "noncompact.json"
    path.write_text(json.dumps({"algebra": request.getfixturevalue(spec)}))
    # invoke re-raises anything but the usage error's exit
    result = invoke(runner, ["validate", str(path)])
    assert result.exit_code == 1
    assert "Killing form is not negative definite on [g, g] (g is not " \
        "compact)" in result.output


# so(3)'s integer constants: [e_i, e_j] = e_k for (i, j, k) cyclic
SO3 = [[0, 1, 2, 1], [1, 0, 2, -1], [1, 2, 0, 1], [2, 1, 0, -1],
       [2, 0, 1, 1], [0, 2, 1, -1]]

# each once ended in a traceback: su(2)'s float spec with these fields
# replaced (None: removed), and the message that names the field
MALFORMED_ALGEBRAS = {
    "no dim": ({"dim": None}, "dim must be a positive integer, got None"),
    "string dim": ({"dim": "x"}, "dim must be a positive integer, got 'x'"),
    "negative dim": ({"dim": -1}, "dim must be a positive integer, got -1"),
    "short entry": ({"structure": [[0, 1, 2, 1.0], [0, 2, 1]]},
                    "structure entry 1 is [0, 2, 1], not [i, j, k, value]"),
    "number structure": ({"structure": 5}, "structure must be a list of "
                         "[i, j, k, value] entries, got 5"),
    "string constant": ({"structure": [[0, 1, 2, "abc"]]},
                        "structure entry 0 is [0, 1, 2, 'abc'], not"),
    "ragged gram": ({"inner_product": [[1, 0, 0], [0, 1], [0, 0, 1]]},
                    "inner product shape does not match dim: row 1 is "
                    "[0, 1], not 3 entries"),
    # an 11.9 GiB and a 589 TiB MemoryError; the dim cap refuses both
    # before anything is allocated
    "huge dim": ({"dim": 40000, "structure": [[0, 1, 2, 1]],
                  "inner_product": None},
                 "Error: dim 40000 exceeds the cap of 240"),
    "huge dim, no constants": ({"dim": 3000, "structure": [],
                                "inner_product": None},
                               "Error: dim 3000 exceeds the cap of 240"),
    # a rational string among float values, and a Gram past the float
    # range, once ended in a ValueError or an OverflowError
    "mixed constants": ({"structure": [[0, 1, 2, "1/2"], [1, 0, 2, -0.5]],
                         "inner_product": None},
                        "Error: Killing form is not negative definite"),
    "mixed gram": ({"inner_product": [["1/2", "1/4", 0], [0, 0.5, 0],
                                      [0, 0, 0.5]]},
                   "Error: inner product is not symmetric"),
    "huge rational gram": ({"inner_product": [["1e400", 0, 0], [0, 1, 0],
                                              [0, 0, 1]]},
                           "Error: inner product entry (0, 0) is inf, "
                           "not finite"),
    "huge rational constant": ({"structure": [[0, 1, 2, "1e400"],
                                              [1, 0, 2, -1]],
                                "inner_product": None},
                               "Error: structure constant (0,1,2) is 1e400, "
                               "not finite"),
    # integer constants whose exact Killing sums pass the float range,
    # and constants whose brackets all lie below the rank floor
    "huge integer constants": ({"structure": [
        e[:3] + [e[3] * 10 ** 200] for e in SO3], "inner_product": None},
        "Error: Killing form entry (0, 0) is -inf, not finite"),
    "sub-floor constants": ({"dim": 2, "structure": [[0, 1, 0, 1e-13],
                                                     [1, 0, 0, -1e-13]],
                             "inner_product": None},
                            "Error: structure constants of size at most "
                            "1e-13 give no bracket above the rank floor "
                            "1e-12; rescale them"),
}


def test_the_spec_dim_cap_is_the_largest_sum_of_two_cap_algebras():
    largest = max(zoo._DIMENSION[f](n) for f, n in zoo.RANK_CAPS.items())
    assert 2 * largest == 240
    core._check_spec({"dim": 240, "structure": []})
    with pytest.raises(core.ValidationError, match="dim 241 exceeds the cap"):
        core._check_spec({"dim": 241, "structure": []})


@pytest.mark.parametrize("where", ["structure", "inner_product", "indefinite",
                                   "asymmetric", "matrix", "huge",
                                   "huge column", "huge so(4) column",
                                   *MALFORMED_ALGEBRAS])
def test_validate_names_a_non_finite_spec_entry(runner, tmp_path, where):
    # a NaN constant, Gram entry or embedding matrix entry, an indefinite
    # Gram, finite constants of +-1e308 with no Gram, whose Killing form
    # overflows, or an embedding column of 1e308, whose Gram pairing
    # overflows, once ended in a LAPACK traceback (on su(2), a misleading
    # "h and m do not span g"); a Gram that is not symmetric once passed,
    # as the Cholesky test reads one triangle only
    data = zoo.classical("su", 2).to_json_dict()
    spec = {"algebra": data}
    data["structure"] = [e[:3] + [float(e[3])] for e in data["structure"]]
    data["inner_product"] = [[float(v) for v in row]
                             for row in data["inner_product"]]
    message = "is nan, not finite"
    if where in MALFORMED_ALGEBRAS:
        fields, message = MALFORMED_ALGEBRAS[where]
        data.update(fields)
        spec["algebra"] = {k: v for k, v in data.items() if v is not None}
    elif where == "structure":
        data["structure"][0][3] = float("nan")
    elif where == "inner_product":
        data["inner_product"][0][0] = float("nan")
    elif where == "indefinite":
        data["inner_product"] = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
        message = "Error: inner product is not positive definite"
    elif where == "huge":
        data["structure"] = [e[:3] + [math.copysign(1e308, e[3])]
                             for e in data["structure"]]
        del data["inner_product"]
        message = "Error: Killing form entry (0, 0) is -inf, not finite"
    elif where == "matrix":
        spec["embedding"] = {"matrix": [[float("nan")], [0.0], [0.0]]}
    elif where == "huge column":
        spec["embedding"] = {"matrix": [[1e308], [0.0], [0.0]]}
        message = "Error: h basis pairing cols^T G entry (0, 0) is inf"
    elif where == "huge so(4) column":
        spec = {"algebra": "so(4)", "embedding": {
            "matrix": [[1e308], [1e308], [0], [0], [0], [0]]}}
        message = "Error: h basis pairing cols^T G entry (0, 0) is inf"
    else:
        data["inner_product"] = [[8, 1, 0], [0, 8, 0], [0, 0, 8]]
        message = "Error: inner product is not symmetric"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    for command in ("validate", "decompose", "check-go"):
        result = invoke(runner, [command, str(path)])
        assert result.exit_code == 1, command
        assert message in result.output, command
        assert "Traceback" not in result.output


@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_a_large_finite_embedding_column_still_decomposes(runner, tmp_path,
                                                          scale):
    # a large but finite multiple of h's generator: its Gram pairing
    # stays finite, so it spans h as the unit column does
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"algebra": "so(4)", "embedding": {
        "matrix": [[scale], [scale], [0], [0], [0], [0]]}}))
    for command in ("validate", "decompose"):
        assert invoke(runner, [command, str(path)]).exit_code == 0, command


def test_a_bare_algebra_spec_is_refused_before_its_d4_identity(runner,
                                                               tmp_path):
    # h = 0 makes every map of m commute with h: so(16)'s (d^2, d, d)
    # identity, 1.6 GiB, once took 1.7 GB; it is refused by the commutant
    # bound before it allocates, and so(5)'s still validates
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"algebra": "so(16)"}))
    for command in ("validate", "decompose"):
        result = invoke(runner, [command, str(path)])
        assert result.exit_code == 1
        assert "Error: commutant system of 1582 MiB (14400 candidate maps) " \
            "exceeds the 128 MiB bound" in result.output
    path.write_text(json.dumps({"algebra": "so(5)"}))
    assert invoke(runner, ["validate", str(path)]).exit_code == 0


def test_a_bare_cap_sum_is_refused_fast_in_a_small_address_space(tmp_path):
    # so(16)+so(16)'s d^4 identity once ended in a 24.7 GiB MemoryError;
    # under a 2 GiB address-space limit, set in the child alone, the
    # commutant bound refuses it well within 10 s. One BLAS thread keeps
    # the child's own buffers small on a machine with many cores.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"algebra": "so(16)+so(16)"}))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "orbitcheck.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=10)
    assert result.returncode == 1
    assert "Error: commutant system of 25312 MiB (57600 candidate maps) " \
        "exceeds the 128 MiB bound" in result.stderr
    assert "Traceback" not in result.stderr


# --- spec files drawn from a small grammar ---------------------------------

_BASES = ["su(2)", "so(3)", "so(4)", "u(2)"]
_SCALES = [Fraction(1), Fraction(1, 2 ** 20), Fraction(1, 10 ** 13),
           Fraction(10 ** 160), Fraction(10 ** 200)]
_ODD_VALUES = ["abc", None, [1], True, "1/0", "1e400", "-1e400", "1e-400",
               float("nan"), float("inf"), 1e308, -1e308, 10 ** 400]
_KEYS = [("so_in_so", {"k": 2, "n": 3}), ("so_in_so", {"k": 2, "n": 4}),
         ("so_in_so", {"k": 3, "n": 4}), ("su_in_u", {"n": 2}),
         ("so_in_so", {"k": "2", "n": 3}), ("no_such_key", {})]


def _written(value: Fraction, kind: str, at: int):
    """``value`` as a spec writes it: an int (where it is one), a
    rational string or a float; a mixed spec takes the three in turn."""
    if kind == "mixed":
        kind = ("int", "rational", "float")[at % 3]
    if kind == "int" and value.denominator == 1:
        return value.numerator
    if kind == "float":
        return float(value)
    return f"{value.numerator}/{value.denominator}"


def _oddly(draw, rows):
    """Replace one entry of the non-empty list of lists ``rows``: by an
    odd value, an index or a short row."""
    t = draw(st.integers(0, len(rows) - 1))
    what = draw(st.sampled_from(["value", "index", "short"]))
    if what == "value":
        rows[t][-1] = draw(st.sampled_from(_ODD_VALUES))
    elif what == "index":
        rows[t][0] = draw(st.sampled_from([len(rows) + 6, -1, 1.0, "0"]))
    else:
        rows[t] = rows[t][:-1]


@st.composite
def _spec_files(draw):
    """Spec files of dim up to 6: a registry algebra's constants or drawn
    ones, written as ints, rational strings, floats or a mix, scaled by
    a tiny or a huge factor, with one odd entry at times; an optional
    Gram, written and scaled alike; an optional registry key or raw
    matrix embedding; or the algebra as a registry name."""
    kind = draw(st.sampled_from(["int", "rational", "float", "mixed"]))
    scale = draw(st.sampled_from(_SCALES))
    base = draw(st.sampled_from([None] + _BASES))
    if base is None:
        dim = draw(st.integers(1, 6))
        index = st.integers(0, dim - 1)
        entries = [[i, j, k, Fraction(v)] for i, j, k, v in draw(st.lists(
            st.tuples(index, index, index, st.integers(-3, 3)), max_size=8))]
    else:
        data = zoo.algebra_by_name(base).to_json_dict()
        dim = data["dim"]
        entries = [e[:3] + [Fraction(e[3])] for e in data["structure"]]
    structure = [e[:3] + [_written(e[3] * scale, kind, t)]
                 for t, e in enumerate(entries)]
    if structure and draw(st.booleans()):
        _oddly(draw, structure)
    algebra = {"dim": dim, "structure": structure}
    gram = draw(st.sampled_from([None, "identity", "own", "odd"]))
    if gram is not None:
        own = gram == "own" and base is not None
        rows = data["inner_product"] if own else np.eye(dim).tolist()
        scale = draw(st.sampled_from(_SCALES))
        algebra["inner_product"] = [
            [_written(Fraction(v) * scale, kind, i + j)
             for j, v in enumerate(row)] for i, row in enumerate(rows)]
        if gram == "odd":
            _oddly(draw, algebra["inner_product"])
    spec = {"algebra": algebra}
    if base is not None and draw(st.booleans()):
        spec["algebra"] = base
    embedding = draw(st.sampled_from([None, "key", "matrix", "odd"]))
    if embedding == "key":
        key, params = draw(st.sampled_from(_KEYS))
        spec["embedding"] = {"key": key, "params": params}
    elif embedding == "matrix":
        cols = draw(st.integers(0, 2))
        spec["embedding"] = {"matrix": [
            [float(v) for v in row] for row in np.array(draw(st.lists(
                st.sampled_from([0, 0, 1, -1, 0.5, 1e-13, 1e200]),
                min_size=dim * cols, max_size=dim * cols))).reshape(dim, cols)
        ]}
    elif embedding == "odd":
        spec["embedding"] = {"matrix": draw(st.sampled_from(
            [[[1, 2], [3]], [["a"]], [[1e308]] * dim, [], 5]))}
    return spec


GRAMMAR_COMMANDS = (["validate"], ["decompose"], ["classify"], ["filter"],
                    ["check-go", "--samples", "3"],
                    ["check-go", "--exact", "--samples", "3"])


@given(_spec_files())
@example({"algebra": {"dim": 3, "structure": [[0, 1, 2, "1/2"],
                                              [1, 0, 2, -0.5]]}})
@example({"algebra": {"dim": 3, "structure": SO3, "inner_product": [
    ["1/2", 0, 0], [0, 0.5, 0], [0, 0, 0.5]]}})
@example({"algebra": {"dim": 3, "structure": SO3, "inner_product": [
    ["1e400", 0, 0], [0, 1, 0], [0, 0, 1]]}})
@example({"algebra": {"dim": 3, "structure": [
    e[:3] + ["1e400" if t == 0 else e[3]] for t, e in enumerate(SO3)]}})
@example({"algebra": {"dim": 3, "structure": [
    e[:3] + [e[3] * 10 ** 200] for e in SO3]}})
@example({"algebra": {"dim": 2, "structure": [[0, 1, 0, 1e-13],
                                              [1, 0, 0, -1e-13]]}})
@settings(max_examples=200, deadline=None)
def test_every_command_ends_by_name_on_a_drawn_spec_file(spec):
    # valid, near-valid and malformed spec files: each command exits 0,
    # 1 or 2 and raises nothing but SystemExit, with no traceback; the
    # examples are the six reproducers that once ended in one
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("spec.json", "w") as handle:
            json.dump(spec, handle)
        for command in GRAMMAR_COMMANDS:
            result = runner.invoke(main, command + ["spec.json"])
            assert result.exception is None \
                or isinstance(result.exception, SystemExit), (
                    command, spec, result.exception)
            assert result.exit_code in (0, 1, 2), (command, spec)
            assert "Traceback" not in result.output, (command, spec)


def test_commands_never_read_the_dense_structure_tensor():
    # in a fresh process, so that every algebra, embedding and split is
    # built under the spy rather than read from a cache
    script = """
import contextlib, io
import numpy as np
from orbitcheck import catalog, core, go
from orbitcheck.cli import main

def refuse(self):
    raise AssertionError("LieAlgebra.structure was read")
core.LieAlgebra.structure = property(refuse)
catalog.catalog_run(seed=0)
with contextlib.redirect_stdout(io.StringIO()):
    for args in (["check-go", "go-3-k3", "--exact"], ["classify", "struct-3"],
                 ["filter", "t1-V.10"]):
        main(args, standalone_mode=False)
space = catalog.catalog_instantiate("go-3-k2", seed=0)
p1, p2 = space.module_projectors
v = np.arange(1.0, space.m.dim + 1)
go.geodesic_graph(space, 1, 2, p1 @ v, p2 @ v)
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def _fresh(args):
    """stdout of the command in a new interpreter, whose per-process
    caches hold nothing yet."""
    return subprocess.run([sys.executable, "-m", "orbitcheck.cli", *args],
                          capture_output=True, check=True).stdout


def test_catalog_run_after_another_seed_reports_what_a_fresh_process_does(
        runner):
    args = ["catalog", "run", "--seed", "1", "--json"]
    fresh = _fresh(args)
    assert invoke(runner, ["catalog", "run", "--seed", "0"]).exit_code == 0
    assert invoke(runner, args).stdout_bytes == fresh


@pytest.mark.parametrize("entry_id", ["go-3-k3", "go-1"])
@pytest.mark.parametrize("command", ["decompose", "filter", "classify"])
def test_a_seedless_command_reports_what_a_fresh_process_does(
        runner, command, entry_id):
    # on a multiplicity-free space and an isotypic one, a first and a
    # second call in one process both read the fresh process's bytes
    args = [command, entry_id, "--json"]
    fresh = _fresh(args)
    assert [invoke(runner, args).stdout_bytes for _ in range(2)] == \
        [fresh, fresh]


def test_zoo_algebra_at_the_cap_validates_exactly(runner):
    # the cap algebras on both inner-product paths: -B at once for so, sp
    # and su, the center's SVDs for u, whose Gram is not read back as
    # rationals; no build runs the exact Jacobi join, so zoo algebra runs
    # it on request
    for name, dim in (("so(16)", 120), ("sp(7)", 105), ("su(8)", 63),
                      ("u(8)", 64)):
        result = invoke(runner, ["zoo", "algebra", name, "--json"])
        assert result.exit_code == 0, name
        data = json.loads(result.output)
        assert (data["dim"], data["mode"], data["passed"]) == \
            (dim, "exact", True), name
        assert data["jacobi"] == 0.0, name
        if name != "u(8)":
            assert data["invariance"] == 0.0, name


def test_decompose_json_output(runner):
    result = invoke(runner, ["decompose", "go-3-k2", "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["module_dims"] == [2, 4]
    assert data["metric_space_dim"] == 2


DECOMPOSE_TEXT = {
    "go-3-k3": ('name: "so(7)/u(3)"\ndim_g: 21\ndim_h: 9\ndim_m: 12\n'
                "module_dims:\n  - 6\n  - 6\n"
                "isotypic_groups:\n  -\n    - 0\n  -\n    - 1\n"
                "metric_space_dim: 2\n"),
    "go-1": ('name: "so(8)/g2"\ndim_g: 28\ndim_h: 14\ndim_m: 14\n'
             "module_dims:\n  - 7\n  - 7\n"
             "isotypic_groups:\n  -\n    - 0\n    - 1\n"
             "metric_space_dim: 3\n"),
}


@pytest.mark.parametrize("entry_id, groups", [("go-3-k3", [[0], [1]]),
                                              ("go-1", [[0, 1]])])
def test_decompose_text_nests_inner_lists(runner, entry_id, groups):
    # a list of lists once printed flat: [[0], [1]] as "- 0", "", "- 1"
    assert invoke(runner, ["decompose", entry_id]).output == \
        DECOMPOSE_TEXT[entry_id]
    data = json.loads(invoke(runner, ["decompose", entry_id, "--json"]).output)
    assert data["isotypic_groups"] == groups


def test_json_output_is_byte_deterministic(runner):
    a = invoke(runner, ["check-go", "go-6-m2n1", "--samples", "10", "--json"])
    b = invoke(runner, ["check-go", "go-6-m2n1", "--samples", "10", "--json"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_check_go_expectations(runner):
    ok = invoke(runner, ["check-go", "go-8-n1", "--samples", "15",
                         "--expect", "go"])
    assert ok.exit_code == 0
    mismatch = invoke(runner, ["check-go", "go-8-n1", "--samples", "15",
                               "--expect", "not-go"])
    assert mismatch.exit_code == 1
    normal = invoke(runner, ["check-go", "go-8-n1", "--lambda", "2",
                             "--mu", "2", "--samples", "5",
                             "--expect", "normal"])
    assert normal.exit_code == 0


@pytest.mark.parametrize("args, expect", [
    # the largest exact entry at a decimal ratio, and 40 exact samples,
    # which fill chunks past the first three
    (["go-4-r2", "--exact", "--lambda", "2.5", "--mu", "0.5"], "go"),
    (["go-5", "--exact", "--samples", "40"], "go"),
    # extreme ratios on the float lane, whose unit scale is the exact
    # spectral norm max(lambda, mu)
    (["go-4-r2", "--lambda", "1000", "--mu", "0.001"], "go"),
    (["t1-V.10", "--lambda", "0.001", "--mu", "1000"], "not-go"),
])
def test_check_go_verdicts_at_other_pairs(runner, args, expect):
    result = invoke(runner, ["check-go", *args, "--expect", expect, "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["exact"] == ("--exact" in args)


def test_check_go_not_go_with_certificate(runner):
    result = invoke(runner, ["check-go", "t1-V.10", "--samples", "50",
                             "--expect", "not-go", "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["status"] == "NOT_GO"
    assert data["counterexample"]["rank_gap"] >= 1


def test_check_go_refuses_extreme_and_non_finite_weights(runner):
    # a ratio past what unit scale resolves is a ToleranceError, never a
    # NOT_GO; NaN and inf are refused before any solve, with no traceback
    # and no NaN in the output
    extreme = runner.invoke(main, ["check-go", "go-3-k2", "--lambda", "1e12",
                                   "--mu", "1"])
    assert extreme.exit_code == 1
    assert "ambiguous within tolerance: weight ratio 1e+12" in extreme.output
    assert "NOT_GO" not in extreme.output
    for flag, value in (("--lambda", "nan"), ("--lambda", "inf"),
                        ("--mu", "-inf")):
        result = runner.invoke(main, ["check-go", "go-3-k2", flag, value,
                                      "--json"])
        assert result.exit_code == 1, value
        assert "positive and finite" in result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert "NaN" not in result.output


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_is_a_usage_error(runner, samples):
    # t1-V.10 is NOT_GO; zero samples once made it pass --expect go
    checked = runner.invoke(main, ["check-go", "t1-V.10", "--samples",
                                   samples, "--expect", "go"])
    assert checked.exit_code == 2
    assert "--samples" in checked.output
    ran = runner.invoke(main, ["catalog", "run", "--id", "go-6-m2n1",
                               "--samples", samples])
    assert ran.exit_code == 2


def test_check_go_exact_mode(runner):
    result = invoke(runner, ["check-go", "go-3-k2", "--samples", "5",
                             "--exact", "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["exact"] is True
    assert data["max_residual"] == 0.0
    # an embedding whose float matrix is not exactly rational has no
    # exact lane: the refusal exits 1 and names the reason
    refused = runner.invoke(main, ["check-go", "t1-V.10", "--exact"])
    assert refused.exit_code == 1
    assert "h embedding lacks exact coordinates" in refused.output


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_exact_not_go_json_is_standard(runner):
    # an exact counterexample has no finite residual or margin; both
    # must come out as null, not as NaN / Infinity
    result = invoke(runner, ["check-go", "t1-V.1-m3n3", "--samples", "3",
                             "--exact", "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output, parse_constant=_reject_constant)
    assert data["status"] == "NOT_GO"
    assert data["counterexample"]["residual"] is None
    assert data["counterexample"]["margin"] is None


def test_filter_expectations(runner):
    ok = invoke(runner, ["filter", "go-3-k2", "--expect", "pass"])
    assert ok.exit_code == 0
    # go-2 is in_m2; struct-3's zero bracket splits g into ideals
    for entry_id in ("go-2", "struct-3"):
        passed = invoke(runner, ["filter", entry_id, "--expect", "pass"])
        assert passed.exit_code == 0, entry_id
    bad = invoke(runner, ["filter", "t1-V.10", "--expect", "pass"])
    assert bad.exit_code == 1
    fail_ok = invoke(runner, ["filter", "t1-V.10", "--expect", "fail"])
    assert fail_ok.exit_code == 0


def test_classify_structure_case(runner):
    result = invoke(runner, ["classify", "struct-4", "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["case"] == 4


def test_natred_two_factor(runner):
    result = invoke(runner, ["natred", "two-factor", "--a", "1", "--b", "2",
                             "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["alpha"] == 1.0
    assert data["beta"] == 3.0
    assert data["identity_residual"] == 0.0
    normal = invoke(runner, ["natred", "two-factor", "--a", "1", "--b", "3",
                             "--json"])
    assert json.loads(normal.output)["kind"] == "normal"


def test_natred_ledger_obata_with_verification(runner):
    result = invoke(runner, ["natred", "ledger-obata", "--A", "3", "--B", "1",
                             "--C", "2", "--verify", "so3", "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["triple"]["alpha"] == pytest.approx(5 / 3)
    assert data["triple"]["beta"] == pytest.approx(5 / 4)
    assert data["triple"]["gamma"] == pytest.approx(-5.0)
    assert data["verify_algebra"] == "so3"
    assert data["verify_residual"] <= 1e-10
    degenerate = invoke(runner, ["natred", "ledger-obata", "--A", "1",
                                 "--B", "0", "--C", "1", "--json"])
    assert degenerate.exit_code == 0
    assert json.loads(degenerate.output)["kind"] == "factor_12_transitive"


def test_natred_rejects_indefinite_metric(runner):
    result = runner.invoke(main, ["natred", "ledger-obata", "--A", "1",
                                  "--B", "2", "--C", "1"])
    assert result.exit_code == 1


def test_catalog_list_and_show(runner):
    listed = invoke(runner, ["catalog", "list", "--filter",
                             "source=go-classification", "--json"])
    assert listed.exit_code == 0
    rows = json.loads(listed.output)
    assert len(rows) == 11
    shown = invoke(runner, ["catalog", "show", "go-1", "--json"])
    data = json.loads(shown.output)
    assert data["expected"]["module_dims"] == [7, 7]
    unknown = runner.invoke(main, ["catalog", "show", "nope"])
    assert unknown.exit_code == 2


def test_catalog_run_exit_codes(runner):
    ok = invoke(runner, ["catalog", "run", "--id", "go-6-m2n1",
                         "--samples", "10"])
    assert ok.exit_code == 0
    unconstructible = runner.invoke(main, ["catalog", "run", "--id", "go-9"])
    assert unconstructible.exit_code == 1
    unknown = runner.invoke(main, ["catalog", "run", "--id", "nope"])
    assert unknown.exit_code == 2


def test_catalog_run_names_an_entry_that_raises(runner):
    result = runner.invoke(main, ["catalog", "run", "--tol", "1e-2",
                                  "--id", "t1-V.10", "--id", "go-6-m2n1",
                                  "--samples", "10"])
    assert result.exit_code == 1
    assert "FAIL  t1-V.10  (rank gap margin" in result.output
    assert "ok    go-6-m2n1" in result.output
    assert "(1/2 passed)" in result.output


def test_catalog_run_go_filter_selects_before_running(runner, monkeypatch):
    from orbitcheck import catalog
    instantiated = []
    real = catalog.catalog_instantiate

    def spy(entry, *args, **kwargs):
        instantiated.append(entry.id)
        return real(entry, *args, **kwargs)

    monkeypatch.setattr(catalog, "catalog_instantiate", spy)
    result = invoke(runner, ["catalog", "run", "--filter", "go=false",
                             "--samples", "10", "--json"])
    assert result.exit_code == 0
    want = sorted(e.id for e in catalog.catalog_list(constructible=True,
                                                     expected_go=False))
    assert len(want) == 3
    assert [r["id"] for r in json.loads(result.output)["results"]] == want
    assert sorted(instantiated) == want


def test_zoo_commands(runner):
    listed = invoke(runner, ["zoo", "list"])
    assert listed.exit_code == 0
    assert "sp_u1_in_sp" in listed.output
    alg = invoke(runner, ["zoo", "algebra", "su(3)+su(2)", "--json"])
    assert json.loads(alg.output)["dim"] == 11
    emb = invoke(runner, ["zoo", "embedding", "so_in_so", "--param", "k=3",
                          "--param", "n=5", "--json"])
    data = json.loads(emb.output)
    assert data["source_dim"] == 3
    assert data["target_dim"] == 10
    # a family name stays a string
    diag = invoke(runner, ["zoo", "embedding", "diagonal", "--param",
                           "family=so", "--param", "n=3", "--param",
                           "copies=2", "--json"])
    assert json.loads(diag.output)["target_dim"] == 6


def _usage_error_line(result):
    # exit 2 and one error line, not a traceback and not the exit code 1
    # of a verdict mismatch
    assert result.exit_code == 2
    errors = [ln for ln in result.output.splitlines() if ln.startswith("Error")]
    assert len(errors) == 1 and "Traceback" not in result.output
    return errors[0]


@pytest.mark.parametrize("args, message", [
    (["zoo", "algebra", "so(17)"], "so(17) outside supported range"),
    (["zoo", "algebra", "su(3"], "cannot parse algebra name 'su(3'"),
    (["zoo", "embedding", "nope"], "unknown embedding 'nope'"),
    (["zoo", "embedding", "so_in_so", "--param", "k=2", "--param",
      "bogus=1"], "unexpected keyword argument 'bogus'"),
    (["zoo", "embedding", "so_in_so", "--param", "k=x", "--param", "n=5"],
     "so_in_so: parameter k must be an integer, got 'x'"),
    (["zoo", "embedding", "diagonal", "--param", "family=so", "--param",
      "n=3", "--param", "copies=two"],
     "diagonal: parameter copies must be an integer, got 'two'"),
    (["zoo", "embedding", "diagonal", "--param", "family=3", "--param",
      "n=3", "--param", "copies=2"],
     "diagonal: parameter family must be a string, got 3"),
    # a chain's builder is a lambda, whose own TypeError named no key
    (["zoo", "embedding", "u_in_so_odd", "--param", "j=2"],
     "u_in_so_odd: got an unexpected keyword argument 'j'; takes k"),
    (["zoo", "embedding", "u_in_so_odd"],
     "u_in_so_odd: missing a required argument: 'k'; takes k"),
])
def test_a_bad_zoo_name_is_a_usage_error(runner, args, message):
    assert message in _usage_error_line(invoke(runner, args))


@pytest.mark.parametrize("spec, message", [
    ({"algebra": "so(17)"}, "so(17) outside supported range"),
    ({"algebra": "so(5)",
      "embedding": {"key": "so_in_so", "params": {"k": 9, "n": 5}}},
     "block does not fit"),
    ({"algebra": "so(5)",
      "embedding": {"key": "so_in_so", "params": [3, 5]}},
     "embedding params must be an object"),
    ({"algebra": "so(7)",
      "embedding": {"key": "so_in_so", "params": {"k": 3, "n": 5}}},
     "embedding target so(5) (dim 10) does not match algebra so(7) (dim 21)"),
    ({"algebra": "so(5)",
      "embedding": {"key": "so_in_so", "params": {"k": "3", "n": 5}}},
     "so_in_so: parameter k must be an integer, got '3'"),
    ({"algebra": "so(5)",
      "embedding": {"key": "so_in_so", "params": {"k": 3.0, "n": 5}}},
     "so_in_so: parameter k must be an integer, got 3.0"),
    ({"algebra": "so(5)",
      "embedding": {"key": "u_in_so_odd", "params": {"k": True}}},
     "u_in_so_odd: parameter k must be an integer, got True"),
    # each of these once ended in a traceback, or in exit 1
    ({"algebra": "so(5)", "embedding": 5}, "embedding must be an object"),
    ({"algebra": "so(5)", "embedding": {"matrix": [["a"], ["b"], ["c"]]}},
     "embedding matrix must be a 2-D array of numbers"),
    ({"algebra": "so(5)", "embedding": {"matrix": [1, 2, 3]}},
     "embedding matrix must be a 2-D array of numbers"),
    ({"catalog": "nope"}, "unknown catalog id 'nope'"),
])
def test_a_spec_file_with_a_bad_zoo_name_is_a_usage_error(runner, tmp_path,
                                                          spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    line = _usage_error_line(invoke(runner, ["decompose", str(path)]))
    assert message in line


def test_space_spec_file_target(runner, tmp_path):
    spec = {
        "name": "sphere-pair",
        "algebra": "so(5)",
        "embedding": {"key": "u_in_so_odd", "params": {"k": 2}},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(spec))
    result = invoke(runner, ["decompose", str(path), "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["module_dims"] == [2, 4]


def test_exact_lane_reads_a_float_spec_gram(runner, tmp_path):
    # the lane reads the rationals off a float Gram and proves them
    # ad-invariant, so a spec with float Gram entries gets the exact
    # verdict of the catalog entry it restates
    data = zoo.classical("so", 5).to_json_dict()
    data["inner_product"] = [[float(Fraction(v)) for v in row]
                             for row in data["inner_product"]]
    spec = {"name": "so(5)/u(2)", "algebra": data,
            "embedding": {"key": "u_in_so_odd", "params": {"k": 2}}}
    path = tmp_path / "so5_u2.json"
    path.write_text(json.dumps(spec))
    got = invoke(runner, ["check-go", str(path), "--exact", "--json"])
    want = invoke(runner, ["check-go", "go-3-k2", "--exact", "--json"])
    assert got.exit_code == want.exit_code == 0
    assert got.output == want.output
    assert json.loads(got.output)["exact"] is True


def test_missing_and_malformed_spec_files_are_usage_errors(runner, tmp_path):
    missing = runner.invoke(main, ["decompose", str(tmp_path / "nope.json")])
    assert missing.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    malformed = runner.invoke(main, ["decompose", str(bad)])
    assert malformed.exit_code == 2
    assert "line" in malformed.output


def test_unknown_catalog_target_is_usage_error(runner):
    result = runner.invoke(main, ["decompose", "not-a-real-id"])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["validate", "decompose", "classify",
                                     "filter"])
def test_commands_that_draw_no_go_sample_take_no_seed(runner, command):
    result = runner.invoke(main, [command, "go-1", "--seed", "1"])
    assert result.exit_code == 2
    # click words it "No such option: --seed" or "No such option '--seed'"
    assert "No such option" in result.output and "--seed" in result.output


def test_tolerance_env_override(runner, monkeypatch):
    monkeypatch.setenv("ORBITCHECK_TOL", "not-a-number")
    result = runner.invoke(main, ["check-go", "go-6-m2n1", "--samples", "2"])
    assert result.exit_code == 2
    monkeypatch.setenv("ORBITCHECK_TOL", "1e-7")
    ok = runner.invoke(main, ["check-go", "go-6-m2n1", "--samples", "2"])
    assert ok.exit_code == 0


SO4_WITH_A_NON_SUBALGEBRA = {
    "algebra": "so(4)",
    "embedding": {"matrix": [[1, 0], [0, 0], [0, 1], [0, 0], [0, 0], [0, 0]]}}


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("via_env", [False, True])
def test_a_tolerance_that_is_not_finite_and_positive_is_a_usage_error(
        runner, monkeypatch, tmp_path, tol, via_env):
    # each used to run: decompose on a non-subalgebra, check-go to
    # GO_CONSISTENT on a certified negative
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SO4_WITH_A_NON_SUBALGEBRA))
    for args in (["decompose", str(spec)],
                 ["check-go", "t1-V.10", "--expect", "go"]):
        if via_env:
            monkeypatch.setenv("ORBITCHECK_TOL", tol)
        else:
            args = args + ["--tol", tol]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{float(tol)!r} is not finite and positive" in result.output
    monkeypatch.delenv("ORBITCHECK_TOL", raising=False)
    refused = runner.invoke(main, ["decompose", str(spec)])
    assert refused.exit_code == 1
    assert "h is not a subalgebra" in refused.output


def test_tol_flag_wins_over_the_environment_variable(runner, monkeypatch):
    seen = []
    check = cli.go_check
    monkeypatch.setattr(cli, "go_check", lambda *args, **kwargs:
                        seen.append(kwargs["tol"]) or check(*args, **kwargs))
    args = ["check-go", "go-6-m2n1", "--samples", "2"]
    monkeypatch.setenv("ORBITCHECK_TOL", "1e-7")
    assert invoke(runner, args).exit_code == 0
    # the flag is read first, so a malformed variable is never parsed
    monkeypatch.setenv("ORBITCHECK_TOL", "not-a-number")
    assert invoke(runner, args + ["--tol", "1e-8"]).exit_code == 0
    monkeypatch.delenv("ORBITCHECK_TOL")
    assert invoke(runner, args).exit_code == 0
    assert seen == [1e-7, 1e-8, DEFAULT_TOL]
