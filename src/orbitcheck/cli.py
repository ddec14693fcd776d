"""Command line interface.

One executable ties the pipeline together: build a space (from the
catalog or a JSON spec file), validate it, decompose the isotropy
representation, classify the pair structure, check the geodesic-orbit
property of a two-parameter metric, run the necessary structural
filters, invert bi-invariant product metrics, and drive the full
catalog regression.

Exit codes: 0 on success or expected match, 1 on a verdict mismatch or
violated invariant, 2 on usage errors (including missing or malformed
input files and names or parameters the zoo cannot build). Every
subcommand has a --json mode; JSON output is deterministic for a fixed
tolerance and BLAS thread count (sorted keys, no timestamps), and for
a fixed --seed in check-go and catalog run, the only subcommands that
draw GO samples and so the only ones with a seed. Float residuals and
margins may differ in their last digits between thread counts;
statuses and exact verdicts do not.
"""

from __future__ import annotations

import json
import os

import click
import numpy as np

from . import catalog as catalog_mod
from . import natred, zoo
from .core import LieAlgebra, OrbitcheckError, algebra_from_json_dict
from .filters import necessary_filter
from .go import MARGIN_FACTOR, MetricOperator, ToleranceError, go_check
from .linalg import DEFAULT_TOL
from .spaces import classify_structure, decompose_isotropy, reductive_space

def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _render(data, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(_plain(value))}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, dict):
                lines.append(_render(value, indent))
                lines.append("")
            elif isinstance(value, list) and value:
                # an inner list is one item, its entries a level deeper
                lines.append(f"{pad}-")
                lines.append(_render(value, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(_plain(value))}")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        lines.append(f"{pad}{json.dumps(_plain(data))}")
    return "\n".join(lines)


def _emit(data, as_json: bool) -> None:
    data = _plain(data)
    if as_json:
        click.echo(json.dumps(data, sort_keys=True, indent=2))
    else:
        click.echo(_render(data))


def _load_spec_file(path: str) -> dict:
    if not os.path.exists(path):
        raise click.UsageError(f"{path}: no such file")
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as err:
        raise click.UsageError(
            f"{path}: line {err.lineno} column {err.colno}: {err.msg}")


def _zoo(lookup, *args, **params):
    """A zoo lookup, whose bad names and parameters (the zoo raises
    ValueError, KeyError or TypeError for them) are usage errors."""
    try:
        return lookup(*args, **params)
    except (ValueError, KeyError, TypeError) as err:
        raise click.UsageError(" ".join(map(str, err.args)) or repr(err))


def _algebra_from_spec(spec) -> LieAlgebra:
    if isinstance(spec, str):
        return _zoo(zoo.algebra_by_name, spec)
    if isinstance(spec, dict):
        return algebra_from_json_dict(spec)
    raise click.UsageError(f"cannot interpret algebra spec {spec!r}")


def _space_from_file(path: str, tol: float):
    spec = _load_spec_file(path)
    if not isinstance(spec, dict):
        raise click.UsageError(f"{path}: top level must be an object")
    if "catalog" in spec:
        try:
            return catalog_mod.catalog_instantiate(spec["catalog"])
        except catalog_mod.CatalogError as err:
            raise click.UsageError(f"{path}: {err}")
    if "algebra" not in spec:
        raise click.UsageError(
            f"{path}: needs either a 'catalog' id or an 'algebra' entry")
    g = _algebra_from_spec(spec["algebra"])
    emb_spec = spec.get("embedding")
    if emb_spec is None:
        emb = np.zeros((g.dim, 0))
    elif not isinstance(emb_spec, dict):
        raise click.UsageError(f"{path}: embedding must be an object")
    elif "key" in emb_spec:
        params = emb_spec.get("params", {})
        if not isinstance(params, dict):
            raise click.UsageError(f"{path}: embedding params must be an "
                                   "object")
        emb = _zoo(zoo.named_embedding, emb_spec["key"], **params)
        target = zoo.as_embedding(emb).target
        if target.dim != g.dim:
            raise click.UsageError(
                f"{path}: embedding target {target.name} (dim {target.dim}) "
                f"does not match algebra {g.name} (dim {g.dim})")
    elif "matrix" in emb_spec:
        try:
            emb = np.asarray(emb_spec["matrix"])
        except ValueError:  # a ragged nesting
            emb = np.asarray(None)
        if emb.ndim != 2 or emb.dtype.kind not in "iuf":
            raise click.UsageError(f"{path}: embedding matrix must be a 2-D "
                                   "array of numbers")
    else:
        raise click.UsageError(
            f"{path}: embedding needs a registry 'key' or a raw 'matrix'")
    space = reductive_space(g, emb, name=spec.get("name", ""), tol=max(tol, 1e-8))
    return decompose_isotropy(space, tol=max(tol, 1e-8))


def _load_space(target: str, tol: float):
    if target.endswith(".json") or os.path.sep in target:
        return _space_from_file(target, tol)
    try:
        return catalog_mod.catalog_instantiate(target)
    except catalog_mod.CatalogError as err:
        raise click.UsageError(
            f"{target}: {err} (expected a catalog id or a JSON spec file)")


def _wrap(fn):
    try:
        return fn()
    except ToleranceError as err:
        raise click.ClickException(f"ambiguous within tolerance: {err}")
    except (OrbitcheckError, catalog_mod.CatalogError) as err:
        raise click.ClickException(str(err))


_seed_option = click.option("--seed", type=int, default=0, show_default=True,
                            help="Master seed for the GO samples; the "
                                 "modules, the filter and the structure label "
                                 "read no seed.")
_tol_option = click.option("--tol", type=float, default=DEFAULT_TOL,
                           show_default=True, envvar="ORBITCHECK_TOL",
                           show_envvar=True,
                           help="Numerical tolerance; --tol wins over the "
                                "environment variable. A NOT_GO needs a "
                                f"rank-gap margin of {MARGIN_FACTOR:g}*tol, "
                                "so above about 1e-5 the catalog's negatives "
                                "fail with ToleranceError (t1-V.6-n2 at "
                                "3e-5).")
_json_option = click.option("--json", "as_json", is_flag=True,
                            help="Machine-readable deterministic output.")


@click.group()
def main() -> None:
    """Verify geodesic-orbit structure on two-summand homogeneous spaces."""


@main.command()
@click.argument("target")
@_tol_option
@_json_option
def validate(target, tol, as_json):
    """Build TARGET and report the core invariant residuals.

    TARGET is a catalog id or a JSON spec file. Exit 1 if construction
    fails any invariant.
    """
    space = _wrap(lambda: _load_space(target, tol))
    report = space.g.validate(tol=max(tol, 1e-12))
    _emit({
        "space": space.name,
        "algebra": space.g.name,
        "dim_g": space.g.dim,
        "dim_h": space.h.dim,
        "module_dims": list(space.module_dims),
        "validation": report.as_dict(),
        "ok": report.passed,
    }, as_json)
    if not report.passed:
        raise SystemExit(1)


@main.command()
@click.argument("target")
@_tol_option
@_json_option
def decompose(target, tol, as_json):
    """Decompose the isotropy representation of TARGET."""
    space = _wrap(lambda: _load_space(target, tol))
    _emit(space.as_dict(), as_json)


@main.command()
@click.argument("target")
@_tol_option
@_json_option
def classify(target, tol, as_json):
    """Classify the pair structure of TARGET into one of seven cases."""

    def run():
        space = _load_space(target, tol)
        return space, classify_structure(space)

    space, report = _wrap(run)
    data = {"space": space.name, **report.as_dict()}
    _emit(data, as_json)


@main.command("check-go")
@click.argument("target")
@click.option("--lambda", "lam", type=float, default=1.0, show_default=True,
              help="Metric weight on the first module.")
@click.option("--mu", type=float, default=2.0, show_default=True,
              help="Metric weight on the second module.")
@click.option("--samples", type=click.IntRange(min=1), default=100,
              show_default=True, help="Number of sampled directions.")
@click.option("--exact", is_flag=True,
              help="Use exact rational arithmetic where available.")
@click.option("--expect", type=click.Choice(["go", "not-go", "normal"]),
              default=None, help="Exit 1 unless the verdict matches.")
@_seed_option
@_tol_option
@_json_option
def check_go(target, lam, mu, samples, exact, expect, seed, tol, as_json):
    """Check the geodesic-orbit property of a two-parameter metric."""

    def run():
        space = _load_space(target, tol)
        metric = MetricOperator.two_param(space, lam, mu)
        return go_check(space, metric, n_samples=samples, seed=seed, tol=tol,
                        exact_mode=exact)

    verdict = _wrap(run)
    _emit(verdict.as_dict(), as_json)
    if expect is not None:
        want = {"go": ("GO_CONSISTENT", "NORMAL_TRIVIAL"),
                "not-go": ("NOT_GO",),
                "normal": ("NORMAL_TRIVIAL",)}[expect]
        if verdict.status not in want:
            raise SystemExit(1)


@main.command("filter")
@click.argument("target")
@click.option("--expect", type=click.Choice(["pass", "fail"]), default=None,
              help="Exit 1 unless the filter outcome matches.")
@_tol_option
@_json_option
def filter_cmd(target, expect, tol, as_json):
    """Run the necessary structural filters on TARGET."""

    def run():
        space = _load_space(target, tol)
        return necessary_filter(space, tol=max(tol, 1e-8))

    report = _wrap(run)
    _emit(report.as_dict(), as_json)
    if expect is not None and report.passed != (expect == "pass"):
        raise SystemExit(1)


@main.group()
def natred_cmd() -> None:
    """Naturally reductive constructions from bi-invariant metrics."""


main.add_command(natred_cmd, name="natred")


@natred_cmd.command("two-factor")
@click.option("--a", "a", type=float, required=True,
              help="Weight on the first module.")
@click.option("--b", "b", type=float, required=True,
              help="Weight on the second module.")
@_json_option
def natred_two_factor(a, b, as_json):
    """Weights of the bi-invariant product metric matching (a, b)."""
    weights = _wrap(lambda: natred.product_biinvariant_weights(a, b))
    _emit(weights.as_dict(), as_json)


@natred_cmd.command("ledger-obata")
@click.option("--A", "av", type=float, required=True, help="Metric entry A.")
@click.option("--B", "bv", type=float, required=True, help="Metric entry B.")
@click.option("--C", "cv", type=float, required=True, help="Metric entry C.")
@click.option("--verify", type=click.Choice(["so3", "su2"]), default=None,
              help="Re-check the triple on this compact simple factor.")
@_tol_option
@_json_option
def natred_ledger_obata(av, bv, cv, verify, tol, as_json):
    """Invert a triple-product metric (A, B, C) into bi-invariant weights."""
    solution = _wrap(lambda: natred.ledger_obata_solve(av, bv, cv))
    data = solution.as_dict()
    failed = False
    if verify is not None and solution.triple is not None:
        residual = _wrap(lambda: natred.ledger_obata_verify(
            solution.metric, solution.triple, algebra=verify))
        data["verify_algebra"] = verify
        data["verify_residual"] = residual
        failed = residual > max(tol, 1e-10)
    if solution.triple is not None:
        failed = failed or solution.sum_identity_residual > max(tol, 1e-10)
    _emit(data, as_json)
    if failed:
        raise SystemExit(1)


def _parse_filters(pairs) -> dict:
    allowed = {"source": str, "constructible": bool, "go": bool}
    out = {}
    for raw in pairs:
        key, sep, value = raw.partition("=")
        if not sep or key not in allowed:
            raise click.UsageError(
                f"bad --filter {raw!r}; use source=..., constructible=..., "
                f"or go=...")
        if allowed[key] is bool:
            if value.lower() not in ("true", "false"):
                raise click.UsageError(f"--filter {key} needs true or false")
            out[key] = value.lower() == "true"
        else:
            out[key] = value
    return out


@main.group("catalog")
def catalog_cmd() -> None:
    """Registry of named spaces with expected verdicts."""


@catalog_cmd.command("list")
@click.option("--filter", "filters", multiple=True,
              help="source=..., constructible=true|false, go=true|false.")
@_json_option
def catalog_list_cmd(filters, as_json):
    """List registry entries."""
    kw = _parse_filters(filters)
    entries = catalog_mod.catalog_list(
        source=kw.get("source"), constructible=kw.get("constructible"),
        expected_go=kw.get("go"))
    if as_json:
        _emit([e.as_dict() for e in entries], True)
        return
    for entry in entries:
        mark = "+" if entry.constructible else "-"
        click.echo(f"{mark} {entry.id:<14} {entry.source:<28} {entry.name}")
    click.echo(f"({len(entries)} entries)")


@catalog_cmd.command("show")
@click.argument("entry_id")
@_json_option
def catalog_show(entry_id, as_json):
    """Show one registry entry in full."""
    try:
        entry = catalog_mod.get_entry(entry_id)
    except catalog_mod.CatalogError as err:
        raise click.UsageError(str(err))
    _emit(entry.as_dict(), as_json)


@catalog_cmd.command("run")
@click.option("--filter", "filters", multiple=True,
              help="source=..., go=true|false.")
@click.option("--id", "ids", multiple=True,
              help="Run only these entry ids (repeatable).")
@click.option("--samples", type=click.IntRange(min=1), default=100,
              show_default=True)
@_seed_option
@_tol_option
@_json_option
def catalog_run_cmd(filters, ids, samples, seed, tol, as_json):
    """Run the regression pipeline; exit 1 on any mismatch."""
    kw = _parse_filters(filters)
    if kw.get("constructible") is False:
        raise click.UsageError("catalog run covers constructible entries")
    known = {e.id for e in catalog_mod.load_catalog()}
    unknown = sorted(set(ids) - known)
    if unknown:
        raise click.UsageError(f"unknown catalog ids: {', '.join(unknown)}")
    ids = tuple(ids) or None
    if kw.get("go") is not None:
        # choose the entries by expected verdict before running any
        want = kw["go"]
        pool = ids or [e.id for e in catalog_mod.catalog_list(
            constructible=True)]
        ids = tuple(i for i in pool
                    if catalog_mod.get_entry(i).expected.get("go") == want)

    def run():
        return catalog_mod.catalog_run(
            source=kw.get("source"), ids=ids, n_samples=samples, seed=seed,
            tol=tol)

    report = _wrap(run)
    results = report.results
    if as_json:
        _emit(report.as_dict(), True)
    else:
        for r in results:
            status = "ok" if r.passed else "FAIL"
            detail = "" if r.error is None else f"  ({r.error})"
            click.echo(f"{status:<5} {r.entry_id}{detail}")
            for c in r.checks:
                if not c.passed:
                    click.echo(f"      {c.check}: expected "
                               f"{c.expected!r}, observed {c.observed!r}")
        click.echo(f"({sum(r.passed for r in results)}/{len(results)} passed)")
    if not all(r.passed for r in results):
        raise SystemExit(1)


@main.group("zoo")
def zoo_cmd() -> None:
    """Built-in algebras and embeddings."""


@zoo_cmd.command("list")
@_json_option
def zoo_list(as_json):
    """List algebra families and registry embedding keys."""
    data = {
        "families": {fam: {"min_rank": zoo.RANK_MIN[fam],
                           "max_rank": zoo.RANK_CAPS[fam]}
                     for fam in sorted(zoo.RANK_CAPS)},
        "named": ["g2"],
        "embeddings": dict(sorted(zoo.EMBEDDING_KEYS.items())),
    }
    _emit(data, as_json)


@zoo_cmd.command("algebra")
@click.argument("name")
@_tol_option
@_json_option
def zoo_algebra(name, tol, as_json):
    """Build an algebra by name and report its validation residuals; exit
    1 if validation fails."""
    alg = _wrap(lambda: _zoo(zoo.algebra_by_name, name))
    report = alg.validate(tol=max(tol, 1e-12))
    _emit({"name": alg.name, "dim": alg.dim, **report.as_dict()}, as_json)
    if not report.passed:
        raise SystemExit(1)


@zoo_cmd.command("embedding")
@click.argument("key")
@click.option("--param", "params", multiple=True,
              help="Builder parameter as name=value (repeatable).")
@_json_option
def zoo_embedding(key, params, as_json):
    """Build a registry embedding and report its shape."""
    kwargs = {}
    for raw in params:
        name, sep, value = raw.partition("=")
        if not sep:
            raise click.UsageError(f"bad --param {raw!r}; use name=value")
        try:
            kwargs[name] = int(value)
        except ValueError:
            kwargs[name] = value  # a family name; the zoo checks the type

    emb = _wrap(lambda: zoo.as_embedding(
        _zoo(zoo.named_embedding, key, **kwargs)))
    _emit({
        "key": key,
        "params": kwargs,
        "source": emb.source.name,
        "target": emb.target.name,
        "source_dim": emb.source.dim,
        "target_dim": emb.target.dim,
        "name": emb.name,
    }, as_json)


if __name__ == "__main__":
    main()
