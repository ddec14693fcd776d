"""Registry of named two-summand homogeneous spaces with expected verdicts.

The registry ships as a JSON data file. Each entry records a space by a
neutral id, how to build it (a named embedding chain from the zoo, or a
builtin composite), and the expected results of the verification
pipeline: module dimensions, the dimension of the invariant-metric
space, the geodesic-orbit verdict, the structural case label, and the
weakly-symmetric / naturally-reductive flags. Entries that would need
exceptional algebras beyond g2, or representations outside the desk
rank caps, are first-class metadata rows with constructible = false so
coverage stays auditable.

catalog_run drives the full pipeline over the constructible entries and
compares observations against the expected profile, giving the
regression suite and the CLI a single source of truth.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import zoo
from .core import LieAlgebra, OrbitcheckError, direct_sum, trivial_algebra
from .filters import necessary_filter
from .go import MetricOperator, go_check
from .linalg import DEFAULT_TOL
from .spaces import (ReductiveSpace, classify_structure, decompose_isotropy,
                     reductive_space)
from .zoo import Embedding, classical, named_embedding

DEFAULT_PAIRS = ((1.0, 2.0), (2.0, 1.0), (1.0, 5.0))


class CatalogError(ValueError):
    """Registry lookup or instantiation failure."""


@dataclass(frozen=True)
class CatalogEntry:
    """One registry row: identity, construction recipe, expected profile."""

    id: str
    source: str
    name: str
    chain_label: str
    chain: dict | None
    constructible: bool
    expected: dict
    metadata: dict
    notes: str

    def as_dict(self) -> dict:
        return asdict(self)


def _struct_2() -> tuple[LieAlgebra, object]:
    so3 = classical("so", 3)
    g = direct_sum([so3, so3])
    p1 = zoo.embed_into_summand(zoo.embed_so_in_so(2, 3), g, 0)
    p2 = zoo.embed_into_summand(zoo.embed_so_in_so(2, 3), g, 3)
    return g, zoo.embed_sum([p1, p2], target=g, name="so(2)+so(2)<so(3)+so(3)")


def _struct_3() -> tuple[LieAlgebra, object]:
    so3 = classical("so", 3)
    g = direct_sum([so3, so3, so3])
    diag = zoo.embed_into_summand(zoo.embed_diagonal("so", 3, 2), g, 0)
    tail = zoo.embed_into_summand(zoo.embed_so_in_so(2, 3), g, 6)
    return g, zoo.embed_sum([diag, tail], target=g,
                            name="diag so(3)+so(2)<so(3)^3")


def _struct_4() -> tuple[LieAlgebra, object]:
    g = direct_sum([classical("su", 3), classical("su", 2)])
    diag = zoo.embed_stack([zoo.embed_su_in_su(2, 3), zoo.embed_su_in_su(2, 2)],
                           g, name="diag su(2)")
    u1m = np.zeros((g.dim, 1))
    u1m[0] = 1.0
    u1m[1] = 2.0
    u1 = Embedding(source=classical("torus", 1), target=g, matrix=u1m,
                   name="u(1)<su(3)")
    return g, zoo.embed_sum([diag, u1], target=g,
                            name="diag su(2)+u(1)<su(3)+su(2)")


def _struct_5() -> tuple[LieAlgebra, object]:
    g = classical("torus", 2)
    zero = np.zeros((2, 0))
    return g, Embedding(source=trivial_algebra(), target=g, matrix=zero,
                        name="0<torus(2)")


def _struct_6() -> tuple[LieAlgebra, object]:
    g = direct_sum([classical("torus", 1), classical("so", 3)])
    return g, zoo.embed_into_summand(zoo.embed_so_in_so(2, 3), g, 1)


# Each builder runs once per process, so its spaces share one split.
_BUILTIN_CHAINS = {name: lru_cache(maxsize=1)(build) for name, build in {
    "struct_2": _struct_2,
    "struct_3": _struct_3,
    "struct_4": _struct_4,
    "struct_5": _struct_5,
    "struct_6": _struct_6,
}.items()}


@lru_cache(maxsize=1)
def load_catalog() -> tuple[CatalogEntry, ...]:
    """Parse the shipped registry file once, preserving file order."""
    path = resources.files(__package__).joinpath("data/catalog.json")
    raw = json.loads(path.read_text())
    entries = []
    seen = set()
    for row in raw["entries"]:
        entry = CatalogEntry(
            id=row["id"], source=row["source"], name=row["name"],
            chain_label=row["chain_label"], chain=row.get("chain"),
            constructible=row["constructible"], expected=row["expected"],
            metadata=row.get("metadata", {}), notes=row.get("notes", ""))
        if entry.id in seen:
            raise CatalogError(f"duplicate catalog id {entry.id!r}")
        seen.add(entry.id)
        entries.append(entry)
    return tuple(entries)


def catalog_list(source: str | None = None,
                 constructible: bool | None = None,
                 expected_go: bool | None = None) -> tuple[CatalogEntry, ...]:
    """Filtered registry view in stable file order."""
    out = []
    for entry in load_catalog():
        if source is not None and entry.source != source:
            continue
        if constructible is not None and entry.constructible != constructible:
            continue
        if expected_go is not None and entry.expected.get("go") != expected_go:
            continue
        out.append(entry)
    return tuple(out)


def get_entry(entry_id: str) -> CatalogEntry:
    for entry in load_catalog():
        if entry.id == entry_id:
            return entry
    raise CatalogError(f"unknown catalog id {entry_id!r}")


def _resolve(entry: CatalogEntry | str) -> CatalogEntry:
    if isinstance(entry, CatalogEntry):
        return entry
    return get_entry(entry)


def catalog_instantiate(entry: CatalogEntry | str,
                        seed: int = 0) -> ReductiveSpace:
    """Build and decompose the space for a constructible entry.

    Module dimensions are checked against the expected profile before
    the space is returned. The seed-free part is built once per process
    and shared by every seed: the entry's embedding (``named_embedding``
    or its builtin builder, memoised) and its reductive split with the
    isotropy action, the m-bracket tensors, the isotropy commutant and,
    once first read, g's minimal ideals and the structure report
    (``reductive_space``, at most ``spaces.SPLIT_CACHE_SIZE`` splits
    kept), all as read-only arrays. The isotropy decomposition is
    seed-free too, isotypic groups included: every seed's space carries
    the split's one ``IsotropyModules``, drawn once with no retry and
    ordered by keys of the module subspaces, with its module
    coordinates, projectors, filter reports and exact lane
    (``decompose_isotropy``). ``seed`` is not read; it stays for callers
    that pass it, as the seed reaches only the GO samples of later steps.
    """
    entry = _resolve(entry)
    if not entry.constructible:
        raise CatalogError(f"{entry.id} is not constructible: "
                           f"{entry.notes or 'no construction registered'}")
    chain = entry.chain or {}
    kind = chain.get("kind")
    if kind == "registry":
        emb = named_embedding(chain["key"], **chain.get("params", {}))
        g = emb.target
    elif kind == "builtin":
        g, emb = _BUILTIN_CHAINS[chain["builder"]]()
    else:
        raise CatalogError(f"{entry.id}: unsupported chain kind {kind!r}")
    space = reductive_space(g, emb, name=entry.name)
    space = decompose_isotropy(space)
    want = entry.expected.get("module_dims")
    if want is not None and list(space.module_dims) != list(want):
        raise CatalogError(
            f"{entry.id}: module dims {list(space.module_dims)} differ from "
            f"expected {list(want)}")
    return space


@dataclass(frozen=True)
class CheckResult:
    check: str
    expected: object
    observed: object
    passed: bool

    def as_dict(self) -> dict:
        return {"check": self.check, "expected": self.expected,
                "observed": self.observed, "passed": bool(self.passed)}


@dataclass(frozen=True)
class EntryResult:
    entry_id: str
    passed: bool
    error: str | None
    checks: tuple[CheckResult, ...]

    def as_dict(self) -> dict:
        return {"id": self.entry_id, "passed": bool(self.passed),
                "error": self.error,
                "checks": [c.as_dict() for c in self.checks]}


@dataclass(frozen=True)
class CatalogReport:
    results: tuple[EntryResult, ...]
    pairs: tuple[tuple[float, float], ...]
    n_samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "pairs": [list(p) for p in self.pairs],
            "n_samples": self.n_samples,
            "seed": self.seed,
            "results": [r.as_dict() for r in self.results],
        }


def _entry_checks(entry: CatalogEntry, space: ReductiveSpace,
                  pairs, n_samples: int, seed: int,
                  tol: float) -> list[CheckResult]:
    expected = entry.expected
    checks = []

    def compare(name, want, got):
        checks.append(CheckResult(check=name, expected=want, observed=got,
                                  passed=got == want))

    if expected.get("module_dims") is not None:
        compare("module_dims", list(expected["module_dims"]),
                list(space.module_dims))
    if expected.get("metric_space_dim") is not None:
        compare("metric_space_dim", expected["metric_space_dim"],
                space.metric_space_dim)
    if expected.get("structure_case") is not None:
        report = classify_structure(space)
        compare("structure_case", expected["structure_case"],
                report.case_label)
        if expected.get("counting_value") is not None:
            compare("counting_value", expected["counting_value"],
                    report.counting_value)
    two = space.two_summand
    if two and (expected.get("filter_pass") is not None
                or expected.get("bracket_location") is not None):
        report = necessary_filter(space)
        if expected.get("filter_pass") is not None:
            compare("filter_pass", expected["filter_pass"], report.passed)
        if expected.get("bracket_location") is not None:
            compare("bracket_location", expected["bracket_location"],
                    report.bracket_location)
    if two and expected.get("go") is not None:
        statuses = []
        for lam, mu in pairs:
            metric = MetricOperator.two_param(space, lam, mu)
            verdict = go_check(space, metric, n_samples=n_samples, seed=seed,
                               tol=tol)
            statuses.append(verdict.status)
        if expected["go"]:
            ok = all(s in ("GO_CONSISTENT", "NORMAL_TRIVIAL")
                     for s in statuses)
        else:
            ok = all(s == "NOT_GO" for s in statuses)
        checks.append(CheckResult(check="go", expected=expected["go"],
                                  observed=statuses, passed=ok))
    return checks


def catalog_run(source: str | None = None,
                ids: tuple[str, ...] | None = None,
                pairs=DEFAULT_PAIRS, n_samples: int = 100, seed: int = 0,
                tol: float = DEFAULT_TOL) -> CatalogReport:
    """Full pipeline over constructible entries, compared to expectations.

    Returns one result per entry, deterministically ordered by id; the
    report passes only if every entry matched its expected profile.
    """
    if ids is not None:
        entries = tuple(get_entry(i) for i in ids)
        if source is not None:
            entries = tuple(e for e in entries if e.source == source)
    else:
        entries = catalog_list(source=source, constructible=True)
    results = []
    for entry in sorted(entries, key=lambda e: e.id):
        try:
            space = catalog_instantiate(entry)
            checks = _entry_checks(entry, space, pairs, n_samples, seed, tol)
            results.append(EntryResult(
                entry_id=entry.id,
                passed=all(c.passed for c in checks),
                error=None, checks=tuple(checks)))
        except (CatalogError, OrbitcheckError) as err:
            results.append(EntryResult(entry_id=entry.id, passed=False,
                                       error=str(err), checks=()))
    return CatalogReport(results=tuple(results), pairs=tuple(pairs),
                         n_samples=n_samples, seed=seed)
