"""The four workloads: what one pass runs and how each op is checked.

An op is one catalog entry, one ladder rung, one float verdict or one
exact verdict. Every op goes through orbitcheck's public API, looked up
on the package at call time so the tracer's rebinding applies. ``check``
returns None for a correct output and a short reason otherwise; a wrong
output is a failed op, like an exception.

Inputs come from the run seed only: pass ``i`` of a run with seed ``s``
uses pass seed ``100 * s + i`` for every seeded call, and the sweep and
exact pairs are drawn from ``numpy.random.default_rng([s, i])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import orbitcheck as oc


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def pass_seed(seed: int, index: int) -> int:
    return 100 * seed + index


def _catalog_check(entry_id: str):
    def check(report) -> str | None:
        if len(report.results) != 1 or report.results[0].entry_id != entry_id:
            return "report does not hold exactly this entry"
        result = report.results[0]
        if result.error is not None:
            return f"error: {result.error}"
        if not result.checks:
            return "no checks ran"
        bad = [f"{c.check}: expected {c.expected}, observed {c.observed}"
               for c in result.checks if not c.passed]
        return "; ".join(bad) or None
    return check


class Catalog:
    """catalog_run over every constructible entry, one entry per op.

    What users and the regression suite run: many small spaces, so
    per-call overhead and instantiation dominate, and the classical
    algebra cache makes the cold pass differ from the warm ones.
    """

    name = "catalog"

    def __init__(self, seed: int, minimal: bool):
        self.seed = seed
        ids = sorted(e.id for e in oc.catalog_list(constructible=True))
        self.ids = ["go-3-k2", "struct-7", "t1-V.10"] if minimal else ids

    def setup(self) -> None:
        pass

    def prepare(self, index: int) -> list[Op]:
        s = pass_seed(self.seed, index)
        return [Op(eid, lambda eid=eid: oc.catalog_run(ids=(eid,), seed=s),
                   _catalog_check(eid))
                for eid in self.ids]


class Ladder:
    """so(2k+1)/u(k) through the u_in_so_odd chain, one rung per op.

    The decomposition's equivariance system grows like dim h * dim m^4,
    so asymptotic gains in the split and the decomposition show here.
    k = 5 is left out because it is not steady within a run (see
    README.md), k = 6 (about 20 s and 1.9 GB) for run length, and k = 7
    because it is OOM-killed.
    """

    name = "ladder"

    def __init__(self, seed: int, minimal: bool):
        self.seed = seed
        self.ks = (2, 3) if minimal else (2, 3, 4)

    def setup(self) -> None:
        pass

    def prepare(self, index: int) -> list[Op]:
        s = pass_seed(self.seed, index)

        def rung(k):
            chain = oc.named_embedding("u_in_so_odd", k=k)
            space = oc.reductive_space(None, chain,
                                       name=f"so({2 * k + 1})/u({k})")
            space = oc.decompose_isotropy(space, seed=s)
            oc.necessary_filter(space, seed=s)
            return space, oc.go_check(space, (1.0, 2.0), n_samples=100,
                                      seed=s)

        def check(k):
            def inner(out) -> str | None:
                space, verdict = out
                want = sorted((k * (k - 1), 2 * k))
                if sorted(space.module_dims) != want:
                    return f"module dims {list(space.module_dims)} != {want}"
                if space.metric_space_dim != 2:
                    return f"metric_space_dim {space.metric_space_dim} != 2"
                if verdict.status != "GO_CONSISTENT":
                    return f"status {verdict.status} != GO_CONSISTENT"
                return None
            return inner

        return [Op(f"k={k}", lambda k=k: rung(k), check(k)) for k in self.ks]


def _instantiate(ids, seed: int) -> dict:
    return {eid: oc.catalog_instantiate(eid, seed=seed) for eid in ids}


class Sweep:
    """Float go_check on eight fixed spaces over seeded (lambda, mu) pairs.

    Spaces are built once per process, so warm passes are nearly all
    float GO lane. The three certified negatives stop after one sample,
    so a change that pays for all samples up front shows its cost here.
    """

    name = "sweep"
    IDS = ("go-1", "go-2", "go-4-r2", "go-5", "go-7-n2", "t1-V.1-m3n3",
           "t1-V.10", "t1-V.6-n2")
    PAIRS = 40

    def __init__(self, seed: int, minimal: bool):
        self.seed = seed
        self.ids = ("go-7-n2", "t1-V.6-n2") if minimal else self.IDS
        self.n_pairs = 2 if minimal else self.PAIRS
        self.spaces: dict = {}

    def setup(self) -> None:
        self.spaces = _instantiate(self.ids, self.seed)

    def _pairs(self, index: int) -> list[tuple[float, float]]:
        rng = np.random.default_rng([self.seed, index])
        pairs = []
        while len(pairs) < self.n_pairs:
            lam, mu = (float(v) for v in rng.uniform(0.2, 5.0, size=2))
            if abs(lam - mu) >= 0.05:
                pairs.append((lam, mu))
        return pairs

    def prepare(self, index: int) -> list[Op]:
        s = pass_seed(self.seed, index)
        ops = []
        for lam, mu in self._pairs(index):
            for eid in self.ids:
                space = self.spaces[eid]
                want = ("GO_CONSISTENT" if oc.get_entry(eid).expected["go"]
                        else "NOT_GO")
                ops.append(Op(
                    f"{eid}@({lam:.4f},{mu:.4f})",
                    lambda space=space, lam=lam, mu=mu: oc.go_check(
                        space, (lam, mu), n_samples=100, seed=s),
                    lambda v, want=want: None if v.status == want
                    else f"status {v.status} != {want}"))
        return ops


class Exact:
    """go_check(exact_mode=True) on the entries whose exact lane runs.

    All work is Fraction arithmetic, and exact_module_bases is recomputed
    on every call. Each op's status must equal the float lane's at the
    same pair; the float references are computed before the pass timer
    starts. Entries without an exact lane are counted by go.exact.available
    in the traced run instead.
    """

    name = "exact"
    IDS = ("go-2", "go-3-k3", "go-4-r2", "go-5", "go-6-m3n2", "go-7-n2",
           "t1-V.1-m3n3")
    SAMPLES = 3

    def __init__(self, seed: int, minimal: bool):
        self.seed = seed
        self.ids = ("go-3-k3",) if minimal else self.IDS
        self.spaces: dict = {}

    def setup(self) -> None:
        self.spaces = _instantiate(self.ids, self.seed)

    def prepare(self, index: int) -> list[Op]:
        s = pass_seed(self.seed, index)
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for eid in self.ids:
            space = self.spaces[eid]
            # Small numerators and denominators keep the Fraction sizes,
            # and so the cost of an op, alike from one pass to the next.
            while True:
                lam, mu = (Fraction(int(rng.integers(1, 7)),
                                    int(rng.integers(1, 4))) for _ in "lm")
                if lam != mu:
                    break
            want = oc.go_check(space, (float(lam), float(mu)), n_samples=100,
                               seed=s).status
            ops.append(Op(
                f"{eid}@({lam},{mu})",
                lambda space=space, lam=lam, mu=mu: oc.go_check(
                    space, (lam, mu), n_samples=self.SAMPLES, seed=s,
                    exact_mode=True),
                lambda v, want=want: None if v.exact and v.status == want
                else f"exact status {v.status} != float status {want}"))
        return ops


WORKLOADS = {cls.name: cls for cls in (Catalog, Ladder, Sweep, Exact)}


def exact_available(seed: int, minimal: bool) -> int:
    """Two-summand constructible entries whose exact lane runs at (1, 2)."""
    entries = oc.catalog_list(constructible=True)
    if minimal:
        entries = entries[:3]
    count = 0
    for entry in entries:
        space = oc.catalog_instantiate(entry, seed=seed)
        if not space.two_summand:
            continue
        try:
            oc.go_check(space, (Fraction(1), Fraction(2)), n_samples=1,
                        seed=seed, exact_mode=True)
        except oc.spaces.ExactUnavailableError:
            continue
        count += 1
    return count
