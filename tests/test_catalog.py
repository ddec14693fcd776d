import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from orbitcheck import catalog, go, spaces, zoo


def test_catalog_loads_all_sources():
    entries = catalog.load_catalog()
    assert len(entries) == 72
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    by_source = {}
    for e in entries:
        by_source.setdefault(e.source, []).append(e)
    assert {s: len(es) for s, es in by_source.items()} == {
        "go-classification": 11,
        "maximal-isotropy-table": 18,
        "intermediate-subgroup-table": 21,
        "symmetric-fibration-table": 15,
        "decomposition-cases": 7,
    }


def test_constructible_census():
    built = catalog.catalog_list(constructible=True)
    assert len(built) == 20
    assert all(e.constructible for e in built)
    meta_only = catalog.catalog_list(constructible=False)
    assert len(meta_only) == 52
    # every metadata-only entry explains what is missing
    assert all(e.notes for e in meta_only)


def test_catalog_list_filters_compose():
    go_rows = catalog.catalog_list(source="go-classification",
                                   expected_go=True)
    assert len(go_rows) == 11
    negatives = catalog.catalog_list(source="maximal-isotropy-table",
                                     expected_go=False)
    assert len(negatives) == 18
    built_negatives = catalog.catalog_list(source="maximal-isotropy-table",
                                           constructible=True)
    assert sorted(e.id for e in built_negatives) == [
        "t1-V.1-m3n3", "t1-V.10", "t1-V.6-n2"]


def test_get_entry_unknown_id():
    with pytest.raises(catalog.CatalogError):
        catalog.get_entry("go-99")


def test_instantiate_matches_expected_dims(so5_u2):
    entry = catalog.get_entry("go-3-k2")
    assert entry.expected["module_dims"] == [2, 4]
    assert so5_u2.module_dims == (2, 4)
    assert so5_u2.metric_space_dim == entry.expected["metric_space_dim"]


def test_instantiate_rejects_metadata_rows():
    entry = catalog.get_entry("go-9")
    with pytest.raises(catalog.CatalogError) as err:
        catalog.catalog_instantiate(entry)
    assert "e6" in str(err.value)
    with pytest.raises(catalog.CatalogError) as err2:
        catalog.catalog_instantiate(catalog.get_entry("t1-V.2"))
    assert "quaternionic" in str(err2.value)


def test_fibration_rows_cross_reference_constructible_spaces():
    rows = catalog.catalog_list(source="symmetric-fibration-table")
    families = {e.id for e in catalog.catalog_list(source="go-classification")}
    assert len(rows) == 15
    for row in rows:
        assert not row.constructible
        assert {"g", "k", "h"} <= set(row.metadata)
        ref = row.metadata.get("cross_reference")
        if ref is not None:
            # family references resolve to at least one catalog instance
            matches = [i for i in families
                       if i == ref or i.startswith(ref + "-")]
            assert matches, ref


def test_intermediate_table_rows_carry_dimension_data():
    rows = catalog.catalog_list(source="intermediate-subgroup-table")
    assert len(rows) == 21
    dims = [row.metadata["dim_m1"] for row in rows]
    assert dims[:4] == [84, 175, 462, 1463]
    assert all(isinstance(d, int) and d > 0 for d in dims)


def test_maximal_table_keeps_isotropy_labels():
    entry = catalog.get_entry("t1-V.2")
    assert "isotropy_label" in entry.metadata
    assert "\\pi" in entry.metadata["isotropy_label"]


def test_catalog_run_on_structure_cases():
    report = catalog.catalog_run(source="decomposition-cases")
    assert report.passed
    assert len(report.results) == 7
    cases = {}
    for res in report.results:
        entry = catalog.get_entry(res.entry_id)
        cases[entry.expected["structure_case"]] = entry.expected[
            "counting_value"]
        assert res.passed, res.entry_id
    assert cases == {1: 2, 2: 0, 3: 1, 4: 1, 5: 2, 6: 1, 7: 0}


def test_catalog_run_with_explicit_ids():
    report = catalog.catalog_run(ids=["go-6-m2n1", "go-8-n1"], n_samples=10)
    assert report.passed
    assert [r.entry_id for r in report.results] == ["go-6-m2n1", "go-8-n1"]
    for res in report.results:
        names = [c.check for c in res.checks]
        assert "go" in names
        assert all(c.passed for c in res.checks)


def test_catalog_run_reports_unconstructible_ids_as_failures():
    report = catalog.catalog_run(ids=["go-9"])
    assert not report.passed
    res = report.results[0]
    assert res.entry_id == "go-9"
    assert not res.passed
    assert res.error is not None and "e6" in res.error


def test_catalog_run_records_a_tolerance_error_and_goes_on():
    # at a loose tolerance the negative entries' rank gaps fall inside the
    # ambiguous band: the entry fails with the reason, the others still run
    report = catalog.catalog_run(ids=["t1-V.10", "go-6-m2n1"], n_samples=10,
                                 tol=1e-2)
    assert not report.passed
    bad, good = sorted(report.results, key=lambda r: r.entry_id != "t1-V.10")
    assert bad.entry_id == "t1-V.10" and not bad.passed
    assert "robust band" in bad.error and bad.checks == ()
    assert good.passed and good.error is None


def test_the_negatives_turn_ambiguous_inside_the_tolerance_band():
    # a NOT_GO needs a rank-gap margin of 1e3 tol, so a looser tol turns
    # the catalog's negatives into ToleranceError, t1-V.6-n2 first
    negatives = {entry_id: catalog.catalog_instantiate(entry_id, seed=0)
                 for entry_id in ("t1-V.6-n2", "t1-V.1-m3n3", "t1-V.10")}
    for space in negatives.values():
        assert go.go_check(space, (1, 2), tol=1e-5).status == "NOT_GO"
        for tol in (1e-4, 3e-2):
            with pytest.raises(go.ToleranceError):
                go.go_check(space, (1, 2), tol=tol)
    with pytest.raises(go.ToleranceError):
        go.go_check(negatives["t1-V.6-n2"], (1, 2), tol=3e-5)


def test_negative_entry_produces_not_go(so9_tensor):
    report = catalog.catalog_run(ids=["t1-V.1-m3n3"], n_samples=30)
    assert report.passed
    res = report.results[0]
    go_check = next(c for c in res.checks if c.check == "go")
    assert go_check.passed
    assert "NOT_GO" in str(go_check.observed)


def test_report_as_dict_is_json_safe():
    import json
    report = catalog.catalog_run(ids=["go-6-m2n1"], n_samples=5)
    text = json.dumps(report.as_dict(), sort_keys=True)
    data = json.loads(text)
    assert data["passed"] is True
    assert data["results"][0]["id"] == "go-6-m2n1"


def test_entry_as_dict_round_trips_fields():
    entry = catalog.get_entry("go-1")
    data = entry.as_dict()
    assert data["id"] == "go-1"
    assert data["constructible"] is True
    assert data["expected"]["module_dims"] == [7, 7]
    assert data["expected"]["go"] is True
    assert data["expected"]["weakly_symmetric"] is True
    assert data["expected"]["naturally_reductive"] is False
    assert data["expected"]["metric_space_dim"] == 3


def test_weakly_symmetric_and_naturally_reductive_flags():
    flags = {e.id: e.expected for e in catalog.load_catalog()
             if e.source == "go-classification"}
    # the circle-times-exceptional chain is the only non-weakly-symmetric one
    assert flags["go-2"]["weakly_symmetric"] is False
    ws = [i for i, ex in flags.items() if ex["weakly_symmetric"]]
    assert len(ws) == 10
    nr = sorted({i.split("-")[1] for i, ex in flags.items()
                 if ex["naturally_reductive"]})
    assert nr == ["6", "8"]


def _clear_caches():
    spaces.SPLITS.cache_clear()
    zoo._named_embedding.cache_clear()
    for build in catalog._BUILTIN_CHAINS.values():
        build.cache_clear()


def test_catalog_run_reads_the_same_warm_as_cold():
    # cold: every embedding and split built afresh for each seed; warm:
    # every other seed first, entries one at a time in shuffled order
    cold = {}
    for s in range(12):
        _clear_caches()
        cold[s] = catalog.catalog_run(seed=s).as_dict()
    ids = [e.id for e in catalog.catalog_list(constructible=True)]
    rng = np.random.default_rng(20)
    for s in rng.permutation(12):
        for eid in rng.permutation(ids):
            got = catalog.catalog_run(ids=(str(eid),), seed=int(s)).as_dict()
            want = next(r for r in cold[s]["results"] if r["id"] == eid)
            assert json.dumps(got["results"]) == json.dumps([want])
    for s in range(12):
        assert json.dumps(catalog.catalog_run(seed=s).as_dict()) == \
            json.dumps(cold[s])


def test_builtin_builders_run_once_and_share_a_split():
    g, emb = catalog._BUILTIN_CHAINS["struct_4"]()
    again = catalog._BUILTIN_CHAINS["struct_4"]()
    assert again[0] is g and again[1] is emb
    a = catalog.catalog_instantiate("struct-4", seed=0)
    b = catalog.catalog_instantiate("struct-4", seed=5)
    assert a.embedding is b.embedding is emb
    assert a.split is b.split


def test_catalog_run_matches_the_checked_in_digests():
    # catalog_run(seed=s).as_dict() for s = 0..11 is pinned to the byte:
    # a change shows in the diff of tests/catalog_digests.json
    want = json.loads(Path(__file__).with_name(
        "catalog_digests.json").read_text())["sha256"]
    got = {str(seed): hashlib.sha256(json.dumps(
        catalog.catalog_run(seed=seed).as_dict(),
        sort_keys=True).encode()).hexdigest() for seed in range(12)}
    assert got == want
