import itertools
import json
import socket
import tracemalloc

import numpy as np
import pytest
import requests

from exocast.cli import main
from exocast.errors import NotCachedError, PayloadError, SchemaError
from exocast.eurostat import (
    CatalogSnapshot,
    DatasetDescriptor,
    SeriesKey,
    fetch_catalog,
    fetch_dataset,
    filter_catalog,
    list_cached_series,
    load_catalog,
    load_series,
    pick_representative,
    read_manifest,
    run_funnel,
    store_catalog,
    store_series,
)
from exocast.series import Month, MonthlySeries

M = Month


def observations(dataset):
    """The dense rows of `dataset` as {coordinates: {month: value}}, gaps
    left out: the sparse form a per-value decoder builds."""
    return {
        key: {m: v for m, v in zip(dataset.periods, row.tolist()) if v == v}
        for key, row in zip(dataset.keys, dataset.values)
    }


def catalog_entry(code, frequency="monthly", parameters=("business",), earliest="2015-01", title=None):
    return {
        "code": code,
        "title": title or f"Dataset {code}",
        "frequency": frequency,
        "dimensions": ["geo", "unit"],
        "earliest_period": earliest,
        "parameters": list(parameters),
    }


FIVE_ENTRIES = [
    catalog_entry("STS_A", "monthly", ("business", "trade")),
    catalog_entry("STS_B", "monthly", ("tourism",), earliest="2018-03"),
    catalog_entry("STS_C", "monthly", ("energy",)),
    catalog_entry("NAMA_D", "quarterly", ("business",)),
    catalog_entry("NAMA_E", "annual", ("trade",), earliest="1995"),
]


def write_catalog_fixture(path, entries):
    path.write_text(json.dumps({"datasets": entries}))
    return path


def jsonstat_payload(dims, values):
    """dims: ordered list of (name, labels); values keyed by label tuples."""
    names = [name for name, _ in dims]
    sizes = [len(labels) for _, labels in dims]
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    index_of = [
        {label: i for i, label in enumerate(labels)} for _, labels in dims
    ]
    flat_values = {}
    for coords, value in values.items():
        if value is None:
            continue
        flat = sum(index_of[i][coords[i]] * strides[i] for i in range(len(dims)))
        flat_values[str(flat)] = value
    return json.dumps(
        {
            "id": names,
            "size": sizes,
            "dimension": {
                name: {"category": {"index": {label: i for i, label in enumerate(labels)}}}
                for name, labels in dims
            },
            "value": flat_values,
        }
    )


def months(start, n):
    return [str(M.parse(start).shift(i)) for i in range(n)]


class TestBaseUrl:
    def test_env_var_override(self, monkeypatch):
        from exocast.eurostat import BASE_URL_ENV, DEFAULT_BASE_URL, base_url

        assert base_url() == DEFAULT_BASE_URL
        monkeypatch.setenv(BASE_URL_ENV, "http://localhost:9999/api/")
        assert base_url() == "http://localhost:9999/api"


class TestThrottle:
    def test_spaces_requests(self):
        from exocast.eurostat import _Throttle
        import time

        throttle = _Throttle(interval=0.05)
        start = time.monotonic()
        for _ in range(3):
            throttle.wait()
        assert time.monotonic() - start >= 0.1  # two enforced gaps


class TestFetchCatalog:
    def test_five_entry_fixture(self, tmp_path):
        fixture = write_catalog_fixture(tmp_path / "toc.json", FIVE_ENTRIES)
        snapshot = fetch_catalog(offline_fixture=fixture)
        assert len(snapshot) == 5
        assert snapshot.codes()[0] == "STS_A"
        assert snapshot.descriptors[3].frequency == "quarterly"
        assert snapshot.descriptors[4].earliest_period == M(1995, 1)

    def test_duplicate_code_deduplicated(self, tmp_path, caplog):
        entries = FIVE_ENTRIES + [catalog_entry("STS_A", title="copy")]
        fixture = write_catalog_fixture(tmp_path / "toc.json", entries)
        with caplog.at_level("WARNING"):
            snapshot = fetch_catalog(offline_fixture=fixture)
        assert len(snapshot) == 5
        assert "duplicate" in caplog.text

    def test_unreachable_endpoint(self):
        with pytest.raises(requests.exceptions.ConnectionError):
            fetch_catalog("http://127.0.0.1:9/toc.json", timeout=0.2)

    def test_malformed_payload(self, tmp_path):
        fixture = tmp_path / "toc.json"
        fixture.write_text("{not json")
        with pytest.raises(PayloadError):
            fetch_catalog(offline_fixture=fixture)

    def test_code_that_is_not_a_plain_file_name_skipped(self, tmp_path, caplog):
        entries = [catalog_entry(code) for code in ("STS_A", "../escape", ".", "a\\b", "STS_B")]
        path = write_catalog_fixture(tmp_path / "toc.json", entries)
        assert fetch_catalog(offline_fixture=path).codes() == ("STS_A", "STS_B")
        assert "'../escape' is not a plain file name" in caplog.text

    def test_entry_without_code_rejected_entirely(self, tmp_path):
        fixture = tmp_path / "toc.json"
        fixture.write_text(json.dumps({"datasets": [{"title": "anonymous"}]}))
        with pytest.raises(PayloadError):
            fetch_catalog(offline_fixture=fixture)


class TestFilterCatalog:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        fixture = write_catalog_fixture(tmp_path / "toc.json", FIVE_ENTRIES)
        return fetch_catalog(offline_fixture=fixture)

    def test_monthly_stage(self, snapshot):
        kept = filter_catalog(snapshot, "monthly")
        assert kept.codes() == ("STS_A", "STS_B", "STS_C")

    def test_parameters_stage(self, snapshot):
        kept = filter_catalog(snapshot, "parameters", keywords=("business", "trade"))
        assert kept.codes() == ("STS_A", "NAMA_D", "NAMA_E")

    def test_parameters_case_insensitive(self, snapshot):
        kept = filter_catalog(snapshot, "parameters", keywords=("BUSINESS",))
        assert "STS_A" in kept.codes()

    def test_coverage_stage(self, snapshot):
        kept = filter_catalog(snapshot, "coverage", since=M(2016, 1))
        assert "STS_B" not in kept.codes()  # starts 2018-03
        assert "STS_A" in kept.codes()

    def test_idempotent(self, snapshot):
        once = filter_catalog(snapshot, "monthly")
        twice = filter_catalog(once, "monthly")
        assert once.descriptors == twice.descriptors

    def test_independent_stages_commute(self, snapshot):
        a = filter_catalog(filter_catalog(snapshot, "monthly"), "coverage", since=M(2016, 1))
        b = filter_catalog(filter_catalog(snapshot, "coverage", since=M(2016, 1)), "monthly")
        assert a.descriptors == b.descriptors

    def test_funnel_composition(self, snapshot):
        kept = filter_catalog(snapshot, "monthly")
        kept = filter_catalog(kept, "parameters", keywords=("business", "trade", "energy"))
        kept = filter_catalog(kept, "coverage", since=M(2016, 1))
        assert kept.codes() == ("STS_A", "STS_C")

    def test_unknown_stage(self, snapshot):
        with pytest.raises(ValueError):
            filter_catalog(snapshot, "weekly")


class TestFetchDataset:
    def test_two_dims_24_months(self, tmp_path):
        time_labels = months("2016-01", 24)
        values = {}
        for geo in ("AT", "DE"):
            for i, t in enumerate(time_labels):
                values[(geo, "I15", t)] = float(i) + (0.5 if geo == "DE" else 0.0)
        fixture = tmp_path / "STS_A.json"
        fixture.write_text(
            jsonstat_payload(
                [("geo", ["AT", "DE"]), ("unit", ["I15"]), ("time", time_labels)], values
            )
        )
        dataset = fetch_dataset("STS_A", offline_fixture=fixture)
        assert dataset.dimension_names == ("geo", "unit")
        assert len(dataset.periods) == 24
        total = sum(len(v) for v in observations(dataset).values())
        assert total == 48
        assert observations(dataset)[("AT", "I15")][M(2016, 1)] == 0.0
        assert observations(dataset)[("DE", "I15")][M(2016, 3)] == 2.5

    def test_missing_values_preserved(self, tmp_path):
        time_labels = months("2016-01", 4)
        values = {("AT", "I15", t): float(i) for i, t in enumerate(time_labels)}
        values[("AT", "I15", "2016-02")] = None  # explicit null
        del values[("AT", "I15", "2016-04")]  # absent entirely
        fixture = tmp_path / "d.json"
        fixture.write_text(
            jsonstat_payload(
                [("geo", ["AT"]), ("unit", ["I15"]), ("time", time_labels)], values
            )
        )
        dataset = fetch_dataset("d", offline_fixture=fixture)
        obs = observations(dataset)[("AT", "I15")]
        assert M(2016, 2) not in obs
        assert M(2016, 4) not in obs
        assert obs[M(2016, 3)] == 2.0

    def test_time_axis_in_the_middle_decodes_as_per_value_coordinates(self, tmp_path):
        dims = [
            ("geo", ["AT", "DE", "FR"]), ("time", months("2016-01", 5)), ("unit", ["I15", "PCH"]),
        ]
        values = {
            (geo, t, unit): float(100 * g + 10 * i + u)
            for g, geo in enumerate(dims[0][1])
            for i, t in enumerate(dims[1][1])
            for u, unit in enumerate(dims[2][1])
            if (g + i + u) % 4  # leave some cells absent
        }
        values[("DE", "2016-03", "PCH")] = None
        fixture = tmp_path / "d.json"
        fixture.write_text(jsonstat_payload(dims, values))
        dataset = fetch_dataset("d", offline_fixture=fixture)

        # Reference: every observation's full coordinate list, each axis
        # looked up by name, as a straightforward decoder does.
        doc = json.loads(fixture.read_text())
        names, sizes = doc["id"], doc["size"]
        labels = dict(dims)
        expected = {}
        for flat_str, value in doc["value"].items():
            coords = []
            rest = int(flat_str)
            for size in reversed(sizes):
                coords.insert(0, rest % size)
                rest //= size
            key = tuple(labels[n][coords[names.index(n)]] for n in names if n != "time")
            month = Month.parse(labels["time"][coords[names.index("time")]])
            expected.setdefault(key, {})[month] = float(value)
        assert dataset.dimension_names == ("geo", "unit")
        assert dataset.periods == tuple(Month.parse(t) for t in labels["time"])
        assert observations(dataset) == expected
        assert M(2016, 3) not in observations(dataset)[("DE", "PCH")]

    def test_dense_decode_matches_a_per_value_decoder(self, tmp_path):
        # Three axes with time in the middle, categories listed out of
        # lexicographic order, a sparse `value` with explicit nulls; and the
        # same cube as JSON-stat's dense list form.
        sizes, geos, times, units = [3, 4, 2], ["FR", "AT", "DE"], months("2016-01", 4), ["PCH", "I15"]
        rng = np.random.default_rng(5)
        dense = [None if rng.random() < 0.3 else round(float(v), 3) for v in rng.normal(0, 50, 24)]
        dense[2 * 8 : 3 * 8] = [None] * 8  # every DE cell missing: the row is left out
        sparse = {str(i): v for i, v in enumerate(dense) if v is not None or i % 3 == 0}
        assert None in sparse.values()
        doc = {
            "id": ["geo", "time", "unit"], "size": sizes,
            "dimension": {
                "geo": {"category": {"index": {g: i for i, g in enumerate(geos)}}},
                "time": {"category": {"index": times}},
                "unit": {"category": {"index": {u: i for i, u in enumerate(units)}}},
            },
        }
        decoded = []
        for value in (sparse, dense):
            fixture = tmp_path / "d.json"
            fixture.write_text(json.dumps({**doc, "value": value}))
            decoded.append(fetch_dataset("d", offline_fixture=fixture))
        expected = {}
        for flat_str, value in sparse.items():
            g, rest = divmod(int(flat_str), sizes[1] * sizes[2])
            t, u = divmod(rest, sizes[2])
            if value is not None:
                expected.setdefault((geos[g], units[u]), {})[M.parse(times[t])] = float(value)
        for dataset in decoded:
            assert dataset.dimension_names == ("geo", "unit")
            assert dataset.periods == tuple(M.parse(t) for t in times)
            assert observations(dataset) == expected
            assert dataset.keys == tuple(k for k in itertools.product(geos, units) if k in expected)
            assert not dataset.values.flags.writeable

    def test_sparse_values_of_a_large_declared_cube_decode_in_small_memory(self, tmp_path):
        # 1,000 x 100 x 120 months declares 12 M cells (96 MB as float64);
        # the payload holds 5 values in 3 rows.
        naces, geos, times = [f"N{i:04d}" for i in range(1000)], [f"G{i:03d}" for i in range(100)], months("2010-01", 120)
        dims = [("nace", naces), ("geo", geos), ("time", times)]
        values = {
            ("N0999", "G000", "2010-01"): 1.0, ("N0999", "G000", "2019-12"): 2.0,
            ("N0007", "G042", "2015-06"): 3.0, ("N0500", "G099", "2012-02"): 4.0,
            ("N0500", "G099", "2012-03"): 5.0,
        }
        fixture = tmp_path / "d.json"
        fixture.write_text(jsonstat_payload(dims, values))
        tracemalloc.start()
        try:
            dataset = fetch_dataset("d", offline_fixture=fixture)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert dataset.keys == (("N0007", "G042"), ("N0500", "G099"), ("N0999", "G000"))
        assert dataset.values.shape == (3, 120)
        assert observations(dataset) == {
            ("N0007", "G042"): {M(2015, 6): 3.0},
            ("N0500", "G099"): {M(2012, 2): 4.0, M(2012, 3): 5.0},
            ("N0999", "G000"): {M(2010, 1): 1.0, M(2019, 12): 2.0},
        }

    def test_time_only_dataset_is_one_row_without_coordinates(self, tmp_path):
        fixture = tmp_path / "d.json"
        fixture.write_text(jsonstat_payload([("time", months("2016-01", 3))], {("2016-02",): 7.0}))
        dataset = fetch_dataset("d", offline_fixture=fixture)
        assert dataset.dimension_names == () and dataset.keys == ((),)
        assert observations(dataset) == {(): {M(2016, 2): 7.0}}

    def test_value_index_outside_the_cube_rejected(self, tmp_path):
        fixture = tmp_path / "d.json"
        fixture.write_text(json.dumps({
            "id": ["geo", "time"], "size": [1, 2],
            "dimension": {"geo": {"category": {"index": ["AT"]}},
                          "time": {"category": {"index": ["2016-01", "2016-02"]}}},
            "value": {"0": 1.0, "2": 2.0},
        }))
        with pytest.raises(PayloadError, match="outside"):
            fetch_dataset("d", offline_fixture=fixture)

    def test_empty_dataset_rejected(self, tmp_path):
        fixture = tmp_path / "d.json"
        fixture.write_text(
            jsonstat_payload([("geo", ["AT"]), ("time", months("2016-01", 3))], {})
        )
        with pytest.raises(PayloadError, match="no observations"):
            fetch_dataset("d", offline_fixture=fixture)

    def test_malformed_dataset(self, tmp_path):
        fixture = tmp_path / "d.json"
        fixture.write_text('{"id": ["geo"]}')
        with pytest.raises(PayloadError):
            fetch_dataset("d", offline_fixture=fixture)


def make_dataset(tmp_path, series_spec, time_start="2016-01", n=12, code="DS"):
    """series_spec: {geo_label: {month_offset: value or None skipped}}"""
    time_labels = months(time_start, n)
    values = {}
    for geo, cells in series_spec.items():
        for i, t in enumerate(time_labels):
            if i in cells:
                values[(geo, t)] = cells[i]
    fixture = tmp_path / f"{code}.json"
    fixture.write_text(
        jsonstat_payload([("geo", sorted(series_spec)), ("time", time_labels)], values)
    )
    return fetch_dataset(code, offline_fixture=fixture)


class TestPickRepresentative:
    def test_lexicographic_among_complete(self, tmp_path):
        full = {i: float(i) for i in range(12)}
        dataset = make_dataset(tmp_path, {"AT": full, "DE": full})
        key, series = pick_representative(dataset, M(2016, 1))
        assert key.dimension_values == (("geo", "AT"),)
        assert len(series) == 12
        assert not series.has_missing

    def test_complete_beats_gapped_regardless_of_key_order(self, tmp_path):
        full = {i: float(i) for i in range(12)}
        gapped = {i: float(i) for i in range(12) if i != 5}
        dataset = make_dataset(tmp_path, {"AT": gapped, "DE": full})
        key, series = pick_representative(dataset, M(2016, 1))
        assert key.dimension_values == (("geo", "DE"),)

    def test_fewest_gaps_wins(self, tmp_path):
        two_gaps = {i: float(i) for i in range(12) if i not in (3, 7)}
        five_gaps = {i: float(i) for i in range(12) if i not in (1, 2, 4, 8, 9)}
        dataset = make_dataset(tmp_path, {"AT": five_gaps, "DE": two_gaps})
        key, series = pick_representative(dataset, M(2016, 1))
        assert key.dimension_values == (("geo", "DE"),)
        assert series.values[3] is None

    def test_equal_gaps_go_to_the_smallest_coordinates_whatever_the_category_order(self, tmp_path):
        one_gap = {i: float(i) for i in range(12) if i != 4}
        other_gap = {i: float(i) for i in range(12) if i != 9}
        time_labels = months("2016-01", 12)
        values = {(g, t): spec[i] for g, spec in (("DE", one_gap), ("AT", other_gap))
                  for i, t in enumerate(time_labels) if i in spec}
        fixture = tmp_path / "d.json"
        fixture.write_text(jsonstat_payload([("geo", ["DE", "AT"]), ("time", time_labels)], values))
        dataset = fetch_dataset("d", offline_fixture=fixture)
        assert dataset.keys == (("DE",), ("AT",))
        key, series = pick_representative(dataset, M(2016, 1))
        assert key.dimension_values == (("geo", "AT"),)
        assert series.values[9] is None

    def test_no_values_after_since(self, tmp_path):
        old = {i: float(i) for i in range(12)}
        dataset = make_dataset(tmp_path, {"AT": old}, time_start="2010-01")
        with pytest.raises(PayloadError):
            pick_representative(dataset, M(2016, 1))

    def test_deterministic(self, tmp_path):
        spec = {"AT": {i: float(i) for i in range(0, 12, 2)}, "DE": {i: 1.0 for i in range(12)}}
        d1 = make_dataset(tmp_path, spec, code="D1")
        k1, s1 = pick_representative(d1, M(2016, 1))
        k2, s2 = pick_representative(d1, M(2016, 1))
        assert (k1, s1.values) == (k2, s2.values)


class TestCache:
    def test_catalog_round_trip(self, tmp_path):
        snapshot = CatalogSnapshot(
            fetched_at="2026-08-08T00:00:00+00:00",
            descriptors=(
                DatasetDescriptor("A", "t", "monthly", ("geo",), M(2016, 1), ("business",)),
                DatasetDescriptor("B", "u", "quarterly", (), None, ()),
            ),
        )
        store_catalog(tmp_path, snapshot)
        assert load_catalog(tmp_path) == snapshot

    def test_series_round_trip_with_missing(self, tmp_path):
        key = SeriesKey("DS", (("geo", "AT"), ("unit", "I15")))
        series = MonthlySeries("DS", M(2016, 1), (1.5, None, 2.25))
        path = store_series(tmp_path, key, series)
        assert json.loads(path.read_text())["values"][1] is None
        loaded_key, loaded = load_series(tmp_path, "DS")
        assert loaded_key == key
        assert loaded == series

    def test_bit_exact_values(self, tmp_path):
        import numpy as np

        vals = np.random.default_rng(0).normal(0, 1, 24).tolist()
        key = SeriesKey("DS2", (("geo", "AT"),))
        store_series(tmp_path, key, MonthlySeries("DS2", M(2016, 1), vals))
        _, loaded = load_series(tmp_path, "DS2")
        assert loaded.values == tuple(vals)

    def test_round_trip_is_bit_exact_at_the_edges(self, tmp_path):
        values = (None, -0.0, 5e-324, None, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, None)
        series = MonthlySeries("EDGE", M(2016, 1), values)
        store_series(tmp_path, SeriesKey("EDGE", ()), series)
        _, loaded = load_series(tmp_path, "EDGE")
        assert loaded.start == series.start
        assert loaded.array.tobytes() == series.array.tobytes()
        assert loaded.values == values

    def test_one_document_per_series(self, tmp_path):
        key = SeriesKey("DS", (("geo", "AT"),))
        path = store_series(tmp_path, key, MonthlySeries("DS", M(2016, 3), (1.0, None)))
        assert path == tmp_path / "series" / "DS.json"
        assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()] == [path.relative_to(tmp_path)]
        assert json.loads(path.read_text()) == {
            "schema": "exocast.eurostat.series/2",
            "dataset_code": "DS",
            "dimension_values": [["geo", "AT"]],
            "series_id": "DS",
            "start": "2016-03",
            "values": [1.0, None],
        }

    def test_another_key_is_not_cached(self, tmp_path):
        key = SeriesKey("DS", (("geo", "AT"),))
        store_series(tmp_path, key, MonthlySeries("DS", M(2016, 1), (1.0,)))
        assert load_series(tmp_path, "DS", key)[0] == key
        with pytest.raises(NotCachedError, match="geo=DE"):
            load_series(tmp_path, "DS", SeriesKey("DS", (("geo", "DE"),)))

    @pytest.mark.parametrize("code", ["", ".", "..", "../outside", "a/b", "a\\b", "a\0b"])
    def test_code_that_is_not_a_plain_file_name_rejected(self, tmp_path, code):
        root = tmp_path / "cache"
        with pytest.raises(PayloadError, match="plain file name"):
            store_series(root, SeriesKey(code, ()), MonthlySeries(code, M(2016, 1), (1.0,)))
        with pytest.raises(PayloadError, match="plain file name"):
            load_series(root, code)
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_empty_root(self, tmp_path):
        with pytest.raises(NotCachedError):
            load_catalog(tmp_path / "nothing")
        with pytest.raises(NotCachedError):
            load_series(tmp_path / "nothing", "DS")

    def test_list_cached(self, tmp_path):
        # "A-B.json" sorts before "A.json": the order is the codes', not the file names'.
        for code in ("B", "A-B", "A"):
            store_series(
                tmp_path, SeriesKey(code, (("geo", "AT"),)),
                MonthlySeries(code, M(2016, 1), (1.0, 2.0)),
            )
        cached = list_cached_series(tmp_path)
        assert [k.dataset_code for k, _ in cached] == ["A", "A-B", "B"]
        assert [s.id for _, s in cached] == ["A", "A-B", "B"]
        assert list_cached_series(tmp_path / "nothing") == []


def write_v1_cache(root):
    """A cache in the format before `exocast.eurostat.series/2`: a folder per
    dataset holding a series CSV and a key sidecar."""
    folder = root / "STS_A"
    folder.mkdir(parents=True)
    (folder / "0123456789abcdef.csv").write_text("period,value\r\n2016-01,1.0\r\n")
    (folder / "0123456789abcdef.key.json").write_text(
        json.dumps({"dataset_code": "STS_A", "dimension_values": [["geo", "AT"]], "series_id": "STS_A"})
    )
    (root / "manifest.json").write_text(json.dumps({
        "schema": "exocast.eurostat.manifest/1", "endpoint": "toc.json",
        "fetched_at": "2026-01-01T00:00:00+00:00", "filters": ["monthly"],
    }))
    return root


class TestOldCacheFormat:
    @pytest.mark.parametrize("read", [
        read_manifest,
        list_cached_series,
        lambda root: load_series(root, "STS_A"),
        lambda root: run_funnel(root, since=M(2016, 1), keywords=("business",), offline=True),
    ], ids=["read_manifest", "list_cached_series", "load_series", "run_funnel"])
    def test_rejected_by_name(self, tmp_path, read):
        root = write_v1_cache(tmp_path / "cache")
        with pytest.raises(SchemaError, match="exocast.eurostat.manifest/1"):
            read(root)

    def test_experiment_on_it_exits_2(self, tmp_path, capsys):
        root = write_v1_cache(tmp_path / "cache")
        target = tmp_path / "target.csv"
        target.write_text("period,value\n" + "".join(f"{m},{i}.5\n" for i, m in enumerate(months("2016-01", 48))))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "datasets": [{"label": "market", "kind": "eurostat_cache", "target": str(target),
                          "cache_root": str(root)}],
            "ranges": [{"start": "2016-01", "end": "2018-12"}],
            "methods": ["none"],
            "models": [{"name": "sarimax", "order": [1, 0, 0, 0, 0, 0, 12]}],
        }))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "exocast.eurostat.manifest/1" in err


class TestLivePath:
    def test_mocked_http_funnel(self, tmp_path, monkeypatch):
        """Exercise the live code path (URL building, parsing, caching) with
        a fake transport instead of fixtures."""
        import exocast.eurostat as eu

        time_labels = months("2015-01", 30)
        payloads = {
            eu.base_url() + eu.CATALOG_PATH: json.dumps({"datasets": FIVE_ENTRIES}),
            eu.base_url() + eu.DATA_PATH.format(code="STS_A"): jsonstat_payload(
                [("geo", ["AT"]), ("unit", ["I15"]), ("time", time_labels)],
                {("AT", "I15", t): float(i) for i, t in enumerate(time_labels)},
            ),
            eu.base_url() + eu.DATA_PATH.format(code="STS_C"): jsonstat_payload(
                [("geo", ["AT"]), ("unit", ["I15"]), ("time", time_labels)],
                {("AT", "I15", t): float(i) * 2 for i, t in enumerate(time_labels)},
            ),
        }
        calls = []

        class FakeResponse:
            def __init__(self, text):
                self.text = text

            def raise_for_status(self):
                pass

        def fake_get(url, timeout):
            calls.append(url)
            if url not in payloads:
                raise requests.exceptions.HTTPError(f"404 for {url}")
            return FakeResponse(payloads[url])

        monkeypatch.setattr(requests, "get", fake_get)
        monkeypatch.setattr(eu._throttle, "interval", 0.0)  # no test slowdown
        cache = tmp_path / "cache"
        report = run_funnel(cache, since=M(2016, 1), keywords=("business", "energy"))
        assert report.stored == ["STS_A", "STS_C"]
        assert not report.failures
        assert len(calls) == 3  # one catalog + two datasets
        _, series = load_series(cache, "STS_C")
        assert series.values[0] == 24.0  # 2016-01 is index 12 in the payload


@pytest.fixture()
def funnel_fixtures(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    write_catalog_fixture(fixtures / "toc.json", FIVE_ENTRIES)
    time_labels = months("2015-01", 30)
    for code in ("STS_A", "STS_C"):
        values = {
            ("AT", "I15", t): float(i) + (1.0 if code == "STS_C" else 0.0)
            for i, t in enumerate(time_labels)
        }
        (fixtures / f"{code}.json").write_text(
            jsonstat_payload(
                [("geo", ["AT"]), ("unit", ["I15"]), ("time", time_labels)], values
            )
        )
    return fixtures


class TestFunnel:
    def test_offline_funnel_counts_and_cache(self, tmp_path, funnel_fixtures):
        cache = tmp_path / "cache"
        report = run_funnel(
            cache,
            since=M(2016, 1),
            keywords=("business", "trade", "energy"),
            offline=True,
            catalog_fixture=funnel_fixtures / "toc.json",
            dataset_fixture_dir=funnel_fixtures,
        )
        assert report.initial == 5
        assert report.after_monthly == 3
        assert report.after_parameters == 2  # STS_A, STS_C
        assert report.after_coverage == 2
        assert report.stored == ["STS_A", "STS_C"]
        assert not report.failures
        manifest = read_manifest(cache)
        assert manifest["schema"] == "exocast.eurostat.manifest/2"
        assert manifest["filters"][0] == "monthly"
        assert list(cache.rglob("*.tmp")) == []
        key, series = load_series(cache, "STS_A")
        assert series.start == M(2016, 1)
        assert len(series) == 18  # 2016-01 .. 2017-06

    def test_offline_zero_network(self, tmp_path, funnel_fixtures, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("socket opened during offline funnel")

        monkeypatch.setattr(socket, "socket", forbidden)
        monkeypatch.setattr(socket, "create_connection", forbidden)
        cache = tmp_path / "cache"
        report = run_funnel(
            cache,
            since=M(2016, 1),
            keywords=("business", "energy"),
            offline=True,
            catalog_fixture=funnel_fixtures / "toc.json",
            dataset_fixture_dir=funnel_fixtures,
        )
        assert report.stored == ["STS_A", "STS_C"]

    def test_offline_reruns_from_cache_alone(self, tmp_path, funnel_fixtures, monkeypatch):
        cache = tmp_path / "cache"
        run_funnel(
            cache, since=M(2016, 1), keywords=("business", "energy"),
            offline=True, catalog_fixture=funnel_fixtures / "toc.json",
            dataset_fixture_dir=funnel_fixtures,
        )
        monkeypatch.setattr(socket, "socket", lambda *a, **k: (_ for _ in ()).throw(AssertionError))
        first = list_cached_series(cache)
        report = run_funnel(cache, since=M(2016, 1), keywords=("business", "energy"), offline=True)
        assert report.stored == ["STS_A", "STS_C"]
        assert not report.failures
        assert sorted(p.name for p in (cache / "series").iterdir()) == ["STS_A.json", "STS_C.json"]
        assert list_cached_series(cache) == first

    def test_offline_missing_dataset_recorded(self, tmp_path, funnel_fixtures):
        cache = tmp_path / "cache"
        report = run_funnel(
            cache, since=M(2016, 1), keywords=("business", "energy", "tourism"),
            offline=True, catalog_fixture=funnel_fixtures / "toc.json",
            dataset_fixture_dir=funnel_fixtures,
        )
        # STS_B passes filters (tourism, monthly, earliest 2018-03 fails
        # coverage) so it is excluded; nothing should fail here.
        assert report.after_coverage == 2
        # Remove one fixture to force a recorded failure.
        (funnel_fixtures / "STS_C.json").unlink()
        report2 = run_funnel(
            tmp_path / "cache2", since=M(2016, 1), keywords=("business", "energy"),
            offline=True, catalog_fixture=funnel_fixtures / "toc.json",
            dataset_fixture_dir=funnel_fixtures,
        )
        assert "STS_C" in report2.failures
        assert report2.stored == ["STS_A"]

    def test_code_escaping_the_root_skips_only_that_dataset(self, tmp_path, funnel_fixtures):
        entries = FIVE_ENTRIES + [catalog_entry("../escape", parameters=("energy",))]
        toc = write_catalog_fixture(funnel_fixtures / "toc.json", entries)
        (funnel_fixtures.parent / "escape.json").write_text((funnel_fixtures / "STS_A.json").read_text())
        cache = tmp_path / "work" / "cache"
        report = run_funnel(
            cache, since=M(2016, 1), keywords=("business", "energy"),
            offline=True, catalog_fixture=toc, dataset_fixture_dir=funnel_fixtures,
        )
        assert report.stored == ["STS_A", "STS_C"]
        assert not report.failures
        assert [p.name for p in (tmp_path / "work").iterdir()] == ["cache"]
        assert [k.dataset_code for k, _ in list_cached_series(cache)] == ["STS_A", "STS_C"]
