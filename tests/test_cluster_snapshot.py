"""EDB snapshot export/import: the cluster's replication primitive."""

import json
import os

import pytest

from repro.core.csl import CSLQuery
from repro.errors import ReproError
from repro.service import (
    SNAPSHOT_FORMAT,
    SolverService,
    export_snapshot,
    import_snapshot,
    read_snapshot,
    warm_plan_cache,
)

PARENT = {(f"c{i}", f"c{i + 1}") for i in range(6)}
QUERY = CSLQuery.same_generation(PARENT, source="c0")


def make_service():
    return SolverService(QUERY.database())


class TestRoundTrip:
    def test_export_import_preserves_every_relation(self, tmp_path):
        service = make_service()
        path = str(tmp_path / "snap.json")
        meta = export_snapshot(service, path)
        assert meta["path"] == path
        assert meta["epoch"] == service.db_version
        imported = import_snapshot(path)
        for name in service.database.names():
            assert imported.service.database.facts(name) == (
                service.database.facts(name)
            ), name
        assert imported.epoch == service.db_version
        assert imported.program_text is None

    def test_snapshot_reflects_mutations_and_their_epoch(self, tmp_path):
        service = make_service()
        service.mutate(inserts={"l": [("z0", "z1")]})
        path = str(tmp_path / "snap.json")
        export_snapshot(service, path)
        database, epoch, _text = read_snapshot(path)
        assert ("z0", "z1") in database.facts("l")
        assert epoch == service.db_version > 0

    def test_program_text_travels_with_the_snapshot(self, tmp_path):
        service = make_service()
        text = str(QUERY.to_program())
        path = str(tmp_path / "snap.json")
        export_snapshot(service, path, program_text=text)
        imported = import_snapshot(path)
        assert imported.program_text == text

    def test_tuple_values_survive_the_json_round_trip(self, tmp_path):
        service = SolverService()
        service.database.create("pairs", 2)
        service.mutate(
            inserts={"pairs": [(("a", 1), ("b", (2, "c")))]}
        )
        path = str(tmp_path / "snap.json")
        export_snapshot(service, path)
        database, _epoch, _text = read_snapshot(path)
        assert database.facts("pairs") == {(("a", 1), ("b", (2, "c")))}

    def test_answers_match_across_the_snapshot_boundary(self, tmp_path):
        service = make_service()
        program = QUERY.to_program()
        expected = service.solve_batch(program, ["c0", "c3"]).answers
        path = str(tmp_path / "snap.json")
        export_snapshot(service, path)
        imported = import_snapshot(path)
        got = imported.service.solve_batch(program, ["c0", "c3"]).answers
        assert got == expected


class TestFormatGuards:
    def test_unknown_format_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-snapshot/999"}))
        with pytest.raises(ReproError, match="repro-snapshot/999"):
            read_snapshot(str(path))

    def test_format_marker_is_present_on_disk(self, tmp_path):
        path = tmp_path / "snap.json"
        export_snapshot(make_service(), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format"] == SNAPSHOT_FORMAT

    def test_export_leaves_no_staging_files_behind(self, tmp_path):
        path = str(tmp_path / "snap.json")
        export_snapshot(make_service(), path)
        export_snapshot(make_service(), path)  # atomic overwrite
        assert sorted(os.listdir(tmp_path)) == ["snap.json"]


class TestWarmup:
    def test_warm_plan_cache_precompiles_the_program(self, tmp_path):
        service = make_service()
        text = str(QUERY.to_program())
        assert warm_plan_cache(service, [text]) == 1
        compiles_after_warm = service.stats()["compiles"]
        service.solve_batch(QUERY.to_program(), ["c0"])
        # The warmed plan serves the first request: no new compile.
        assert service.stats()["compiles"] == compiles_after_warm

    def test_warmup_skips_unparsable_text_without_failing(self):
        service = make_service()
        assert warm_plan_cache(service, ["not a program (", "", None]) == 0
