"""Tests for the repro-mincut command-line interface."""

import pytest

from repro.cli import main
from repro.graph import write_edge_list, write_metis


@pytest.fixture
def metis_file(tmp_path, dumbbell):
    path = tmp_path / "g.graph"
    write_metis(dumbbell, path)
    return str(path)


class TestCli:
    def test_basic_run(self, metis_file, capsys):
        assert main([metis_file]) == 0
        out = capsys.readouterr().out
        assert "mincut    1" in out
        assert "n=8 m=13" in out

    def test_edgelist_format(self, tmp_path, weighted_cycle, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(weighted_cycle, path)
        assert main(["--format", "edgelist", str(path)]) == 0
        assert "mincut    2" in capsys.readouterr().out

    def test_algorithm_selection(self, metis_file, capsys):
        assert main(["--algorithm", "stoer-wagner", metis_file]) == 0
        assert "stoer-wagner" in capsys.readouterr().out

    def test_parcut_options(self, metis_file, capsys):
        assert main(["--algorithm", "parcut", "--workers", "2", "--pq", "bqueue", metis_file]) == 0
        assert "parcut-bqueue" in capsys.readouterr().out

    def test_print_side(self, metis_file, capsys):
        assert main(["--print-side", metis_file]) == 0
        out = capsys.readouterr().out
        assert "side      " in out
        side = sorted(int(x) for x in out.split("side")[1].split())
        assert side in ([0, 1, 2, 3], [4, 5, 6, 7])

    def test_stats_flag(self, metis_file, capsys):
        assert main(["--stats", metis_file]) == 0
        assert "stat      " in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent.graph"]) == 2
        assert "error reading" in capsys.readouterr().err

    def test_bad_option_combo(self, metis_file, capsys):
        # workers is not a valid kwarg for stoer-wagner
        assert main(["--algorithm", "stoer-wagner", "--workers", "2", metis_file]) == 2
        assert "error" in capsys.readouterr().err
        # the retired thread executor is no longer a choice
        with pytest.raises(SystemExit) as exc:
            main(["--algorithm", "parcut", "--executor", "threads", metis_file])
        assert exc.value.code == 2
        assert "invalid choice: 'threads'" in capsys.readouterr().err
        # nor is the retired compiled kernel tier
        with pytest.raises(SystemExit) as exc:
            main(["--kernel", "compiled", metis_file])
        assert exc.value.code == 2
        assert "invalid choice: 'compiled'" in capsys.readouterr().err
        # VieCut takes no kernel
        assert main(["--algorithm", "viecut", "--kernel", "vector", metis_file]) == 2
        assert "unexpected keyword argument 'kernel'" in capsys.readouterr().err


class TestCliBatch:
    @pytest.fixture
    def manifest(self, tmp_path, dumbbell, weighted_cycle):
        import json

        g1 = tmp_path / "dumbbell.graph"
        g2 = tmp_path / "wcycle.graph"
        write_metis(dumbbell, g1)
        write_metis(weighted_cycle, g2)
        path = tmp_path / "manifest.jsonl"
        items = [
            {"path": str(g1)},
            {"path": str(g2), "algorithm": "parcut"},
            {"path": str(g1)},  # repeat: served from the engine cache
        ]
        path.write_text("".join(json.dumps(i) + "\n" for i in items))
        return path

    def test_batch_solves_manifest_through_one_engine(self, manifest, capsys):
        assert main(["--batch", str(manifest), "--pool-size", "1"]) == 0
        out = capsys.readouterr().out
        assert "batch[0]" in out and "mincut=1" in out
        assert "batch[1]" in out and "mincut=2" in out
        assert "3 items, 0 failed" in out
        # the repeat item is served from the cache either at submit (counted
        # hit) or at assignment (counter-neutral peek) depending on timing;
        # the summary line reports whichever accounting applied
        assert "cache hits" in out

    def test_batch_inline_pool_size_zero(self, manifest, capsys):
        assert main(["--batch", str(manifest), "--pool-size", "0"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_batch_per_item_exit_status(self, tmp_path, dumbbell, capsys):
        import json

        g1 = tmp_path / "g.graph"
        write_metis(dumbbell, g1)
        path = tmp_path / "manifest.jsonl"
        items = [
            {"path": str(g1)},
            {"path": str(tmp_path / "missing.graph")},
            {"path": str(g1), "bogus_kwarg": 1},
        ]
        path.write_text("".join(json.dumps(i) + "\n" for i in items))
        # the batch keeps going; overall exit is the first failing item's code
        assert main(["--batch", str(path), "--pool-size", "1"]) == 2
        out = capsys.readouterr().out
        assert "batch[0]" in out and "exit=0" in out
        assert "batch[1]" in out and "batch[2]" in out
        assert "3 items, 2 failed" in out

    def test_batch_json_array_manifest(self, tmp_path, dumbbell, capsys):
        import json

        g1 = tmp_path / "g.graph"
        write_metis(dumbbell, g1)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"path": str(g1)}]))
        assert main(["--batch", str(path), "--pool-size", "0"]) == 0
        assert "1 items, 0 failed" in capsys.readouterr().out

    def test_batch_trace_validates(self, manifest, tmp_path, capsys):
        from repro.observability.schema import validate_trace_file

        sink = tmp_path / "engine.jsonl"
        assert main(["--batch", str(manifest), "--pool-size", "1",
                     "--trace", str(sink)]) == 0
        summary = validate_trace_file(sink)
        assert summary["by_kind"]["request_start"] == 3
        assert summary["by_kind"]["cache_hit"] == 1
        assert summary["by_kind"]["engine_stop"] == 1

    def test_batch_bad_manifest(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json\n")
        assert main(["--batch", str(path)]) == 2
        assert "error reading manifest" in capsys.readouterr().err

    def test_batch_requires_exactly_one_input(self, manifest, capsys):
        assert main([]) == 2
        assert main(["--batch", str(manifest), "also-a-path"]) == 2

    def test_batch_rejects_single_solve_flags(self, manifest, capsys):
        assert main(["--batch", str(manifest), "--print-side"]) == 2
        assert "single-solve only" in capsys.readouterr().err


class TestCliUpdates:
    @pytest.fixture
    def stream(self, tmp_path):
        import json

        path = tmp_path / "stream.jsonl"
        batches = [
            {"inserts": [[3, 4, 2]]},           # bridge 1 → 3: λ climbs
            {"deletes": [[3, 4]]},              # sever the bridge: λ = 0
            {"inserts": [[0, 4, 1], [1, 5, 1]]},  # reconnect: λ = 2
        ]
        path.write_text("".join(json.dumps(b) + "\n" for b in batches))
        return path

    def test_stream_resolves_warm_per_batch(self, metis_file, stream, capsys):
        assert main(["--updates", str(stream), "--pool-size", "0",
                     metis_file]) == 0
        out = capsys.readouterr().out
        assert "initial exit=0 mode=cold mincut=1" in out
        assert "update[0] exit=0" in out and "mincut=3" in out
        assert "update[1] exit=0" in out and "mincut=0" in out
        assert "update[2] exit=0" in out and "mincut=2" in out
        assert "3 batches, 0 failed" in out

    def test_stream_json_array_form(self, metis_file, tmp_path, capsys):
        import json

        path = tmp_path / "stream.json"
        path.write_text(json.dumps([{"inserts": [[0, 4, 5]]}]))
        assert main(["--updates", str(path), "--pool-size", "0",
                     metis_file]) == 0
        assert "1 batches, 0 failed" in capsys.readouterr().out

    def test_stream_per_batch_exit_status(self, metis_file, tmp_path, capsys):
        import json

        path = tmp_path / "stream.jsonl"
        batches = [
            {"inserts": [[3, 4, 2]]},
            {"deletes": [[0, 7]]},  # absent edge: this batch fails
            {"inserts": [[0, 4, 1]]},  # the stream keeps going
        ]
        path.write_text("".join(json.dumps(b) + "\n" for b in batches))
        assert main(["--updates", str(path), "--pool-size", "0",
                     metis_file]) == 2
        out = capsys.readouterr().out
        assert "update[1] exit=2" in out and "absent" in out
        assert "update[2] exit=0" in out
        assert "3 batches, 1 failed" in out

    def test_stream_trace_validates(self, metis_file, stream, tmp_path):
        from repro.observability.schema import validate_trace_file

        sink = tmp_path / "updates.jsonl"
        assert main(["--updates", str(stream), "--pool-size", "0",
                     "--trace", str(sink), metis_file]) == 0
        summary = validate_trace_file(sink)
        assert summary["by_kind"]["graph_update"] == 4  # initial no-op + 3
        assert summary["by_kind"]["warm_solve"] == 4
        assert summary["by_kind"]["engine_stop"] == 1

    def test_stream_takes_the_solver_flags(self, metis_file, stream, capsys):
        # the flags reach every batch's solve, as they reach a single solve
        assert main(["--updates", str(stream), "--algorithm", "parcut",
                     "--workers", "0", "--pool-size", "0", metis_file]) == 2
        out = capsys.readouterr().out
        assert "initial exit=2 error: workers must be >= 1" in out
        assert "3 batches, 4 failed" in out

    def test_updates_usage_errors(self, metis_file, stream, capsys):
        assert main(["--updates", str(stream)]) == 2  # no input PATH
        assert main(["--updates", str(stream), "--batch", "x.jsonl",
                     metis_file]) == 2
        err = capsys.readouterr().err
        assert "needs an input PATH" in err

    def test_updates_bad_stream_file(self, metis_file, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json\n")
        assert main(["--updates", str(path), metis_file]) == 2
        assert "error" in capsys.readouterr().err
