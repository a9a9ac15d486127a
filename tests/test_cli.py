"""Unit tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "cassandra-wi" in out
        assert "graphchi-pr" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "spark"])

    def test_strategy_choices(self):
        args = build_parser().parse_args(
            ["run", "lucene", "--strategy", "g1", "--duration-ms", "5"]
        )
        assert args.strategy == "g1"
        assert args.duration_ms == 5.0


class TestProfileCommand:
    def test_profile_roundtrip(self, tmp_path, capsys):
        out_path = str(tmp_path / "p.json")
        code = main(
            [
                "profile",
                "cassandra-wi",
                "-o",
                out_path,
                "--duration-ms",
                "4000",
            ]
        )
        assert code == 0
        from repro import AllocationProfile

        profile = AllocationProfile.load(out_path)
        assert profile.workload == "cassandra-wi"


class TestRunCommand:
    def test_run_baseline(self, capsys):
        code = main(
            [
                "run",
                "graphchi-pr",
                "--strategy",
                "g1",
                "--duration-ms",
                "4000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "peak memory" in out

    def test_run_polm2_with_saved_profile(self, tmp_path, capsys):
        out_path = str(tmp_path / "p.json")
        main(["profile", "graphchi-pr", "-o", out_path, "--duration-ms", "4000"])
        code = main(
            [
                "run",
                "graphchi-pr",
                "--profile",
                out_path,
                "--duration-ms",
                "4000",
            ]
        )
        assert code == 0
        assert "pause times" in capsys.readouterr().out


class TestErrorReporting:
    def test_repro_error_prints_one_line_and_exits_2(self, tmp_path, capsys):
        # A missing profile file surfaces as ProfileError (a ReproError),
        # which main() must turn into a one-line message, not a traceback.
        code = main(
            [
                "run",
                "graphchi-pr",
                "--profile",
                str(tmp_path / "nonexistent.json"),
                "--duration-ms",
                "1000",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_analyze_bad_recording_dir_exits_2(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "not-a-recording")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_strategy_choices_come_from_registry(self):
        from repro.strategies import strategy_names

        parser = build_parser()
        for name in strategy_names():
            args = parser.parse_args(["run", "lucene", "--strategy", name])
            assert args.strategy == name


class TestRecordAnalyzeCommands:
    def test_record_then_analyze(self, tmp_path, capsys):
        rec_dir = str(tmp_path / "rec")
        assert main(
            ["record", "graphchi-pr", "-o", rec_dir, "--duration-ms", "4000"]
        ) == 0
        out_path = str(tmp_path / "p.json")
        assert main(["analyze", rec_dir, "-o", out_path]) == 0
        from repro import AllocationProfile

        profile = AllocationProfile.load(out_path)
        assert profile.workload == "graphchi-pr"


class TestMatrixCommand:
    MATRIX_ARGS = [
        "matrix",
        "--workloads",
        "cassandra-wi",
        "--strategies",
        "g1,polm2",
        "--seeds",
        "0-1",
        "--duration-ms",
        "2000",
        "--profiling-ms",
        "1200",
    ]

    def test_matrix_streams_progress_and_percentiles(self, capsys):
        assert main(self.MATRIX_ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        # Live progress: one [done/total] line per cell with rate + ETA.
        assert "[1/6]" in out and "[6/6]" in out
        assert "cells/s" in out and "ETA" in out
        # Multi-seed aggregation with support counts.
        assert "pooled pause percentiles" in out
        assert "2 seed(s)" in out
        assert "G1" in out and "POLM2" in out

    def test_matrix_resumes_from_cache(self, tmp_path, capsys, monkeypatch):
        # $REPRO_CACHE_BACKEND is the --cache-backend default.
        monkeypatch.setenv("REPRO_CACHE_BACKEND", f"sqlite:///{tmp_path}/env.db")
        assert main(self.MATRIX_ARGS) == 0
        capsys.readouterr()
        assert main(self.MATRIX_ARGS) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out
        assert (tmp_path / "env.db").exists()

    def test_matrix_sqlite_backend(self, tmp_path, capsys):
        backend = ["--cache-backend", f"sqlite:///{tmp_path}/sweep.db"]
        assert main(self.MATRIX_ARGS + backend) == 0
        capsys.readouterr()
        assert main(self.MATRIX_ARGS + backend) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out
        assert (tmp_path / "sweep.db").exists()

    def test_cache_that_is_not_a_database_is_one_line_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "notes.txt"
        path.write_text("not a database\n" * 64)
        code = main(
            [
                "matrix",
                "--workloads",
                "cassandra-wi",
                "--strategies",
                "g1",
                "--duration-ms",
                "200",
                "--profiling-ms",
                "200",
                "--cache-backend",
                f"sqlite:///{path}",
                "--no-progress",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["evaluate", "matrix"])
    def test_one_cache_option_set(self, command, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
        args = build_parser().parse_args([command])
        assert args.cache_backend == "sqlite:///.repro_cache/sweep.db"
        assert not args.no_cache
        assert build_parser().parse_args([command, "--no-cache"]).no_cache
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--cache-dir", "c"])

    def test_matrix_bad_seed_spec_is_one_line_error(self, capsys):
        code = main(
            ["matrix", "--workloads", "lucene", "--seeds", "bogus", "--no-cache"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_matrix_unknown_strategy_is_one_line_error(self, capsys):
        code = main(
            [
                "matrix",
                "--workloads",
                "lucene",
                "--strategies",
                "shenandoah",
                "--no-cache",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_matrix_mode_choices(self):
        # The scheduler follows --jobs alone; no --mode option remains.
        for mode in ("sharded", "wave", "serial"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["matrix", "--mode", mode])


class TestJobsEnvironment:
    def test_malformed_repro_jobs_ignored_by_other_commands(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_JOBS", "two")
        assert main(["workloads"]) == 0
        assert "cassandra-wi" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [["evaluate", "--no-cache"], ["matrix", "--workloads", "lucene", "--no-cache"]],
    )
    def test_malformed_repro_jobs_is_one_line_error(
        self, command, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_JOBS", "two")
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "REPRO_JOBS" in err
        assert len(err.strip().splitlines()) == 1

    def test_repro_jobs_is_the_default_and_jobs_overrides_it(self, monkeypatch):
        seen = []

        class StubRunner:
            def __init__(self, settings):
                seen.append(settings.jobs)

            def sweep(self, **_kwargs):
                return iter(())

        monkeypatch.setattr("repro.__main__.ExperimentRunner", StubRunner)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert main(["matrix", "--no-cache"]) == 0
        assert main(["matrix", "--no-cache", "--jobs", "2"]) == 0
        monkeypatch.delenv("REPRO_JOBS")
        assert main(["matrix", "--no-cache"]) == 0
        assert seen == [3, 2, 1]


class TestSnapshotFormatOption:
    def _record(self, tmp_path):
        rec_dir = str(tmp_path / "rec")
        code = main(["record", "lucene", "-o", rec_dir, "--duration-ms", "1000"])
        assert code == 0
        return rec_dir

    def test_default_is_binary_and_recorded_in_meta(self, tmp_path):
        import json
        import os

        rec_dir = self._record(tmp_path)
        assert os.path.exists(os.path.join(rec_dir, "snapshots.bin"))
        assert not os.path.exists(os.path.join(rec_dir, "snapshots.jsonl"))
        with open(os.path.join(rec_dir, "meta.json")) as handle:
            assert json.load(handle)["snapshot_format"] == "binary"

    def test_legacy_jsonl_recording_is_one_line_error(self, tmp_path, capsys):
        import json
        import os

        from repro.snapshot.snapshot import SnapshotStore

        rec_dir = self._record(tmp_path)
        snapshots_path = os.path.join(rec_dir, "snapshots.bin")
        snapshots = SnapshotStore.load(snapshots_path)
        with open(snapshots_path, "w") as handle:
            for snapshot in snapshots:
                handle.write(json.dumps(snapshot.to_dict()) + "\n")
        code = main(["analyze", rec_dir, "-o", str(tmp_path / "p.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert snapshots_path in err
        assert len(err.strip().splitlines()) == 1

    def test_profile_keep_recording(self, tmp_path):
        import os

        out_path = str(tmp_path / "p.json")
        rec_dir = str(tmp_path / "rec")
        code = main(
            [
                "profile",
                "lucene",
                "-o",
                out_path,
                "--duration-ms",
                "1000",
                "--keep-recording",
                rec_dir,
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(rec_dir, "snapshots.bin"))
        from repro import AllocationProfile

        assert AllocationProfile.load(out_path).workload == "lucene"
