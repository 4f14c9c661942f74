"""Tests for the command-line interfaces."""

import pytest

from repro.__main__ import main as repro_main
from repro.data.io import save_dataset
from repro.experiments.__main__ import main as experiments_main


@pytest.fixture
def dataset_file(tmp_path, flights):
    path = tmp_path / "flights.txt"
    save_dataset(flights, path)
    return str(path)


class TestReproCLI:
    def test_skyline(self, dataset_file, capsys):
        assert repro_main(["skyline", dataset_file, "--subspace", "0b011"]) == 0
        out = capsys.readouterr().out
        assert "skyline: 3 of 5" in out
        assert "1 2 3" in out

    def test_skyline_extended(self, dataset_file, capsys):
        repro_main(["skyline", dataset_file, "--subspace", "0b011", "--extended"])
        assert "extended skyline: 4 of 5" in capsys.readouterr().out

    def test_skyline_dims_syntax(self, dataset_file, capsys):
        repro_main(["skyline", dataset_file, "--subspace", "0,1"])
        assert "3 of 5" in capsys.readouterr().out

    def test_skycube(self, dataset_file, capsys):
        code = repro_main(
            ["skycube", dataset_file, "--algorithm", "stsc",
             "--show", "0b100", "0b011"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "materialised 7 subspace skylines" in out
        assert "S_0b100: 1 points: 0" in out

    def test_skycube_partial(self, dataset_file, capsys):
        repro_main(["skycube", dataset_file, "--max-level", "1",
                    "--show", "0b001"])
        assert "materialised 3 subspace skylines" in capsys.readouterr().out

    def test_skycube_engine_knob(self, dataset_file, capsys):
        baseline = repro_main(
            ["skycube", dataset_file, "--show", "0b011"]
        )
        assert baseline == 0
        base_out = capsys.readouterr().out
        for engine in ("packed", "packed-filtered"):
            code = repro_main(
                ["skycube", dataset_file, "--engine", engine,
                 "--show", "0b011"]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"engine={engine}" in out
            # Same skylines whichever sweep computed them.
            assert out.splitlines()[-1] == base_out.splitlines()[-1]

    def test_skycube_engine_rejects_non_mdmc(self, dataset_file):
        with pytest.raises(SystemExit, match="only applies"):
            repro_main(["skycube", dataset_file, "--algorithm", "stsc",
                        "--engine", "packed"])

    def test_skycube_engine_choices_are_shared(self, dataset_file):
        from repro.engine import SKYCUBE_ENGINES

        # argparse rejects anything outside the single source of truth
        with pytest.raises(SystemExit):
            repro_main(["skycube", dataset_file, "--engine", "simd"])
        with pytest.raises(SystemExit):
            repro_main(["skycube", dataset_file, "--engine", "loop"])
        assert SKYCUBE_ENGINES == ("packed", "packed-filtered")

    def test_generate_and_stats(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.npy")
        repro_main(["generate", "correlated", "200", "4",
                    "--seed", "3", "--out", out_path])
        assert "wrote 200 x 4" in capsys.readouterr().out
        repro_main(["stats", out_path])
        out = capsys.readouterr().out
        assert "n=200 d=4" in out and "|S+|" in out

    def test_serve_snapshot_live_conflict(self, dataset_file, tmp_path):
        from repro.core.serialize import save_skycube
        from repro.data.generator import generate
        from repro.engine import fast_skycube

        snapshot_path = str(tmp_path / "cube.npz")
        save_skycube(fast_skycube(generate("independent", 20, 3, seed=1)),
                     snapshot_path)
        with pytest.raises(SystemExit, match="drop --snapshot"):
            repro_main(["serve", dataset_file,
                        "--snapshot", snapshot_path, "--live"])

    def test_serve_live_max_level_conflict(self, dataset_file, tmp_path):
        # The maintainer keeps the full cube: a partial-cube setting
        # must fail at startup, not be dropped silently.
        with pytest.raises(SystemExit, match="drop --max-level"):
            repro_main(["serve", dataset_file, "--live", "--max-level", "2"])
        profile_path = tmp_path / "live.toml"
        profile_path.write_text("[serve]\nlive = true\nmax_level = 2\n")
        with pytest.raises(SystemExit, match="drop --max-level"):
            repro_main(["serve", dataset_file,
                        "--profile", str(profile_path)])

    def test_serve_ignored_knobs_fail_at_startup(self, dataset_file, tmp_path):
        # A knob the chosen tier never reads must fail at startup, not be
        # dropped: a saved cube serves as built, --live bootstraps its
        # own sweep, only --live compacts and only --shards partitions.
        snapshot = str(tmp_path / "cube.npz")
        for argv, message in (
            (["--snapshot", snapshot, "--max-level", "1"], "drop --max-level"),
            (["--snapshot", snapshot, "--engine", "packed"], "drop --engine"),
            (["--live", "--engine", "packed-filtered"], "drop --engine"),
            (["--compact-every", "5"], "drop --compact-every"),
            (["--partitioner", "angular"], "drop --partitioner"),
        ):
            with pytest.raises(SystemExit, match=message):
                repro_main(["serve", dataset_file, *argv])
        for text, argv, message in (
            ("[serve]\ncompact_every = 5\n", [], r"\[serve\] compact_every"),
            ('[shard]\npartitioner = "angular"\n', [],
             r"\[shard\] partitioner"),
            ("[serve]\nmax_level = 1\n", ["--snapshot", snapshot],
             r"\[serve\] max_level"),
        ):
            profile_path = tmp_path / "ignored.toml"
            profile_path.write_text(text)
            with pytest.raises(SystemExit, match=message):
                repro_main(["serve", dataset_file,
                            "--profile", str(profile_path), *argv])

    @pytest.mark.parametrize("argv, named", [
        (["serve", "DATA", "--backend", "numpy"], "--backend"),
        (["skycube", "DATA", "--backend", "numpy"], "--backend"),
        (["backends"], "backends"),
    ], ids=["serve", "skycube", "backends"])
    def test_removed_kernel_backend_names_exit_2(
        self, dataset_file, capsys, argv, named
    ):
        # The kernel-backend flag and subcommand are gone: argparse
        # stops at startup, naming what it does not know.
        argv = [dataset_file if arg == "DATA" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            repro_main(argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    def test_serve_snapshot_dimension_mismatch(self, dataset_file, tmp_path):
        from repro.core.serialize import save_skycube
        from repro.data.generator import generate
        from repro.engine import fast_skycube

        snapshot_path = str(tmp_path / "cube4.npz")
        save_skycube(fast_skycube(generate("independent", 20, 4, seed=1)),
                     snapshot_path)
        with pytest.raises(SystemExit, match="4-dimensional"):
            repro_main(["serve", dataset_file, "--snapshot", snapshot_path])

    def test_query_connection_refused(self):
        # An ephemeral port nothing listens on: typed SystemExit, no
        # traceback leaking out of the CLI.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(SystemExit, match="cannot connect"):
            repro_main(["query", "ping", "--port", str(port),
                        "--timeout", "0.5"])

    def test_bad_inputs(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit):
            repro_main(["skyline", dataset_file, "--subspace", "0b1000"])
        with pytest.raises(SystemExit):
            repro_main(["skyline", str(tmp_path / "missing.txt")])
        with pytest.raises(SystemExit):
            repro_main(["skycube", dataset_file, "--algorithm", "magic"])
        with pytest.raises(SystemExit):
            repro_main(["skyline", dataset_file, "--subspace", "pizza"])


class TestExperimentsCLI:
    def test_single_experiment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert experiments_main(["table02"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert (tmp_path / "table02.txt").exists()

    def test_no_save(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        experiments_main(["table02", "--no-save"])
        assert not (tmp_path / "table02.txt").exists()

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            experiments_main(["fig99"])
