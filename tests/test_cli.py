import json

import numpy as np
import pytest

from hcran_noma import cli, scenarios
from hcran_noma.model import ConfigError


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg, scenario = cli.load_config(path)
        assert cfg.p_max[0] == pytest.approx(10 ** 1.2)          # 42 dBm macro
        assert cfg.p_max[1] == pytest.approx(10 ** -0.7)         # 23 dBm heads
        assert np.allclose(cfg.p_mask, (cfg.p_max / 32)[:, None, None])
        assert cfg.noise_density == pytest.approx(10 ** -20.4)   # -174 dBm/Hz
        assert cfg.tolerances.xi == 0.01
        assert np.all(cfg.weights == 1.0)
        assert cfg.n_subcarriers == 32
        assert cfg.subcarrier_bandwidth == pytest.approx(31250.0)
        spec = cfg.users[0].traffic
        assert spec.packet_bits == 1024.0 and spec.q_len == 25.0
        assert scenario.architecture == "hcran"
        assert scenario.l_max == 3

    def test_no_file_gives_defaults(self):
        cfg, _ = cli.load_config(None)
        assert cfg.static_power() == pytest.approx(8.2)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("fiber_length: 3\n")
        with pytest.raises(ConfigError, match="fiber_length"):
            cli.load_config(path)

    def test_unknown_tolerance_key_named(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("tolerances:\n  epsilon: 0.1\n")
        with pytest.raises(ConfigError, match="epsilon"):
            cli.load_config(path)

    def test_mask_above_budget_rejected(self, tmp_path):
        path = tmp_path / "mask.yaml"
        path.write_text("mask_dbm: 50\n")
        with pytest.raises(ConfigError):
            cli.load_config(path)

    def test_oma_flag(self, tmp_path):
        path = tmp_path / "oma.yaml"
        path.write_text("oma: true\n")
        _, scenario = cli.load_config(path)
        assert scenario.l_max == 1

    def test_tolerances_applied(self, tmp_path):
        path = tmp_path / "tol.yaml"
        path.write_text("tolerances:\n  xi: 0.5\n  s_max: 4\n")
        cfg, _ = cli.load_config(path)
        assert cfg.tolerances.xi == 0.5 and cfg.tolerances.s_max == 4

    def test_integral_keys_converted(self, tmp_path):
        path = tmp_path / "int.yaml"
        path.write_text("m_f: 2.0\nmask_dbm: 10\n")
        cfg, scenario = cli.load_config(path)
        assert scenario.m_f == 2 and isinstance(scenario.m_f, int)
        assert isinstance(scenario.mask_dbm, float)
        assert cfg.n_rrh == 3

    @pytest.mark.parametrize("text, key", [("m_f: 2.5\n", "m_f"),
                                           ("users: many\n", "users"),
                                           ("mask_dbm: loud\n", "mask_dbm")])
    def test_non_integral_or_non_numeric_named(self, tmp_path, text, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            cli.load_config(path)

    @pytest.mark.parametrize("text, key", [
        ("tolerances:\n  xi: abc\n", "xi"),
        ("tolerances:\n  v_max: 2.5\n", "v_max"),
        ("tolerances:\n  s_max: lots\n", "s_max"),
        ("tolerances: 5\n", "tolerances"),
    ])
    def test_bad_tolerances_named(self, tmp_path, text, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            cli.load_config(path)

    @pytest.mark.parametrize("text, key", [("values: 5\n", "values"),
                                           ("values: [a, b]\n", "values"),
                                           ("values: [1, null]\n", "values"),
                                           ("arrival_rate: -1\n", "arrival_rate"),
                                           ("queue_packets: 0\n", "queue_packets"),
                                           ("packet_bits: -512\n", "packet_bits"),
                                           # a count sweep runs whole counts only
                                           ("sweep: users\nvalues: [3, 2.5]\n", "values"),
                                           ("sweep: streaming\nvalues: [0.5]\n", "values"),
                                           ("sweep: lpn\nvalues: [1, 1.5]\n", "values")])
    def test_bad_values_and_traffic_named(self, tmp_path, text, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            cli.load_config(path)

    def test_values_converted(self, tmp_path, monkeypatch):
        path = tmp_path / "values.yaml"
        path.write_text("values: ['8', 12, 2.5]\n")
        _, scenario = cli.load_config(path)
        assert scenario.values == (8.0, 12, 2.5)
        assert isinstance(scenario.values[1], int)
        # the --values flag goes through the same conversion; an integer
        # literal stays an integer there
        seen = []
        monkeypatch.setattr(cli, "run_sweep", lambda sc: seen.append(sc.values) or [])
        assert cli.main(["sweep", "--values", "8,12,2.5,1e3",
                         "--out", str(tmp_path / "v.csv")]) == 0
        assert seen == [(8, 12, 2.5, 1000.0)]
        assert [type(v) for v in seen[0]] == [int, int, float, float]

    def test_whole_tolerances_converted(self, tmp_path):
        path = tmp_path / "tol.yaml"
        path.write_text("tolerances:\n  s_max: 4.0\n  xi: '0.5'\n  rho1: null\n")
        cfg, _ = cli.load_config(path)
        assert cfg.tolerances.s_max == 4 and isinstance(cfg.tolerances.s_max, int)
        assert cfg.tolerances.xi == 0.5 and cfg.tolerances.rho1 is None


def _write_small_config(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text("users: 6\nstreaming_users: 2\nn_subcarriers: 8\n"
                    "draws: 2\nseed: 5\n")
    return path


class TestCommands:
    def test_solve_smoke(self, tmp_path, capsys):
        cfgp = _write_small_config(tmp_path)
        out = tmp_path / "solve.csv"
        rc = cli.main(["solve", "--config", str(cfgp), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        text = out.read_text()
        assert text.startswith("#")
        assert "iteration,e,surplus" in text
        assert (tmp_path / "solve.csv.plot.py").exists()

    def test_solve_oma_keeps_config(self, tmp_path, monkeypatch):
        # --oma only drops to one user per subcarrier; every other YAML key
        # must reach the solved network unchanged
        path = tmp_path / "oma.yaml"
        path.write_text("users: 4\nstreaming_users: 1\nn_subcarriers: 4\n"
                        "m_f: 4\nmask_dbm: 10\nnoise_dbm_hz: -170\n"
                        "queue_packets: 30\npacket_bits: 512\n")
        loaded, _ = cli.load_config(path)
        seen = []

        class Stop(Exception):
            pass

        def gen_channel(cfg, rng):
            seen.append(cfg)
            raise Stop

        monkeypatch.setattr(cli, "gen_channel", gen_channel)
        with pytest.raises(Stop):
            cli.main(["solve", "--config", str(path), "--oma"])
        cfg = seen[0]
        assert cfg.n_rrh == loaded.n_rrh == 5
        assert cfg.l_max == 1 and loaded.l_max == 3
        assert np.array_equal(cfg.p_mask, loaded.p_mask)
        assert cfg.noise_density == loaded.noise_density
        assert cfg.users == loaded.users
        assert cfg.users[0].traffic.q_len == 30.0
        assert cfg.users[0].traffic.packet_bits == 512.0

    def test_sweep_keeps_config(self, tmp_path, monkeypatch):
        # every network key of the YAML reaches the swept draws, as it
        # reaches the single solve, and the CSV header records it
        path = tmp_path / "keys.yaml"
        path.write_text("users: 3\nstreaming_users: 1\nn_subcarriers: 2\n"
                        "m_f: 1\nmask_dbm: 10\nnoise_dbm_hz: -170\n"
                        "queue_packets: 30\npacket_bits: 512\n"
                        "tolerances: {xi: 0.5}\ndraws: 1\n")
        loaded, _ = cli.load_config(path)
        seen = []
        real_gen_channel = scenarios.gen_channel

        def gen_channel(cfg, rng):
            seen.append(cfg)
            return real_gen_channel(cfg, rng)

        monkeypatch.setattr(scenarios, "gen_channel", gen_channel)
        out = tmp_path / "keys.csv"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        cfg = seen[0]
        assert cfg.n_rrh == loaded.n_rrh == 2
        assert np.array_equal(cfg.p_mask, loaded.p_mask)
        assert cfg.noise_density == loaded.noise_density
        assert cfg.users == loaded.users
        assert cfg.users[0].traffic.q_len == 30.0
        assert cfg.users[0].traffic.packet_bits == 512.0
        assert cfg.tolerances == loaded.tolerances and cfg.tolerances.xi == 0.5
        header = next(l for l in out.read_text().splitlines()
                      if l.startswith("# config: "))
        blob = json.loads(header[len("# config: "):])
        assert blob["m_f"] == 1 and blob["mask_dbm"] == 10
        assert blob["noise_dbm_hz"] == -170.0 and blob["queue_packets"] == 30.0
        assert blob["packet_bits"] == 512.0 and blob["tolerances"]["xi"] == 0.5

    def test_sweep_reproducible_bytes(self, tmp_path):
        cfgp = _write_small_config(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = cli.main(["sweep", "--config", str(cfgp), "--sweep", "none",
                           "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_multi_point(self, tmp_path):
        cfgp = _write_small_config(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", str(cfgp), "--sweep", "streaming",
                       "--values", "1,2", "--draws", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 3  # header + 2 sweep points
        # integer values stay integers in the header's config record
        assert '"values": [1, 2]' in next(l for l in lines if l.startswith("# config: "))

    def test_overhead_csv(self, tmp_path):
        out = tmp_path / "overhead.csv"
        rc = cli.main(["overhead", "--m", "3", "--n", "8", "--k-range", "4:8",
                       "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "K,centralized_bits,distributed_bits"
        assert len(rows) == 6
        for line in rows[1:]:
            _, cen, dist = line.split(",")
            assert int(cen) > int(dist)

    def test_gap_smoke(self, tmp_path):
        out = tmp_path / "gap.csv"
        rc = cli.main(["gap", "--instances", "2", "--seed", "0",
                       "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 3

    def test_error_reporting(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("unknown_thing: 1\n")
        rc = cli.main(["solve", "--config", str(bad)])
        assert rc == 2
        assert "unknown_thing" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("sweep", "values: 5\n", "values"),
        ("solve", "arrival_rate: -1\n", "arrival_rate"),
        # the same checks on the command-line flags, without a config file
        ("sweep --values a,b", None, "values"),
        ("overhead --k-range 4", None, "k_range"),
        ("overhead --k-range 8:4", None, "k_range"),
        ("sweep --sweep users --values 3,2.5", None, "values"),
        ("sweep --sweep lpn", "values: [1, 1.5]\n", "values"),
        ("sweep --draws 0", None, "draws"),
        ("sweep --draws -2", None, "draws"),
        ("sweep --workers 0", None, "workers"),
        # a negative box budget would certify local == global without a box
        ("gap --budget -3", None, "max_iter"),
        # a negative count used to write a header-only CSV and exit 0
        ("gap --instances -2", None, "instances"),
        # nonsense networks used to build one head, end in a traceback
        # (IndexError, ZeroDivisionError, an infinite traffic figure) or
        # silently ignore the head count
        ("overhead --m 0", None, "m_f"),
        ("overhead --m -3", None, "m_f"),
        ("solve", "architecture: cran\nm_f: -1\n", "m_f"),
        ("overhead --streaming -1", None, "k_streaming"),
        # a negative user count used to read "more streaming users than users"
        ("solve", "users: -1\n", "k_total"),
        ("solve", "users: 0\nstreaming_users: 0\n", "k_total"),
        ("solve", "n_subcarriers: 0\n", "n_subcarriers"),
        ("overhead --n 0", None, "n_subcarriers"),
        ("sweep --arch hcn --sweep lpn --values 1,4 --draws 1", None, "m_f"),
        ("solve", "architecture: hpn1\nm_f: 3\n", "m_f"),
        ("solve", "arrival_rate: .inf\n", "arrival_rate"),
        ("solve", "queue_packets: .inf\n", "queue_packets"),
        # a negative seed used to die in numpy
        ("solve --seed -1", None, "seed"),
        ("sweep --seed -1", None, "seed"),
        ("sweep", "seed: -2\n", "seed"),
        ("gap --seed -1", None, "seed"),
    ])
    def test_bad_values_and_traffic_reported(self, tmp_path, capsys, command, text, key):
        argv = command.split()
        if text is not None:
            bad = tmp_path / "bad.yaml"
            bad.write_text(text)
            argv += ["--config", str(bad)]
        assert cli.main(argv) == 2
        assert f"error: {key}" in capsys.readouterr().err

    def test_fractional_head_count_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("m_f: 2.5\n")
        assert cli.main(["solve", "--config", str(bad)]) == 2
        assert "m_f" in capsys.readouterr().err

    def test_oracle_refusal_reported(self, capsys):
        # the default network has 3**12 head assignments, beyond the oracle
        assert cli.main(["solve", "--solver", "polyblock"]) == 2
        assert "head assignments" in capsys.readouterr().err
