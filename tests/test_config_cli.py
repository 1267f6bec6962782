"""Config schema, layering, hashing, and the command-line front end."""

import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from weakslit import ConfigError, PRESETS, from_dict, parse_config
from weakslit.cli import main
from weakslit.config import DEFAULTS, merge, parse_override

TWO_PI = 2.0 * math.pi


class TestDefaultsAndPresets:
    def test_default_scenario(self):
        cfg = from_dict({})
        assert cfg.data["channel"]["kind"] == "identity"
        assert cfg.eraser() == "none"
        grid = cfg.sim_grid()
        assert grid.n_points == 16384 and grid.x_extent == 64.0
        assert cfg.window_indices() == range(-7, 8)
        assert cfg.pointer.window().index == -1

    def test_window_width_crosses_unit_systems(self):
        cfg = from_dict({})
        lab = cfg.data["lab"]
        sliver = cfg.data["windows"]["sliver_width"]
        sep = cfg.data["geometry"]["separation"]
        expected = TWO_PI * sliver * sep / (lab["wavelength"]
                                            * lab["focal_length"])
        assert cfg.window_width_internal() == pytest.approx(expected,
                                                            rel=1e-12)
        # a shade under a quarter of the fringe spacing
        assert cfg.window_width_internal() / TWO_PI == pytest.approx(
            0.2237, abs=1e-4)

    def test_paper_preset_toggles_the_marker_only(self):
        cfg = from_dict(PRESETS["paper"])
        assert cfg.data["channel"]["kind"] == "scully"
        geom = cfg.geometry
        assert geom.width == pytest.approx(0.5)
        assert geom.separation == 1.0
        base = {k: v for k, v in cfg.data.items() if k != "channel"}
        assert base == {k: v for k, v in from_dict({}).data.items()
                        if k != "channel"}

    def test_regularization_sweeps_fill_in(self):
        reg = from_dict({}).regularization
        assert len(reg.q_max) == 48
        assert reg.q_max[0] == pytest.approx(0.5)
        assert reg.q_max[-1] == pytest.approx(4.0 * TWO_PI)
        assert reg.kappa == tuple(TWO_PI * k for k in (1.0, 2.0, 4.0, 8.0, 16.0))
        explicit = from_dict({"regularization": {"q_max": [1.0, 2.0]}})
        assert explicit.regularization.q_max == (1.0, 2.0)

    def test_defaults_are_not_mutated_by_merging(self):
        before = json.dumps(DEFAULTS, sort_keys=True)
        from_dict({"grid": {"n_points": 1024}})
        assert json.dumps(DEFAULTS, sort_keys=True) == before


class TestValidation:
    def test_unknown_key_reports_dotted_path(self):
        with pytest.raises(ConfigError, match="windows.widht"):
            from_dict({"windows": {"widht": 3}})

    @pytest.mark.parametrize("overrides", [
        {"lab": {"wavelength": -1.0}},
        {"lab": {"wavelength": "red"}},
        {"geometry": {"width": 90e-6}},          # wider than the separation
        {"geometry": {"edge_profile": "soft"}},
        {"grid": {"n_points": 1000}},            # not a power of two
        {"grid": {"n_points": 4}},
        {"channel": {"kind": "teleport"}},
        {"channel": {"kind": "kick"}},           # kicks list left empty
        {"channel": {"kind": "kick", "kicks": [[1.0, 0.5, 0.2]]}},
        {"windows": {"count": 4}},
        {"windows": {"count": -3}},
        {"windows": {"focus_index": 1.5}},
        {"eraser": "maybe"},
        {"pointer": {"ratios": []}},
        {"pointer": {"ratios": [1.5]}},
        {"pointer": {"ratios": [0.0]}},
        {"pointer": {"ratios": [0.1]}},          # a sweep needs two ratios
        {"pointer": {"ratios": [0.1, 0.1]}},
        {"grid": {"x_extent": math.inf}},
        {"lab": {"focal_length": math.nan}},
        {"regularization": {"q_max": [-1.0]}},
        {"output_dir": ""},
        {"regularization": {"q_max": [math.nan]}},
        {"regularization": {"kappa": [math.nan]}},
        {"regularization": {"kappa": [math.inf]}},
        {"regularization": {"q_max": [True]}},
        {"grid": {"n_points": 2 ** 23}},         # above the 2^22 cap
        {"windows": {"count": True}},
        {"windows": {"focus_index": True}},
        {"pointer": {"ratios": [True, 0.5]}},
        {"geometry": {"separation": 0}},
        {"geometry": {"separation": -8e-5}},
        {"grid": {"n_points": 1024}, "windows": {"count": 1025}},
        {"grid": {"x_extent": 1.5}},             # slits reach the grid edge
        {"channel": {"kind": "kick", "kicks": "[[0.5, 1]]"}},
        {"windows": {"focus_index": 10 ** 400}},  # not representable as a float
    ])
    def test_rejected(self, overrides):
        with pytest.raises(ConfigError):
            from_dict(overrides)

    @pytest.mark.parametrize("overrides, key", [
        ({"geometry": {"separation": 0}}, "lab"),
        ({"grid": {"x_extent": 1.5}}, "geometry"),
        ({"geometry": {"edge_profile": "soft"}}, "geometry"),
        ({"grid": {"n_points": 1000}}, "grid"),
        ({"channel": {"kind": "kick", "kicks": [[1.0, 0.5, 0.2]]}}, "channel"),
        ({"eraser": "maybe"}, "eraser"),
        ({"pointer": {"sigma": -1.0}}, "pointer"),
        ({"regularization": {"kappa": [-1.0]}}, "regularization"),
    ])
    def test_constructor_errors_carry_their_key(self, overrides, key):
        with pytest.raises(ConfigError, match=f"^'{key}': "):
            from_dict(overrides)

    def test_scenario_objects_are_built_from_the_data(self):
        cfg = from_dict(PRESETS["paper"])
        assert cfg.grid is cfg.sim_grid() and cfg.state.grid is cfg.grid
        assert cfg.channel.name == "scully_wwm" and cfg.channel.grid is cfg.grid
        assert cfg.lab.slit_separation == 80e-6
        assert cfg.pointer.index == -1 and cfg.pointer.lab is cfg.lab


class TestParsingAndOverrides:
    def test_empty_document_means_defaults(self):
        assert parse_config(" \n ").data == from_dict({}).data

    def test_bad_json_is_a_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("{ nope")
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")

    def test_override_parses_json_values(self):
        assert parse_override("grid.n_points=1024") \
            == {"grid": {"n_points": 1024}}
        raw = merge(DEFAULTS, parse_override("grid.n_points=1024"))
        raw = merge(raw, parse_override("regularization.q_max=[1.0, 2.5]"))
        assert raw["grid"] == {"n_points": 1024, "x_extent": 64.0}
        assert raw["regularization"]["q_max"] == [1.0, 2.5]

    def test_override_falls_back_to_bare_string(self):
        assert parse_override("eraser=plus45") == {"eraser": "plus45"}

    def test_override_error_paths(self):
        with pytest.raises(ConfigError, match="crosses a scalar"):
            merge({"eraser": "none"}, parse_override("eraser.kind=1"))
        with pytest.raises(ConfigError, match="'grid' must be an object"):
            merge(DEFAULTS, parse_override("grid=5"))
        with pytest.raises(ConfigError, match="'grid.widht'"):
            merge(DEFAULTS, parse_override("grid.widht=5"))
        with pytest.raises(ConfigError):
            parse_override("no-equals-sign")


class TestConfigHash:
    def test_ignores_output_destination(self):
        assert from_dict({}).config_hash() \
            == from_dict({"output_dir": "elsewhere"}).config_hash()

    def test_sensitive_to_physics(self):
        assert from_dict({}).config_hash() \
            != from_dict({"grid": {"n_points": 8192}}).config_hash()

    def test_insensitive_to_key_order(self):
        a = parse_config('{"grid": {"x_extent": 64.0, "n_points": 16384}}')
        b = parse_config('{"grid": {"n_points": 16384, "x_extent": 64.0}}')
        assert a.config_hash() == b.config_hash()


FAST = ["--set", "grid.n_points=1024"]


class TestCliRuns:
    def test_wvp_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["wvp", "--out", str(out)] + FAST) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["intensity.csv", "summary.json", "wvp.csv", "wvp.svg"]

        header = (out / "wvp.csv").read_text().splitlines()[0]
        assert header == ("p_f [hbar/s],p_f_lab [mm],conditional [1],"
                          "joint [s/hbar],defined [0/1]")

        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "wvp"
        sha = summary["provenance"]["config_sha256"]
        assert len(sha) == 64 and int(sha, 16) >= 0
        assert summary["provenance"]["grid_n_points"] == 1024

        ET.fromstring((out / "wvp.svg").read_text())
        printed = capsys.readouterr().out.splitlines()
        assert sorted(printed) == sorted(str(out / n) for n in names)

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["wvp", "--preset", "paper"] + FAST
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for path in sorted(out1.iterdir()):
            assert path.read_bytes() == (out2 / path.name).read_bytes()

    def test_preset_equals_explicit_override(self, tmp_path):
        out1, out2 = tmp_path / "preset", tmp_path / "setkey"
        assert main(["wvp", "--preset", "paper", "--out", str(out1)]
                    + FAST) == 0
        assert main(["wvp", "--set", "channel.kind=scully", "--out", str(out2)]
                    + FAST) == 0
        assert (out1 / "summary.json").read_bytes() \
            == (out2 / "summary.json").read_bytes()

    def test_config_file_layers_between_preset_and_set(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(
            {"channel": {"kind": "identity"}, "windows": {"count": 5}}))
        out = tmp_path / "out"
        assert main(["wvp", "--preset", "paper", "--config", str(cfg),
                     "--set", "windows.count=3", "--out", str(out)]
                    + FAST) == 0
        summary = json.loads((out / "summary.json").read_text())
        # file overrode the preset's channel; --set overrode the file's count
        ref = tmp_path / "ref"
        assert main(["wvp", "--set", "windows.count=3", "--out", str(ref)]
                    + FAST) == 0
        assert (out / "summary.json").read_bytes() \
            == (ref / "summary.json").read_bytes()
        assert summary["summary"]["window_index"] == -1

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "weakslit", "wvp",
             "--out", str(tmp_path / "m")] + FAST,
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestCliExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        rc = main(["wvp", "--set", "nope.key=1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_override(self, tmp_path):
        assert main(["wvp", "--set", "no-equals",
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{ not json")
        assert main(["wvp", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["transfer", "--set", "channel.kind=kick",
         "--set", 'channel.kicks=[["a",1]]'],
        ["transfer", "--set", "channel.kind=kick",
         "--set", "channel.kicks=[[Infinity,1]]"],
        ["wvp", "--set", "grid.x_extent=Infinity"],
        ["sweep", "--preset", "paper", "--set", "pointer.ratios=[0.1]"],
        ["transfer", "--set", "windows.count=true"],
        ["wvp", "--set", "windows.focus_index=true"],
        ["sweep", "--set", "pointer.ratios=[true,0.5]"],
        ["wvp", "--set", "geometry.separation=0"],
        ["wvp", "--set", "geometry.separation=-8e-5"],
        ["wvp", "--set", "grid.x_extent=1.5"],
        # refused by validation; running it would cost memory in the count
        ["transfer", "--set", "grid.n_points=1024",
         "--set", "windows.count=400001"],
    ])
    def test_rejected_values(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pointer", "sweep"])
    @pytest.mark.parametrize("override, code", [
        ("pointer.sigma=1e-300", 0),
        ("pointer.sigma=1e-320", 2),
        ("pointer.displacement=1e-300", 0),
    ])
    def test_extreme_pointer_scales(self, tmp_path, capsys, command,
                                    override, code):
        assert main([command, "--preset", "paper", "--set", override,
                     "--out", str(tmp_path / "x")]) == code
        if code == 2:
            assert "config error: 'pointer': " in capsys.readouterr().err

    def test_aliased_kick_is_refused(self, tmp_path, capsys):
        assert main(["transfer", "--set", "channel.kind=kick",
                     "--set", "channel.kicks=[[1e300,1]]",
                     "--set", "grid.n_points=1024",
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error: 'channel': " in capsys.readouterr().err

    def test_smoothed_edge_wraparound_is_refused(self, tmp_path, capsys):
        assert main(["variance", "--set",
                     "geometry.edge_profile=gaussian_smoothed",
                     "--set", "geometry.edge_scale=1e-3",
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error: 'geometry': " in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "regularization.kappa=[NaN]",
        "regularization.q_max=[NaN]",
        "regularization.q_max=[true]",
        "regularization.kappa=[true]",
        # refused by validation, before any array is allocated
        "grid.n_points=1073741824",
    ])
    def test_rejected_sweeps_and_grid_size(self, tmp_path, capsys, override):
        assert main(["variance", "--set", override,
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    @pytest.mark.parametrize("override", [
        "regularization.q_max=[1.0]",
        "regularization.q_max=[2.0, 2.0]",
        "regularization.kappa=[6.0]",
    ])
    def test_one_point_sweep_plots(self, tmp_path, override):
        out = tmp_path / "x"
        assert main(["variance", "--set", override, "--out", str(out)]) == 0
        for name in ("variance_sharp.svg", "variance_apodized.svg"):
            ET.fromstring((out / name).read_text())

    def test_window_outside_grid_range(self, tmp_path, capsys):
        rc = main(["wvp", "--preset", "paper",
                   "--set", "windows.focus_index=100000",
                   "--out", str(tmp_path / "x")] + FAST)
        assert rc == 3
        assert "outside the simulated momentum range" \
            in capsys.readouterr().err

    def test_unresolvable_window_width(self, tmp_path, capsys):
        rc = main(["wvp", "--set", "windows.sliver_width=1e-9",
                   "--out", str(tmp_path / "x")] + FAST)
        assert rc == 3
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    def test_cutoff_beyond_grid_range(self, tmp_path):
        assert main(["variance", "--set", "regularization.q_max=[99999]",
                     "--out", str(tmp_path / "x")] + FAST) == 3

    def test_unwritable_output_directory(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        rc = main(["wvp", "--out", str(blocker / "sub")] + FAST)
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["wvp", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x")]) == 4

    def test_unknown_preset_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["wvp", "--preset", "imaginary",
                  "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
