"""Config schema, layering, hashing, and the command-line front end."""

import io
import json
import math
import os
import resource
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.constants as const

from weakslit import ConfigError, PRESETS, from_dict
from weakslit.cli import console_entry, main
from weakslit.config import (DEFAULTS, merge, parse_json_object,
                             parse_override)
from weakslit.runner import COMMANDS, run

from conftest import run_python, strict_json

TWO_PI = 2.0 * math.pi

FAST = ["--set", "grid.n_points=1024"]

#: The first line of each command's CSV tables.
CSV_HEADERS = {
    "wvp.csv": "p_f [hbar/s],p_f_lab [mm],conditional [1],joint [s/hbar],"
               "defined [0/1]",
    "intensity.csv": "p_f [hbar/s],p_f_lab [mm],input_density [s/hbar],"
                     "output_density [s/hbar]",
    "transfer.csv": "q [hbar/s],q_lab [mm],density [s/hbar]",
    "variance_sharp.csv": "q_max [hbar/s],value [(hbar/s)^2]",
    "variance_apodized.csv": "kappa [hbar/s],value [(hbar/s)^2]",
    "eraser_curves.csv": "p_f [hbar/s],p_f_lab [mm],plus45 [1],"
                         "plus45_defined [0/1],minus45 [1],"
                         "minus45_defined [0/1]",
    "eraser_joint.csv": "p_f [hbar/s],joint_none [s/hbar],"
                        "joint_plus45 [s/hbar],joint_minus45 [s/hbar]",
    "pointer.csv": "p_f [hbar/s],p_f_lab [mm],estimate [1],"
                   "estimate_defined [0/1],analytic [1],"
                   "analytic_defined [0/1]",
    "sweep.csv": "ratio [1],max_abs_error [1]",
}

#: The sorted keys of each command's ``summary`` in summary.json.
SUMMARY_KEYS = {
    "wvp": ["conditional_max", "conditional_min", "eraser", "in_window_max",
            "in_window_min", "window_index", "window_width"],
    "transfer": ["coverage", "density_max", "density_min", "eraser",
                 "integral", "mass_outside_hbar_over_s", "n_windows",
                 "roundoff_floor", "window_width"],
    "variance": ["apodized_last_gap", "apodized_trend", "coverage",
                 "largest_kappa", "largest_kappa_value", "roundoff_floor",
                 "sign_changes", "window_variance_continuum",
                 "window_variance_lattice"],
    "eraser": ["out_of_window_mass_minus45", "out_of_window_mass_none",
               "out_of_window_mass_plus45", "partition_max_abs",
               "plus45_indicator_max_dev", "window_index"],
    "pointer": ["marginal_max_abs_dev", "max_abs_dev_vs_analytic", "ratio",
                "window_index", "window_width"],
    "sweep": ["errors", "monotone_decreasing", "ratios", "roundoff_floor",
              "slope_smallest_pair"],
}

#: A list nested 600 deep, which ``json.loads`` still parses.
DEEP = "[" * 600 + "]" * 600


class TestDefaultsAndPresets:
    def test_default_scenario(self):
        cfg = from_dict({})
        assert cfg.data["channel"]["kind"] == "identity"
        assert cfg.eraser == "none"
        grid = cfg.grid
        assert grid.n_points == 16384 and grid.x_extent == 64.0
        assert cfg.indices == range(-7, 8)
        assert cfg.focus_index == -1
        assert cfg.ratio == pytest.approx(0.14 / 1.01, rel=1e-12)
        assert cfg.ratios == (0.3, 0.139, 0.05, 0.01, 0.001)

    def test_window_width_crosses_unit_systems(self):
        cfg = from_dict({})
        lab = cfg.data["lab"]
        sliver = cfg.data["windows"]["sliver_width"]
        sep = cfg.data["geometry"]["separation"]
        expected = TWO_PI * sliver * sep / (lab["wavelength"]
                                            * lab["focal_length"])
        assert cfg.window_width == pytest.approx(expected, rel=1e-12)
        # a shade under a quarter of the fringe spacing
        assert cfg.window_width / TWO_PI == pytest.approx(
            0.2237, abs=1e-4)

    def test_paper_preset_toggles_the_marker_only(self):
        cfg = from_dict(PRESETS["paper"])
        assert cfg.data["channel"]["kind"] == "scully"
        assert cfg.slit_width == pytest.approx(0.5)
        # the separation, in metres, is the internal length unit
        assert cfg.slit_width == (cfg.data["geometry"]["width"]
                                  / cfg.data["geometry"]["separation"])
        base = {k: v for k, v in cfg.data.items() if k != "channel"}
        assert base == {k: v for k, v in from_dict({}).data.items()
                        if k != "channel"}

    def test_regularization_sweeps_fill_in(self):
        cfg = from_dict({})
        assert len(cfg.q_max) == 48
        assert cfg.q_max[0] == pytest.approx(0.5)
        assert cfg.q_max[-1] == pytest.approx(4.0 * TWO_PI)
        assert cfg.kappa == tuple(TWO_PI * k for k in (1.0, 2.0, 4.0, 8.0, 16.0))
        explicit = from_dict({"regularization": {"q_max": [1.0, 2.0]}})
        assert explicit.q_max == (1.0, 2.0)

    def test_default_sweeps_keep_a_point_on_the_coarsest_grid(self):
        """A slit exactly 2 dx wide, as wide as a float below 1 allows:
        the coarsest grid a slit accepts.  Its |q| range pi/dx still
        reaches 2 pi, the smallest default kappa, so neither default
        sweep comes out empty.  A window of 2 pi hbar/s fits its
        momentum range 2 pi/dx = 4 pi."""
        width = math.nextafter(1.0, 0.0)
        cfg = from_dict({"geometry": {"width": width, "separation": 1.0},
                         "grid": {"n_points": 16, "x_extent": 8.0 * width},
                         "windows": {"sliver_width": 633e-9}})
        assert 2.0 * cfg.grid.dx == cfg.slit_width == width
        assert cfg.kappa == (TWO_PI,)
        assert cfg.q_max

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    def test_defaults_are_not_mutated_by_merging(self, tmp_path):
        """A merged config shares its values with ``DEFAULTS``; no
        command may change them."""
        before = json.dumps(DEFAULTS, sort_keys=True)
        from_dict({"grid": {"n_points": 1024}})
        for command in sorted(COMMANDS):
            assert main([command, "--out", str(tmp_path), "--set",
                         "grid.x_extent=16"] + FAST) == 0
        assert json.dumps(DEFAULTS, sort_keys=True) == before


class TestLabUnits:
    """The config converts lab lengths once: the momentum h/s, 2 pi
    internal, lands one fringe period f * wavelength / s out."""

    PERIOD = 1.0 * 633e-9 / 80e-6

    @pytest.fixture(scope="class")
    def cfg(self):
        return from_dict({"grid": {"n_points": 1024}})

    def test_fringe_period_is_f_lambda_over_s(self, cfg):
        assert cfg.window_width == pytest.approx(
            1.77e-3 * TWO_PI / self.PERIOD, rel=1e-15)
        # h/s = 2 pi internal lands exactly one fringe out
        assert TWO_PI * cfg.mm_per_unit == pytest.approx(self.PERIOD * 1e3,
                                                         rel=1e-15)

    def test_unit_round_trip(self, cfg):
        """The sliver in hbar/s maps back to its width on the detector."""
        assert cfg.window_width * cfg.mm_per_unit * 1e-3 == pytest.approx(
            cfg.data["windows"]["sliver_width"], rel=1e-12)

    def test_scalar_in_scalar_out(self, cfg):
        assert type(cfg.window_width) is float
        assert type(cfg.mm_per_unit) is float

    def test_effective_mass_and_window_relation(self, cfg):
        """The sliver width maps to (m c / f) * delta of physical momentum,
        with the photon's effective mass m = h / (c * wavelength)."""
        lab = cfg.data["lab"]
        mass = const.h / (const.c * lab["wavelength"])
        delta = cfg.data["windows"]["sliver_width"]
        width_physical = (cfg.window_width * const.hbar
                          / cfg.data["geometry"]["separation"])
        assert width_physical == pytest.approx(
            mass * const.c * delta / lab["focal_length"], rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        {"lab": {"wavelength": 0.0}},
        {"lab": {"focal_length": -1.0}},
        {"geometry": {"separation": 0.0}},
        # a fringe period f * wavelength / s that overflows to inf
        {"lab": {"wavelength": 1e-3, "focal_length": 1e308}},
    ])
    def test_rejects_nonpositive_lengths(self, overrides):
        with pytest.raises(ConfigError, match="^'lab': "):
            from_dict(overrides)


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
        {"output_dir": json.loads(DEEP)},
        # Python prints no int of over 4,300 digits, so a message that
        # shows one raised ValueError.
        {"grid": {"x_extent": 10 ** 5000}},
        {"windows": {"count": 10 ** 5000}},
        {"grid": {"x_extent": [10 ** 5000]}},
        {"channel": {"kind": "kick", "kicks": [[10 ** 5000, 1]]}},
        {"channel": {"kind": "kick", "kicks": [[1, 10 ** 5000]]}},
        {"channel": {"kind": "kick", "kicks": [[10 ** 5000]]}},
        {"channel": {"kind": 10 ** 5000}},
        {"eraser": 10 ** 5000},
        {"geometry": {"edge_profile": 10 ** 5000}},
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
        ({"pointer": {"sigma": 0.0}}, "pointer"),
        ({"pointer": {"displacement": -1e-4}}, "pointer"),
        # D/sigma is not a finite number
        ({"pointer": {"sigma": 1e-320, "displacement": 1e-4}}, "pointer"),
        ({"pointer": {"sigma": 5e-324, "displacement": 1.0}}, "pointer"),
        ({"pointer": {"sigma": 1e-300, "displacement": 1e300}}, "pointer"),
        ({"windows": {"sliver_width": 0.0}}, "windows"),
        ({"windows": {"sliver_width": 1e308}}, "windows"),
        ({"lab": {"wavelength": 1e-320}}, "windows"),
        ({"lab": {"wavelength": 1e-300, "focal_length": 1e-300}}, "lab"),
        ({"regularization": {"kappa": [-1.0]}}, "regularization"),
        ({"regularization": {"q_max": [1.0, -2.0]}}, "regularization"),
        ({"regularization": {"kappa": [0.0]}}, "regularization"),
        ({"geometry": {"width": 90e-6}}, "geometry"),
        ({"geometry": {"width": 80e-6}}, "geometry"),
        # sharp edges have no edge scale to set
        ({"geometry": {"edge_scale": 5e-6}}, "geometry"),
        ({"windows": {"count": 4}}, "windows"),
        ({"pointer": {"ratios": [0.1, 0.1]}}, "pointer"),
        ({"pointer": {"ratios": [True, 0.5]}}, "pointer"),
        ({"regularization": {"q_max": [math.nan]}}, "regularization"),
    ])
    def test_constructor_errors_carry_their_key(self, overrides, key):
        with pytest.raises(ConfigError, match=f"^'{key}': "):
            from_dict(overrides)

    def test_a_window_may_span_the_momentum_range_but_no_more(self):
        """1024 points over 64 separations simulate a momentum range of
        n dp = 2 pi/dx = 32 pi hbar/s, which a sliver of 16 fringe
        periods spans; a wider window holds every sample."""
        small = {"grid": {"n_points": 1024}}
        edge = 16.0 * (1.0 * 633e-9 / 80e-6)
        inside = from_dict(dict(small, windows={
            "sliver_width": edge * (1.0 - 1e-12)}))
        span = inside.grid.n_points * inside.grid.dp
        assert span * (1.0 - 1e-11) < inside.window_width <= span
        with pytest.raises(ConfigError, match="^'windows': .* wider than "
                                              "the simulated momentum range"):
            from_dict(dict(small, windows={
                "sliver_width": edge * (1.0 + 1e-12)}))

    @pytest.mark.parametrize("command", [
        "teleport", None, pytest.param(10 ** 5000, id="5001-digits")])
    def test_unknown_command_is_a_config_error(self, command):
        cfg = from_dict({"grid": {"n_points": 1024}})
        with pytest.raises(ConfigError, match="^unknown command .*; "
                           "expected one of"):
            run(cfg, command)

    def test_scenario_objects_are_built_from_the_data(self):
        cfg = from_dict(PRESETS["paper"])
        assert cfg.state.grid is cfg.grid
        assert cfg.channel.name == "scully_wwm" and cfg.channel.grid is cfg.grid
        assert cfg.mm_per_unit == pytest.approx(
            1.0 * 633e-9 / 80e-6 / TWO_PI * 1e3, rel=1e-15)
        assert cfg.output_dir == DEFAULTS["output_dir"]

    @pytest.mark.parametrize("overrides", [[], None, "grid"])
    def test_config_root_must_be_a_dict(self, overrides):
        with pytest.raises(ConfigError,
                           match="^config root must be a JSON object$"):
            from_dict(overrides)


def parse_config(text: str):
    return from_dict(parse_json_object(text, "config"))


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


#: ``from_dict({}).config_hash()``, as every earlier version wrote it.
DEFAULT_DIGEST = \
    "7d1e4e434168a60a75e4aa539eca6672e6cb3d4accc65295377b1a55bf6c2b28"


class TestConfigHash:
    def test_default_digest_is_pinned(self):
        assert from_dict({}).config_hash() == DEFAULT_DIGEST

    def test_hashlib_fallback_gives_the_same_digest(self):
        """Without CPython's built-in SHA-256 module the digest comes
        from hashlib, and is the same."""
        code = ("import sys; "
                "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
                "from weakslit import from_dict; "
                "print(from_dict({}).config_hash(), 'hashlib' in sys.modules)")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [DEFAULT_DIGEST, "True"]

    def test_ignores_output_destination(self):
        assert from_dict({}).config_hash() \
            == from_dict({"output_dir": "elsewhere"}).config_hash()

    def test_sensitive_to_physics(self):
        assert from_dict({}).config_hash() \
            != from_dict({"grid": {"n_points": 8192}}).config_hash()

    def test_numpy_scalars_hash_as_their_values(self):
        """from_dict takes numpy scalars where it takes numbers; they
        hash as the Python numbers they hold."""
        plain = {"grid": {"n_points": 1024}, "windows": {"count": 3},
                 "geometry": {"width": 0.25 * 2 ** -12},
                 "channel": {"kind": "kick", "kicks": [[1, 0.5], [-1, 0.5]]}}
        scalars = {"grid": {"n_points": np.int64(1024)},
                   "windows": {"count": np.int64(3)},
                   "geometry": {"width": np.float32(0.25 * 2 ** -12)},
                   "channel": {"kind": "kick", "kicks": [
                       [np.int64(1), np.float32(0.5)],
                       [np.int64(-1), np.float32(0.5)]]}}
        assert from_dict(scalars).config_hash() \
            == from_dict(plain).config_hash()

    def test_insensitive_to_key_order(self):
        a = parse_config('{"grid": {"x_extent": 64.0, "n_points": 16384}}')
        b = parse_config('{"grid": {"n_points": 16384, "x_extent": 64.0}}')
        assert a.config_hash() == b.config_hash()

    def test_a_value_too_deep_to_hash_is_a_config_error(self):
        """A ``channel.kicks`` list nested deeper than the digest's
        encoder recurses is refused when the scenario is built, before
        its digest is taken: a kind other than ``kick`` takes no kicks."""
        kicks = []
        for _ in range(1200):
            kicks = [kicks]
        with pytest.raises(ConfigError, match="^'channel': kicks apply to "
                           "the kick channel only$"):
            from_dict({"channel": {"kicks": kicks}})

    @pytest.mark.parametrize("kicks", [
        pytest.param([10 ** 5000], id="5001-digits"),
        pytest.param([object()], id="object"),
        pytest.param([{(1, 2): 3}], id="tuple-key")])
    @pytest.mark.parametrize("kind", ["identity", "scully"])
    def test_kicks_under_a_kind_that_reads_none_are_refused(self, kind,
                                                           kicks):
        """No value the digest cannot encode gets past its key."""
        with pytest.raises(ConfigError, match="^'channel': kicks apply"):
            from_dict({"channel": {"kind": kind, "kicks": kicks}})


class TestCliRuns:
    def test_commands_leave_heavy_modules_unloaded(self, tmp_path):
        """No command maps OpenSSL (``_hashlib``, about 3.5 MiB), imports
        ``numpy.ma`` or needs scipy, a test dependency only.  The records
        are plain classes, so no command loads ``dataclasses`` or
        ``copy`` or pays for generating methods at start-up."""
        code = ("import sys; from weakslit import cli\n"
                f"for command in {sorted(COMMANDS)!r}:\n"
                "    assert cli.main([command, '--preset', 'paper', '--set', "
                f"'grid.n_points=4096', '--out', {str(tmp_path)!r}]) == 0\n"
                "print(' '.join(sorted(sys.modules)))")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.splitlines()[-1].split()
        assert "weakslit.runner" in loaded
        assert [m for m in loaded if m in ("_hashlib", "dataclasses", "copy")
                or m.split(".")[0] == "scipy"
                or m == "numpy.ma" or m.startswith("numpy.ma.")] == []

    def test_wvp_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["wvp", "--out", str(out)] + FAST) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["intensity.csv", "summary.json", "wvp.csv", "wvp.svg"]

        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "wvp"
        sha = summary["provenance"]["config_sha256"]
        assert len(sha) == 64 and int(sha, 16) >= 0
        assert summary["provenance"]["grid_n_points"] == 1024

        ET.fromstring((out / "wvp.svg").read_text())
        printed = capsys.readouterr().out.splitlines()
        assert sorted(printed) == sorted(str(out / n) for n in names)

    @pytest.mark.parametrize("command, names", [
        ("transfer", ["summary.json", "transfer.csv", "transfer.svg"]),
        ("variance", ["summary.json", "variance_apodized.csv",
                      "variance_apodized.svg", "variance_sharp.csv",
                      "variance_sharp.svg"]),
        ("eraser", ["eraser.svg", "eraser_curves.csv", "eraser_joint.csv",
                    "summary.json"]),
        ("pointer", ["pointer.csv", "pointer.svg", "summary.json"]),
        ("sweep", ["summary.json", "sweep.csv", "sweep.svg"]),
        ("wvp", ["intensity.csv", "summary.json", "wvp.csv", "wvp.svg"]),
    ])
    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    def test_each_command_writes_its_file_set(self, tmp_path, capsys,
                                              command, names):
        """Each command writes exactly its tables, each under its own
        header, its summary with exactly its keys and one well-formed SVG
        per figure, and prints every path it wrote."""
        out = tmp_path / "run"
        assert main([command, "--out", str(out)] + FAST) == 0
        assert sorted(p.name for p in out.iterdir()) == names
        document = strict_json((out / "summary.json").read_text())
        assert sorted(document) == ["command", "provenance", "summary"]
        assert sorted(document["summary"]) == SUMMARY_KEYS[command]
        for name in names:
            if name.endswith(".svg"):
                ET.fromstring((out / name).read_text())
            if name.endswith(".csv"):
                with open(out / name, encoding="utf-8") as table:
                    assert table.readline() == CSV_HEADERS[name] + "\n"
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
        """``python -m weakslit`` prints every file it wrote and writes
        the same bytes as an in-process ``main``."""
        args = ["pointer", "--preset", "paper"] + FAST
        out, ref = tmp_path / "m", tmp_path / "ref"
        proc = run_python("-m", "weakslit", *args, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in out.iterdir())
        assert sorted(proc.stdout.splitlines()) \
            == sorted(str(out / n) for n in names)
        assert main(args + ["--out", str(ref)]) == 0
        assert names == sorted(p.name for p in ref.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes()


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

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["wvp", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"config error: {cfg} is not UTF-8" \
            in capsys.readouterr().err

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        deep = "[" * 100000
        cfg = tmp_path / "deep.json"
        cfg.write_text(deep)
        assert main(["wvp", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"config error: {cfg} nests too deeply" \
            in capsys.readouterr().err
        assert main(["wvp", "--set", "grid=" + deep,
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error: override 'grid' nests too deeply" \
            in capsys.readouterr().err

    def test_deepest_accepted_override_never_raises(self, tmp_path, capsys):
        """The deepest ``channel.kicks`` list the CLI parses: the paper
        preset's channel takes no kicks, so the run exits 2 naming
        ``'channel'``, never with an exception out of ``main``.

        The depth depends on the stack in use, so it is searched for
        with ``main`` itself: an unknown key set after the list is
        reported only when the list parsed.
        """
        def nested(depth):
            return "channel.kicks=" + "[" * depth + "]" * depth

        accepted, refused = 1, 100000
        while refused - accepted > 1:
            depth = (accepted + refused) // 2
            assert main(["wvp", "--set", nested(depth), "--set", "nope=1",
                         "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            if "unknown config key 'nope'" in err:
                accepted = depth
            else:
                assert "override 'channel.kicks' nests too deeply" in err
                refused = depth
        assert main(["wvp", "--preset", "paper", "--set", nested(accepted),
                     "--out", str(tmp_path / "x")] + FAST) == 2
        assert capsys.readouterr().err.startswith(
            "config error: 'channel': kicks apply to the kick channel only")

    def test_integer_too_long_to_parse(self, tmp_path, capsys):
        """Python parses no integer literal of over 4,300 digits; one in
        a config file or a --set value is a config error at its source."""
        long = "1" + "0" * 5000
        cfg = tmp_path / "long.json"
        cfg.write_text('{"grid": {"n_points": %s}}' % long)
        assert main(["wvp", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"config error: {cfg} holds an integer too long to parse" \
            in capsys.readouterr().err
        assert main(["transfer", "--set", "channel.kind=kick",
                     "--set", "channel.kicks=[[%s,1]]" % long,
                     "--out", str(tmp_path / "x")]) == 2
        assert ("config error: override 'channel.kicks' holds an integer "
                "too long to parse") in capsys.readouterr().err

    def test_deeply_nested_value_in_a_config_file(self, tmp_path, capsys):
        """A value nested deeply, but not too deeply to parse, is refused
        at its key."""
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"pointer": {"ratios": %s}}' % DEEP)
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "x")] + FAST) == 2
        assert "config error: 'pointer': " in capsys.readouterr().err

    def test_a_window_wider_than_the_momentum_range(self, tmp_path, capsys):
        """A 1e160 m sliver, 7.9e162 hbar/s, holds every sample; its
        lattice variance, squared with ``**``, raised OverflowError and
        the command exited 1."""
        assert main(["variance", "--preset", "paper",
                     "--set", "windows.sliver_width=1e160",
                     "--out", str(tmp_path / "x")] + FAST) == 2
        assert capsys.readouterr().err.startswith(
            "config error: 'windows': sliver_width 1e+160 m")

    def test_config_file_root_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["wvp", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert (f"config error: {cfg}: config root must be a JSON object"
                in capsys.readouterr().err)

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
        ["wvp", "--preset", "paper", "--set", "geometry.width=90e-6"],
        ["wvp", "--preset", "paper", "--set", "geometry.edge_scale=5e-6"],
        ["wvp", "--set", "grid.x_extent=1.5"],
        # a focus window whose width in hbar/s is not a finite number
        ["wvp", "--preset", "paper", "--set", "windows.sliver_width=1e308"],
        ["wvp", "--preset", "paper", "--set", "lab.wavelength=1e-320"],
        ["transfer", "--set", "windows.sliver_width=1e308"],
        # a fringe period f * wavelength / s that underflows to 0
        ["wvp", "--set", "lab.wavelength=1e-300",
         "--set", "lab.focal_length=1e-300"],
        # refused by validation; running it would cost memory in the count
        ["transfer", "--set", "grid.n_points=1024",
         "--set", "windows.count=400001"],
        # nested deeply, but not too deeply to parse
        ["wvp", "--set", "grid.n_points=1024", "--set", "eraser=" + DEEP],
        ["sweep", "--set", "grid.n_points=1024",
         "--set", "pointer.ratios=" + DEEP],
        ["transfer", "--set", "grid.n_points=1024",
         "--set", "channel.kind=kick", "--set", "channel.kicks=" + DEEP],
        ["wvp", "--set", "grid.n_points=1024",
         "--set", "geometry.edge_profile=" + DEEP],
        ["variance", "--set", "grid.n_points=1024",
         "--set", "regularization.q_max=" + DEEP],
        # a fringe period f * wavelength / s that overflows to inf
        ["wvp", "--set", "lab.focal_length=1e308",
         "--set", "lab.wavelength=1e-3", "--set", "grid.n_points=1024"],
        # a kick q, then a kick prob, that is an integer beyond float range
        ["transfer", "--set", "channel.kind=kick",
         "--set", "channel.kicks=[[1%s,1]]" % ("0" * 400)],
        ["wvp", "--set", "channel.kind=kick",
         "--set", "channel.kicks=[[0,1%s]]" % ("0" * 400)],
        # an empty output directory, like --set output_dir=""
        ["wvp", "--out", ""],
        # slits below 2 position samples: 1, 0.8 and about 1e-297 of one
        ["variance", "--set", "grid.n_points=128",
         "--set", "grid.x_extent=64.0"],
        ["variance", "--set", "grid.n_points=128",
         "--set", "grid.x_extent=80.0"],
        ["transfer", "--set", "grid.x_extent=1e300",
         "--set", "grid.n_points=1024"],
    ])
    def test_rejected_values(self, tmp_path, capsys, monkeypatch, argv):
        """``--out`` goes first, so an ``--out`` in *argv* wins; a
        default output directory would land in *tmp_path*."""
        monkeypatch.chdir(tmp_path)
        command, *rest = argv
        assert main([command, "--out", str(tmp_path / "x"), *rest]) == 2
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
        # a one-point kappa sweep has no last gap: null, not NaN
        strict_json((out / "summary.json").read_text())

    def _variance(self, tmp_path, name, override):
        out = tmp_path / name
        assert main(["variance", "--preset", "paper", "--set", override,
                     "--out", str(out)] + FAST) == 0
        return out, strict_json((out / "summary.json").read_text())["summary"]

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    def test_sharp_cutoffs_are_swept_in_ascending_order(self, tmp_path):
        """The sign count reads the sweep in ascending q_max: given out
        of order, the points were counted as 4 sign changes, not 1."""
        given, summary = self._variance(
            tmp_path, "given", "regularization.q_max=[2,12,4,13,6,8]")
        ordered, ref = self._variance(
            tmp_path, "ordered", "regularization.q_max=[2,4,6,8,12,13]")
        assert summary["sign_changes"] == ref["sign_changes"] == 1
        assert summary == ref
        for name in ("variance_sharp.csv", "variance_sharp.svg"):
            assert (given / name).read_bytes() == (ordered / name).read_bytes()

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    def test_repeated_kappa_is_swept_once(self, tmp_path):
        """A kappa given twice is one sweep entry: a zero step would
        turn the trend from decreasing into oscillating."""
        twice, summary = self._variance(
            tmp_path, "twice", "regularization.kappa=[6.283185307179586,"
            "6.283185307179586,12.566370614359172,25.132741228718345]")
        once, ref = self._variance(
            tmp_path, "once", "regularization.kappa=[6.283185307179586,"
            "12.566370614359172,25.132741228718345]")
        assert summary["apodized_trend"] == ref["apodized_trend"] \
            == "decreasing"
        assert summary == ref
        assert len((twice / "variance_apodized.csv").read_text()
                   .splitlines()) == 4
        for name in ("variance_apodized.csv", "variance_apodized.svg"):
            assert (twice / name).read_bytes() == (once / name).read_bytes()

    def test_repeated_sweep_ratio_is_swept_once(self, tmp_path):
        out = tmp_path / "x"
        assert main(["sweep", "--preset", "paper",
                     "--set", "pointer.ratios=[0.5,0.1,0.1]",
                     "--out", str(out)] + FAST) == 0
        summary = strict_json((out / "summary.json").read_text())["summary"]
        assert summary["ratios"] == [0.5, 0.1]
        assert summary["monotone_decreasing"] is True
        assert summary["slope_smallest_pair"] > 0.0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_sweep_where_c_rounds_to_one_is_exact(self, tmp_path):
        """At D/sigma 1e-9 and 1e-12, c = exp(-r^2/2) is 1.0 and the
        estimate is J/P: both errors are under their floors, and the two
        larger ratios still converge quadratically."""
        out = tmp_path / "x"
        assert main(["sweep", "--preset", "paper", "--set",
                     "pointer.ratios=[1e-4,1e-6,1e-9,1e-12]",
                     "--out", str(out)] + FAST) == 0
        summary = strict_json((out / "summary.json").read_text())["summary"]
        floors = summary["roundoff_floor"]["error"]
        assert all(e <= f for e, f in zip(summary["errors"][2:], floors[2:]))
        assert summary["roundoff_floor"]["ratios_under"] == 2
        assert summary["monotone_decreasing"] is True
        assert summary["slope_smallest_pair"] == pytest.approx(2.0, abs=1e-3)

    def test_zero_error_is_left_out_of_the_figure(self, tmp_path):
        """At D/sigma = 1e-200, 1 - c underflows to 0 and the estimate is
        J/P exactly: the table and summary keep its error 0.0, and the
        log-log figure, which has no place for it, draws the other
        point alone."""
        out = tmp_path / "x"
        assert main(["sweep", "--preset", "paper",
                     "--set", "pointer.ratios=[1e-200,1]",
                     "--out", str(out)] + FAST) == 0
        summary = strict_json((out / "summary.json").read_text())["summary"]
        assert summary["ratios"] == [1.0, 1e-200]
        assert summary["errors"][0] > 0.0 and summary["errors"][1] == 0.0
        assert (out / "sweep.csv").read_text().splitlines()[-1] == "1e-200,0"
        root = ET.fromstring((out / "sweep.svg").read_text())
        assert len(list(root.iter("{http://www.w3.org/2000/svg}circle"))) == 1
        assert "inf" not in (out / "sweep.svg").read_text()

    def test_window_outside_grid_range(self, tmp_path, capsys):
        rc = main(["wvp", "--preset", "paper",
                   "--set", "windows.focus_index=100000",
                   "--out", str(tmp_path / "x")] + FAST)
        assert rc == 3
        assert "outside the simulated momentum range" \
            in capsys.readouterr().err

    def test_window_without_a_defined_sample(self, tmp_path):
        """Smoothed slits leave the density below the definedness
        threshold all over window 50, so its value range is null."""
        out = tmp_path / "x"
        assert main(["wvp", "--set", "grid.n_points=4096",
                     "--set", "geometry.edge_profile=gaussian_smoothed",
                     "--set", "windows.focus_index=50",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())["summary"]
        assert summary["in_window_min"] is None
        assert summary["in_window_max"] is None

    def test_unresolvable_window_width(self, tmp_path, capsys):
        rc = main(["wvp", "--set", "windows.sliver_width=1e-9",
                   "--out", str(tmp_path / "x")] + FAST)
        assert rc == 3
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    @pytest.mark.parametrize("override", ["regularization.q_max=[99999]",
                                          "regularization.kappa=[99999]"])
    def test_cutoff_beyond_grid_range(self, tmp_path, capsys, override):
        assert main(["variance", "--set", override,
                     "--out", str(tmp_path / "x")] + FAST) == 3
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::weakslit.errors.CoverageWarning")
    @pytest.mark.parametrize("n_points, x_extent", [
        (128, 32.0), (256, 64.0), (512, 64.0), (1024, 64.0), (128, 20.0)])
    def test_default_sweeps_fit_small_grids(self, tmp_path, n_points,
                                            x_extent):
        """With no sweep set, the default sweeps keep only their points
        within the grid's |q| range, so a coarse grid runs ``variance``."""
        out = tmp_path / "x"
        assert main(["variance", "--set", f"grid.n_points={n_points}",
                     "--set", f"grid.x_extent={x_extent}",
                     "--out", str(out)]) == 0
        cfg = from_dict({"grid": {"n_points": n_points,
                                  "x_extent": x_extent}})
        q_lim = abs(float(cfg.grid.p[0]))
        assert max(cfg.q_max + cfg.kappa) <= q_lim
        summary = strict_json((out / "summary.json").read_text())["summary"]
        assert summary["largest_kappa"] == cfg.kappa[-1]
        if n_points == 1024:
            assert cfg.kappa[-1] == 8.0 * TWO_PI

    def test_unwritable_output_directory(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        rc = main(["wvp", "--out", str(blocker / "sub")] + FAST)
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["wvp", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x")]) == 4

    def test_empty_config_path_is_read(self, tmp_path, capsys):
        """An empty path names no file: reading it fails like any other
        unreadable path, and the message names the path as given."""
        assert main(["wvp", "--config", "", "--out", str(tmp_path / "x")]
                    + FAST) == 4
        assert not (tmp_path / "x").exists()
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.rstrip().endswith("''")
        assert "'.'" not in err

    def test_unknown_preset_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["wvp", "--preset", "imaginary",
                  "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2


class TestConsoleEntry:
    """``console_entry`` ends the process with ``os._exit`` once stdout
    and stderr are flushed; exit codes and messages are those of
    ``main``."""

    @pytest.mark.parametrize("args, code, message", [
        (["wvp", "--set", "grid.n_points=3"], 2, "config error: "),
        (["wvp", "--preset", "paper", "--set", "windows.focus_index=100000"]
         + FAST, 3, "numeric error: "),
        (["wvp", "--config", "absent.json"], 4, "i/o error: "),
    ])
    def test_exit_codes_through_the_module(self, tmp_path, args, code,
                                           message):
        proc = run_python("-m", "weakslit", *args, "--out", "x",
                          cwd=tmp_path)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch):
        """A command that needs more memory than the process may map
        exits 3 with a message that names ``grid.n_points``.

        The child's address space is capped at 512 MiB, well above the
        interpreter, numpy and the package, and far below what ``eraser``
        needs at 2^22 points.  One BLAS thread keeps the mapped floor the
        same on any number of cores.
        """
        def cap_address_space():
            limit = 512 * 2 ** 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        proc = run_python("-m", "weakslit", "eraser", "--preset", "paper",
                          "--set", "grid.n_points=4194304",
                          "--out", str(tmp_path / "x"),
                          preexec_fn=cap_address_space)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == \
            "numeric error: out of memory; lower grid.n_points\n"

    def test_module_skips_interpreter_finalization(self, tmp_path):
        """No atexit handler runs: the process ends in ``os._exit``."""
        argv = ["weakslit", "wvp", "--out", str(tmp_path / "x")] + FAST
        code = ("import atexit, runpy, sys; "
                "atexit.register(print, 'finalized'); "
                f"sys.argv = {argv!r}; "
                "runpy.run_module('weakslit', run_name='__main__')")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("wvp.svg\n")
        assert "finalized" not in proc.stdout

    def test_coverage_warning_reaches_stderr(self, tmp_path):
        proc = run_python("-m", "weakslit", "transfer", "--preset", "paper",
                          "--out", str(tmp_path / "t"), *FAST)
        assert proc.returncode == 0, proc.stderr
        assert "CoverageWarning: window tiling covers" in proc.stderr

    def test_exits_with_the_code_main_returns(self, tmp_path, monkeypatch):
        codes = []
        monkeypatch.setattr(os, "_exit", codes.append)
        assert main(["wvp", "--out", str(tmp_path / "a")] + FAST) == 0
        assert codes == []
        console_entry(["wvp", "--set", "grid.n_points=3",
                       "--out", str(tmp_path / "b")])
        assert codes == [2]

    def test_failing_flush_exits_4(self, tmp_path, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        codes = []
        monkeypatch.setattr(os, "_exit", codes.append)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        console_entry(["wvp", "--out", str(tmp_path / "x")] + FAST)
        assert codes == [4]
        assert "i/o error: cannot flush output" in capsys.readouterr().err

    @pytest.mark.parametrize("args, code, message", [
        (["--preset", "paper"], 0, ""),
        (["--set", "grid.n_points=3"], 2, "config error: "),
    ])
    def test_stdout_closed_at_start_keeps_the_code(self, tmp_path, args,
                                                   code, message):
        """With fd 1 closed when the process starts, ``sys.stdout`` is
        None: the paths are not printed, and the code is ``main``'s."""
        proc = run_python("-m", "weakslit", "wvp", *FAST, *args,
                          "--out", "x", cwd=tmp_path,
                          prefix=("sh", "-c", 'exec "$0" "$@" >&-'))
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr
        written = sorted(p.name for p in (tmp_path / "x").glob("*"))
        assert written == ([] if code else
                           ["intensity.csv", "summary.json", "wvp.csv",
                            "wvp.svg"])

    def test_unbuffered_closed_stdout_is_an_io_error(self, tmp_path,
                                                     monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["wvp", "--out", str(tmp_path / "x")] + FAST) == 4
        assert "i/o error: " in capsys.readouterr().err
