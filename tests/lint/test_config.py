"""``[tool.repro-lint]`` configuration loading."""

import textwrap

import pytest

from repro.lint.config import (
    DEFAULT_CONFIG,
    LintConfig,
    load_config,
    parse_config,
)

TABLE = textwrap.dedent(
    """\
    [build-system]
    requires = ["setuptools"]

    [tool.repro-lint]
    wall-clock-modules = [
        "src/repro/obs/perf.py",
    ]
    wall-clock-sites = [
        "src/repro/net/client.py::poll",
    ]
    pure-roots = ["repro.sim.engine.OnlineSimulator.run_online"]
    """
)


class TestLoadConfig:
    def test_reads_the_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(TABLE)
        config = load_config(str(tmp_path))
        assert config.wall_clock_modules == (
            "src/repro/obs/perf.py",
        )
        assert config.wall_clock_sites == (
            ("src/repro/net/client.py", "poll"),
        )
        assert config.pure_roots == (
            "repro.sim.engine.OnlineSimulator.run_online",
        )

    def test_missing_file_yields_defaults(self, tmp_path):
        assert load_config(str(tmp_path)) is DEFAULT_CONFIG

    def test_missing_table_yields_defaults(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
        assert load_config(str(tmp_path)) is DEFAULT_CONFIG

    def test_shipped_table_matches_compiled_defaults(self):
        """pyproject.toml and DEFAULT_CONFIG must agree, so that
        lint_source (which never touches the filesystem) behaves
        identically to lint_paths on this repo."""
        import os

        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        assert load_config(repo_root) == DEFAULT_CONFIG
        # And the shipped table genuinely exists (is not just absent,
        # which would also compare equal via the defaults fallback).
        with open(os.path.join(repo_root, "pyproject.toml")) as fh:
            assert "[tool.repro-lint]" in fh.read()


class TestParseErrors:
    def test_unknown_key_is_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_config({"wall-clock-module": []}, source="pyproject.toml")

    def test_malformed_site_is_rejected(self):
        with pytest.raises(ValueError, match="must look like"):
            parse_config(
                {"wall-clock-sites": ["no-separator"]},
                source="pyproject.toml",
            )

    def test_non_string_entry_is_rejected(self):
        with pytest.raises(ValueError, match="array of strings"):
            parse_config({"pure-roots": [3]}, source="pyproject.toml")

    def test_malformed_table_raises_from_load(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\nwall-clock-modules = [oops\n"
        )
        with pytest.raises(ValueError):
            load_config(str(tmp_path))


class TestFallbackParser:
    """The line-based TOML-subset reader used when tomllib is absent."""

    def test_fallback_agrees_with_tomllib(self, tmp_path):
        from repro.lint import config as config_mod

        (tmp_path / "pyproject.toml").write_text(TABLE)
        via_fallback = config_mod._read_table_fallback(
            TABLE, "pyproject.toml"
        )
        assert parse_config(
            via_fallback, source="pyproject.toml"
        ) == load_config(str(tmp_path))

    def test_fallback_handles_multiline_arrays(self, tmp_path):
        from repro.lint.config import _read_table_fallback

        text = (
            "[tool.repro-lint]\n"
            "pure-roots = [\n"
            "    # full-line comment inside the array\n"
            '    "a.b",\n'
            '    "c.d",\n'
            "]\n"
            "[tool.other]\n"
            'pure-roots = ["ignored"]\n'
        )
        table = _read_table_fallback(text, "pyproject.toml")
        assert table == {"pure-roots": ["a.b", "c.d"]}


class TestLintConfigViews:
    def test_site_and_module_sets(self):
        config = LintConfig(
            wall_clock_modules=("a.py", "b.py"),
            wall_clock_sites=(("c.py", "f"),),
            pure_roots=(),
        )
        assert config.wall_clock_module_set == {"a.py", "b.py"}
        assert config.wall_clock_site_set == {("c.py", "f")}
