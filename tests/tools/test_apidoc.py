"""Tests for the API-reference generator."""

import pytest

from repro.tools.apidoc import PACKAGES, generate_api_docs, main


class TestGeneration:
    def test_covers_every_package(self):
        docs = generate_api_docs()
        for pkg in PACKAGES:
            assert f"## `{pkg}`" in docs

    def test_key_symbols_present(self):
        docs = generate_api_docs(["repro.gateway", "repro.core"])
        for symbol in (
            "class `Gateway",
            "class `DecoderPool",
            "class `IntraNetworkPlanner",
            "class `MasterNode",
        ):
            assert symbol in docs

    def test_docstring_summaries_included(self):
        docs = generate_api_docs(["repro.analysis"])
        assert "Erlang-B blocking probability" in docs

    def test_single_package_subset(self):
        docs = generate_api_docs(["repro.phy"])
        assert "repro.core" not in docs

    def test_main_writes_file(self, tmp_path, capsys):
        out = tmp_path / "api.md"
        assert main([str(out)]) == 0
        assert out.read_text().startswith("# API reference")

    def test_committed_docs_fresh(self):
        """docs/API.md must match the live package (regenerate if not)."""
        import pathlib

        committed = pathlib.Path("docs/API.md")
        if not committed.exists():
            pytest.skip("docs/API.md not present")
        assert committed.read_text() == generate_api_docs()


class TestWrappedFunctions:
    def test_lru_cache_function_keeps_signature_and_summary(self, monkeypatch):
        """A memoised function is documented like the function it wraps."""
        import functools
        import sys
        import types

        from repro.tools.apidoc import _document_module

        module = types.ModuleType("fake_cached")

        def airtime(payload_bytes: int, sf: int = 7) -> float:
            """Memoised airtime of a packet."""
            return float(payload_bytes * sf)

        airtime.__module__ = module.__name__
        module.airtime = functools.lru_cache(maxsize=None)(airtime)
        module.__all__ = ["airtime"]
        monkeypatch.setitem(sys.modules, module.__name__, module)

        lines = _document_module(module)
        assert (
            "* **`airtime(payload_bytes: int, sf: int = 7) -> float`** — "
            "Memoised airtime of a packet."
        ) in lines
        assert not any("constant" in line for line in lines)
