"""Spec resolution edge cases: validation, merging, sweeps, hashing."""

import pytest

from repro.scenarios.spec import (
    SpecError,
    area_preset,
    canonical_json,
    content_hash,
    deep_merge,
    expand_sweep,
    get_path,
    load_defaults,
    parse_spec,
    resolve_spec,
    set_path,
)


class TestValidation:
    def test_unknown_key_is_path_qualified(self):
        with pytest.raises(SpecError, match=r"traffic\.payload_byte\b"):
            resolve_spec({"traffic": {"payload_byte": 10}})

    def test_unknown_key_suggests_neighbor(self):
        with pytest.raises(SpecError, match="payload_bytes"):
            resolve_spec({"traffic": {"payload_byte": 10}})

    def test_unknown_top_level_section(self):
        with pytest.raises(SpecError, match="trafic"):
            resolve_spec({"trafic": {}})

    def test_scalar_where_mapping_expected(self):
        with pytest.raises(SpecError, match="traffic"):
            resolve_spec({"traffic": 3})

    def test_unknown_network_entry_key(self):
        with pytest.raises(SpecError, match=r"networks\.list\.0\.device"):
            resolve_spec({"networks": {"list": [{"device": 4}]}})

    def test_bad_run_kind(self):
        with pytest.raises(SpecError, match="run.kind"):
            resolve_spec({"run": {"kind": "warp"}})

    def test_bad_area_preset(self):
        with pytest.raises(SpecError, match="area.preset"):
            resolve_spec({"area": {"preset": "galactic"}})

    def test_custom_area_requires_dimensions(self):
        with pytest.raises(SpecError, match="custom"):
            resolve_spec({"area": {"preset": "custom"}})

    def test_meta_is_free_form(self):
        resolved = resolve_spec({"meta": {"name": "x", "anything": [1, 2]}})
        assert resolved["meta"]["anything"] == [1, 2]


class TestValueBounds:
    """Out-of-range values are rejected where the spec enters."""

    @pytest.mark.parametrize("value", [0, -2])
    def test_gateways_below_one(self, value):
        with pytest.raises(SpecError, match=r"^networks\.gateways: .*>= 1"):
            resolve_spec({"networks": {"gateways": value}})

    @pytest.mark.parametrize("value", [0, 0.0, -1.5])
    def test_window_not_positive(self, value):
        with pytest.raises(SpecError, match=r"^traffic\.window_s: .*> 0"):
            resolve_spec({"traffic": {"window_s": value}})

    @pytest.mark.parametrize("value", [0, -1])
    def test_k_nearest_below_one(self, value):
        with pytest.raises(SpecError, match=r"^assignment\.tier\.k_nearest: .*>= 1"):
            resolve_spec({"assignment": {"tier": {"k_nearest": value}}})

    def test_non_number_rejected(self):
        with pytest.raises(SpecError, match=r"networks\.gateways: .*'two'"):
            resolve_spec({"networks": {"gateways": "two"}})

    def test_parse_error_names_the_file(self):
        with pytest.raises(SpecError, match=r"^bad\.yaml: traffic\.window_s"):
            parse_spec("traffic: {window_s: 0}\n", "bad.yaml")

    @pytest.mark.parametrize(
        "path, bad",
        [
            ("networks.gateways", 0),
            ("traffic.window_s", -1.0),
            ("assignment.tier.k_nearest", 0),
        ],
    )
    def test_sweep_setting_bad_value(self, path, bad):
        resolved = resolve_spec({"sweep": {path: [2, bad]}})
        with pytest.raises(SpecError, match=rf"^sweep: run 1: {path}: "):
            expand_sweep(resolved)

    def test_zip_sweep_setting_bad_value(self):
        resolved = resolve_spec(
            {"sweep": {"zip": {"networks.gateways": [1, 0], "networks.devices": [4, 8]}}}
        )
        with pytest.raises(SpecError, match=r"^sweep: run 1: networks\.gateways"):
            expand_sweep(resolved)

    def test_boundary_values_accepted(self):
        resolved = resolve_spec(
            {
                "networks": {"gateways": 1},
                "traffic": {"window_s": 0.001},
                "assignment": {"tier": {"k_nearest": 1}},
            }
        )
        assert len(expand_sweep(resolved)) == 1


class TestMerge:
    def test_override_round_trip(self):
        overrides = {
            "seed": 7,
            "networks": {"devices": 99, "list": [{"devices": 3}]},
            "traffic": {"kind": "poisson", "users": 123},
        }
        resolved = resolve_spec(overrides)
        # Every overridden leaf lands; every untouched default survives.
        assert resolved["seed"] == 7
        assert resolved["networks"]["devices"] == 99
        assert resolved["networks"]["list"] == [{"devices": 3}]
        assert resolved["traffic"]["users"] == 123
        defaults = load_defaults()
        assert resolved["traffic"]["mean_interval_s"] == defaults["traffic"]["mean_interval_s"]
        assert resolved["region"] == defaults["region"]

    def test_deep_merge_does_not_mutate_inputs(self):
        base = {"a": {"b": 1}, "l": [1]}
        over = {"a": {"c": 2}, "l": [2]}
        merged = deep_merge(base, over)
        assert merged == {"a": {"b": 1, "c": 2}, "l": [2]}
        assert base == {"a": {"b": 1}, "l": [1]}
        merged["l"].append(3)
        assert over["l"] == [2]


class TestPaths:
    def test_get_and_set_dotted_paths(self):
        doc = {"a": {"b": [{"c": 1}]}}
        assert get_path(doc, "a.b.0.c") == 1
        set_path(doc, "a.b.0.c", 5)
        assert doc["a"]["b"][0]["c"] == 5

    def test_missing_path_is_an_error(self):
        with pytest.raises(SpecError, match="no such config path"):
            get_path({"a": {}}, "a.zzz")


class TestSweep:
    def test_grid_expansion_count_and_values(self):
        resolved = resolve_spec(
            {
                "run": {"seed_stride": 1},
                "sweep": {
                    "networks.devices": [4, 8, 16],
                    "networks.gateways": [1, 3],
                },
            }
        )
        runs = expand_sweep(resolved)
        assert len(runs) == 6
        combos = {
            (r.config["networks"]["devices"], r.config["networks"]["gateways"])
            for r in runs
        }
        assert combos == {(4, 1), (4, 3), (8, 1), (8, 3), (16, 1), (16, 3)}
        assert [r.seed for r in runs] == list(range(6))
        assert [r.index for r in runs] == list(range(6))

    def test_zip_axes_advance_in_lockstep(self):
        resolved = resolve_spec(
            {
                "networks": {"count": 2, "list": [{"devices": 1}, {"devices": 1}]},
                "sweep": {
                    "zip": {
                        "networks.list.0.devices": [10, 16, 6],
                        "networks.list.1.devices": [10, 8, 18],
                    }
                },
            }
        )
        runs = expand_sweep(resolved)
        pairs = [
            (
                r.config["networks"]["list"][0]["devices"],
                r.config["networks"]["list"][1]["devices"],
            )
            for r in runs
        ]
        assert pairs == [(10, 10), (16, 8), (6, 18)]

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(SpecError, match="zip"):
            expand_sweep(
                resolve_spec(
                    {
                        "sweep": {
                            "zip": {
                                "networks.devices": [1, 2],
                                "networks.gateways": [1],
                            }
                        }
                    }
                )
            )

    def test_sweep_path_must_exist(self):
        with pytest.raises(SpecError, match="no such config path"):
            expand_sweep(resolve_spec({"sweep": {"networks.nope": [1]}}))

    def test_no_sweep_is_one_run(self):
        runs = expand_sweep(resolve_spec({}))
        assert len(runs) == 1
        assert runs[0].overrides == {}

    def test_hashed_seed_mode_derives_from_digest(self):
        runs_a = expand_sweep(
            resolve_spec({"run": {"seed_mode": "hashed"}, "sweep": {"networks.devices": [2, 4]}})
        )
        runs_b = expand_sweep(
            resolve_spec({"seed": 5, "run": {"seed_mode": "hashed"}, "sweep": {"networks.devices": [2, 4]}})
        )
        assert runs_a[0].seed != runs_a[1].seed
        # A different spec digest re-derives every seed.
        assert {r.seed for r in runs_a} != {r.seed for r in runs_b}


class TestHashing:
    def test_content_hash_stable_across_key_order(self):
        a = {"x": 1, "y": {"p": [1, 2], "q": None}}
        b = {"y": {"q": None, "p": [1, 2]}, "x": 1}
        assert content_hash(a) == content_hash(b)
        assert canonical_json(a) == canonical_json(b)

    def test_content_hash_differs_on_value_change(self):
        assert content_hash({"x": 1}) != content_hash({"x": 2})

    def test_run_ids_stable_across_spec_key_order(self):
        text_a = "seed: 3\nnetworks: {devices: 8, gateways: 2}\n"
        text_b = "networks: {gateways: 2, devices: 8}\nseed: 3\n"
        runs_a = parse_spec(text_a, "a.yaml").runs()
        runs_b = parse_spec(text_b, "b.yaml").runs()
        assert [r.run_id for r in runs_a] == [r.run_id for r in runs_b]


class TestAreaPresets:
    def test_presets_match_experiment_constants(self):
        from repro.experiments.common import COMPACT_AREA_M, TESTBED_AREA_M

        assert area_preset("compact") == COMPACT_AREA_M
        assert area_preset("testbed") == TESTBED_AREA_M

    def test_paper_preset_exists(self):
        assert area_preset("paper") == (2100.0, 1600.0)

    def test_unknown_preset(self):
        with pytest.raises(SpecError, match="unknown preset"):
            area_preset("ocean")


class TestSpecNames:
    def test_name_falls_back_to_filename(self, tmp_path):
        from repro.scenarios.spec import load_spec

        path = tmp_path / "myscenario.yaml"
        path.write_text("seed: 1\n")
        assert load_spec(str(path)).name == "myscenario"

    def test_meta_name_wins(self):
        spec = parse_spec("meta: {name: fancy}\n", "plain.yaml")
        assert spec.name == "fancy"
