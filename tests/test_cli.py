"""CLI surface: configs, formats, exit codes, determinism."""

import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

from carboncast import cli, validation
from carboncast.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_MODEL_ERROR,
    EXIT_OK,
    EXIT_VALIDATION_FAILED,
    main,
)

GPT3_CONFIG = textwrap.dedent("""\
    schema: 1
    estimate:
      phase: training
      architecture:
        name: gpt3
        kind: dense_gpt
        explicit_param_count: 175000000000
      tokens: 3.0e+11
      fleet:
        - unit: V100
          count: 10000
      data_center:
        name: openai-dc
        pue: 1.1
        carbon_intensity: 0.429
      overrides:
        measured_flops: 3.14e+23
        efficiency: 0.197
        device_count: 10000
        system_power_watts: 330
""")


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def sweep_config(points):
    lines = ["schema: 1", "sweep:",
             "  fleet:", "    - unit: V100", "      count: 1",
             "  data_center:", "    name: dc", "    pue: 1.1",
             "    carbon_intensity: 0.431", "  grid:"]
    for name, params, tokens in points:
        lines += [f"    - architecture: {{name: {name}, kind: dense_gpt, "
                  f"explicit_param_count: {params}}}",
                  f"      tokens: {tokens}"]
    return "\n".join(lines) + "\n"


class TestEstimateCommand:
    def test_gpt3_table_reproduces_published_value(self, tmp_path, capsys):
        code = main(["estimate", "--config", write_config(tmp_path, GPT3_CONFIG)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("operational (tCO2eq)"))
        value = float(line.split()[-1])
        assert value == pytest.approx(553.87, rel=0.01)

    def test_csv_format_single_row(self, tmp_path, capsys):
        code = main(["estimate", "--config", write_config(tmp_path, GPT3_CONFIG),
                     "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("phase,duration_days,hardware_energy_mwh")
        assert len(lines) == 2
        assert lines[1].startswith("training,")

    def test_invalid_pue_is_a_config_error(self, tmp_path, capsys):
        bad = GPT3_CONFIG.replace("pue: 1.1", "pue: 0.9")
        code = main(["estimate", "--config", write_config(tmp_path, bad)])
        assert code == EXIT_CONFIG_ERROR
        assert "pue" in capsys.readouterr().err

    def test_unknown_key_names_its_path(self, tmp_path, capsys):
        bad = GPT3_CONFIG.replace("    name: gpt3", "    name: gpt3\n    hiddensize: 1")
        code = main(["estimate", "--config", write_config(tmp_path, bad)])
        assert code == EXIT_CONFIG_ERROR
        assert "estimate.architecture.hiddensize" in capsys.readouterr().err

    def test_model_error_names_stage(self, tmp_path, capsys):
        config = textwrap.dedent("""\
            schema: 1
            estimate:
              architecture: {name: opaque-moe, kind: moe, explicit_param_count: 619000000000}
              tokens: 1.0e+12
              fleet: [{unit: V100, count: 1024}]
              data_center: {name: dc, pue: 1.1, carbon_intensity: 0.4}
        """)
        code = main(["estimate", "--config", write_config(tmp_path, config)])
        assert code == EXIT_MODEL_ERROR
        assert "[flop-model]" in capsys.readouterr().err

    def test_wrong_schema_version_rejected(self, tmp_path, capsys):
        code = main(["estimate", "--config",
                     write_config(tmp_path, GPT3_CONFIG.replace("schema: 1", "schema: 99"))])
        assert code == EXIT_CONFIG_ERROR
        assert "schema" in capsys.readouterr().err

    def test_a_storage_only_config_is_refused_by_name(self, tmp_path, capsys):
        # Storage is priced only as a part of a lifecycle.
        config = textwrap.dedent("""\
            schema: 1
            estimate:
              phase: storage
              data_center: {name: dc, pue: 1.1, carbon_intensity: 0.4}
              storage: {stored_tb: 32.7, transferred_tb: 277.4, duration_days: 180}
        """)
        assert main(["estimate", "--config", write_config(tmp_path, config)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == ("", "config error: estimate.storage: unknown key\n")

    @pytest.mark.parametrize("old, new, code, message", [
        (" count: 10000", " count: 10000.5", EXIT_CONFIG_ERROR,
         "estimate.fleet[0].count: expected a whole number"),
        ("tokens: 3.0e+11", "tokens: .inf", EXIT_CONFIG_ERROR,
         "estimate.tokens: expected a finite number"),
        ("pue: 1.1", "pue: .nan", EXIT_CONFIG_ERROR,
         "estimate.data_center.pue: expected a finite number"),
        ("    name: gpt3", "    name: gpt3\n    hidden_size: true", EXIT_CONFIG_ERROR,
         "estimate.architecture.hidden_size: expected a number, got True"),
        ("carbon_intensity: 0.429", "carbon_intensity: low", EXIT_CONFIG_ERROR,
         "estimate.data_center.carbon_intensity: expected a number, got 'low'"),
        pytest.param("explicit_param_count: 175000000000", "explicit_param_count: 1" + "0" * 400,
                     EXIT_CONFIG_ERROR, "estimate.architecture.explicit_param_count: expected a "
                     "finite", id="int-beyond-float-range"),
        ("kind: dense_gpt", "kind: sparse", EXIT_CONFIG_ERROR,
         "estimate.architecture.kind: must be one of"),
        ("phase: training", "phase: pretraining", EXIT_CONFIG_ERROR,
         "estimate.phase: must be one of"),
        ("phase: training", "phase: experimentation", EXIT_CONFIG_ERROR,
         "estimate.phase: must be one of"),
        ("phase: training", "phase: lifecycle", EXIT_CONFIG_ERROR,
         "estimate: phase must be training or inference, got lifecycle"),
        ("phase: training", "phase: storage", EXIT_CONFIG_ERROR,
         "estimate: phase must be training or inference, got storage"),
        ("  architecture:\n    name: gpt3\n    kind: dense_gpt\n"
         "    explicit_param_count: 175000000000\n", "", EXIT_CONFIG_ERROR,
         "estimate.architecture: required"),
        # A name is a YAML string; nothing else is made into one.
        pytest.param("name: gpt3", "name: null", EXIT_CONFIG_ERROR,
                     "estimate.architecture.name: expected a string, got None", id="name-null"),
        pytest.param("name: gpt3", "name: [1, 2]", EXIT_CONFIG_ERROR,
                     "estimate.architecture.name: expected a string, got [1, 2]", id="name-list"),
        pytest.param("name: gpt3", "name: .nan", EXIT_CONFIG_ERROR,
                     "estimate.architecture.name: expected a string, got nan", id="name-nan"),
        pytest.param("unit: V100", "unit: null", EXIT_CONFIG_ERROR,
                     "estimate.fleet[0].unit: expected a string, got None", id="unit-null"),
        # A key whose field has no default is never filled in.
        pytest.param("    name: gpt3\n", "", EXIT_CONFIG_ERROR,
                     "estimate.architecture.name: required", id="no-architecture-name"),
        pytest.param("    name: openai-dc\n", "", EXIT_CONFIG_ERROR,
                     "estimate.data_center.name: required", id="no-data-center-name"),
        pytest.param("  tokens: 3.0e+11\n", "", EXIT_CONFIG_ERROR,
                     "estimate.tokens: required", id="no-tokens"),
        pytest.param("      count: 10000\n",
                     "      count: 10000\n    - unit: A100\n      count: 8\n", EXIT_CONFIG_ERROR,
                     "estimate.fleet: fleet has multiple accelerator entries: V100, A100",
                     id="two-accelerators"),
        ("  tokens:", "  device_memory_gb: 0\n  tokens:", EXIT_MODEL_ERROR,
         "[efficiency-model] device_memory_gb must be positive"),
        ("  tokens:", "  scaling: {alpha: 0}\n  tokens:", EXIT_CONFIG_ERROR,
         "estimate.scaling: scaling constant alpha must be positive"),
        ("  tokens:", "  server_size: 2.5\n  tokens:", EXIT_CONFIG_ERROR,
         "estimate.server_size: expected a whole number"),
        ("efficiency: 0.197", "efficiency: 1.5", EXIT_CONFIG_ERROR,
         "estimate.overrides: efficiency must lie in (0, 1], got 1.5"),
        ("efficiency: 0.197", "efficiency: 0", EXIT_CONFIG_ERROR,
         "estimate.overrides: efficiency must lie in (0, 1], got 0.0"),
        ("device_count: 10000", "device_count: 0", EXIT_CONFIG_ERROR,
         "estimate.overrides: device_count must be an integer >= 1, got 0"),
        ("device_count: 10000", "device_count: -4", EXIT_CONFIG_ERROR,
         "estimate.overrides: device_count must be an integer >= 1, got -4"),
        ("system_power_watts: 330", "system_power_watts: -330", EXIT_CONFIG_ERROR,
         "estimate.overrides: system_power_watts must be finite and >= 0, got -330.0"),
        ("measured_flops: 3.14e+23", "measured_flops: -3.14e+23", EXIT_CONFIG_ERROR,
         "estimate.overrides: measured_flops must be finite and >= 0, got -3.14e+23"),
        ("tokens: 3.0e+11", "tokens: -5", EXIT_CONFIG_ERROR,
         "estimate: tokens must be finite and >= 0, got -5.0"),
        ("  tokens:", "  anchors: [[1.0e+9, 0.3]]\n  tokens:", EXIT_CONFIG_ERROR,
         "estimate.anchors: unknown key"),
        ("  tokens:", "  others_fraction: 0.1\n  tokens:", EXIT_CONFIG_ERROR,
         "estimate.others_fraction: unknown key"),
        # YAML keys of types that do not order against each other.
        pytest.param("estimate:\n", "estimate:\n  1: x\n  zz: y\n", EXIT_CONFIG_ERROR,
                     "estimate.1: unknown key", id="unknown-int-and-str-keys"),
        pytest.param("schema: 1", "~: x\nzz: y\nschema: 1", EXIT_CONFIG_ERROR,
                     ".yaml.None: unknown key", id="unknown-null-and-str-keys"),
        # The schema tag is the YAML int 1; true and 1.0 compare equal to it.
        pytest.param("schema: 1", "schema: true", EXIT_CONFIG_ERROR,
                     ".schema: expected 1, got True", id="schema-true"),
        pytest.param("schema: 1", "schema: 1.0", EXIT_CONFIG_ERROR,
                     ".schema: expected 1, got 1.0", id="schema-1.0"),
    ])
    def test_config_values_checked_at_their_path(self, tmp_path, capsys, old, new, code,
                                                 message):
        assert old in GPT3_CONFIG
        config = write_config(tmp_path, GPT3_CONFIG.replace(old, new))
        assert main(["estimate", "--config", config]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["- 1\n- 2\n", "42\n", ""], ids=["list", "scalar", "empty"])
    def test_a_top_level_that_is_not_a_mapping_exits_2(self, tmp_path, capsys, text):
        path = write_config(tmp_path, text)
        assert main(["estimate", "--config", path]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == ("", f"config error: {path}: top level must be a mapping\n")

    @pytest.mark.parametrize("fleet_count, device_count, code, message", [
        pytest.param(10 ** 300, None, EXIT_MODEL_ERROR,
                     "model error: [operational-carbon] throughput is beyond the float range",
                     id="fleet-1e300"),
        pytest.param(10 ** 400, None, EXIT_CONFIG_ERROR,
                     "config error: estimate.fleet[0].count: expected a finite number",
                     id="fleet-1e400"),
        pytest.param(8, 10 ** 300, EXIT_MODEL_ERROR,
                     "model error: [operational-carbon] throughput is beyond the float range",
                     id="device-count-1e300"),
        pytest.param(8, 10 ** 400, EXIT_CONFIG_ERROR,
                     "config error: estimate.overrides.device_count: expected a finite number",
                     id="device-count-1e400"),
    ])
    def test_counts_beyond_the_float_range_are_named(self, tmp_path, capsys, fleet_count,
                                                     device_count, code, message):
        config = textwrap.dedent(f"""\
            schema: 1
            estimate:
              architecture: {{name: m, kind: dense_gpt, explicit_param_count: 20000000000}}
              tokens: 1.0e+11
              fleet: [{{unit: V100, count: {fleet_count}}}]
              data_center: {{name: dc, pue: 1.1, carbon_intensity: 0.4}}
        """)
        if device_count is not None:
            config += f"  overrides: {{device_count: {device_count}}}\n"
        assert main(["estimate", "--config", write_config(tmp_path, config)]) == code
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("memory", ["1.0e+3", "1.0e+300"], ids=["inf-depth", "nan-depth"])
    def test_a_depth_a_float_cannot_hold_exits_3(self, tmp_path, capsys, memory):
        config = (GPT3_CONFIG
                  .replace("explicit_param_count: 175000000000", "explicit_param_count: 1.0e+308")
                  .replace("  tokens:", f"  device_memory_gb: {memory}\n  tokens:"))
        assert main(["estimate", "--config", write_config(tmp_path, config)]) == EXIT_MODEL_ERROR
        assert capsys.readouterr().err == (
            "model error: [efficiency-model] the pipeline depth for 1e+308 parameters in "
            f"{float(memory)!r} GB devices overflows a float\n")

    def test_an_infinite_hardware_energy_exits_3(self, tmp_path, capsys):
        text = (DOCS_EXAMPLES / "gpt3_training.yaml").read_text(encoding="utf-8")
        assert "system_power_watts: 330\n" in text
        config = write_config(tmp_path, text.replace("system_power_watts: 330\n",
                                                     "system_power_watts: 1.0e+308\n"))
        assert main(["estimate", "--config", config]) == EXIT_MODEL_ERROR
        assert capsys.readouterr() == (
            "", "model error: hardware_energy_mwh must be finite and >= 0, got inf\n")

    @pytest.mark.parametrize("content, fault", [
        pytest.param(None, "[Errno 2] No such file or directory", id="missing"),
        pytest.param(b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0",
                     id="not-utf-8"),
    ])
    def test_unreadable_config_file_is_named(self, tmp_path, capsys, content, fault):
        path = tmp_path / "config.yaml"
        if content is not None:
            path.write_bytes(content)
        assert main(["estimate", "--config", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: {fault}")
        assert err.count("\n") == 1

    def test_out_into_a_missing_directory_is_named(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.csv"
        code = main(["estimate", "--config", write_config(tmp_path, GPT3_CONFIG),
                     "--out", str(out)])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write --out {out}: [Errno 2] No such file")
        assert err.count("\n") == 1

    def test_readme_config_example_runs(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Config format", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert main(["estimate", "--config", write_config(tmp_path, block)]) == EXIT_OK

    def test_byte_identical_outputs_across_runs(self, tmp_path):
        config = write_config(tmp_path, GPT3_CONFIG)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["estimate", "--config", config, "--format", "csv",
                     "--out", str(out_a)]) == EXIT_OK
        assert main(["estimate", "--config", config, "--format", "csv",
                     "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()


DOCS_EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
LIFECYCLE_TEXT = (DOCS_EXAMPLES / "lifecycle_green_grid.yaml").read_text(encoding="utf-8")
TRAINING_BLOCK = LIFECYCLE_TEXT[LIFECYCLE_TEXT.index("  training:\n"):
                                LIFECYCLE_TEXT.index("  inference_share:")]


class TestLifecycleCommand:
    def test_green_grid_docs_example(self, capsys):
        code = main(["lifecycle",
                     "--config", str(DOCS_EXAMPLES / "lifecycle_green_grid.yaml"),
                     "--catalog", str(DOCS_EXAMPLES / "xlm_cluster_hardware.csv"),
                     "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        record = dict(zip(header, row))
        share = float(record["embodied_tco2"]) / float(record["total_tco2"])
        assert 0.24 <= share <= 0.35

    @pytest.mark.parametrize("old, new, message", [
        ("    phase: training", "    phase: inference",
         "config error: lifecycle: training request has phase inference"),
        ("    tokens: 7.0e+12", "    tokens: 7.0e+12\n    storage: {stored_tb: 1, duration_days: 30}",
         "config error: lifecycle.training.storage: unknown key"),
        pytest.param("    tokens: 7.0e+12\n", "",
                     "config error: lifecycle.training.tokens: required", id="no-tokens"),
        pytest.param("  storage:\n    stored_tb: 5\n    transferred_tb: 20\n    duration_days: 180\n",
                     "  storage: {}\n", "config error: lifecycle.storage.stored_tb: required",
                     id="empty-storage"),
        # The section's catalog lookups reach the training request nested in it.
        pytest.param("      - unit: V100\n", "      - unit: H9000\n",
                     "config error: lifecycle.training.fleet[0].unit: unknown hardware unit "
                     "'H9000'", id="unknown-unit"),
        pytest.param("    data_center:\n      name: green-grid\n      pue: 1.1\n"
                     "      carbon_intensity: 0.016   # kg/kWh; ~97% carbon-free supply\n",
                     "    data_center: mars\n",
                     "config error: lifecycle.training.data_center: unknown data center 'mars'",
                     id="unknown-data-center"),
        # An empty training request reads as an empty mapping, as an empty
        # `architecture:` or `overrides:` does.
        pytest.param(TRAINING_BLOCK, "  training: null\n",
                     "config error: lifecycle.training.architecture: required", id="null-training"),
        pytest.param(TRAINING_BLOCK, "  training:\n",
                     "config error: lifecycle.training.architecture: required", id="empty-training"),
    ])
    def test_training_request_checked(self, tmp_path, capsys, old, new, message):
        text = (DOCS_EXAMPLES / "lifecycle_green_grid.yaml").read_text(encoding="utf-8")
        assert old in text
        code = main(["lifecycle", "--config", write_config(tmp_path, text.replace(old, new)),
                     "--catalog", str(DOCS_EXAMPLES / "xlm_cluster_hardware.csv")])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err


# A valid sweep section, and a value that leaves a key out of it.
SWEEP_SECTION = {
    "fleet": [{"unit": "V100", "count": 1}],
    "data_center": {"name": "dc", "pue": 1.1, "carbon_intensity": 0.431},
    "grid": [{"architecture": {"name": "a", "kind": "dense_gpt",
                               "explicit_param_count": 1_000_000_000},
              "tokens": 2.0e10}],
}
DROP = object()


class TestSweepCommand:
    def test_four_point_grid(self, tmp_path, capsys):
        config = write_config(tmp_path, sweep_config([
            ("a", 1_000_000_000, 2.0e10), ("b", 5_000_000_000, 1.0e11),
            ("c", 20_000_000_000, 4.0e11), ("d", 8_000_000_000, 1.6e11)]))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", config, "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "name,params,tokens,test_loss,training_tco2,dominated"
        assert len(lines) == 5
        assert any(l.endswith(",no") for l in lines[1:])

    def test_moe_beats_dense_at_matched_loss(self, tmp_path, capsys):
        config = textwrap.dedent("""\
            schema: 1
            sweep:
              fleet: [{unit: V100, count: 1}]
              data_center: {name: dc, pue: 1.1, carbon_intensity: 0.431}
              grid:
                - architecture: {name: dense, kind: dense_gpt, explicit_param_count: 137980000000}
                  tokens: 3.0e+11
                - architecture: {name: moe, kind: moe, explicit_param_count: 1103840000000,
                                 base_model_param_count: 6600000000}
                  tokens: 3.0e+11
        """)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", write_config(tmp_path, config),
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = {line.split(",")[0]: line.split(",")
                for line in out.read_text().strip().splitlines()[1:]}
        assert float(rows["moe"][4]) < float(rows["dense"][4])
        assert abs(float(rows["moe"][3]) - float(rows["dense"][3])) < 1e-4

    def test_sweep_bytes_deterministic(self, tmp_path):
        config = write_config(tmp_path, sweep_config([
            ("a", 1_000_000_000, 2.0e10), ("b", 5_000_000_000, 1.0e11)]))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", config, "--out", str(out_a)])
        main(["sweep", "--config", config, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, textwrap.dedent("""\
            schema: 1
            sweep:
              fleet: [{unit: V100, count: 1}]
              data_center: {name: dc, pue: 1.1, carbon_intensity: 0.431}
              grid: []
        """))
        assert main(["sweep", "--config", config]) == EXIT_CONFIG_ERROR
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        pytest.param({"grids": []}, "sweep.grids: unknown key", id="unknown-key"),
        pytest.param({"grid": DROP}, "sweep.grid: required", id="no-grid"),
        pytest.param({"fleet": DROP}, "sweep.fleet: required", id="no-fleet"),
        pytest.param({"data_center": DROP}, "sweep.data_center: required", id="no-data-center"),
        pytest.param({"fleet": [{"count": 1}]}, "sweep.fleet[0].unit: required",
                     id="fleet-entry-without-unit"),
        pytest.param({"fleet": [{"unit": "V100"}]}, "sweep.fleet[0].count: required",
                     id="fleet-entry-without-count"),
        pytest.param({"fleet": [{"unit": "H9000", "count": 1}]},
                     "sweep.fleet[0].unit: unknown hardware unit 'H9000'", id="unknown-unit"),
        pytest.param({"fleet": [{"unit": "V100", "count": 0}]},
                     "sweep.fleet[0]: V100: fleet count must be an integer >= 1, got 0",
                     id="fleet-count-0"),
        pytest.param({"data_center": "mars"}, "sweep.data_center: unknown data center 'mars'",
                     id="unknown-data-center"),
        pytest.param({"server_size": 2.5}, "sweep.server_size: expected a whole number, got 2.5",
                     id="server-size-2.5"),
        # Keys are read in the order of sweep()'s parameters, the grid first.
        pytest.param({"grid": [{"tokens": 1.0e10}], "fleet": [{"count": 1}]},
                     "sweep.grid[0].architecture: required", id="grid-before-fleet"),
        pytest.param({"grid": [{"architecture": {"name": "a", "kind": "dense_gpt",
                                                 "explicit_param_count": 10 ** 9}}]},
                     "sweep.grid[0].tokens: required", id="grid-point-without-tokens"),
        # An empty architecture is read as an empty mapping, as in `estimate:`.
        pytest.param({"grid": [{"architecture": None, "tokens": 1.0e10}]},
                     "sweep.grid[0].architecture.name: required", id="grid-point-empty-architecture"),
    ])
    def test_section_is_checked_at_its_paths(self, tmp_path, capsys, change, message):
        section = {k: v for k, v in {**SWEEP_SECTION, **change}.items() if v is not DROP}
        config = write_config(tmp_path, yaml.safe_dump({"schema": 1, "sweep": section}))
        assert main(["sweep", "--config", config]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_docs_example(self, capsys):
        code = main(["sweep", "--config", str(DOCS_EXAMPLES / "sweep_grid.yaml")])
        out, err = capsys.readouterr()
        assert code == EXIT_OK
        assert out.splitlines()[0] == ",".join(cli.SWEEP_CSV_HEADER)
        assert len(out.splitlines()) == 7
        assert "skipped" not in err

    def test_a_failing_point_is_skipped_and_the_rest_written(self, tmp_path, capsys):
        config = sweep_config([("a", 1_000_000_000, 2.0e10), ("no-tokens", 1_000_000_000, 0.0),
                               ("b", 5_000_000_000, 1.0e11)])
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert code == EXIT_MODEL_ERROR
        assert capsys.readouterr() == ("", (
            "skipped no-tokens: sweep points need a finite positive token count, got 0.0\n"
            "2 points, 2 nondominated\n"))
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["name", "b", "a"]

    def test_a_bad_setting_fails_once(self, tmp_path, capsys):
        config = sweep_config([("a", 1_000_000_000, 2.0e10), ("b", 5_000_000_000, 1.0e11),
                               ("no-tokens", 1_000_000_000, 0.0)]) + "  server_size: 0\n"
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", write_config(tmp_path, config), "--out", str(out)])
        assert code == EXIT_MODEL_ERROR
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.splitlines() == [
            "model error: [efficiency-model] server_size must be an integer >= 1, got 0"]
        assert not out.exists()


ESTIMATE_ARCH_CONFIG = textwrap.dedent("""\
    schema: 1
    estimate:
      architecture: {{name: m, kind: {kind}, {fields}}}
      tokens: 1.0e+11
      fleet: [{{unit: V100, count: 64}}]
      data_center: {{name: dc, pue: 1.1, carbon_intensity: 0.4}}
""")


class TestInvalidArchitecture:
    """A broken architecture fails where the config gives it, with every rule
    it breaks on one line; these pin the whole of stderr and the exit code."""

    def run(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("kind, fields, message", [
        pytest.param("dense_gpt", "hidden_size: 0, layer_count: 2, vocab_size: 100",
                     "estimate.architecture: hidden_size: must be a positive integer",
                     id="hidden-size-0"),
        pytest.param("dense_gpt", "hidden_size: 0, layer_count: -1, vocab_size: 100, ff_size: 0",
                     "estimate.architecture: hidden_size: must be a positive integer; "
                     "layer_count: must be a positive integer; "
                     "ff_size: must be a positive integer when given", id="three-fields"),
        pytest.param("moe", "hidden_size: 1024, layer_count: 24, moe_fraction: 1.5, "
                     "expert_groups: [{layer_fraction: 0.5, expert_count: 8}]",
                     "estimate.architecture: moe_fraction: must lie in (0, 1]; expert_groups: "
                     "layer fractions sum to 0.5, expected 1", id="moe"),
        pytest.param("dense_gpt", "explicit_param_count: 0",
                     "estimate.architecture: explicit_param_count: must be a positive number; "
                     "hidden_size: must be a positive integer; "
                     "layer_count: must be a positive integer; "
                     "vocab_size: must be a positive integer", id="explicit-0"),
        pytest.param("moe", "hidden_size: 512, layer_count: 4, vocab_size: 100",
                     "estimate.architecture: moe_fraction: required for MoE architectures; "
                     "expert_groups: required for MoE architectures", id="moe-without-experts"),
        pytest.param("dense_gpt", "hidden_size: 512, layer_count: 4, vocab_size: 100, "
                     "expert_groups: [{layer_fraction: 1, expert_count: 8}]",
                     "estimate.architecture: expert_groups: only valid for MoE architectures",
                     id="dense-with-experts"),
        pytest.param("moe", "hidden_size: 512, layer_count: 4, moe_fraction: 0.5, "
                     "expert_groups: 5", "estimate.architecture.expert_groups: expected a list",
                     id="expert-groups-not-a-list"),
    ])
    def test_estimate(self, tmp_path, capsys, kind, fields, message):
        config = write_config(tmp_path, ESTIMATE_ARCH_CONFIG.format(kind=kind, fields=fields))
        assert self.run(capsys, ["estimate", "--config", config]) == (
            EXIT_CONFIG_ERROR, "", f"config error: {message}\n")

    def test_a_null_head_count_reads_as_absent(self, tmp_path, capsys):
        fields = "hidden_size: 512, layer_count: 4, vocab_size: 100"
        outputs = []
        for name, extra in (("absent.yaml", ""), ("null.yaml", ", head_count: null")):
            config = write_config(tmp_path, ESTIMATE_ARCH_CONFIG.format(
                kind="dense_gpt", fields=fields + extra), name=name)
            outputs.append(self.run(capsys, ["estimate", "--config", config]))
        assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK

    def test_one_bad_sweep_point_fails_the_config(self, tmp_path, capsys):
        config = sweep_config([("a", 1_000_000_000, 2.0e10), ("b", 5_000_000_000, 1.0e11)])
        config = config.replace("explicit_param_count: 5000000000",
                                "hidden_size: 512, layer_count: 0, vocab_size: 100")
        out = tmp_path / "sweep.csv"
        assert self.run(capsys, ["sweep", "--config", write_config(tmp_path, config),
                                 "--out", str(out)]) == (
            EXIT_CONFIG_ERROR, "",
            "config error: sweep.grid[1].architecture: layer_count: must be a positive "
            "integer\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["dense_encdec", "dense_deconly"])
    def test_a_layer_pair_without_heads_is_a_config_error(self, tmp_path, capsys, kind):
        # The parameter model needs the heads and the FF width of these kinds,
        # so the architecture is refused where it is given.
        config = write_config(tmp_path, ESTIMATE_ARCH_CONFIG.format(
            kind=kind, fields="hidden_size: 512, layer_count: 4, vocab_size: 100, head_dim: 64"))
        assert self.run(capsys, ["estimate", "--config", config]) == (
            EXIT_CONFIG_ERROR, "",
            f"config error: estimate.architecture: head_count: required for {kind} "
            f"architectures; ff_size: required for {kind} architectures\n")
        with_explicit = write_config(tmp_path, ESTIMATE_ARCH_CONFIG.format(
            kind=kind, fields="explicit_param_count: 1000000000"), name="explicit.yaml")
        assert self.run(capsys, ["estimate", "--config", with_explicit])[0] == EXIT_OK


class TestValidateCommand:
    def test_default_run_all_pass(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_only_filter(self, capsys):
        assert main(["validate", "--only", "embodied"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "embodied/" in out
        assert "parameters/" not in out

    def test_unknown_group_rejected(self, capsys):
        assert main(["validate", "--only", "nonsense"]) == EXIT_CONFIG_ERROR

    def test_key_error_from_a_bug_propagates(self, monkeypatch):
        def broken(only=None):
            raise KeyError("bug")
        monkeypatch.setattr(validation, "run_validation", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["validate"])

    def test_tampered_fixture_fails(self, capsys, monkeypatch):
        tampered = validation.NOOR_EXPECTED_STORAGE_MWH
        monkeypatch.setattr(validation, "NOOR_EXPECTED_STORAGE_MWH",
                            (tampered[0] * 1.1, tampered[1]))
        assert main(["validate", "--only", "storage"]) == EXIT_VALIDATION_FAILED
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestCatalogCommand:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "V100" in out
        assert "us-central1" in out

    @pytest.mark.parametrize("name, content, in_dir, fault", [
        pytest.param("missing.csv", None, False,
                     "[Errno 2] No such file or directory: 'missing.csv'", id="missing"),
        pytest.param("bom.csv", b"\xff\xfe", False,
                     "'utf-8' codec can't decode byte 0xff in position 0", id="not-utf-8"),
        pytest.param("hardware.csv", b"\xff\xfe", True,
                     "'utf-8' codec can't decode byte 0xff in position 0",
                     id="not-utf-8-in-catalog-dir"),
    ])
    def test_unreadable_catalog_file_is_named(self, tmp_path, monkeypatch, capsys, name,
                                              content, in_dir, fault):
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / name).write_bytes(content)
        if in_dir:
            monkeypatch.setenv("CARBONCAST_CATALOG_DIR", ".")
            argv = ["catalog", "list"]
        else:
            monkeypatch.delenv("CARBONCAST_CATALOG_DIR", raising=False)
            argv = ["catalog", "list", "--catalog", name]
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"catalog error: {name}: cannot read catalog: {fault}")
        assert err.count("\n") == 1


def seeded_sweep_config(seed, points=100):
    """A valid sweep config of dense models, with tokens written both as
    integers and in exponent notation."""
    rng = random.Random(seed)
    lines = ["schema: 1", "sweep:", "  fleet: [{unit: V100, count: 64}, {unit: CPU, count: 8}]",
             "  data_center: {name: dc, pue: 1.1, carbon_intensity: 0.431}", "  grid:"]
    for i in range(points):
        tokens = rng.uniform(1e9, 1e12)
        tokens = f"{tokens:.4e}" if i % 2 else str(int(tokens))
        lines.append(f"    - {{tokens: {tokens}, architecture: {{name: p{i}, kind: dense_gpt, "
                     f"hidden_size: {128 * rng.randint(4, 64)}, "
                     f"layer_count: {rng.randint(4, 48)}, "
                     f"vocab_size: {rng.choice([32000, 50257, 51200])}}}}}")
    return "\n".join(lines) + "\n"


def nested_config(levels: int, flow: bool) -> str:
    """The GPT-3 example with an ``estimate.deep`` key that holds ``levels``
    nested sequences, so the document nests ``levels + 2`` deep: written
    ``[[…]]``, or as block sequences ``- - … x``."""
    deep = ("[" * levels + "]" * levels if flow
            else "\n    " + "- " * levels + "x")
    text = (DOCS_EXAMPLES / "gpt3_training.yaml").read_text(encoding="utf-8")
    return text.replace("estimate:\n", f"estimate:\n  deep: {deep}\n", 1)


class TestYamlLoaders:
    """Configs parse with libyaml's loader when PyYAML has it and with the
    pure-Python one otherwise; deleting ``CSafeLoader`` forces the second."""

    def run(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("command", ["gpt3", "lifecycle", "sweep"])
    def test_both_loaders_give_byte_identical_output(self, tmp_path, capsys, monkeypatch,
                                                     command):
        argv = {
            "gpt3": ["estimate", "--config", str(DOCS_EXAMPLES / "gpt3_training.yaml")],
            "lifecycle": ["lifecycle",
                          "--config", str(DOCS_EXAMPLES / "lifecycle_green_grid.yaml"),
                          "--catalog", str(DOCS_EXAMPLES / "xlm_cluster_hardware.csv"),
                          "--format", "csv"],
            "sweep": ["sweep", "--config", write_config(tmp_path, seeded_sweep_config(7))],
        }[command]
        as_is = self.run(capsys, argv)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        pure_python = self.run(capsys, argv)
        assert as_is[0] == EXIT_OK
        assert as_is == pure_python

    @pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
    @pytest.mark.parametrize("text, where", [
        pytest.param("a: [1, 2", "line 1, column 4", id="open-flow-sequence"),
        pytest.param("schema: 1\nestimate:\n\tphase: training\n", "line 3, column 1",
                     id="tab-indent"),
    ])
    def test_malformed_yaml_names_the_line_and_column(self, tmp_path, capsys, monkeypatch,
                                                      libyaml, text, where):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = write_config(tmp_path, text)
        assert main(["estimate", "--config", path]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: not valid YAML: ")
        assert where in err
        # Only the pure-Python parser quotes the line, with a caret under the fault.
        assert ("^" in err) == (not hasattr(yaml, "CSafeLoader"))

    @pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
    @pytest.mark.parametrize("levels", [
        pytest.param(cli.MAX_NESTING - 1, id="just-over"),
        pytest.param(498, id="500-deep"),
    ])
    def test_a_document_over_the_nesting_limit_is_refused(self, tmp_path, capsys, monkeypatch,
                                                          libyaml, levels):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = write_config(tmp_path, nested_config(levels, flow=False))
        assert self.run(capsys, ["estimate", "--config", path]) == (
            EXIT_CONFIG_ERROR, "",
            f"config error: {path}: nested deeper than {cli.MAX_NESTING} levels\n")

    @pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
    def test_a_document_at_the_nesting_limit_loads(self, tmp_path, capsys, monkeypatch,
                                                   libyaml):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = write_config(tmp_path, nested_config(cli.MAX_NESTING - 2, flow=False))
        assert self.run(capsys, ["estimate", "--config", path]) == (
            EXIT_CONFIG_ERROR, "", "config error: estimate.deep: unknown key\n")

    @pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
    def test_a_syntax_error_past_a_deep_part_is_named(self, tmp_path, capsys, monkeypatch,
                                                      libyaml):
        # At the nesting limit, then malformed.
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        text = nested_config(cli.MAX_NESTING - 2, flow=False) + "bad: ]: ]\n"
        path = write_config(tmp_path, text)
        code, out, err = self.run(capsys, ["estimate", "--config", path])
        assert (code, out) == (EXIT_CONFIG_ERROR, "")
        assert err.startswith(f"config error: {path}: not valid YAML: ")
        assert f"line {text.count(chr(10))}, column " in err

    def test_both_loaders_name_the_first_fault_of_a_two_document_text(self, tmp_path, capsys,
                                                                     monkeypatch):
        # A second document, then a malformed line: the second document's
        # start is the first fault, and both loaders name it the same way.
        text = ((DOCS_EXAMPLES / "gpt3_training.yaml").read_text(encoding="utf-8")
                + "---\nbad: ]: ]\n")
        path = write_config(tmp_path, text)
        errors = []
        for libyaml in (True, False):
            if not libyaml:
                monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
            code, out, err = self.run(capsys, ["estimate", "--config", path])
            assert (code, out) == (EXIT_CONFIG_ERROR, "")
            assert err.startswith(f"config error: {path}: not valid YAML: "
                                  "expected a single document in the stream")
            errors.append(re.findall(r"line \d+, column \d+", err))
        assert errors == [["line 4, column 1", f"line {text.count(chr(10)) - 1}, column 1"]] * 2

    @pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
    def test_a_number_field_nested_1000_deep_exits_2(self, tmp_path, capsys, monkeypatch,
                                                     libyaml):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        text = (DOCS_EXAMPLES / "gpt3_training.yaml").read_text(encoding="utf-8")
        deep = "[" * 1000 + "3.0e+11" + "]" * 1000
        path = write_config(tmp_path, text.replace("tokens: 3.0e+11", f"tokens: {deep}"))
        assert self.run(capsys, ["estimate", "--config", path]) == (
            EXIT_CONFIG_ERROR, "",
            f"config error: {path}: nested deeper than {cli.MAX_NESTING} levels\n")

    @pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
    def test_a_number_field_nested_to_the_limit_is_named_by_its_type(
            self, tmp_path, capsys, monkeypatch, libyaml):
        # Its repr is too long for a message, so the value is named by its type.
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        text = (DOCS_EXAMPLES / "gpt3_training.yaml").read_text(encoding="utf-8")
        levels = cli.MAX_NESTING - 2
        deep = "[" * levels + "3.0e+11" + "]" * levels
        path = write_config(tmp_path, text.replace("tokens: 3.0e+11", f"tokens: {deep}"))
        assert self.run(capsys, ["estimate", "--config", path]) == (
            EXIT_CONFIG_ERROR, "", "config error: estimate.tokens: expected a number, got a list\n")

    @pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
    @pytest.mark.parametrize("old, new, message", [
        pytest.param("  tokens: 3.0e+11\n", "  tokens: 3.0e+11\n  tokens: 1.0e+9\n",
                     "key 'tokens' given twice (lines 11 and 12)", id="block"),
        pytest.param("  tokens: 3.0e+11\n", "  tokens: 3.0e+11\n  'tokens': 1.0e+9\n",
                     "key 'tokens' given twice (lines 11 and 12)", id="plain-and-quoted"),
        pytest.param("  data_center:\n    name: openai-dc\n    pue: 1.1\n"
                     "    carbon_intensity: 0.429\n",
                     "  data_center: {name: openai-dc, pue: 1.1, name: dc, "
                     "carbon_intensity: 0.429}\n",
                     "key 'name' given twice (lines 15 and 15)", id="one-line-flow"),
    ])
    def test_a_key_given_twice_is_refused(self, tmp_path, capsys, monkeypatch, libyaml, old,
                                          new, message):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        text = (DOCS_EXAMPLES / "gpt3_training.yaml").read_text(encoding="utf-8")
        assert old in text
        path = write_config(tmp_path, text.replace(old, new, 1))
        assert self.run(capsys, ["estimate", "--config", path]) == (
            EXIT_CONFIG_ERROR, "", f"config error: {path}: {message}\n")

    @pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
    def test_an_int_key_and_its_quoted_digits_are_two_keys(self, tmp_path, capsys, monkeypatch,
                                                           libyaml):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = write_config(tmp_path, "schema: 1\nestimate:\n  1: x\n  '1': y\n")
        assert self.run(capsys, ["estimate", "--config", path]) == (
            EXIT_CONFIG_ERROR, "", "config error: estimate.1: unknown key\n")


def run_python(code: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that runs ``code`` on this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "pure-python"])
def test_a_config_nested_50000_deep_exits_2(tmp_path, libyaml):
    # In a fresh interpreter, as the command runs: the composer stops at the
    # first level past the limit, so neither parser reads the rest.
    path = write_config(tmp_path, nested_config(50_000, flow=True))
    drop = "" if libyaml else "del yaml.CSafeLoader; "
    result = run_python(f"import sys, yaml; {drop}from carboncast.cli import main; "
                        f"sys.exit(main(['estimate', '--config', {path!r}]))")
    assert (result.returncode, result.stdout, result.stderr) == (
        EXIT_CONFIG_ERROR, "",
        f"config error: {path}: nested deeper than {cli.MAX_NESTING} levels\n")


def run_probe(probe: str) -> str:
    """The standard output of a fresh interpreter that runs ``probe``, so that
    no other test's imports count."""
    result = run_python(probe)
    result.check_returncode()
    return result.stdout.strip()


def test_importing_the_cli_loads_no_module_that_a_cold_start_does_not_use():
    # YAML and the validation fixtures load only in the commands that use
    # them; the record types need neither ``dataclasses`` nor ``inspect``,
    # which pull in ``ast``, ``dis`` and ``tokenize``.
    assert run_probe(
        "import sys, carboncast.cli; "
        "print([m for m in ('numpy', 'yaml', 'carboncast.validation', 'dataclasses', "
        "'inspect') if m in sys.modules])") == "[]"


MODEL_CHAIN = tuple(f"carboncast.{m}" for m in (
    "params", "scaling", "flops", "efficiency", "operational", "embodied", "pipeline",
    "validation"))


@pytest.mark.parametrize("probe", [
    "from carboncast.catalog import resolve_catalogs; resolve_catalogs()",
    "import carboncast.types",
])
def test_the_catalog_and_the_types_load_no_model_module(probe):
    # The package root loads a model module on the first use of one of its names.
    assert run_probe(f"import sys; {probe}; "
                     f"print([m for m in {MODEL_CHAIN!r} if m in sys.modules])") == "[]"


def test_importing_the_cli_loads_the_pipeline():
    # The benchmark's layer tracer wraps only modules already imported when it
    # is installed, which is right after the CLI is.
    assert run_probe("import sys, carboncast.cli; "
                     "print('carboncast.pipeline' in sys.modules)") == "True"


def test_a_root_name_loads_its_submodule_on_first_use():
    assert run_probe(
        "import sys, carboncast as cc; "
        "print('estimate' in vars(cc), 'carboncast.pipeline' in sys.modules); "
        "print(cc.estimate is cc.pipeline.estimate, 'estimate' in vars(cc)); "
        "print(cc.validation is sys.modules['carboncast.validation'])"
    ).splitlines() == ["False False", "True True", "True"]


def test_after_the_catalog_a_root_name_still_loads_its_submodule():
    # The catalog loads no model module, so the root loads the pipeline for ``cc.estimate``.
    assert run_probe(
        "import sys, carboncast.catalog, carboncast as cc; "
        "print('carboncast.pipeline' in sys.modules, cc.estimate.__module__)"
    ) == "False carboncast.pipeline"


def test_a_submodules_names_are_bound_at_the_root_when_it_is_imported():
    # Not at their first lookup there: a function replaced in its module in
    # the meantime (the benchmark's tracer does this) would stay at the root.
    assert run_probe(
        "import carboncast as cc, carboncast.pipeline as p; original = p.estimate; "
        "p.estimate = None; print(cc.estimate is original, 'count_params' in vars(cc))"
    ) == "True True"


def test_a_sweep_runs_without_importing_inspect(tmp_path):
    # Its config keys are the parameters of functions, read from their code.
    argv = ["sweep", "--config", str(DOCS_EXAMPLES / "sweep_grid.yaml"),
            "--out", str(tmp_path / "sweep.csv")]
    assert run_probe("import sys; from carboncast.cli import main; "
                     f"print(main({argv!r}), 'inspect' in sys.modules)") == "0 False"
    assert (tmp_path / "sweep.csv").read_text().startswith(",".join(cli.SWEEP_CSV_HEADER))
