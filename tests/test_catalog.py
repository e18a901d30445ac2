"""Catalog parsing, packaged defaults and catalog resolution."""

import functools
import inspect
import io
from pathlib import Path

import pytest

from carboncast import catalog, cli, sweep
from carboncast.types import CatalogError, HardwareRole, LlmArchitecture

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


class TestHardwareCatalog:
    def test_v100_row_parses(self):
        text = (",".join(catalog.HARDWARE_FIELDS) + "\n"
                "V100,accelerator,125,300,,815,1.2,area,,,5\n")
        units = catalog.load_hardware(io.StringIO(text))
        assert len(units) == 1
        u = units[0]
        assert u.die_area_mm2 == 815
        assert u.cpa == 1.2
        assert u.role is HardwareRole.ACCELERATOR

    def test_empty_file_gives_empty_list(self):
        assert catalog.load_hardware(io.StringIO("")) == []
        assert catalog.load_datacenters(io.StringIO("")) == []

    def test_bad_row_reports_line_number(self):
        text = (",".join(catalog.HARDWARE_FIELDS) + "\n"
                "V100,accelerator,125,300,,815,1.2,area,,,5\n"
                "broken,accelerator,not_a_number,,,,,,,,\n")
        with pytest.raises(CatalogError, match="row 3"):
            catalog.load_hardware(io.StringIO(text))

    def test_invariant_violation_names_field(self):
        text = (",".join(catalog.HARDWARE_FIELDS) + "\n"
                "noflops,accelerator,,300,,815,1.2,area,,,5\n")
        with pytest.raises(CatalogError, match="peak_tflops"):
            catalog.load_hardware(io.StringIO(text))

    def test_zero_lifetime_rejected_blank_defaulted(self):
        head = ",".join(catalog.HARDWARE_FIELDS) + "\n"
        with pytest.raises(CatalogError, match="row 2: zero: lifetime_years must be > 0"):
            catalog.load_hardware(io.StringIO(head + "zero,accelerator,125,300,,815,1.2,area,,,0\n"))
        blank = catalog.load_hardware(io.StringIO(head + "blank,accelerator,125,300,,815,1.2,area,,,\n"))
        assert blank[0].lifetime_years == 5.0

    @pytest.mark.parametrize("column, row", [
        ("peak_tflops", "x,accelerator,nan,300,,815,1.2,area,,,5"),
        ("tdp_watts", "x,accelerator,125,inf,,815,1.2,area,,,5"),
        ("cpa", "x,accelerator,125,300,,815,-inf,area,,,5"),
        ("lifetime_years", "x,accelerator,125,300,,815,1.2,area,,,NaN"),
    ])
    def test_non_finite_cell_rejected(self, column, row):
        text = ",".join(catalog.HARDWARE_FIELDS) + "\n" + row + "\n"
        cell = row.split(",")[catalog.HARDWARE_FIELDS.index(column)]
        with pytest.raises(CatalogError, match=f"^hardware catalog row 2: x.{column}: "
                                               f"expected a finite number, got '{cell}'$"):
            catalog.load_hardware(io.StringIO(text))


class TestDataCenterCatalog:
    def test_us_central1_row(self):
        text = (",".join(catalog.DATACENTER_FIELDS) + "\n"
                "us-central1,1.1,0.394\n")
        profiles = catalog.load_datacenters(io.StringIO(text))
        assert profiles[0].carbon_intensity == 0.394
        assert profiles[0].pue == 1.1

    def test_nan_cell_rejected(self):
        text = (",".join(catalog.DATACENTER_FIELDS) + "\n"
                "nan-dc,nan,0.394\n")
        with pytest.raises(CatalogError, match="^data-center catalog row 2: nan-dc.pue: "
                                               "expected a finite number, got 'nan'$"):
            catalog.load_datacenters(io.StringIO(text))

    @pytest.mark.parametrize("row, column", [
        ("dc,inf,0.394", "pue"),
        ("dc,1.1,inf", "carbon_intensity_kg_per_kwh"),
    ])
    def test_non_finite_cell_rejected(self, row, column):
        text = ",".join(catalog.DATACENTER_FIELDS) + "\n" + row + "\n"
        field = column.removesuffix("_kg_per_kwh")  # the column fills carbon_intensity
        with pytest.raises(CatalogError, match=f"^data-center catalog row 2: dc.{field}: "
                                               f"expected a finite number, got 'inf'$"):
            catalog.load_datacenters(io.StringIO(text))


class TestDefaults:
    def test_every_default_unit_satisfies_invariants(self):
        # Construction alone runs the invariant checks.
        units = catalog.default_hardware()
        names = {u.name for u in units}
        assert {"V100", "A100", "H100", "TPUv3", "TPUv4"} <= names
        a100 = next(u for u in units if u.name == "A100")
        assert a100.peak_tflops == 312  # closes published inference latency

    def test_default_datacenters_cover_published_regions(self):
        names = {p.name for p in catalog.default_datacenters()}
        assert {"asia-east2", "europe-north1", "us-central1", "us-south1"} <= names

    def test_default_anchor_table(self):
        anchors = catalog.default_anchors()
        assert (175e9, 0.47) in anchors

    @pytest.mark.parametrize("row, column", [
        ("nan,0.4", "param_count"), ("1e9,inf", "efficiency")])
    def test_non_finite_anchor_rejected(self, row, column):
        cell = row.split(",")[catalog.ANCHOR_FIELDS.index(column)]
        with pytest.raises(CatalogError, match=f"^anchor table row 3: {column}: "
                                               f"expected a finite number, got '{cell}'$"):
            catalog.load_anchors(io.StringIO(f"param_count,efficiency\n1e9,0.3\n{row}\n"))

    @pytest.mark.parametrize("load", [
        catalog.default_hardware, catalog.default_datacenters, catalog.default_anchors])
    def test_default_tables_come_back_as_fresh_lists(self, load):
        first = load()
        expected = list(first)
        first.reverse()
        first.pop()
        assert load() == expected
        assert load() is not load()

    def test_env_var_extends_catalog(self, tmp_path, monkeypatch):
        custom = tmp_path / "hardware.csv"
        custom.write_text(
            ",".join(catalog.HARDWARE_FIELDS) + "\n"
            "MyChip,accelerator,500,400,,600,1.5,area,,,4\n",
            encoding="utf-8",
        )
        monkeypatch.setenv(catalog.CATALOG_DIR_ENV, str(tmp_path))
        units, centers = catalog.resolve_catalogs()
        assert "MyChip" in units
        assert "V100" in units  # defaults still present
        assert "us-central1" in centers

    def test_later_catalog_wins(self, tmp_path):
        override = tmp_path / "hw.csv"
        override.write_text(
            ",".join(catalog.HARDWARE_FIELDS) + "\n"
            "V100,accelerator,999,300,,815,1.2,area,,,5\n",
            encoding="utf-8",
        )
        units, _ = catalog.resolve_catalogs([override])
        assert units["V100"].peak_tflops == 999

    @pytest.mark.parametrize("header", [
        ",".join(catalog.DATACENTER_FIELDS),
        "name, pue, carbon_intensity_kg_per_kwh",
        '"name","pue","carbon_intensity_kg_per_kwh"',
    ])
    def test_user_catalog_header_read_as_the_loader_reads_it(self, tmp_path, header):
        path = tmp_path / "dc.csv"
        path.write_text(header + "\nmy-dc,1.2,0.3\n", encoding="utf-8")
        loaded = catalog.load_datacenters(io.StringIO(path.read_text(encoding="utf-8")))
        _, centers = catalog.resolve_catalogs([path])
        assert centers["my-dc"] == loaded[0]

    # The last is a data-center header with one column too many.
    @pytest.mark.parametrize("text", ["", "\n", "name,pue\nmy-dc,1.2\n",
                                      "name,pue,carbon_intensity_kg_per_kwh,cfe\n"
                                      "my-dc,1.2,0.3,0.5\n"])
    def test_unknown_header_rejected(self, tmp_path, text):
        path = tmp_path / "odd.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CatalogError, match="header matches no known catalog schema"):
            catalog.resolve_catalogs([path])

    def test_bad_header_message(self):
        with pytest.raises(CatalogError, match=r"^anchor table: bad header \['size', 'eff'\], "
                                               r"expected \['param_count', 'efficiency'\]$"):
            catalog.load_anchors(io.StringIO("size,eff\n1e9,0.3\n"))


# Every row of a table has the header's cell count (RFC 4180), give or take
# trailing blank cells: a short row would put its cells in the wrong columns.
HARDWARE_HEAD = ",".join(catalog.HARDWARE_FIELDS)
DATACENTER_HEAD = ",".join(catalog.DATACENTER_FIELDS)
ANCHOR_HEAD = ",".join(catalog.ANCHOR_FIELDS)


class TestRowLength:
    @pytest.mark.parametrize("load, text, message", [
        (catalog.load_hardware, HARDWARE_HEAD + "\nXLM-SSD,ssd,,,,,,,576,5\n",
         "hardware catalog row 2: 10 cells, expected 11"),
        (catalog.load_hardware,
         HARDWARE_HEAD + "\nV100,accelerator,125,300,,815,1.2,area,,,5,EXTRA\n",
         "hardware catalog row 2: 12 cells, expected 11"),
        (catalog.load_datacenters, DATACENTER_HEAD + "\ndc,1.1\n",
         "data-center catalog row 2: 2 cells, expected 3"),
        (catalog.load_datacenters, DATACENTER_HEAD + "\ndc,1.1,0.4\ndc2,1.1,0.4,0.5\n",
         "data-center catalog row 3: 4 cells, expected 3"),
        (catalog.load_anchors, ANCHOR_HEAD + "\n1e9\n", "anchor table row 2: 1 cells, expected 2"),
        (catalog.load_anchors, ANCHOR_HEAD + "\n1e9,0.4,0.5\n",
         "anchor table row 2: 3 cells, expected 2"),
    ], ids=["hardware-short", "hardware-long", "datacenter-short", "datacenter-long",
            "anchor-short", "anchor-long"])
    def test_row_of_another_length_rejected(self, load, text, message):
        with pytest.raises(CatalogError, match=f"^{message}$"):
            load(io.StringIO(text))

    @pytest.mark.parametrize("load, text, count", [
        (catalog.load_hardware, HARDWARE_HEAD + "\n,,\nXLM-SSD,ssd,,,,,,,,576,5,,\n", 1),
        (catalog.load_datacenters, DATACENTER_HEAD + "\n,\ndc,1.1,0.4,\n", 1),
        (catalog.load_anchors, ANCHOR_HEAD + "\n\n1e9,0.4,,\n", 1),
    ], ids=["hardware", "datacenter", "anchor"])
    def test_blank_rows_and_trailing_blank_cells_load(self, load, text, count):
        assert len(load(io.StringIO(text))) == count


# Within one file a name is given once; across files the later one wins.
class TestRepeatedNames:
    @pytest.mark.parametrize("load, text, message", [
        (catalog.load_hardware,
         HARDWARE_HEAD + "\nXLM-DRAM,dram,,,,,,,,102.4,5\nXLM-SSD,ssd,,,,,,,,576,5\n"
         "XLM-DRAM,dram,,,,,,,,102.4,3\n",
         "hardware catalog row 4: repeats the name 'XLM-DRAM' of row 2"),
        (catalog.load_datacenters, DATACENTER_HEAD + "\n dc ,1.1,0.4\n\ndc,1.2,0.3\n",
         "data-center catalog row 4: repeats the name 'dc' of row 2"),
    ], ids=["hardware", "datacenter"])
    def test_a_name_given_twice_in_one_file_is_refused(self, load, text, message):
        with pytest.raises(CatalogError, match=f"^{message}$"):
            load(io.StringIO(text))

    def test_a_repeated_row_in_a_user_catalog_exits_2(self, tmp_path, capsys):
        text = (EXAMPLES / "xlm_cluster_hardware.csv").read_text(encoding="utf-8")
        path = tmp_path / "hw.csv"
        path.write_text(text + "XLM-DRAM,dram,,,,,,,,102.4,3\n", encoding="utf-8")
        code = cli.main(["lifecycle", "--config", str(EXAMPLES / "lifecycle_green_grid.yaml"),
                         "--catalog", str(path)])
        assert (code, capsys.readouterr().err) == (
            cli.EXIT_CONFIG_ERROR,
            f"catalog error: {path}: hardware catalog row 4: "
            "repeats the name 'XLM-DRAM' of row 3\n")

    def test_a_fault_names_the_one_of_two_files_it_is_in(self, tmp_path, monkeypatch, capsys):
        # Both files give XLM-SSD in row 2; only the second has a word in a number cell.
        monkeypatch.chdir(tmp_path)
        good = EXAMPLES / "xlm_cluster_hardware.csv"
        text = good.read_text(encoding="utf-8")
        assert text.splitlines()[1] == "XLM-SSD,ssd,,,,,,,,576,5"
        Path("bad.csv").write_text(text.replace(",576,", ",lots,"), encoding="utf-8")
        code = cli.main(["lifecycle", "--config", str(EXAMPLES / "lifecycle_green_grid.yaml"),
                         "--catalog", str(good), "--catalog", "bad.csv"])
        assert (code, capsys.readouterr().err) == (
            cli.EXIT_CONFIG_ERROR, "catalog error: bad.csv: hardware catalog row 2: "
            "XLM-SSD.embodied_kg_override: expected a number, got 'lots'\n")

    def test_across_files_the_later_row_still_wins(self, tmp_path):
        paths = []
        for i, lifetime in enumerate((5, 3)):
            paths.append(tmp_path / f"hw{i}.csv")
            paths[-1].write_text(HARDWARE_HEAD + f"\nXLM-DRAM,dram,,,,,,,,102.4,{lifetime}\n",
                                 encoding="utf-8")
        units, _ = catalog.resolve_catalogs(paths)
        assert units["XLM-DRAM"].lifetime_years == 3


def _point(architecture: LlmArchitecture, tokens: float = 1.0) -> None:
    """A function with every kind of parameter a config function can have:
    annotated, with and without a default, none keyword-only."""


@functools.wraps(_point)
def _wrapped_point(*args, **kwargs):
    return _point(*args, **kwargs)


class TestConfigFields:
    @pytest.mark.parametrize("target", [sweep, cli._grid_point, _point, _wrapped_point],
                             ids=["sweep", "_grid_point", "function", "wrapper"])
    def test_parameters_and_defaults_are_those_inspect_reads(self, target):
        params = inspect.signature(target).parameters
        expected = [(name, p.default is not p.empty) for name, p in params.items()
                    if (target.__name__, name) not in catalog._NOT_CONFIG]
        assert [(name, has_default) for name, _, has_default
                in catalog._config_fields(target).values()] == expected

    def test_a_wrapper_gives_the_wrapped_function_s_own_parameters(self):
        assert catalog._config_fields(_wrapped_point) == {
            "architecture": ("architecture", LlmArchitecture, False),
            "tokens": ("tokens", float, True)}
