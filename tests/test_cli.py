"""Command-line interface: subcommands, formats, exit codes."""

import pytest

from bdcsim.cli import main

DESIGN_FLAGS = ["design", "--pv-voltage", "24", "--pv-current", "3",
                "--battery-voltage", "12", "--switching-frequency", "20k",
                "--load-voltage", "24", "--load-current", "2.4",
                "--ripple-current", "0.3"]


class TestDesignCommand:
    def test_reference_report(self, capsys):
        assert main(DESIGN_FLAGS) == 0
        out = capsys.readouterr().out
        assert "D1 = 0.500" in out
        assert "D2 = 0.500" in out
        assert "Lmin = 1000 µH" in out
        assert "Lboost = 1000 µH" in out
        assert "C = 250 µF" in out
        assert "dv = 0.24 V" in out

    def test_csv_format(self, capsys):
        assert main(DESIGN_FLAGS + ["--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "quantity,value"
        values = dict(line.split(",") for line in out[1:])
        assert float(values["d1"]) == pytest.approx(0.5)
        assert float(values["l_min"]) == pytest.approx(1e-3)
        assert float(values["c_out"]) == pytest.approx(250e-6)

    def test_missing_flag_is_input_error(self, capsys):
        assert main(["design", "--pv-voltage", "24"]) == 1
        assert "missing required flag" in capsys.readouterr().err

    def test_unparseable_flag_value(self):
        assert main(["design", "--pv-voltage", "abc"]) == 1

    def test_spec_file_matches_flags(self, tmp_path, capsys):
        spec = tmp_path / "ref.design"
        spec.write_text(
            "[design]\npv_voltage = 24\npv_current = 3\nbattery_voltage = 12\n"
            "switching_frequency = 20k\nload_voltage = 24\nload_current = 2.4\n"
            "ripple_current = 0.3\n")
        assert main(DESIGN_FLAGS) == 0
        from_flags = capsys.readouterr().out
        assert main(["design", "--spec-file", str(spec)]) == 0
        from_file = capsys.readouterr().out
        assert from_flags == from_file

    def test_invalid_spec_is_input_error(self, capsys):
        bad = DESIGN_FLAGS.copy()
        bad[bad.index("--battery-voltage") + 1] = "30"  # battery above the bus
        assert main(bad) == 1
        assert "error" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_line_regulation_fixture(self, data_dir, capsys):
        assert main(["analyze", str(data_dir / "table1.csv")]) == 0
        out = capsys.readouterr().out
        assert "0.06%" in out
        assert "max consecutive-pair: 1.78%" in out
        assert "full span:" in out

    def test_load_regulation_fixture(self, data_dir, capsys):
        assert main(["analyze", str(data_dir / "table2.csv"), "--nominal", "24"]) == 0
        out = capsys.readouterr().out
        assert "load regulation: 0.208%" in out

    def test_machine_readable_format(self, data_dir, capsys):
        assert main(["analyze", str(data_dir / "table1.csv"), "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "metric,value"
        values = dict(line.split(",") for line in out[1:])
        assert float(values["pair_10_15_percent"]) == pytest.approx(0.06)
        assert float(values["max_pair_percent"]) == pytest.approx(1.78)

    def test_single_row_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("setting,v_out,i_out\n10,24.0,2.4\n")
        assert main(["analyze", str(path)]) == 1
        assert "2 rows" in capsys.readouterr().err

    def test_unknown_csv_is_input_error(self, tmp_path):
        path = tmp_path / "what.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["analyze", str(path)]) == 1

    def test_missing_file_is_input_error(self):
        assert main(["analyze", "/nonexistent/nothing.csv"]) == 1

    def test_trace_analysis(self, scenarios_dir, tmp_path, capsys):
        out_csv = tmp_path / "quick.csv"
        assert main(["simulate", str(scenarios_dir / "quick.scenario"),
                     "--output", str(out_csv)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out_csv), "--inductance", "1m",
                     "--switching-frequency", "20k"]) == 0
        out = capsys.readouterr().out
        assert "predicted ripple" in out
        assert "current envelope" in out

    def test_trace_analysis_needs_plant_flags(self, scenarios_dir, tmp_path, capsys):
        out_csv = tmp_path / "quick.csv"
        main(["simulate", str(scenarios_dir / "quick.scenario"),
              "--output", str(out_csv)])
        capsys.readouterr()
        assert main(["analyze", str(out_csv)]) == 1
        assert "--inductance" in capsys.readouterr().err

    def test_plant_flags_checked_before_the_trace_is_read(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,i_l,v_c_bus,v_c_o,v_batt_terminal,i_batt,soc,mode,duty,s1,s2\n"
                        "not,a,row\n")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "--inductance and --switching-frequency" in err
        assert "row" not in err


class TestSimulateCommand:
    def test_writes_trace_and_summary(self, scenarios_dir, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        assert main(["simulate", str(scenarios_dir / "quick.scenario"),
                     "--output", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert out_csv.exists()
        assert "mode occupancy" in out
        assert "i_l peak-to-peak" in out

    def test_byte_identical_reruns(self, scenarios_dir, tmp_path):
        a = tmp_path / "a.csv"
        c = tmp_path / "b.csv"
        main(["simulate", str(scenarios_dir / "quick.scenario"), "--output", str(a)])
        main(["simulate", str(scenarios_dir / "quick.scenario"), "--output", str(c)])
        assert a.read_bytes() == c.read_bytes()

    def test_output_dir_naming(self, scenarios_dir, tmp_path):
        assert main(["simulate", str(scenarios_dir / "quick.scenario"),
                     "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "quick.trace.csv").exists()

    def test_empty_scenario_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.scenario"
        path.write_text("")
        assert main(["simulate", str(path)]) == 1
        assert "missing section" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.scenario"
        path.write_text("[converter]\nv_bus_nominal = twenty\n")
        assert main(["simulate", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_value_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "inf.scenario"
        path.write_text(
            "[converter]\nv_bus_nominal = 24\nl_p = inf\nc_bus = 1000u\nc_o = 250u\n"
            "f_s = 20k\nr_load = 10\n"
            "[battery]\nv_emf_full = 12\ncapacity = 7200\n"
            "[controller]\n"
            "[source]\nuntil=1 volts=24\n"
            "[sim]\nt_end = 1m\ndt = 2.5u\n")
        assert main(["simulate", str(path), "--output", str(tmp_path / "x.csv")]) == 1
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "blowup.scenario"
        path.write_text(
            "[converter]\nv_bus_nominal = 24\nl_p = 1m\nc_bus = 1000u\nc_o = 250u\n"
            "f_s = 20k\nr_load = 10\n"
            "[battery]\nv_emf_full = 12\ncapacity = 7200\n"
            "[controller]\ni_charge_ref = 3\n"
            "[source]\nuntil=1 volts=0\n"
            "[sim]\nt_end = 50m\ndt = 2.5u\nfixed_duty = 0.95\n"
            "initial_mode = discharging\ni_limit = 50\n")
        assert main(["simulate", str(path), "--output", str(tmp_path / "x.csv")]) == 2
        assert "diverged" in capsys.readouterr().err

    def test_output_with_multiple_scenarios_rejected(self, scenarios_dir, tmp_path, capsys):
        q = str(scenarios_dir / "quick.scenario")
        assert main(["simulate", q, q, "--output", str(tmp_path / "x.csv")]) == 1
        assert "--output-dir" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_help_exits_clean():
    assert main(["--help"]) == 0
