"""Command-line interface: subcommands, formats, exit codes."""

import pytest

from bdcsim import analysis, cli
from bdcsim.cli import main
from bdcsim.design import DesignSpec, design
from bdcsim.sim import steady_window, trace_from_csv

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

    @pytest.mark.parametrize("row", ["25,nan,1", "inf,24.05,1"])
    def test_non_finite_regulation_value_is_input_error(self, tmp_path, capsys, row):
        path = tmp_path / "reg.csv"
        path.write_text(f"setting,v_out,i_out\n20,24.0,1\n{row}\n")
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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


    @pytest.mark.parametrize("column, value", [("v_c_o", "nan"), ("i_l", "inf")])
    def test_non_finite_trace_value_is_input_error(self, scenarios_dir, tmp_path, capsys,
                                                   column, value):
        out_csv = tmp_path / "quick.csv"
        main(["simulate", str(scenarios_dir / "quick.scenario"), "--output", str(out_csv)])
        capsys.readouterr()
        lines = out_csv.read_bytes().split(b"\r\n")
        cells = lines[5].split(b",")
        cells[lines[0].split(b",").index(column.encode())] = value.encode()
        lines[5] = b",".join(cells)
        out_csv.write_bytes(b"\r\n".join(lines))
        assert main(["analyze", str(out_csv), "--inductance", "1m",
                     "--switching-frequency", "20k"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"line 6: {column}" in err

    @pytest.mark.parametrize("frequency", ["0", "-20k"])
    def test_non_positive_switching_frequency(self, scenarios_dir, tmp_path, capsys,
                                              frequency):
        out_csv = tmp_path / "quick.csv"
        main(["simulate", str(scenarios_dir / "quick.scenario"),
              "--output", str(out_csv)])
        capsys.readouterr()
        assert main(["analyze", str(out_csv), "--inductance", "1m",
                     f"--switching-frequency={frequency}"]) == 1
        assert "switching frequency must be positive" in capsys.readouterr().err


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
        assert not (tmp_path / "x.csv").exists()
        # Rows already streamed to the temporary file go with it, and an
        # existing trace stays as it was.
        old = tmp_path / "old.csv"
        old.write_bytes(b"an earlier trace\r\n")
        assert main(["simulate", str(path), "--output", str(old)]) == 2
        assert old.read_bytes() == b"an earlier trace\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blowup.scenario", "old.csv"]

    def test_unallocatable_trace_is_input_error(self, scenarios_dir, tmp_path, capsys):
        """A horizon whose trace no file system holds (1.2e16 rows at dt
        2.5 us and every step recorded, at least 39 bytes each) is refused
        before the first step: exit 1 with a message, no traceback and no
        trace file."""
        text = (scenarios_dir / "quick.scenario").read_text()
        path = tmp_path / "long.scenario"
        path.write_text(text.replace("t_end = 5m", "t_end = 3e10"))
        assert main(["simulate", str(path), "--output", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "allocate" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("sim", ["t_end = 1m\ndt = 1e-300\n",   # f_s*dt is 0
                                     "t_end = 1m\ndt = 1e-320\n",
                                     "t_end = 1e300\ndt = 1e-300\n"])
    def test_extreme_step_size_is_input_error(self, tmp_path, capsys, sim):
        path = tmp_path / "steps.scenario"
        f_s = "1e-300" if sim == "t_end = 1m\ndt = 1e-300\n" else "20k"
        path.write_text(
            "[converter]\nv_bus_nominal = 24\nl_p = 1m\nc_bus = 1000u\nc_o = 250u\n"
            f"f_s = {f_s}\nr_load = 10\n"
            "[battery]\nv_emf_full = 12\ncapacity = 7200\n"
            "[controller]\n"
            "[source]\nuntil=1 volts=24\n"
            "[sim]\n" + sim)
        assert main(["simulate", str(path), "--output", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite step count" in err
        assert not (tmp_path / "x.csv").exists()

    def test_source_beyond_voltage_bound_is_input_error(self, scenarios_dir, tmp_path,
                                                         capsys):
        text = (scenarios_dir / "quick.scenario").read_text()
        path = tmp_path / "huge.scenario"
        path.write_text(text.replace("until=1 volts=24", "until=1 from=-1e300 to=1e300"))
        assert main(["simulate", str(path), "--output", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "source segment 1" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_current_bound_is_input_error(self, scenarios_dir, tmp_path,
                                                       capsys, value):
        text = (scenarios_dir / "quick.scenario").read_text()
        path = tmp_path / "bound.scenario"
        path.write_text(text + f"i_limit = {value}\n")
        assert main(["simulate", str(path), "--output", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "i_limit must be positive" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        ("init_v_c_o = 500", "initial_state.v_c_o = 500 exceeds v_limit"),
        ("init_i_l = 1000", "initial_state.i_l = 1000 exceeds i_limit"),
        ("init_v_c_bus = -300", "initial_state.v_c_bus = -300 exceeds v_limit"),
        ("fixed_duty = 0.6\ninitial_mode = discharging",
         "initial_duty has no effect with fixed_duty")])
    def test_inconsistent_start_is_input_error(self, scenarios_dir, tmp_path, capsys,
                                               lines, message):
        """A start state beyond the divergence bounds, or an initial_duty
        that fixed_duty overrides, is an input error, not a divergence."""
        text = (scenarios_dir / "quick.scenario").read_text()
        path = tmp_path / "start.scenario"
        path.write_text(text + lines + "\n")
        assert main(["simulate", str(path), "--output", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "x.csv").exists()

    def test_invalid_window_writes_no_trace(self, scenarios_dir, tmp_path, capsys):
        """A trace shorter than the steady window fails before the write."""
        text = (scenarios_dir / "quick.scenario").read_text()
        path = tmp_path / "slow.scenario"
        path.write_text(text.replace("f_s = 20k", "f_s = 1e-300"))
        out_dir = tmp_path / "out"
        assert main(["simulate", str(path), "--output-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "longer than trace" in err
        assert not (out_dir / "slow.trace.csv").exists()

    def test_window_longer_than_trace_leaves_no_file(self, scenarios_dir, tmp_path, capsys):
        """A steady window longer than the trace but not than t_end and a
        sample (100 periods of 50 us, 5 ms, over 1999 steps of 2.5 us) is
        found once the streamed trace ends: exit 1, and neither the trace
        nor its temporary file is left; an existing trace stays as it was."""
        path = tmp_path / "short.scenario"
        path.write_text((scenarios_dir / "quick.scenario").read_text().replace(
            "t_end = 5m", "t_end = 4.998m"))
        argv = ["simulate", str(path), "--periods", "100"]
        assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "longer than trace" in err
        assert [p.name for p in tmp_path.iterdir()] == ["short.scenario"]
        old = tmp_path / "old.csv"
        old.write_bytes(b"an earlier trace\r\n")
        assert main(argv + ["--output", str(old)]) == 1
        assert old.read_bytes() == b"an earlier trace\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv", "short.scenario"]

    @pytest.mark.parametrize("command, flags, message", [
        ("simulate", ["--periods", "0"], "n_periods must be >= 1"),
        ("simulate", ["--periods", "2000"], "window of 2000 periods (0.1 s) longer than trace"),
        ("analyze", ["--inductance", "1m", "--switching-frequency", "20k", "--periods", "0"],
         "n_periods must be >= 1"),
        ("analyze", ["--inductance", "1m", "--switching-frequency", "0"],
         "switching frequency must be positive, got 0.0"),
    ])
    def test_bad_window_refused_before_any_work(self, command, flags, message, scenarios_dir,
                                                tmp_path, monkeypatch, capsys):
        """An invalid steady window, or one longer than t_end and a sample
        (2000 periods of buck_charge's 50 ms), ends in exit 1 before the
        first step or the first read, and leaves no output file and no
        temporary file."""
        def streamed(*args):
            raise AssertionError("the trace was streamed")

        monkeypatch.setattr(cli, "run_blocks", streamed)
        monkeypatch.setattr(cli, "read_blocks", streamed)
        trace = tmp_path / "t.csv"
        trace.write_text("time,i_l,v_c_bus,v_c_o,v_batt_terminal,i_batt,soc,mode,duty,s1,s2\r\n")
        source = scenarios_dir / "buck_charge.scenario" if command == "simulate" else trace
        assert main([command, str(source), *flags, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_refused_or_unwritable_trace_leaves_no_file(self, scenarios_dir, tmp_path,
                                                        capsys):
        """A refused horizon leaves an existing trace as it was, and an
        output that cannot be replaced (a directory) fails after the run
        with exit 1 and no temporary file."""
        text = (scenarios_dir / "quick.scenario").read_text()
        path = tmp_path / "long.scenario"
        path.write_text(text.replace("t_end = 5m", "t_end = 3e10"))
        old = tmp_path / "old.csv"
        old.write_bytes(b"an earlier trace\r\n")
        assert main(["simulate", str(path), "--output", str(old)]) == 1
        assert "allocate" in capsys.readouterr().err
        assert old.read_bytes() == b"an earlier trace\r\n"
        (tmp_path / "dir").mkdir()
        assert main(["simulate", str(scenarios_dir / "quick.scenario"),
                     "--output", str(tmp_path / "dir")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "long.scenario", "old.csv"]
        assert not list((tmp_path / "dir").iterdir())

    def test_summary_printed_before_a_later_failure(self, scenarios_dir, tmp_path, capsys):
        """A bad scenario after a good one: exit 1, and the good one's trace
        and its summary, with the line naming that trace, on stdout."""
        bad = tmp_path / "bad.scenario"
        bad.write_text("")
        assert main(["simulate", str(scenarios_dir / "quick.scenario"), str(bad),
                     "--output-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "missing section" in captured.err
        trace = tmp_path / "quick.trace.csv"
        assert trace.exists() and not (tmp_path / "bad.trace.csv").exists()
        lines = captured.out.splitlines()
        assert lines[0] == f"scenario: {scenarios_dir / 'quick.scenario'}"
        assert lines[-1] == f"  trace written: {trace}"
        assert "bad.scenario" not in captured.out

    def test_output_with_multiple_scenarios_rejected(self, scenarios_dir, tmp_path, capsys):
        q = str(scenarios_dir / "quick.scenario")
        assert main(["simulate", q, q, "--output", str(tmp_path / "x.csv")]) == 1
        assert "--output-dir" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_help_exits_clean():
    assert main(["--help"]) == 0


def csv_report(argv, header, capsys) -> list:
    """The rows of a `--format csv` report as (name, value) pairs, after
    checking its header."""
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    return [(name, float(value)) for name, value in (line.split(",") for line in lines[1:])]


def assert_rows(got, expected):
    """Every row name in order, and every value as printed (9 significant
    digits) to a relative 1e-12."""
    assert [name for name, _ in got] == [name for name, _ in expected]
    for (name, value), (_, want) in zip(got, expected):
        assert value == pytest.approx(float(f"{want:.9g}"), rel=1e-12, abs=0.0), name


class TestMachineReadableReports:
    """Each `--format csv` report, row by row, against the library's own
    numbers: `design`, `analysis` and `steady_window` called directly."""

    @pytest.fixture(scope="class")
    def traces(self, scenarios_dir, tmp_path_factory):
        """Trace CSVs whose steady windows are charging (quick),
        discharging (boost_discharge) and trickle (quick's trace with its
        mode column rewritten)."""
        root = tmp_path_factory.mktemp("traces")
        paths = {}
        for name in ("quick", "boost_discharge"):
            paths[name] = root / f"{name}.csv"
            assert main(["simulate", str(scenarios_dir / f"{name}.scenario"),
                         "--output", str(paths[name])]) == 0
        paths["trickle"] = root / "trickle.csv"
        paths["trickle"].write_bytes(
            paths["quick"].read_bytes().replace(b",charging,", b",trickle,"))
        return paths

    def test_design(self, capsys):
        result = design(DesignSpec(pv_voltage=24.0, pv_current=3.0, battery_voltage=12.0,
                                   switching_frequency=20e3, load_voltage=24.0,
                                   load_current=2.4, ripple_current=0.3))
        got = csv_report(DESIGN_FLAGS, "quantity,value", capsys)
        assert_rows(got, [
            ("d1", result.d1), ("d2", result.d2), ("l_min", result.l_min),
            ("l_max", result.l_max), ("c_out", result.c_out), ("dv", result.dv)])

    def test_line_regulation(self, data_dir, capsys):
        path = data_dir / "table1.csv"
        result = analysis.line_regulation(analysis.read_regulation_csv(path))
        got = csv_report(["analyze", str(path)], "metric,value", capsys)
        assert len(result.pairs) == 4
        assert_rows(got, [
            *((f"pair_{a:g}_{b:g}_percent", pct) for a, b, pct in result.pairs),
            ("max_pair_percent", result.max_percent),
            ("full_span_percent", result.full_span_percent)])

    def test_load_regulation(self, data_dir, capsys):
        path = data_dir / "table2.csv"
        pct = analysis.load_regulation(analysis.read_regulation_csv(path), v_nominal=24.0)
        got = csv_report(["analyze", str(path), "--nominal", "24"], "metric,value", capsys)
        assert_rows(got, [("load_regulation_percent", pct)])

    @pytest.mark.parametrize("name, dominant", [("quick", "charging"),
                                                ("boost_discharge", "discharging"),
                                                ("trickle", "trickle")])
    def test_trace(self, traces, name, dominant, capsys):
        path = traces[name]
        metrics = steady_window(trace_from_csv(path), n_periods=20, f_s=20e3)
        assert max(metrics.mode_occupancy, key=metrics.mode_occupancy.get) == dominant
        expected = [("i_l_p2p", metrics.p2p["i_l"]), ("mean_v_c_o", metrics.mean["v_c_o"]),
                    ("mean_i_batt", metrics.mean["i_batt"])]
        if dominant != "trickle":
            predict = (analysis.predicted_ripple_buck if dominant == "charging"
                       else analysis.predicted_ripple_boost)
            pred = predict(metrics.mean["v_c_bus"], metrics.mean["v_batt_terminal"], 1e-3,
                           metrics.mean["duty"], 20e3)
            lo, hi = analysis.current_envelope(metrics.mean["i_batt"], pred.ripple)
            expected += [("predicted_ripple", pred.ripple),
                         ("predicted_ripple_companion", pred.companion),
                         ("envelope_min", lo), ("envelope_max", hi)]
        got = csv_report(["analyze", str(path), "--inductance", "1m",
                          "--switching-frequency", "20k"], "metric,value", capsys)
        assert_rows(got, expected)
