"""Ripple predictions, current envelopes, line/load regulation."""

import pytest

from bdcsim.analysis import (
    RegulationRow,
    current_envelope,
    line_regulation,
    load_regulation,
    predicted_ripple_boost,
    predicted_ripple_buck,
    read_regulation_csv,
)

TABLE1 = [RegulationRow(10.0, 23.902, 2.3902),
          RegulationRow(15.0, 23.905, 2.3905),
          RegulationRow(20.0, 23.908, 2.3908),
          RegulationRow(25.0, 23.997, 2.3997),
          RegulationRow(39.0, 24.000, 2.4000)]

TABLE2 = [RegulationRow(6.0, 23.951, 3.991),
          RegulationRow(8.0, 23.952, 2.994),
          RegulationRow(9.0, 23.955, 2.661),
          RegulationRow(10.0, 23.957, 2.395),
          RegulationRow(11.0, 23.959, 2.178),
          RegulationRow(12.0, 24.001, 2.000)]


class TestRipplePredictions:
    def test_buck_reference_point(self):
        pred = predicted_ripple_buck(24.0, 12.0, 1e-3, 0.5, 20e3)
        assert pred.ripple == pytest.approx(0.3)
        assert pred.companion == pytest.approx(0.3)

    def test_buck_vanishes_at_full_duty(self):
        pred = predicted_ripple_buck(24.0, 12.0, 1e-3, 0.999, 20e3)
        assert pred.ripple == pytest.approx(0.0, abs=1e-3)

    def test_buck_forms_agree_only_at_conversion_ratio(self):
        """The off-interval and on-interval expressions agree exactly when
        d equals v_batt / v_bus, and nowhere else on a duty sweep."""
        v_bus, v_batt = 30.0, 12.0
        d_star = v_batt / v_bus
        match = predicted_ripple_buck(v_bus, v_batt, 1e-3, d_star, 20e3)
        assert match.ripple == pytest.approx(match.companion, rel=1e-12)
        for d in (0.1, 0.25, 0.55, 0.9):
            pred = predicted_ripple_buck(v_bus, v_batt, 1e-3, d, 20e3)
            assert pred.ripple != pytest.approx(pred.companion, rel=1e-6)

    def test_boost_reference_point(self):
        pred = predicted_ripple_boost(24.0, 12.0, 1e-3, 0.5, 20e3)
        assert pred.ripple == pytest.approx(0.3)
        assert pred.companion == pytest.approx(0.3)

    def test_boost_vanishes_at_zero_duty(self):
        pred = predicted_ripple_boost(24.0, 12.0, 1e-3, 1e-6, 20e3)
        assert pred.ripple == pytest.approx(0.0, abs=1e-6)

    def test_boost_forms_agree_only_at_conversion_ratio(self):
        v_bus, v_batt = 30.0, 12.0
        d_star = 1.0 - v_batt / v_bus
        match = predicted_ripple_boost(v_bus, v_batt, 1e-3, d_star, 20e3)
        assert match.ripple == pytest.approx(match.companion, rel=1e-12)
        for d in (0.1, 0.3, 0.7, 0.9):
            pred = predicted_ripple_boost(v_bus, v_batt, 1e-3, d, 20e3)
            assert pred.ripple != pytest.approx(pred.companion, rel=1e-6)

    def test_buck_boost_symmetry_at_half_duty(self):
        """At v_bus = 2 * v_batt and d = 0.5 both modes predict the same ripple."""
        buck = predicted_ripple_buck(24.0, 12.0, 1e-3, 0.5, 20e3)
        boost = predicted_ripple_boost(24.0, 12.0, 1e-3, 0.5, 20e3)
        assert buck.ripple == pytest.approx(boost.ripple)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="duty"):
            predicted_ripple_buck(24.0, 12.0, 1e-3, 1.0, 20e3)
        with pytest.raises(ValueError, match="v_bus"):
            predicted_ripple_buck(12.0, 12.0, 1e-3, 0.5, 20e3)


class TestEnvelope:
    def test_reference_point(self):
        assert current_envelope(3.0, 0.3) == pytest.approx((2.85, 3.15))

    def test_zero_ripple(self):
        assert current_envelope(1.7, 0.0) == pytest.approx((1.7, 1.7))

    def test_load_current_case(self):
        assert current_envelope(2.4, 0.3) == pytest.approx((2.25, 2.55))


class TestLineRegulation:
    def test_reference_table(self):
        result = line_regulation(TABLE1)
        pair_pcts = [round(p, 4) for _, _, p in result.pairs]
        assert pair_pcts[0] == pytest.approx(0.06)
        assert pair_pcts[1] == pytest.approx(0.06)
        assert result.max_percent == pytest.approx(1.78)
        assert result.full_span_percent == pytest.approx(0.098 * 100 / 29, rel=1e-6)

    def test_perfectly_regulated(self):
        rows = [RegulationRow(10.0, 24.0, 2.4), RegulationRow(20.0, 24.0, 2.4)]
        result = line_regulation(rows)
        assert result.max_percent == 0.0
        assert result.full_span_percent == 0.0

    def test_hand_evaluated_pair(self):
        rows = [RegulationRow(10.0, 23.90, 2.4), RegulationRow(20.0, 23.95, 2.4)]
        result = line_regulation(rows)
        assert result.max_percent == pytest.approx(0.5)

    def test_rows_sorted_before_pairing(self):
        result = line_regulation(list(reversed(TABLE1)))
        assert result.max_percent == pytest.approx(1.78)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="2 rows"):
            line_regulation(TABLE1[:1])

    def test_rejects_duplicate_settings(self):
        with pytest.raises(ValueError, match="distinct"):
            line_regulation([RegulationRow(10.0, 24.0, 1.0),
                             RegulationRow(10.0, 23.0, 1.0)])


class TestLoadRegulation:
    def test_reference_table(self):
        assert load_regulation(TABLE2, 24.0) == pytest.approx(0.0500 * 100 / 24, rel=1e-6)
        assert round(load_regulation(TABLE2, 24.0), 3) == 0.208

    def test_identical_rows_give_zero(self):
        rows = [RegulationRow(6.0, 24.0, 4.0), RegulationRow(12.0, 24.0, 2.0)]
        assert load_regulation(rows, 24.0) == 0.0

    def test_hand_evaluated_case(self):
        rows = [RegulationRow(6.0, 23.9, 4.0), RegulationRow(12.0, 24.1, 2.0)]
        assert load_regulation(rows, 24.0) == pytest.approx(0.2 * 100 / 24)

    def test_scales_with_output_spread(self):
        """Scaling every output voltage scales the metric proportionally when
        the nominal is held fixed."""
        base = load_regulation(TABLE2, 24.0)
        doubled = [RegulationRow(r.setting, 2 * r.v_out, r.i_out) for r in TABLE2]
        assert load_regulation(doubled, 24.0) == pytest.approx(2 * base)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="2 rows"):
            load_regulation(TABLE2[:1], 24.0)

    def test_rejects_bad_nominal(self):
        with pytest.raises(ValueError, match="v_nominal"):
            load_regulation(TABLE2, 0.0)


class TestFormulaAgainstSimulation:
    def test_steady_buck_ripple_matches_prediction(self):
        """Measured peak-to-peak inductor current in a steady open-loop buck
        run agrees with the analytic ripple at the measured operating point."""
        from bdcsim.circuit import BatteryModel, CircuitState, ConverterParams
        from bdcsim.control import ControllerConfig, Mode
        from bdcsim.sim import Scenario, SourceProfile, run, steady_window

        duty = 0.6
        params = ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6,
                                 c_o=250e-6, f_s=20e3, r_load=10.0)
        battery = BatteryModel(v_emf_full=12.0, v_emf_empty=12.0, r_int=0.5,
                               capacity=7200.0, soc=0.5)
        scn = Scenario(params=params, battery=battery,
                       controller=ControllerConfig(),
                       source=SourceProfile.constant(24.0, until=1.0),
                       t_end=30e-3, dt=50e-9, record_decimation=2,
                       fixed_duty=duty, initial_mode=Mode.CHARGING,
                       initial_state=CircuitState(i_l=4.8, v_c_bus=24.0,
                                                  v_c_o=23.95, soc=0.5, t=0.0))
        m = steady_window(run(scn), n_periods=20, f_s=20e3)
        pred = predicted_ripple_buck(m.mean["v_c_bus"], m.mean["v_batt_terminal"],
                                     1e-3, duty, 20e3)
        assert m.p2p["i_l"] == pytest.approx(pred.ripple, rel=0.05)


class TestRegulationCsv:
    def test_reads_fixture(self, data_dir):
        rows = read_regulation_csv(data_dir / "table1.csv")
        assert len(rows) == 5
        assert rows[0].setting == 10.0
        assert rows[-1].v_out == 24.0

    def test_reports_row_number_on_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting,v_out,i_out\n10,23.9,2.4\n15,not-a-number,2.4\n")
        with pytest.raises(ValueError, match="row 3"):
            read_regulation_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["setting", "v_out", "i_out"])
    def test_rejects_non_finite_value(self, tmp_path, column, value):
        row = {"setting": "25", "v_out": "24.05", "i_out": "1"} | {column: value}
        path = tmp_path / "bad.csv"
        path.write_text("setting,v_out,i_out\n20,24.0,1\n" + ",".join(row.values()) + "\n")
        with pytest.raises(ValueError, match=f"row 3: {column} must be finite"):
            read_regulation_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("volts,amps\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_regulation_csv(path)
