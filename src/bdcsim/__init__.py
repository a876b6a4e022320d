"""Simulator and design toolkit for a bidirectional buck-boost converter
between a PV-fed DC bus and a battery bank."""

from .analysis import (
    LineRegulationResult,
    RegulationRow,
    RipplePrediction,
    current_envelope,
    line_regulation,
    load_regulation,
    predicted_ripple_boost,
    predicted_ripple_buck,
    read_regulation_csv,
)
from .circuit import (
    BatteryModel,
    CircuitState,
    ConverterParams,
    GateCommand,
)
from .control import (
    CcCvPhase,
    ControllerConfig,
    ControllerState,
    Mode,
    initial_controller_state,
    pwm_gate,
    regulate,
    select_mode,
)
from .design import (
    DesignResult,
    DesignSpec,
    boost_duty,
    buck_duty,
    design,
    min_inductance_boost,
    min_inductance_buck,
    output_capacitance,
)
from .scenario import (
    ScenarioParseError,
    parse_design_file,
    parse_quantity,
    parse_scenario_file,
    parse_scenario_text,
)
from .sim import (
    Scenario,
    SimulationDiverged,
    SourceProfile,
    SourceSegment,
    Trace,
    WindowMetrics,
    run,
    steady_window,
    trace_from_csv,
)

__version__ = "0.1.0"
