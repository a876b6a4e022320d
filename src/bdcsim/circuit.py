"""Power-stage model of the bidirectional buck-boost converter.

The stage couples a PV-fed DC bus to a battery bank through a half bridge
(S1 high side, S2 low side, each with its body diode) and a filtering
inductor.  The regulated load rail (output capacitor plus resistive load)
hangs off the bus node through a short interconnect.  Sign convention: the
inductor current is positive when it flows from the bus node toward the
battery, so positive i_l charges the battery and the boost (discharging)
direction runs i_l negative.

This module holds the value types only; the plant law, one table of the
conduction paths (`_PATHS`), and the time stepping live in
:mod:`bdcsim.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConverterParams:
    """Fixed electrical parameters of the power stage."""

    v_bus_nominal: float      # V, nominal PV-side bus voltage (inert: nothing reads it)
    l_p: float                # H, filtering inductor
    c_bus: float              # F, DC bus capacitor
    c_o: float                # F, output capacitor on the load rail
    f_s: float                # Hz, switching frequency
    r_load: float             # ohm, resistive load on the regulated rail
    r_on: float = 0.0         # ohm, MOSFET on-resistance (0 = ideal switch)
    v_f: float = 0.0          # V, body-diode forward drop (0 = ideal diode)
    r_source: float = 0.0     # ohm, PV source series resistance (0 = stiff source)
    r_link: float = 0.02      # ohm, bus-to-load-rail interconnect resistance

    def __post_init__(self) -> None:
        for name in ("l_p", "c_bus", "c_o", "f_s", "r_load"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("r_on", "v_f", "r_source"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.r_link <= 0.0:
            raise ValueError(f"r_link must be positive, got {self.r_link}")


@dataclass(frozen=True)
class BatteryModel:
    """Thevenin battery: EMF linear in state of charge, plus series resistance.

    The terminal voltage rises under charging current (positive i_batt) and
    sags under discharge.  The default flat EMF with zero resistance reduces
    the model to an ideal fixed voltage source.
    """

    v_emf_full: float         # V, open-circuit EMF at soc = 1
    v_emf_empty: float        # V, open-circuit EMF at soc = 0
    r_int: float              # ohm, internal series resistance
    capacity: float           # A*s, charge capacity
    soc: float = 0.5          # initial state of charge in [0, 1]

    def __post_init__(self) -> None:
        if not 0.0 <= self.soc <= 1.0:
            raise ValueError(f"soc must be in [0, 1], got {self.soc}")
        if self.v_emf_empty > self.v_emf_full:
            raise ValueError("v_emf_empty must not exceed v_emf_full")
        if self.r_int < 0.0:
            raise ValueError(f"r_int must be non-negative, got {self.r_int}")
        if self.capacity <= 0.0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    @classmethod
    def ideal(cls, volts: float, capacity: float = 7200.0, soc: float = 0.5) -> "BatteryModel":
        """Fixed-voltage battery (flat EMF, no internal resistance)."""
        return cls(v_emf_full=volts, v_emf_empty=volts, r_int=0.0,
                   capacity=capacity, soc=soc)


@dataclass(frozen=True)
class CircuitState:
    """Integrated state vector of the power stage."""

    i_l: float                # A, inductor current (positive = bus toward battery)
    v_c_bus: float            # V, DC bus capacitor voltage
    v_c_o: float              # V, output capacitor voltage (regulated load rail)
    soc: float                # battery state of charge in [0, 1]
    t: float                  # s, simulation time


@dataclass(frozen=True)
class GateCommand:
    """Commanded switch states.  Both gates on (shoot-through) is never
    commanded: :func:`bdcsim.control.pwm_gate` drives at most one leg."""

    s1_on: bool
    s2_on: bool
