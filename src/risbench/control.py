"""Control-circuit complexity and power figures for a surface.

Driving G cells from one line divides the physical control paths by G and
multiplies the function-switching rate by G; power scales with the diode
count, independent of grouping.  Per-area power assumes the half-wavelength
lattice, so it depends only on the cell design and its frequency.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import check_positive
from .surface import SPEED_OF_LIGHT, SurfaceSpec, check_group_size

DEFAULT_PINS_K = 40
DEFAULT_TAU_S = 20e-9
DEFAULT_DIODE_POWER_W = 8e-3


@dataclass(frozen=True)
class ControlReport:
    """Complexity and power figures plus the parameters they came from."""

    physical_paths: int
    switching_rate_hz: float
    total_power_w: float
    power_per_area_w_m2: float
    cell_area_m2: float
    params_echo: dict

    def to_dict(self) -> dict:
        return asdict(self)


def physical_paths(rows_m: int, cols_n: int, n_bits: int, group_size: int) -> int:
    """Independent control lines: M*N*n / G."""
    check_group_size(rows_m, cols_n, group_size)
    return rows_m * cols_n * n_bits // group_size


def switching_rate(group_size: int, pins_k: int, rows_m: int, cols_n: int,
                   n_bits: int, tau_s: float) -> float:
    """Function-switching rate G*K / (M*N*n*tau) in Hz."""
    check_positive(group_size=group_size, pins_k=pins_k, rows_m=rows_m, cols_n=cols_n,
                    n_bits=n_bits, tau_s=tau_s)
    return group_size * pins_k / (rows_m * cols_n * n_bits * tau_s)


def max_power(n_diodes: int, rows_m: int, cols_n: int, diode_power_w: float) -> float:
    """Worst-case supply power d*M*N*P_D with every diode forward-biased."""
    check_positive(n_diodes=n_diodes, rows_m=rows_m, cols_n=cols_n,
                    diode_power_w=diode_power_w)
    return n_diodes * rows_m * cols_n * diode_power_w


def half_wavelength_cell_area(design_freq_hz: float) -> float:
    """Lattice cell area (lambda/2)^2 at the design frequency."""
    check_positive(design_freq_hz=design_freq_hz)
    pitch = SPEED_OF_LIGHT / (2.0 * design_freq_hz)
    return pitch * pitch


def power_per_area(n_diodes: int, diode_power_w: float, design_freq_hz: float) -> float:
    """Supply power per square meter, d*P_D / (lambda/2)^2."""
    check_positive(n_diodes=n_diodes, diode_power_w=diode_power_w)
    return n_diodes * diode_power_w / half_wavelength_cell_area(design_freq_hz)


def complexity_report(surface: SurfaceSpec, pins_k: int = DEFAULT_PINS_K,
                      tau_s: float = DEFAULT_TAU_S,
                      diode_power_w: float = DEFAULT_DIODE_POWER_W) -> ControlReport:
    """All four figures for one surface, with the inputs echoed back."""
    cell = surface.cell
    return ControlReport(
        physical_paths=physical_paths(surface.rows_m, surface.cols_n,
                                      cell.n_bits, surface.group_size),
        switching_rate_hz=switching_rate(surface.group_size, pins_k, surface.rows_m,
                                         surface.cols_n, cell.n_bits, tau_s),
        total_power_w=max_power(cell.n_diodes, surface.rows_m, surface.cols_n,
                                diode_power_w),
        power_per_area_w_m2=power_per_area(cell.n_diodes, diode_power_w,
                                           cell.design_freq_hz),
        cell_area_m2=half_wavelength_cell_area(cell.design_freq_hz),
        params_echo={
            "M": surface.rows_m,
            "N": surface.cols_n,
            "n": cell.n_bits,
            "d": cell.n_diodes,
            "G": surface.group_size,
            "K": pins_k,
            "tau_s": tau_s,
            "P_D_w": diode_power_w,
            "f_hz": cell.design_freq_hz,
            "surface_pitch_m": surface.pitch_m,
        },
    )
