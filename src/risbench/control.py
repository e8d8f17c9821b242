"""Control-circuit complexity and power figures for a surface.

Driving G cells from one line divides the physical control paths by G and
multiplies the function-switching rate by G; power scales with the diode
count, independent of grouping.  Per-area power assumes the half-wavelength
lattice, so it depends only on the cell design and its frequency.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import check_positive
from .surface import SurfaceSpec, default_pitch

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


def complexity_report(surface: SurfaceSpec, pins_k: int = DEFAULT_PINS_K,
                      tau_s: float = DEFAULT_TAU_S,
                      diode_power_w: float = DEFAULT_DIODE_POWER_W) -> ControlReport:
    """All four figures for one surface, with the inputs echoed back.

    The surface and its cell checked their own values when they were built,
    so only the three circuit parameters are checked here.
    """
    check_positive(pins_k=pins_k, tau_s=tau_s, diode_power_w=diode_power_w)
    cell = surface.cell
    m, n, g = surface.rows_m, surface.cols_n, surface.group_size
    pitch = default_pitch(cell)
    cell_area = pitch * pitch  # (lambda/2)^2, whatever the surface's own pitch
    return ControlReport(
        physical_paths=m * n * cell.n_bits // g,  # M*N*n / G; G divides M*N
        switching_rate_hz=g * pins_k / (m * n * cell.n_bits * tau_s),  # G*K / (M*N*n*tau)
        total_power_w=cell.n_diodes * m * n * diode_power_w,  # d*M*N*P_D, every diode on
        power_per_area_w_m2=cell.n_diodes * diode_power_w / cell_area,  # d*P_D / (lambda/2)^2
        cell_area_m2=cell_area,
        params_echo={
            "M": m,
            "N": n,
            "n": cell.n_bits,
            "d": cell.n_diodes,
            "G": g,
            "K": pins_k,
            "tau_s": tau_s,
            "P_D_w": diode_power_w,
            "f_hz": cell.design_freq_hz,
            "surface_pitch_m": surface.pitch_m,
        },
    )
