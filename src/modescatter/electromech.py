"""Reference electromechanical transducer: a mechanical mode read out by a
waveguide and parametrically coupled to a driven electrical resonator.

This module serves two purposes. First, :func:`build_model` expresses the
transducer as a generic mode network, so the full scattering engine can
evaluate it. Second, the same physics is solved in closed form here —
susceptibilities, output-row coefficients, and peak conversion formulas —
completely independently of the matrix engine. The two paths must agree to
near machine precision; the test suite enforces this equivalence, which
pins down every sign and normalization convention in the package.

Model summary. A mechanical mode at ``omega_m`` (zero-centered band, kept
in the lab frame because its damping is viscous) couples with rate ``g``
through a pump at ``omega_drive`` to an electrical mode at ``omega_lc``
(band centered on the drive). Three ports: the mechanical waveguide readout
``gamma_wg`` (exit), intrinsic mechanical loss ``gamma_m``, and the
electrical transmission line ``gamma_tx`` (signal). With the drive tuned to
``omega_lc - omega_m`` the device converts photons between the line and the
waveguide around the mechanical resonance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    NearSingularError,
    PoleError,
    ValidityWarning,
)
from .network import (
    Band,
    Coupling,
    DoubledDynamics,
    Drive,
    InternalMode,
    Port,
    TransducerModel,
    assemble_dynamics,
)
from .scattering import (
    NoiseEnvironment,
    TransferRow,
    _exit_rows,
    added_noise,
    eta,
    spectrum_sweep,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ElectromechParams:
    """Physical parameters, all angular frequencies [rad/s], temperatures [K].

    Leaving ``gamma_wg`` as None applies the matched-readout choice
    ``g**2 / gamma_tx``; leaving ``omega_drive`` as None tunes the pump to
    the lower sideband ``omega_lc - omega_m``.
    """

    omega_m: float = _TWO_PI * 5.0e6
    omega_lc: float = _TWO_PI * 5.0e9
    g: float = _TWO_PI * 5.0e4
    gamma_tx: float = _TWO_PI * 1.0e5
    gamma_wg: float | None = None
    gamma_m: float = _TWO_PI * 10.0
    t_tx: float = 0.03
    t_wg: float = 0.03
    t_m: float = 0.03
    omega_drive: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma_tx) or self.gamma_tx <= 0.0:
            raise ConfigurationError(
                f"gamma_tx must be positive, got {self.gamma_tx!r}"
            )
        if self.gamma_wg is None:
            object.__setattr__(self, "gamma_wg", self.g**2 / self.gamma_tx)
        if self.omega_drive is None:
            object.__setattr__(self, "omega_drive", self.omega_lc - self.omega_m)
        if not (0.0 < self.omega_m < self.omega_lc):
            raise ConfigurationError(
                "requires 0 < omega_m < omega_lc, got "
                f"omega_m={self.omega_m!r}, omega_lc={self.omega_lc!r}"
            )
        for name in ("omega_lc", "g", "gamma_tx", "gamma_wg", "omega_drive"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        if self.gamma_m < 0.0 or not math.isfinite(self.gamma_m):
            raise ConfigurationError(f"gamma_m must be non-negative, got {self.gamma_m!r}")
        for name in ("t_tx", "t_wg", "t_m"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise ConfigurationError(f"{name} must be non-negative, got {value!r}")

    @property
    def detuning(self) -> float:
        """Electrical resonance relative to the drive, Delta = omega_lc - omega_drive."""
        return self.omega_lc - self.omega_drive

    @property
    def conversion_rate(self) -> float:
        """Drive-induced conversion rate g**2 / gamma_tx."""
        return self.g**2 / self.gamma_tx

    @property
    def sideband_leakage(self) -> float:
        """Weight of the image (phase-conjugating) electrical sideband.

        (gamma_tx/2)**2 / ((2 omega_m)**2 + (gamma_tx/2)**2): the squared
        magnitude ratio of the counter-rotating to co-rotating electrical
        response at the mechanical resonance, for lower-sideband tuning.
        """
        half = self.gamma_tx / 2.0
        return half**2 / ((2.0 * self.omega_m) ** 2 + half**2)


@dataclass(frozen=True)
class Susceptibilities:
    """Response functions at one sideband frequency.

    ``chi_m0``: bare mechanical response; ``chi_lc_plus``/``chi_lc_minus``:
    co- and counter-rotating electrical response in the drive frame;
    ``chi_m``: mechanical response dressed by the electrical back-action.
    ``chi_m`` satisfies 1/chi_m = 1/chi_m0 - g**2 (chi_lc_plus + chi_lc_minus)
    by construction.
    """

    omega: float
    chi_m0: complex
    chi_lc_plus: complex
    chi_lc_minus: complex
    chi_m: complex


def susceptibilities(p: ElectromechParams, omega: float) -> Susceptibilities:
    """Evaluate the closed-form response functions at sideband ``omega``.

    Raises
    ------
    PoleError
        If a denominator vanishes exactly (possible only for undamped
        configurations evaluated exactly on a real pole).
    """
    gamma = p.gamma_m + p.gamma_wg
    denom_m0 = p.omega_m**2 - omega**2 - 1j * omega * gamma
    if denom_m0 == 0.0:
        raise PoleError(
            f"bare mechanical susceptibility has a real pole at omega={omega!r}"
        )
    chi_m0 = p.omega_m / denom_m0
    delta = p.detuning
    denom_plus = (delta - omega) - 0.5j * p.gamma_tx
    denom_minus = (delta + omega) + 0.5j * p.gamma_tx
    if denom_plus == 0.0 or denom_minus == 0.0:
        raise PoleError(
            f"electrical susceptibility has a real pole at omega={omega!r}"
        )
    chi_plus = 0.5 / denom_plus
    chi_minus = 0.5 / denom_minus
    inv_dressed = 1.0 / chi_m0 - p.g**2 * (chi_plus + chi_minus)
    if inv_dressed == 0.0:
        raise PoleError(
            f"dressed mechanical susceptibility has a real pole at omega={omega!r}"
        )
    return Susceptibilities(
        omega=float(omega),
        chi_m0=complex(chi_m0),
        chi_lc_plus=complex(chi_plus),
        chi_lc_minus=complex(chi_minus),
        chi_m=complex(1.0 / inv_dressed),
    )


def build_model(p: ElectromechParams) -> TransducerModel:
    """Express the transducer as a generic mode network.

    The mechanical band is centered at zero (lab frame, viscous ports); the
    electrical band is centered on the drive. The intrinsic loss port is
    omitted when ``gamma_m`` is zero.
    """
    mech_band = Band(name="mech_band", center_frequency=0.0)
    lc_band = Band(name="lc_band", center_frequency=p.omega_drive)
    mech = InternalMode(
        name="mech",
        band=mech_band,
        frame="lab-quadrature",
        resonance_frequency=p.omega_m,
    )
    lc = InternalMode(
        name="lc",
        band=lc_band,
        frame="rotating",
        resonance_frequency=p.omega_lc,
    )
    pump = Drive(name="pump", frequency=p.omega_drive)
    coupling = Coupling(
        mode_a=mech,
        mode_b=lc,
        rate=p.g,
        form="quadrature-position",
        drive=pump,
        order=1,
    )
    ports = [
        Port(
            name="wg",
            mode=mech,
            rate=p.gamma_wg,
            temperature=p.t_wg,
            role="exit",
            flavor="lab-quadrature",
        ),
        Port(
            name="tx",
            mode=lc,
            rate=p.gamma_tx,
            temperature=p.t_tx,
            role="signal",
            flavor="rotating",
        ),
    ]
    if p.gamma_m > 0.0:
        ports.insert(
            1,
            Port(
                name="mech_loss",
                mode=mech,
                rate=p.gamma_m,
                temperature=p.t_m,
                role="loss",
                flavor="lab-quadrature",
            ),
        )
    return TransducerModel(
        bands=(mech_band, lc_band),
        modes=(mech, lc),
        drives=(pump,),
        couplings=(coupling,),
        ports=tuple(ports),
    )


def closed_form_row(p: ElectromechParams, omega: float) -> TransferRow:
    """Waveguide output row at upper sideband ``omega > 0``, in closed form.

    Coefficients (all proportional to the dressed mechanical response):
    the waveguide reflection ``1 + 2i gamma_wg chi_m``, the intrinsic-loss
    pickup ``2i sqrt(gamma_wg gamma_m) chi_m``, and the electrical-line
    terms ``-2i sqrt(gamma_wg gamma_tx) g chi_m chi_lc_plus/minus`` on the
    annihilation/creation columns. Creation columns of the zero-centered
    mechanical band are unphysical at positive sidebands and are masked,
    mirroring the engine's transfer rows.
    """
    if omega <= 0.0:
        raise DomainError(
            f"closed-form row is defined for positive sidebands, got {omega!r}"
        )
    chi = susceptibilities(p, omega)
    scatter = 2.0j * chi.chi_m
    u: dict[str, complex] = {"wg": 1.0 + scatter * p.gamma_wg}
    v: dict[str, complex] = {"wg": 0.0j}
    dropped = [("wg", "v")]
    if p.gamma_m > 0.0:
        u["mech_loss"] = scatter * math.sqrt(p.gamma_wg * p.gamma_m)
        v["mech_loss"] = 0.0j
        dropped.append(("mech_loss", "v"))
    line = -scatter * math.sqrt(p.gamma_wg * p.gamma_tx) * p.g
    u["tx"] = line * chi.chi_lc_plus
    v["tx"] = line * chi.chi_lc_minus
    centers = {"wg": 0.0, "tx": p.omega_drive}
    if p.gamma_m > 0.0:
        centers["mech_loss"] = 0.0
    return TransferRow(
        omega=float(omega),
        exit_port="wg",
        signal_port="tx",
        u_coeffs=u,
        v_coeffs=v,
        port_centers=centers,
        dropped=tuple(dropped),
        physical_output=True,
    )


def oracle_deviation(p: ElectromechParams, dyn: DoubledDynamics) -> float:
    """Worst relative deviation of the engine's exit row from the closed form.

    Compares the upper-sideband rows of ``dyn``, from one block solve,
    with :func:`closed_form_row` at 0.5, 0.9, 1, 1.1 and 1.5 times
    ``omega_m``, coefficient by coefficient, each frequency relative to the
    largest closed-form coefficient there. ``dyn`` must be assembled from
    ``build_model(p)``; the ``validate`` command fails above 1e-6.
    """
    omegas = [factor * p.omega_m for factor in (0.5, 0.9, 1.0, 1.1, 1.5)]
    worst = 0.0
    for omega, up in zip(omegas, _exit_rows(dyn, omegas)):
        num, want = (
            np.array([c[k] for c in (row.u_coeffs, row.v_coeffs) for k in sorted(c)])
            for row in (up, closed_form_row(p, omega))
        )
        denom = max(float(np.max(np.abs(want))), 1e-300)
        worst = max(worst, float(np.max(np.abs(num - want))) / denom)
    return worst


def peak_eta_formula(
    gamma_wg: float, gamma_m: float, conversion_rate: float, leakage: float
) -> float:
    """Peak transfer efficiency in terms of the collapsed rate combinations."""
    total = gamma_m + gamma_wg + conversion_rate * (1.0 - leakage)
    return 4.0 * gamma_wg * conversion_rate / total**2


def peak_eta(p: ElectromechParams) -> float:
    """Closed-form transfer efficiency at the conversion peak.

    Valid in the resolved-sideband, lower-sideband-tuned regime; a
    ValidityWarning is attached when those preconditions are only weakly
    satisfied (the formula is still returned).
    """
    _warn_peak_regime(p)
    return peak_eta_formula(
        p.gamma_wg, p.gamma_m, p.conversion_rate, p.sideband_leakage
    )


def peak_noise_formula(
    gamma_wg: float,
    gamma_m: float,
    conversion_rate: float,
    leakage: float,
    n_tx_image: float,
    n_m: float,
    n_wg: float,
) -> float:
    """Peak added noise as the sum of its three physical channels.

    Image-sideband leakage (amplified vacuum plus thermal line photons),
    intrinsic mechanical heating, and thermal back-reflection from the
    readout waveguide.
    """
    efficiency = peak_eta_formula(gamma_wg, gamma_m, conversion_rate, leakage)
    reflect = (
        math.sqrt(gamma_wg / conversion_rate) - 1.0 / math.sqrt(efficiency)
    ) ** 2
    return (
        leakage * (n_tx_image + 1.0)
        + (gamma_m / conversion_rate) * n_m
        + reflect * n_wg
    )


def peak_noise(p: ElectromechParams, env: NoiseEnvironment | None = None) -> float:
    """Closed-form added noise at the conversion peak.

    Occupancies are evaluated at the image sideband ``omega_lc - 2 omega_m``
    for the line and at ``omega_m`` for the mechanical channels, from the
    parameter temperatures or from an explicit environment (which allows
    frozen occupancies for scale-invariance studies).
    """
    _warn_peak_regime(p)
    image = p.omega_lc - 2.0 * p.omega_m
    if env is None:
        env = NoiseEnvironment.from_temperatures(
            {"tx": p.t_tx, "mech_loss": p.t_m, "wg": p.t_wg}
        )
    n_tx = env.occupancy("tx", image)
    n_m = env.occupancy("mech_loss", p.omega_m) if p.gamma_m > 0 else 0.0
    n_wg = env.occupancy("wg", p.omega_m)
    return peak_noise_formula(
        p.gamma_wg,
        p.gamma_m,
        p.conversion_rate,
        p.sideband_leakage,
        n_tx,
        n_m,
        n_wg,
    )


def _warn_peak_regime(p: ElectromechParams) -> None:
    if p.gamma_tx >= 0.5 * p.omega_m:
        warnings.warn(
            "peak formulas assume resolved sidebands (gamma_tx << omega_m); "
            f"here gamma_tx/omega_m = {p.gamma_tx / p.omega_m:.3g}",
            ValidityWarning,
            stacklevel=3,
        )
    if abs(p.detuning - p.omega_m) > 1e-9 * p.omega_m:
        warnings.warn(
            "peak formulas assume the drive tuned to the lower sideband "
            "(detuning equal to the mechanical resonance)",
            ValidityWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class PeakEstimate:
    """Numerically located conversion peak of the assembled network."""

    omega: float
    eta: float
    noise: float


def _golden_max(
    f: Callable[[float], float], a: float, b: float, xatol: float
) -> float:
    """Golden-section search for the maximum of ``f`` on ``[a, b]``.

    Narrows the bracket as many times as exact arithmetic needs to bring it
    to ``xatol`` (so it ends even where ``xatol`` is below the float spacing
    of the bracket) and returns the better of its two interior points.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    steps = max(math.ceil(math.log(xatol / (b - a)) / math.log(inv_phi)), 0)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return c if fc >= fd else d


def locate_peak(
    p: ElectromechParams,
    env: NoiseEnvironment | None = None,
    dyn: DoubledDynamics | None = None,
) -> PeakEstimate:
    """Find the transfer-efficiency peak of the full network numerically.

    Scans a window around the (back-action-shifted) mechanical resonance on
    257 points, in one :func:`spectrum_sweep`, then refines the best point's
    two-step bracket by a golden-section search on the upper-sideband row
    of :func:`transfer_pair` (solved alone, without ``-omega``)
    until the bracket is narrower than ``max(1e-9 * width, 1e-12)`` rad/s,
    ``width`` being the conversion linewidth. The window covers the
    expected spring shift plus several conversion linewidths, so the
    result is the true numeric peak rather than the value at the nominal
    resonance.

    Raises
    ------
    NearSingularError
        If a point of the scan is near-singular.
    """
    if dyn is None:
        dyn = assemble_dynamics(build_model(p))
    if env is None:
        env = NoiseEnvironment.from_dynamics(dyn)

    width = p.gamma_m + p.gamma_wg + p.conversion_rate * (1.0 - p.sideband_leakage)
    half_tx = p.gamma_tx / 2.0
    shift = p.g**2 * p.omega_m / ((2.0 * p.omega_m) ** 2 + half_tx**2)
    span = 8.0 * width + 4.0 * abs(shift)
    lo = max(p.omega_m - abs(shift) - span, 0.25 * p.omega_m)
    hi = p.omega_m + span

    def engine_eta(omega: float) -> float:
        (row,) = _exit_rows(dyn, [omega])
        return eta(row)

    coarse = np.linspace(lo, hi, 257)
    scan = spectrum_sweep(dyn, env, coarse, symplectic=False)
    if scan.failures:
        first = scan.failures[0]
        raise NearSingularError(first.message, omega=first.omega)
    best = int(np.argmax(scan.eta_up))
    a = coarse[max(best - 1, 0)]
    b = coarse[min(best + 1, coarse.size - 1)]
    omega_peak = _golden_max(
        engine_eta, float(a), float(b), max(width * 1e-9, 1e-12)
    )
    (row,) = _exit_rows(dyn, [omega_peak])
    return PeakEstimate(
        omega=omega_peak, eta=eta(row), noise=added_noise(row, env)
    )
