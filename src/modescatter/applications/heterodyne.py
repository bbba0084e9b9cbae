"""Heterodyne sensing of a transduced signal.

The output band is mixed with a local oscillator at the band center, so the
photocurrent component at sideband frequency ``omega`` beats together the
output at ``+omega`` and the adjoint output at ``-omega``. The figure of
merit is the noise power spectral density referred to the input signal,

    P_s = 1/2 + [flux(+) + flux(-) + (1 - eta(+))/2 + (1 + eta(-))/2
                 + Re(exp(-2i*theta) f)] / |t(theta)|^2

with ``t(theta) = exp(-i*theta) U_s(+omega) + exp(i*theta) V_s*(-omega)``
the phase-dependent signal transfer and ``f`` the cross-sideband noise
correlation. 1/2 is the vacuum floor; an ideal converter reaches P_s = 1.

``f`` is assembled from the same transfer-row coefficients and occupancies
that enter the added noise: the upper-sideband noise operator pairs with the
lower-sideband one through the thermal moments of each shared input, giving

    f = sum_{m != s} U_m(+omega) V_m(-omega) (2 n_m(omega + c_m) + 1)
      + sum_{m}      V_m(+omega) U_m(-omega) (2 n_m(-omega + c_m) + 1)

where ``c_m`` is the band center of port ``m``. The first sum excludes the
signal port (its annihilation column carries signal, not noise, at the upper
sideband); the second includes it, because the signal port's creation column
at ``+omega`` and annihilation column at ``-omega`` are both noise. The sums
run over the noise columns of the upper-sideband row exactly as
:func:`modescatter.scattering.noise_flux` counts them: one scattering helper
lists them for both, each with its slot lab frequency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ..errors import ConfigurationError, DomainError, SignalNulledError
from ..scattering import (
    NoiseEnvironment,
    TransferRow,
    _abs2,
    _noise_columns,
    eta,
    noise_flux,
)

#: Negative radicand tolerance for the bound; larger violations indicate
#: inputs inconsistent with commutator bookkeeping.
_RADICAND_TOL = 1e-12


@dataclass(frozen=True)
class HeterodyneResult:
    """Sensitivity of a heterodyne measurement at one sideband frequency.

    ``p_s`` is evaluated at ``theta_lo``; ``bound`` is the Cauchy-Schwarz
    ceiling for the constructive-interference phase and does not depend on
    ``theta_lo``. ``flux_up``/``flux_dn`` are the exit-referred noise quanta
    flux densities ``eta * N`` of each sideband (finite even where the
    added noise itself is undefined because eta vanishes).
    """

    omega: float
    theta_lo: float
    t_lo: complex
    f_corr: complex
    p_s: float
    bound: float
    eta_up: float
    eta_dn: float
    flux_up: float
    flux_dn: float


def sideband_correlation(
    row_up: TransferRow, row_dn: TransferRow, env: NoiseEnvironment
) -> complex:
    """Cross-sideband noise correlation ``f`` of the two output rows.

    Occupancies are evaluated at the lab frequency shared by each coefficient
    pair; masked (zeroed) coefficients contribute nothing, so no occupancy is
    ever requested at a non-positive frequency.
    """
    if row_up.omega <= 0.0:
        raise ConfigurationError(
            f"upper-sideband row must have omega > 0, got {row_up.omega!r}"
        )
    if row_dn.omega != -row_up.omega:
        raise ConfigurationError(
            "sideband rows must be evaluated at opposite frequencies, got "
            f"{row_up.omega!r} and {row_dn.omega!r}"
        )
    if row_up.exit_port != row_dn.exit_port or row_up.signal_port != row_dn.signal_port:
        raise ConfigurationError("sideband rows disagree on exit/signal ports")
    for row, label in ((row_up, "upper"), (row_dn, "lower")):
        if not row.physical_output:
            raise DomainError(
                f"heterodyne detection needs both output sidebands; the "
                f"{label} sideband of exit port {row.exit_port!r} sits at a "
                "non-positive lab frequency"
            )
    cols_u, cols_v = _noise_columns(row_up)
    total = 0.0j
    for name, u, lab in cols_u:
        product = u * row_dn.v_coeffs[name]
        if product != 0.0:
            total += product * (2.0 * env.occupancy(name, lab) + 1.0)
    for name, v, lab in cols_v:
        product = v * row_dn.u_coeffs[name]
        if product != 0.0:
            total += product * (2.0 * env.occupancy(name, lab) + 1.0)
    return total


def heterodyne_bound(
    eta_up: float, eta_dn: float, flux_up: float, flux_dn: float
) -> float:
    """Cauchy-Schwarz ceiling on P_s at the constructive-interference phase.

    Written in flux form, ``flux = eta * N``, so the lower-sideband term
    stays finite as its efficiency vanishes::

        bound = 1/2 + (sqrt(flux_up + (1 - eta_up)/2)
                       + sqrt(flux_dn + (1 + eta_dn)/2))^2
                      / (sqrt(eta_up) + sqrt(eta_dn))^2

    The radicands are the sideband noise variances and are non-negative for
    any coefficient set consistent with commutator bookkeeping.
    """
    for name, value in (
        ("eta_up", eta_up),
        ("eta_dn", eta_dn),
        ("flux_up", flux_up),
        ("flux_dn", flux_dn),
    ):
        if not math.isfinite(value) or value < 0.0:
            raise DomainError(f"{name} must be finite and non-negative, got {value!r}")
    if eta_up == 0.0 and eta_dn == 0.0:
        raise DomainError(
            "heterodyne bound undefined: no signal transfer on either sideband"
        )
    a = flux_up + 0.5 * (1.0 - eta_up)
    b = flux_dn + 0.5 * (1.0 + eta_dn)
    if a < -_RADICAND_TOL or b < -_RADICAND_TOL:
        raise DomainError(
            "sideband noise variance is negative "
            f"({a:.3e}, {b:.3e}); the inputs are inconsistent with "
            "commutator bookkeeping"
        )
    a = max(a, 0.0)
    b = max(b, 0.0)
    t2 = (math.sqrt(eta_up) + math.sqrt(eta_dn)) ** 2
    return 0.5 + (math.sqrt(a) + math.sqrt(b)) ** 2 / t2


def constructive_phase(row_up: TransferRow, row_dn: TransferRow) -> float:
    """LO phase maximizing the signal transfer magnitude |t|.

    Half the phase of ``U_s(+omega) V_s(-omega)``; 0 by convention when
    either coefficient vanishes (|t| is then phase-independent).
    """
    product = row_up.u_coeffs[row_up.signal_port] * row_dn.v_coeffs[row_dn.signal_port]
    if product == 0.0:
        return 0.0
    return 0.5 * cmath.phase(product)


def heterodyne_sensitivity(
    row_up: TransferRow,
    row_dn: TransferRow,
    env: NoiseEnvironment,
    theta_lo: float | None = None,
) -> HeterodyneResult:
    """Input-referred noise density of a heterodyne measurement.

    Parameters
    ----------
    row_up, row_dn:
        Exit-port transfer rows at ``+omega`` and ``-omega``.
    env:
        Occupancy evaluators for every port appearing in the rows.
    theta_lo:
        Local-oscillator phase [rad]; ``None`` selects the
        constructive-interference phase, which maximizes |t|.

    Raises
    ------
    ConfigurationError
        If ``theta_lo`` is not finite, or the rows are not a sideband pair.
    SignalNulledError
        If the signal transfer cancels exactly at the requested phase (or no
        signal reaches the exit on either sideband).
    DomainError
        If either output sideband is unphysical.
    """
    if theta_lo is not None and not math.isfinite(theta_lo):
        raise ConfigurationError(f"LO phase must be finite, got {theta_lo!r} rad")
    f_corr = sideband_correlation(row_up, row_dn, env)
    if theta_lo is None:
        theta_lo = constructive_phase(row_up, row_dn)

    eta_up = eta(row_up)
    eta_dn = eta(row_dn)
    flux_up = noise_flux(row_up, env)
    flux_dn = noise_flux(row_dn, env)

    u_s = row_up.u_coeffs[row_up.signal_port]
    v_s = row_dn.v_coeffs[row_dn.signal_port]
    t_lo = cmath.exp(-1j * theta_lo) * u_s + cmath.exp(1j * theta_lo) * v_s.conjugate()
    t2 = _abs2(t_lo)
    if t2 == 0.0:
        raise SignalNulledError(
            f"signal transfer cancels at theta_lo={theta_lo:.6f} rad "
            f"(omega={row_up.omega:.6e} rad/s)"
        )

    bracket = (
        flux_up
        + flux_dn
        + 0.5
        + 0.5 * (1.0 - eta_up + eta_dn)
        + (cmath.exp(-2j * theta_lo) * f_corr).real
    )
    p_s = 0.5 + bracket / t2
    bound = heterodyne_bound(eta_up, eta_dn, flux_up, flux_dn)
    return HeterodyneResult(
        omega=row_up.omega,
        theta_lo=theta_lo,
        t_lo=t_lo,
        f_corr=f_corr,
        p_s=p_s,
        bound=bound,
        eta_up=eta_up,
        eta_dn=eta_dn,
        flux_up=flux_up,
        flux_dn=flux_dn,
    )
