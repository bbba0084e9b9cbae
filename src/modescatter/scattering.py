"""Frequency-domain scattering of driven mode networks.

Everything here operates on the doubled-basis dynamics produced by
:func:`modescatter.network.assemble_dynamics`. The scattering matrix at
signed sideband frequency ``omega`` is::

    S(omega) = 1 + G' (i*omega*1 + M)^(-1) G

mapping doubled port inputs to doubled port outputs at the same sideband.
Creation slots evaluated at ``omega`` represent adjoints at ``-omega``, so
lower-sideband quantities are obtained by evaluating ``S`` at ``-omega``
directly (never by analytic continuation) and reading the creation-block
coefficients.

Physicality masking: a port column only describes a real input field when
its absolute (lab-frame) frequency ``+-omega + band_center`` is positive.
Columns that fall at non-positive lab frequencies are artifacts of the
doubled bookkeeping for zero-centered bands; transfer rows zero them out and
record which ports were dropped. Thermal occupancies are likewise evaluated
at the slot lab frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np
from numpy.typing import NDArray
from scipy.constants import hbar, k as k_boltzmann

from .errors import (
    ConfigurationError,
    DomainError,
    NearSingularError,
    UndefinedNoiseError,
)
from .network import DoubledDynamics, PortInfo

#: Threshold on the 2-norm condition number of the resolvent ``i*omega + M``
#: above which a point is treated as singular. The exact 2-norm condition
#: (an SVD) is computed only where the exact 1-norm condition, which the
#: solve gives for free, cannot rule it out: ``cond_2 <= d * cond_1``.
CONDITION_LIMIT = 1.0e12

#: Signed frequencies per resolvent block: keeps the resolvent, solution
#: and S stacks cache-resident and their size independent of the grid.
_BLOCK = 1024

#: Occupancies below this argument use 1/expm1; above, the exp(-x) tail.
_EXPM1_CUTOFF = 700.0


def bose_occupancy(omega: float, temperature: float) -> float:
    """Thermal occupation of a mode at absolute frequency ``omega`` [rad/s].

    Parameters
    ----------
    omega:
        Absolute (lab-frame) frequency, must be positive.
    temperature:
        Temperature in kelvin; 0 returns exactly 0.

    Raises
    ------
    DomainError
        If ``omega <= 0`` — occupancies at non-positive absolute frequencies
        are not defined in this formalism.
    """
    if not math.isfinite(omega) or omega <= 0.0:
        raise DomainError(
            f"Bose occupancy requires a positive absolute frequency, got {omega!r}"
        )
    if temperature < 0.0 or not math.isfinite(temperature):
        raise DomainError(f"temperature must be non-negative, got {temperature!r}")
    if temperature == 0.0:
        return 0.0
    x = hbar * omega / (k_boltzmann * temperature)
    if x > _EXPM1_CUTOFF:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def _bose_array(
    omegas: NDArray[np.float64], temperature: float, valid: NDArray[np.bool_]
) -> NDArray[np.float64]:
    """Vectorized occupancy; entries where ``valid`` is False are set to 0."""
    out = np.zeros_like(omegas, dtype=np.float64)
    if temperature == 0.0:
        return out
    x = np.where(valid, hbar * omegas / (k_boltzmann * temperature), np.inf)
    small = x <= _EXPM1_CUTOFF
    with np.errstate(over="ignore"):
        out[small & valid] = 1.0 / np.expm1(x[small & valid])
    tail = (~small) & valid
    out[tail] = np.exp(-np.minimum(x[tail], 745.0))
    return out


@dataclass(frozen=True)
class NoiseEnvironment:
    """Per-port input occupancy evaluators.

    Each port maps either to a physical temperature (Bose-Einstein
    occupancy at the evaluated lab frequency) or to a frozen constant
    occupancy, which is useful for scale-invariance studies and synthetic
    fixtures.
    """

    spec: Mapping[str, tuple[Literal["temperature", "constant"], float]]

    @classmethod
    def from_dynamics(cls, dyn: DoubledDynamics) -> "NoiseEnvironment":
        return cls({p.name: ("temperature", p.temperature) for p in dyn.ports})

    @classmethod
    def from_temperatures(cls, temperatures: Mapping[str, float]) -> "NoiseEnvironment":
        return cls({name: ("temperature", t) for name, t in temperatures.items()})

    @classmethod
    def constant(cls, occupancies: Mapping[str, float]) -> "NoiseEnvironment":
        return cls({name: ("constant", n) for name, n in occupancies.items()})

    def occupancy(self, port: str, omega_lab: float) -> float:
        kind, value = self._entry(port)
        if kind == "constant":
            return value
        return bose_occupancy(omega_lab, value)

    def occupancy_array(
        self,
        port: str,
        omegas_lab: NDArray[np.float64],
        valid: NDArray[np.bool_],
    ) -> NDArray[np.float64]:
        kind, value = self._entry(port)
        if kind == "constant":
            return np.where(valid, value, 0.0)
        return _bose_array(omegas_lab, value, valid)

    def _entry(self, port: str) -> tuple[str, float]:
        try:
            return self.spec[port]
        except KeyError:
            raise ConfigurationError(
                f"no occupancy defined for port {port!r}"
            ) from None


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """S(omega) on the doubled port basis, with bookkeeping metadata.

    ``unitarity_residual`` is the full-basis max-norm of ``S K S^dag - K``;
    for networks containing lab-quadrature (viscous) ports this is O(1) in
    the artifact sectors and only the physically-masked residual is
    meaningful (see :func:`symplectic_residual`).
    """

    omega: float
    matrix: NDArray[np.complex128]
    port_index: Mapping[str, int]
    ports: tuple[PortInfo, ...]
    metric: NDArray[np.float64]
    signal_port: str
    exit_port: str
    unitarity_residual: float

    @property
    def n_ports(self) -> int:
        return len(self.ports)


@dataclass(frozen=True, eq=False)
class TransferRow:
    """One output row of S: exit-port coefficients at a signed sideband.

    ``u_coeffs[m]`` multiplies the annihilation input of port ``m`` at lab
    frequency ``omega + center_m``; ``v_coeffs[m]`` multiplies the creation
    input at lab frequency ``-omega + center_m``. Columns at non-positive
    lab frequencies are zeroed and listed in ``dropped``. When the exit
    output itself sits at a non-positive lab frequency (lower sideband of a
    zero-centered band), ``physical_output`` is False and efficiency/noise
    are undefined.
    """

    omega: float
    exit_port: str
    signal_port: str
    u_coeffs: Mapping[str, complex]
    v_coeffs: Mapping[str, complex]
    port_centers: Mapping[str, float]
    dropped: tuple[tuple[str, str], ...]
    physical_output: bool


@dataclass(eq=False)
class SweepFailure:
    index: int
    omega: float
    message: str


@dataclass(eq=False)
class SpectrumGrid:
    """Spectra over an ascending positive frequency grid.

    Arrays are aligned with ``omegas``; entries that could not be evaluated
    hold NaN. ``noise_dn``/``eta_dn`` are NaN wherever the lower-sideband
    exit output is unphysical (zero-centered exit band) or, for the noise,
    wherever the corresponding efficiency vanishes. ``symplectic_resid`` is
    restricted to physical slots; ``sumrule_resid`` is the worst transfer-row
    residual at that frequency. Failures carry per-point error messages;
    the surviving points are unaffected.
    """

    omegas: NDArray[np.float64]
    eta_up: NDArray[np.float64]
    eta_dn: NDArray[np.float64]
    noise_up: NDArray[np.float64]
    noise_dn: NDArray[np.float64]
    sumrule_resid: NDArray[np.float64]
    symplectic_resid: NDArray[np.float64]
    rows_up: tuple[TransferRow | None, ...] | None = None
    rows_dn: tuple[TransferRow | None, ...] | None = None
    failures: list[SweepFailure] = field(default_factory=list)


def _solve_block(
    dyn: DoubledDynamics, omegas: NDArray[np.float64]
) -> tuple[NDArray[np.complex128], NDArray[np.bool_], NDArray[np.float64]]:
    """Solve ``(i*omega + M) X = G`` at each signed frequency of a block.

    Returns ``(x, good, cond)``. ``good`` is False where the 2-norm
    condition of the resolvent exceeds ``CONDITION_LIMIT`` or is not
    finite; ``x`` is meaningless there. ``cond`` is that 2-norm condition
    wherever it may exceed half the limit, and an upper bound below half
    the limit elsewhere.

    One solve against ``[G | 1]`` gives ``A^-1 G`` and ``A^-1`` from the
    same factorization, hence the exact 1-norm condition; since
    ``cond_2 <= d * cond_1``, only points where that bound reaches half
    the limit (or is not finite) need the exact 2-norm condition, an SVD.
    A block holding an exactly singular resolvent is screened by SVD first.
    """
    dim, cols = dyn.in_coupling.shape
    eye = np.eye(dim)
    a = 1j * omegas[:, None, None] * eye + dyn.dyn_matrix
    try:
        sol = np.linalg.solve(a, np.concatenate([dyn.in_coupling, eye], axis=1))
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(a)
        good = cond <= CONDITION_LIMIT
        x = np.full((a.shape[0], dim, cols), np.nan, dtype=np.complex128)
        x[good] = np.linalg.solve(a[good], dyn.in_coupling)
        return x, good, cond
    # Column sums of |A| and of |A^-1|, side by side.
    col = np.abs(np.concatenate([a, sol[:, :, cols:]], axis=2)).sum(axis=1)
    cond = dim * col[:, :dim].max(axis=1) * col[:, dim:].max(axis=1)
    flagged = ~(cond <= 0.5 * CONDITION_LIMIT)
    if flagged.any():
        cond[flagged] = np.linalg.cond(a[flagged])
    return sol[:, :, :cols], cond <= CONDITION_LIMIT, cond


def scattering_matrix(dyn: DoubledDynamics, omega: float) -> ScatteringMatrix:
    """Evaluate S at one signed sideband frequency.

    Solves the resolvent through a pivoted factorization and rejects
    numerically singular points (2-norm condition above
    ``CONDITION_LIMIT``, screened by the exact 1-norm condition) with a
    :class:`NearSingularError` naming the frequency.
    """
    x, good, cond = _solve_block(dyn, np.array([float(omega)]))
    if not good[0]:
        raise NearSingularError(
            f"resolvent is near-singular at omega={omega:.9e} rad/s "
            f"(condition estimate {cond[0]:.3e})",
            omega=omega,
        )
    s = np.eye(2 * dyn.n_ports, dtype=np.complex128) + dyn.out_coupling @ x[0]
    resid = symplectic_residual(s, dyn.metric)
    return ScatteringMatrix(
        omega=float(omega),
        matrix=s,
        port_index=dyn.port_index,
        ports=dyn.ports,
        metric=dyn.metric,
        signal_port=dyn.signal_port,
        exit_port=dyn.exit_port,
        unitarity_residual=resid,
    )


def symplectic_residual(
    matrix: NDArray[np.complex128],
    metric: NDArray[np.float64],
    mask: NDArray[np.bool_] | None = None,
) -> float:
    """Max-norm of ``S K S^dag - K``, optionally restricted to masked slots."""
    r = (matrix * metric[None, :]) @ matrix.conj().T - np.diag(metric)
    if mask is not None:
        if not np.any(mask):
            return math.nan
        r = r[np.ix_(mask, mask)]
    return float(np.max(np.abs(r)))


def physical_slot_mask(
    ports: tuple[PortInfo, ...], omega: float
) -> NDArray[np.bool_]:
    """Doubled-port-slot mask: True where the slot lab frequency is positive."""
    centers = np.array([p.band_center for p in ports])
    return np.concatenate([omega + centers > 0.0, -omega + centers > 0.0])


def transfer_row(s: ScatteringMatrix, exit_port: str | None = None) -> TransferRow:
    """Extract the exit-port output row of S with physicality masking.

    The row is read at the signed frequency the matrix was evaluated at;
    call :func:`scattering_matrix` at ``-omega`` for the lower sideband.
    """
    name = s.exit_port if exit_port is None else exit_port
    if name not in s.port_index:
        raise ConfigurationError(f"unknown exit port {name!r}")
    p = s.n_ports
    row = s.matrix[s.port_index[name]]
    centers = {info.name: info.band_center for info in s.ports}
    u: dict[str, complex] = {}
    v: dict[str, complex] = {}
    dropped: list[tuple[str, str]] = []
    for info in s.ports:
        q = s.port_index[info.name]
        cu = complex(row[q])
        cv = complex(row[q + p])
        if s.omega + info.band_center > 0.0:
            u[info.name] = cu
        else:
            u[info.name] = 0.0j
            dropped.append((info.name, "u"))
        if -s.omega + info.band_center > 0.0:
            v[info.name] = cv
        else:
            v[info.name] = 0.0j
            dropped.append((info.name, "v"))
    return TransferRow(
        omega=s.omega,
        exit_port=name,
        signal_port=s.signal_port,
        u_coeffs=u,
        v_coeffs=v,
        port_centers=centers,
        dropped=tuple(dropped),
        physical_output=s.omega + centers[name] > 0.0,
    )


def transfer_pair(
    dyn: DoubledDynamics, omega: float, exit_port: str | None = None
) -> tuple[TransferRow, TransferRow]:
    """Upper/lower-sideband rows at ``+omega`` and ``-omega`` (``omega > 0``)."""
    if omega <= 0.0:
        raise DomainError(f"transfer_pair expects a positive frequency, got {omega!r}")
    up = transfer_row(scattering_matrix(dyn, omega), exit_port)
    dn = transfer_row(scattering_matrix(dyn, -omega), exit_port)
    return up, dn


def eta(row: TransferRow) -> float:
    """Transfer efficiency of the signal coefficient in this row.

    Upper sidebands read the annihilation (beam-splitter-type) coefficient,
    lower sidebands the creation (phase-conjugating) coefficient. The value
    may exceed 1 when the network has gain.
    """
    if not row.physical_output:
        raise DomainError(
            f"exit output of {row.exit_port!r} at omega={row.omega:.6e} rad/s "
            "sits at a non-positive lab frequency; efficiency is undefined"
        )
    if row.omega > 0.0:
        return abs(row.u_coeffs[row.signal_port]) ** 2
    if row.omega < 0.0:
        return abs(row.v_coeffs[row.signal_port]) ** 2
    raise DomainError("sideband frequency must be nonzero")


def noise_flux(row: TransferRow, env: NoiseEnvironment) -> float:
    """Exit-referred noise quanta flux density (the numerator of N).

    Sums thermal and vacuum contributions of every non-signal input column
    (plus the phase-conjugating signal column on the side where it acts as
    noise), with occupancies at the slot lab frequencies. Masked columns
    contribute nothing.
    """
    if not row.physical_output:
        raise DomainError(
            f"noise flux undefined: exit output of {row.exit_port!r} is "
            f"unphysical at omega={row.omega:.6e} rad/s"
        )
    upper = row.omega > 0.0
    total = 0.0
    for name, coeff in row.u_coeffs.items():
        if coeff == 0.0 or (upper and name == row.signal_port):
            continue
        n = env.occupancy(name, row.omega + row.port_centers[name])
        total += abs(coeff) ** 2 * n
    for name, coeff in row.v_coeffs.items():
        if coeff == 0.0 or (not upper and name == row.signal_port):
            continue
        n = env.occupancy(name, -row.omega + row.port_centers[name])
        total += abs(coeff) ** 2 * (n + 1.0)
    return total


def added_noise(row: TransferRow, env: NoiseEnvironment) -> float:
    """Input-referred added noise N = (noise flux) / (transfer efficiency)."""
    efficiency = eta(row)
    if efficiency == 0.0:
        raise UndefinedNoiseError(
            f"added noise undefined at omega={row.omega:.6e} rad/s: transfer "
            "efficiency vanishes"
        )
    return noise_flux(row, env) / efficiency


def sum_rule_residual(row: TransferRow) -> float:
    """|sum |U|^2 - sum |V|^2 - 1| over the physical columns of the row.

    Exactly zero for any quasi-unitary S; reported as a diagnostic for
    networks (or sidebands) where masking or viscous damping break the
    bookkeeping.
    """
    if not row.physical_output:
        return math.nan
    total = sum(abs(c) ** 2 for c in row.u_coeffs.values())
    total -= sum(abs(c) ** 2 for c in row.v_coeffs.values())
    return abs(total - 1.0)


def noise_commutator_residual(row: TransferRow) -> float:
    """Deviation of the noise-operator commutator from ``1 -+ eta``.

    The exit-referred noise operator excludes the signal coefficient on its
    own side; its commutator must equal ``1 - eta`` on the upper sideband
    and ``1 + eta`` on the lower one whenever S is quasi-unitary.
    """
    efficiency = eta(row)
    upper = row.omega > 0.0
    commutator = 0.0
    for name, coeff in row.u_coeffs.items():
        if upper and name == row.signal_port:
            continue
        commutator += abs(coeff) ** 2
    for name, coeff in row.v_coeffs.items():
        if not upper and name == row.signal_port:
            continue
        commutator -= abs(coeff) ** 2
    expected = 1.0 - efficiency if upper else 1.0 + efficiency
    return abs(commutator - expected)


def _check_grid(omegas: NDArray[np.float64]) -> None:
    if omegas.ndim != 1 or omegas.size == 0:
        raise ConfigurationError("frequency grid must be a non-empty 1-d array")
    if omegas[0] <= 0.0 or np.any(~np.isfinite(omegas)):
        raise ConfigurationError("frequency grid must be positive and finite")
    if np.any(np.diff(omegas) <= 0.0):
        raise ConfigurationError("frequency grid must be strictly ascending")


def spectrum_sweep(
    dyn: DoubledDynamics,
    env: NoiseEnvironment,
    omegas: NDArray[np.float64] | list[float],
    *,
    exit_port: str | None = None,
    store_rows: bool = True,
) -> SpectrumGrid:
    """Vectorized spectra over an ascending positive frequency grid.

    Both sidebands are solved in fixed blocks of signed frequencies, and
    only the exit row of S is formed (the full S only on the upper
    sideband, for ``symplectic_resid``). A point is near-singular when the
    2-norm condition of its resolvent exceeds ``CONDITION_LIMIT`` (1e12)
    on either sideband, screened by the exact 1-norm condition. Such
    points are recorded in ``failures`` and hold NaN in every output
    array; all other points are computed normally.

    Parameters
    ----------
    dyn:
        Assembled dynamics.
    env:
        Per-port occupancy evaluators for the noise spectra.
    omegas:
        Strictly ascending, strictly positive sideband frequencies [rad/s].
    exit_port:
        Override of the model's exit port.
    store_rows:
        Keep per-point :class:`TransferRow` objects (needed by the
        application-level figures of merit; disable for raw speed).
    """
    grid = np.asarray(omegas, dtype=np.float64)
    _check_grid(grid)
    m = grid.size
    p = dyn.n_ports
    exit_name = dyn.exit_port if exit_port is None else exit_port
    if exit_name not in dyn.port_index:
        raise ConfigurationError(f"unknown exit port {exit_name!r}")
    signal_name = dyn.signal_port

    signed = np.concatenate([grid, -grid])  # upper block, then lower block
    centers = np.array([info.band_center for info in dyn.ports])
    exit_col = dyn.port_index[exit_name]
    sig_col = dyn.port_index[signal_name]
    lab_u = signed[:, None] + centers[None, :]
    lab_v = -signed[:, None] + centers[None, :]
    mask_u = lab_u > 0.0
    mask_v = lab_v > 0.0

    # Exit rows at every signed frequency; the full S and its physically
    # masked symplectic residual on the upper block only (the lower block
    # is its particle-hole mirror image). The contractions stay einsums:
    # a matmul sums in another order and changes the last digits.
    rows = np.full((2 * m, 2 * p), np.nan, dtype=np.complex128)
    good = np.empty(2 * m, dtype=bool)
    cond = np.empty(2 * m)
    symp = np.full(m, np.nan)
    kd = dyn.metric
    eye = np.eye(2 * p)
    for lo in range(0, 2 * m, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        x, good[block], cond[block] = _solve_block(dyn, signed[block])
        ok = np.nonzero(good[block])[0]
        rows[lo + ok] = eye[exit_col] + np.einsum(
            "j,ajk->ak", dyn.out_coupling[exit_col], x[ok]
        )
        up = ok[lo + ok < m]
        if up.size:
            su = eye + np.einsum("ij,ajk->aik", dyn.out_coupling, x[up])
            r = np.einsum("aij,j,akj->aik", su, kd, su.conj()) - np.diag(kd)
            idx = lo + up
            slot_mask = np.concatenate([mask_u[idx], mask_v[idx]], axis=1)
            r_abs = np.abs(r)
            r_abs[~(slot_mask[:, :, None] & slot_mask[:, None, :])] = 0.0
            symp[idx] = r_abs.max(axis=(1, 2))

    failures: list[SweepFailure] = []
    point_ok = good[:m] & good[m:]
    for i in np.nonzero(~point_ok)[0]:
        worst = cond[i] if not good[i] else cond[m + i]
        failures.append(
            SweepFailure(
                index=int(i),
                omega=float(grid[i]),
                message=(
                    f"resolvent is near-singular at omega=+-{grid[i]:.9e} rad/s "
                    f"(condition estimate {worst:.3e})"
                ),
            )
        )

    temps_or_consts = [info.name for info in dyn.ports]

    # Exit rows masked by column physicality.
    u_all = np.where(mask_u, rows[:, :p], 0.0)
    v_all = np.where(mask_v, rows[:, p:], 0.0)
    out_physical = signed + centers[exit_col] > 0.0

    occ_u = np.empty((2 * m, p))
    occ_v = np.empty((2 * m, p))
    for j, name in enumerate(temps_or_consts):
        occ_u[:, j] = env.occupancy_array(name, lab_u[:, j], mask_u[:, j])
        occ_v[:, j] = env.occupancy_array(name, lab_v[:, j], mask_v[:, j])

    abs_u = np.abs(u_all) ** 2
    abs_v = np.abs(v_all) ** 2
    upper_side = signed > 0.0

    eta_signed = np.where(upper_side, abs_u[:, sig_col], abs_v[:, sig_col])
    eta_signed = np.where(out_physical & good, eta_signed, np.nan)

    u_noise = abs_u.copy()
    v_noise = abs_v.copy()
    u_noise[upper_side, sig_col] = 0.0  # signal column is not noise on its own side
    v_noise[~upper_side, sig_col] = 0.0
    flux = (u_noise * occ_u).sum(axis=1) + (
        v_noise * np.where(mask_v, occ_v + 1.0, 0.0)
    ).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        noise_signed = np.where(eta_signed > 0.0, flux / eta_signed, np.nan)

    sumrule_signed = np.abs(
        abs_u.sum(axis=1) - abs_v.sum(axis=1) - 1.0
    )
    sumrule_signed = np.where(out_physical & good, sumrule_signed, np.nan)

    rows_up: list[TransferRow | None] | None = None
    rows_dn: list[TransferRow | None] | None = None
    if store_rows:
        center_map = {info.name: info.band_center for info in dyn.ports}
        names = [info.name for info in dyn.ports]
        rows_up, rows_dn = [], []
        for block, sink in ((0, rows_up), (m, rows_dn)):
            for i in range(m):
                a_i = block + i
                if not good[a_i]:
                    sink.append(None)
                    continue
                dropped = [(names[j], "u") for j in range(p) if not mask_u[a_i, j]]
                dropped += [(names[j], "v") for j in range(p) if not mask_v[a_i, j]]
                sink.append(
                    TransferRow(
                        omega=float(signed[a_i]),
                        exit_port=exit_name,
                        signal_port=signal_name,
                        u_coeffs={names[j]: complex(u_all[a_i, j]) for j in range(p)},
                        v_coeffs={names[j]: complex(v_all[a_i, j]) for j in range(p)},
                        port_centers=center_map,
                        dropped=tuple(dropped),
                        physical_output=bool(out_physical[a_i]),
                    )
                )

    def _split(arr: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        return arr[:m].copy(), arr[m:].copy()

    eta_up, eta_dn = _split(eta_signed)
    noise_up, noise_dn = _split(noise_signed)
    sr_up, sr_dn = _split(sumrule_signed)
    with np.errstate(invalid="ignore"):
        sumrule = np.where(
            np.isnan(sr_dn), sr_up, np.fmax(sr_up, sr_dn)
        )
    return SpectrumGrid(
        omegas=grid,
        eta_up=eta_up,
        eta_dn=eta_dn,
        noise_up=noise_up,
        noise_dn=noise_dn,
        sumrule_resid=sumrule,
        symplectic_resid=symp,
        rows_up=tuple(rows_up) if rows_up is not None else None,
        rows_dn=tuple(rows_dn) if rows_dn is not None else None,
        failures=failures,
    )
