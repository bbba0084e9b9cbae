"""Frequency-domain scattering of driven mode networks.

Everything here operates on the doubled-basis dynamics produced by
:func:`modescatter.network.assemble_dynamics`. The scattering matrix at
signed sideband frequency ``omega`` is::

    S(omega) = 1 + G' (i*omega*1 + M)^(-1) G

mapping doubled port inputs to doubled port outputs at the same sideband.
Creation slots evaluated at ``omega`` represent adjoints at ``-omega``, so
lower-sideband quantities are obtained from ``S`` at ``-omega`` (never by
analytic continuation) and reading the creation-block coefficients. Since
the doubled basis is particle-hole symmetric, ``S(-omega)`` is the
conjugate of ``S(omega)`` with annihilation and creation slots swapped;
:func:`spectrum_sweep` uses this to solve once per frequency.

One kernel evaluates the resolvent for every entry point: it inverts
``i*omega + M`` once per signed frequency, a block of frequencies at a
time, and forms ``A^-1 G`` and the rows of S that a caller needs as one
matrix product over the block.

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
from functools import cached_property
from typing import Any, Literal, Mapping

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConfigurationError,
    DomainError,
    NearSingularError,
    UndefinedNoiseError,
)
from .network import DoubledDynamics, PortInfo

#: Reduced Planck and Boltzmann constants (J s, J/K): the exact SI 2019
#: values, the same floats as ``scipy.constants.hbar`` and ``.k``.
hbar = 6.62607015e-34 / (2.0 * math.pi)
k_boltzmann = 1.380649e-23

#: Threshold on the 2-norm condition number of the resolvent ``i*omega + M``
#: above which a point is treated as singular. The exact 2-norm condition
#: (an SVD) is computed only where the exact 1-norm condition, read off
#: the inverse the kernel forms anyway, cannot rule it out:
#: ``cond_2 <= d * cond_1``.
CONDITION_LIMIT = 1.0e12

#: Signed frequencies per resolvent block: keeps the resolvent, inverse
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
    """S(omega) on the doubled port basis, with bookkeeping metadata."""

    omega: float
    matrix: NDArray[np.complex128]
    port_index: Mapping[str, int]
    ports: tuple[PortInfo, ...]
    metric: NDArray[np.float64]
    signal_port: str
    exit_port: str

    @property
    def n_ports(self) -> int:
        return len(self.ports)

    @property
    def unitarity_residual(self) -> float:
        """Full-basis max-norm of ``S K S^dag - K``, computed on access.

        For networks containing lab-quadrature (viscous) ports this is O(1)
        in the artifact sectors and only the physically-masked residual is
        meaningful (see :func:`symplectic_residual`).
        """
        return symplectic_residual(self.matrix, self.metric)


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
    restricted to physical slots, and is None when the sweep was run with
    ``symplectic=False``; ``sumrule_resid`` is the worst transfer-row
    residual at that frequency. Failures carry per-point error messages;
    the surviving points are unaffected.

    ``exit_rows[0, i]`` and ``exit_rows[1, i]`` are the exit-port rows of S
    at ``+omegas[i]`` and ``-omegas[i]`` on the doubled port slots, before
    physicality masking, and NaN where the point failed. ``rows_up`` and
    ``rows_dn`` are :class:`TransferRow` views of them, built on first read
    and then kept, with None where the point failed. Both views are None on
    a grid built without ``exit_rows``.

    ``cond[0, i]`` and ``cond[1, i]`` describe the 2-norm condition of the
    resolvent ``A = i*omega + M`` at ``+omegas[i]`` and ``-omegas[i]``:
    the exact value (an SVD) wherever it may exceed half of
    ``CONDITION_LIMIT``, and elsewhere the upper bound
    ``d * |A|_1 * |A^-1|_1``, ``d`` times the exact 1-norm condition. The
    1-norms are the largest column sums of ``|A|`` and of the ``|A^-1|``
    the kernel forms anyway, each column summed row by row. A point fails
    where the condition exceeds ``CONDITION_LIMIT`` at either sign.
    """

    omegas: NDArray[np.float64]
    eta_up: NDArray[np.float64]
    eta_dn: NDArray[np.float64]
    noise_up: NDArray[np.float64]
    noise_dn: NDArray[np.float64]
    sumrule_resid: NDArray[np.float64]
    symplectic_resid: NDArray[np.float64] | None
    failures: list[SweepFailure] = field(default_factory=list)
    exit_rows: NDArray[np.complex128] | None = None
    cond: NDArray[np.float64] | None = None
    # Ports, signal port and exit port name of the views.
    _row_labels: tuple[tuple[PortInfo, ...], str, str] | None = field(
        default=None, repr=False
    )

    @cached_property
    def rows_up(self) -> tuple[TransferRow | None, ...] | None:
        return self._row_views(0)

    @cached_property
    def rows_dn(self) -> tuple[TransferRow | None, ...] | None:
        return self._row_views(1)

    def _row_views(self, side: int) -> tuple[TransferRow | None, ...] | None:
        if self.exit_rows is None or self._row_labels is None:
            return None
        rows = self.exit_rows[side]
        signed = self.omegas if side == 0 else -self.omegas
        views = _transfer_rows(*self._row_labels, signed.tolist(), rows.tolist())
        failed = np.isnan(rows).all(axis=1).tolist()
        return tuple(None if bad else row for row, bad in zip(views, failed))


def _solve_block(
    dyn: DoubledDynamics, omegas: NDArray[np.float64]
) -> tuple[NDArray[np.complex128], NDArray[np.bool_], NDArray[np.float64]]:
    """Solve ``(i*omega + M) X = G`` at each signed frequency of a block.

    Returns ``(x, good, cond)``. ``good`` is False where the 2-norm
    condition of the resolvent exceeds ``CONDITION_LIMIT`` or is not
    finite; ``x`` is meaningless there. ``cond`` is that 2-norm condition
    wherever it may exceed half the limit, and an upper bound below half
    the limit elsewhere.

    Each resolvent is inverted once; ``A^-1`` gives the exact 1-norm
    condition and, through one matrix product over the whole block,
    ``A^-1 G``. Since ``cond_2 <= d * cond_1``, only points where that
    bound reaches half the limit (or is not finite) need the exact 2-norm
    condition, an SVD. A block holding an exactly singular resolvent is
    screened by SVD first, and only its good points are inverted.

    The resolvents are built with the points last, ``a[:, :, k]`` being
    the resolvent at ``omegas[k]``, and the 1-norms are taken in that
    layout: the largest column sums of ``|A|`` and ``|A^-1|``, each column
    summed row by row in order, with the sums over rows and the maxima over
    columns running along the points.
    """
    n = omegas.size
    dim, cols = dyn.in_coupling.shape
    a = np.empty((dim, dim, n), dtype=np.complex128)
    a[:] = dyn.dyn_matrix[:, :, None]
    a.reshape(dim * dim, n)[:: dim + 1].imag += omegas
    stack = a.transpose(2, 0, 1)
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(stack)
        good = cond <= CONDITION_LIMIT
        x = np.full((n, dim, cols), np.nan, dtype=np.complex128)
        x[good] = _times_coupling(np.linalg.inv(stack[good]), dyn.in_coupling)
        return x, good, cond
    # mags[i, j] holds |A_ij| and mags[i, dim + j] holds |A^-1_ij|.
    mags = np.empty((dim, 2 * dim, n))
    np.abs(a, out=mags[:, :dim])
    np.abs(inv.transpose(1, 2, 0), out=mags[:, dim:])
    norms = np.maximum.reduce(np.add.reduce(mags).reshape(2, dim, n), axis=1)
    cond = dim * norms[0] * norms[1]
    screened = cond <= 0.5 * CONDITION_LIMIT
    if not screened.all():
        flagged = ~screened
        cond[flagged] = np.linalg.cond(stack[flagged])
    return _times_coupling(inv, dyn.in_coupling), cond <= CONDITION_LIMIT, cond


def _times_coupling(
    inv: NDArray[np.complex128], g: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """``A^-1 G`` at every point of a stack of inverses, as one matrix product."""
    n, dim, _ = inv.shape
    return (inv.reshape(n * dim, dim) @ g).reshape(n, dim, g.shape[1])


def _s_rows(
    g_out: NDArray[np.complex128], x: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """Rows ``g_out`` of ``G'`` times each ``X`` of a stack, as one matrix product.

    Entry ``[r, i]`` is ``g_out[r] @ x[i]``: that row of ``S - 1`` at point
    ``i`` when ``x`` holds ``A^-1 G``.
    """
    n, dim, cols = x.shape
    stacked = x.transpose(1, 0, 2).reshape(dim, n * cols)
    return (g_out @ stacked).reshape(g_out.shape[0], n, cols)


def _resolve_exit(
    port_index: Mapping[str, int], default: str, exit_port: str | None
) -> tuple[str, int]:
    """Name and column of the exit port: ``default`` unless overridden."""
    name = default if exit_port is None else exit_port
    if name not in port_index:
        raise ConfigurationError(
            f"unknown exit port {name!r} (have {', '.join(sorted(port_index))})"
        )
    return name, port_index[name]


def _slots(
    signed: float | NDArray[np.float64], centers: float | NDArray[np.float64]
) -> tuple[Any, Any, Any, Any]:
    """Slot lab frequencies at signed frequency ``signed``, and which are physical.

    Returns ``(lab_u, lab_v, physical_u, physical_v)``: the annihilation
    slot of a port with band center ``c`` sits at ``signed + c``, the
    creation slot at ``-signed + c``, and a slot is physical where its lab
    frequency is positive. Takes floats, or arrays that broadcast.
    """
    lab_u = signed + centers
    lab_v = -signed + centers
    return lab_u, lab_v, lab_u > 0.0, lab_v > 0.0


def _solve_regular(
    dyn: DoubledDynamics, signed: NDArray[np.float64]
) -> NDArray[np.complex128]:
    """``A^-1 G`` at each signed frequency, from one block solve.

    Raises :class:`NearSingularError` for the first near-singular point.
    """
    x, good, cond = _solve_block(dyn, signed)
    for omega, ok, c in zip(signed.tolist(), good, cond):
        if not ok:
            raise NearSingularError(
                f"resolvent is near-singular at omega={omega:.9e} rad/s "
                f"(condition estimate {c:.3e})",
                omega=omega,
            )
    return x


def scattering_matrix(dyn: DoubledDynamics, omega: float) -> ScatteringMatrix:
    """Evaluate S at one signed sideband frequency.

    Solves the resolvent through a pivoted factorization and rejects
    numerically singular points (2-norm condition above
    ``CONDITION_LIMIT``, screened by the exact 1-norm condition) with a
    :class:`NearSingularError` naming the frequency, and a non-finite
    frequency with a :class:`DomainError`.
    """
    if not -math.inf < omega < math.inf:
        raise DomainError(
            f"scattering_matrix expects a finite frequency, got {omega!r}"
        )
    x = _solve_regular(dyn, np.array([float(omega)]))[0]
    s = np.eye(2 * dyn.n_ports, dtype=np.complex128) + dyn.out_coupling @ x
    return ScatteringMatrix(
        omega=float(omega),
        matrix=s,
        port_index=dyn.port_index,
        ports=dyn.ports,
        metric=dyn.metric,
        signal_port=dyn.signal_port,
        exit_port=dyn.exit_port,
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
    """Doubled-port-slot mask at signed frequency ``omega``.

    Entry ``m`` (annihilation slot of port ``m``) is True where
    ``omega + center_m > 0``, entry ``m + n_ports`` (creation slot) where
    ``-omega + center_m > 0``: the same rule that masks transfer rows.
    """
    centers = np.array([info.band_center for info in ports])
    _, _, physical_u, physical_v = _slots(omega, centers)
    return np.concatenate([physical_u, physical_v])


def _transfer_rows(
    ports: tuple[PortInfo, ...],
    signal_port: str,
    exit_name: str,
    signed: list[float],
    exit_rows: list[list[complex]],
) -> list[TransferRow]:
    """:class:`TransferRow` views of exit rows of S at signed frequencies.

    ``exit_rows[i]`` is the exit-port row of S at ``signed[i]``, on the
    doubled port slots, as Python numbers (one ``tolist`` per block).
    Columns at non-positive slot lab frequencies are zeroed and listed in
    ``dropped``, annihilation slots first.
    """
    names = [info.name for info in ports]
    centers = [info.band_center for info in ports]
    port_centers = dict(zip(names, centers))
    p = len(names)
    rows = []
    for omega, row in zip(signed, exit_rows):
        u, v, dropped_u, dropped_v = {}, {}, [], []
        for name, center, cu, cv in zip(names, centers, row[:p], row[p:]):
            _, _, keep_u, keep_v = _slots(omega, center)
            u[name] = cu if keep_u else 0j
            v[name] = cv if keep_v else 0j
            if not keep_u:
                dropped_u.append((name, "u"))
            if not keep_v:
                dropped_v.append((name, "v"))
        rows.append(
            TransferRow(
                omega=omega,
                exit_port=exit_name,
                signal_port=signal_port,
                u_coeffs=u,
                v_coeffs=v,
                port_centers=port_centers,
                dropped=tuple(dropped_u + dropped_v),
                physical_output=(exit_name, "u") not in dropped_u,
            )
        )
    return rows


def transfer_row(s: ScatteringMatrix, exit_port: str | None = None) -> TransferRow:
    """Extract the exit-port output row of S with physicality masking.

    The row is read at the signed frequency the matrix was evaluated at;
    call :func:`scattering_matrix` at ``-omega`` for the lower sideband.
    Columns whose slot lab frequency is not positive are zeroed and listed
    in ``dropped``, by the rule of :func:`physical_slot_mask`.
    """
    name, col = _resolve_exit(s.port_index, s.exit_port, exit_port)
    (row,) = _transfer_rows(
        s.ports, s.signal_port, name, [s.omega], [s.matrix[col].tolist()]
    )
    return row


def transfer_pair(
    dyn: DoubledDynamics, omega: float, exit_port: str | None = None
) -> tuple[TransferRow, TransferRow]:
    """Upper/lower-sideband rows at ``+omega`` and ``-omega`` (``omega > 0``).

    Equal, coefficient for coefficient, to :func:`transfer_row` of
    :func:`scattering_matrix` at ``+omega`` and at ``-omega``, and raises the
    same :class:`NearSingularError` (``+omega`` first). Both sidebands come
    from one two-point block solve, and only the exit row of S is formed.
    The lower sideband is solved rather than mirrored from the upper one as
    in :func:`spectrum_sweep`: the exact particle-hole check the mirror
    needs costs more per new dynamics than the second matrix of the block,
    and the mirror changes last digits.
    """
    if not 0.0 < omega < math.inf:
        raise DomainError(
            f"transfer_pair expects a positive finite frequency, got {omega!r}"
        )
    name, col = _resolve_exit(dyn.port_index, dyn.exit_port, exit_port)
    signed = np.array([omega, -omega], dtype=np.float64)
    x = _solve_regular(dyn, signed)
    # Rows exit and exit + n_ports of G' give the exit row with the bits of
    # S: a product of two rows takes the matrix path that forms S, where
    # one row would take NumPy's matrix-vector path and can move last bits.
    p = dyn.n_ports
    g_rows = dyn.out_coupling[col : col + p + 1 : p]
    eye_row = np.zeros(2 * p, dtype=np.complex128)
    eye_row[col] = 1.0
    rows = (eye_row + (g_rows @ x)[:, 0]).tolist()
    up, dn = _transfer_rows(dyn.ports, dyn.signal_port, name, signed.tolist(), rows)
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


def _noise_columns(
    row: TransferRow,
) -> tuple[list[tuple[str, complex, float]], list[tuple[str, complex, float]]]:
    """Nonzero noise columns of a row, annihilation side then creation side.

    Each column is ``(port, coefficient, slot lab frequency)``. The signal
    column is left out on its own side (u on the upper sideband, v on the
    lower), where it carries the signal; on the other side it is noise.
    """
    upper = row.omega > 0.0
    u = [
        (name, coeff, row.omega + row.port_centers[name])
        for name, coeff in row.u_coeffs.items()
        if coeff != 0.0 and not (upper and name == row.signal_port)
    ]
    v = [
        (name, coeff, -row.omega + row.port_centers[name])
        for name, coeff in row.v_coeffs.items()
        if coeff != 0.0 and not (not upper and name == row.signal_port)
    ]
    return u, v


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
    cols_u, cols_v = _noise_columns(row)
    total = 0.0
    for name, coeff, lab in cols_u:
        total += abs(coeff) ** 2 * env.occupancy(name, lab)
    for name, coeff, lab in cols_v:
        total += abs(coeff) ** 2 * (env.occupancy(name, lab) + 1.0)
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
    cols_u, cols_v = _noise_columns(row)
    commutator = 0.0
    for _, coeff, _ in cols_u:
        commutator += abs(coeff) ** 2
    for _, coeff, _ in cols_v:
        commutator -= abs(coeff) ** 2
    expected = 1.0 - efficiency if row.omega > 0.0 else 1.0 + efficiency
    return abs(commutator - expected)


def _check_grid(omegas: NDArray[np.float64]) -> None:
    if omegas.ndim != 1 or omegas.size == 0:
        raise ConfigurationError("frequency grid must be a non-empty 1-d array")
    if omegas[0] <= 0.0 or np.any(~np.isfinite(omegas)):
        raise ConfigurationError("frequency grid must be positive and finite")
    if np.any(np.diff(omegas) <= 0.0):
        raise ConfigurationError("frequency grid must be strictly ascending")


def _particle_hole_symmetric(dyn: DoubledDynamics) -> bool:
    """True when ``M = P conj(M) P``, ``G = P conj(G) Q`` and ``G' = Q conj(G') P``.

    ``P`` and ``Q`` swap the annihilation and creation halves of the mode
    and port slots. :func:`modescatter.network.assemble_dynamics` builds
    every model this way, bit for bit; then ``S(-omega) = Q conj(S(omega)) Q``.
    """
    n, p = dyn.n_modes, dyn.n_ports
    swap_b = np.r_[n : 2 * n, :n]
    swap_a = np.r_[p : 2 * p, :p]
    m, g, g_out = dyn.dyn_matrix, dyn.in_coupling, dyn.out_coupling
    return (
        np.array_equal(m, m[np.ix_(swap_b, swap_b)].conj())
        and np.array_equal(g, g[np.ix_(swap_b, swap_a)].conj())
        and np.array_equal(g_out, g_out[np.ix_(swap_a, swap_b)].conj())
    )


def _masked_symplectic(
    s: NDArray[np.complex128], metric: NDArray[np.float64], slots: NDArray[np.bool_]
) -> NDArray[np.float64]:
    """Max-norm of ``S K S^dag - K`` at each point of a stack of S.

    ``slots`` marks the physical doubled port slots of each point; only
    entries between two physical slots count.
    """
    r_abs = np.abs((s * metric) @ s.conj().transpose(0, 2, 1) - np.diag(metric))
    r_abs[~(slots[:, :, None] & slots[:, None, :])] = 0.0
    return r_abs.max(axis=(1, 2))


def _port_sums(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sums over the leading (port) axis of ``x``, one per point.

    The bits are those of NumPy's sum along a contiguous port axis: the
    terms in order below eight ports, and NumPy's pairwise order from eight
    on, which only a contiguous copy with the ports last reproduces.
    """
    if x.shape[0] < 8:
        return np.add.reduce(x, axis=0)
    return np.ascontiguousarray(x.T).sum(axis=1)


def _flux_balance(
    abs_u: NDArray[np.float64], abs_v: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Sum-rule residual ``|sum |U|^2 - sum |V|^2 - 1|`` of each masked row.

    ``abs_u``/``abs_v`` hold the squared magnitudes of the annihilation and
    creation halves of the rows, port-major, zero on unphysical columns.
    """
    return np.abs(_port_sums(abs_u) - _port_sums(abs_v) - 1.0)


def _sideband_spectra(
    u: NDArray[np.complex128],
    v: NDArray[np.complex128],
    occ_u: NDArray[np.float64],
    occ_v: NDArray[np.float64],
    mask_v: NDArray[np.bool_],
    defined: NDArray[np.bool_],
    sig_col: int,
    upper: bool,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Efficiency, added noise and sum-rule residual of masked exit rows.

    ``u``/``v`` are the annihilation/creation halves of the exit rows at
    one signed sideband, zeroed on unphysical columns; they, the
    occupancies and ``mask_v`` are port-major, ``(n_ports, points)``.
    ``defined`` marks the points whose exit output is physical and whose
    solve succeeded.
    """
    abs_u = np.abs(u) ** 2
    abs_v = np.abs(v) ** 2
    efficiency = np.where(defined, (abs_u if upper else abs_v)[sig_col], np.nan)
    u_noise = abs_u.copy()
    v_noise = abs_v.copy()
    # The signal column is not noise on its own side.
    (u_noise if upper else v_noise)[sig_col] = 0.0
    flux = _port_sums(u_noise * occ_u) + _port_sums(
        v_noise * np.where(mask_v, occ_v + 1.0, 0.0)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        noise = np.where(efficiency > 0.0, flux / efficiency, np.nan)
    sumrule = np.where(defined, _flux_balance(abs_u, abs_v), np.nan)
    return efficiency, noise, sumrule


def _good_index(good: NDArray[np.bool_]) -> slice | NDArray[np.intp]:
    """Index of the good points of a block: a slice when all are good.

    Reading and writing through a slice takes views rather than copies.
    """
    return slice(None) if good.all() else np.nonzero(good)[0]


def spectrum_sweep(
    dyn: DoubledDynamics,
    env: NoiseEnvironment,
    omegas: NDArray[np.float64] | list[float],
    *,
    exit_port: str | None = None,
    symplectic: bool = True,
) -> SpectrumGrid:
    """Vectorized spectra over an ascending positive frequency grid.

    The grid is walked in fixed blocks of positive frequencies, and each
    block is solved once, at ``+omega``. For dynamics with exact
    particle-hole symmetry (every model built by
    :func:`modescatter.network.assemble_dynamics`),
    ``S(-omega) = Q conj(S(omega)) Q`` with ``Q`` swapping the annihilation
    and creation port slots, so the lower-sideband exit row is read from
    the upper solve: the conjugate of row ``exit + n_ports`` with its
    halves swapped. Other dynamics get a second solve at ``-omega``. All
    post-processing runs inside the same block loop, so only the outputs
    span the grid. After the solve it works port-major, on ``(n_ports,
    points)`` arrays of slot lab frequencies, masks, occupancies and
    squared coefficients, so that each operation and each sum over ports
    runs along the points of the block; a block whose points all passed
    the screen is read and written through slices, not copies.

    A point is near-singular when the 2-norm condition of its resolvent
    exceeds ``CONDITION_LIMIT`` (1e12), screened by the exact 1-norm
    condition ``d * |A|_1 * |A^-1|_1`` (see ``SpectrumGrid.cond``); with
    the mirror both sidebands share that one condition number, as the two
    resolvents have the same singular values. Such points are recorded in
    ``failures`` and hold NaN in every output array; all other points are
    computed normally. The condition number or bound of every point is
    kept as ``cond``.

    The exit rows at both sidebands are kept as one array,
    ``exit_rows``; the per-point :class:`TransferRow` views ``rows_up``
    and ``rows_dn`` are built from it on first read, by the builder behind
    :func:`transfer_row`. No figure of merit reads them.

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
    symplectic:
        Also compute ``symplectic_resid``, the physically masked residual of
        ``S K S^dag - K``, which needs the full S at every point. When False
        only the two rows of S the spectra read (``exit`` and
        ``exit + n_ports``) are formed, and ``symplectic_resid`` is None;
        every other output is bit-identical. ``fom --app counting|entangle``
        and the entanglement objectives of :mod:`modescatter.optimize` never
        read the residual and turn it off; ``spectra`` prints it.
    """
    grid = np.asarray(omegas, dtype=np.float64)
    _check_grid(grid)
    m = grid.size
    p = dyn.n_ports
    exit_name, exit_col = _resolve_exit(dyn.port_index, dyn.exit_port, exit_port)
    sig_col = dyn.port_index[dyn.signal_port]
    centers = np.array([[info.band_center] for info in dyn.ports])
    mirrored = _particle_hole_symmetric(dyn)
    eye = np.eye(2 * p)
    pick = [exit_col, exit_col + p]
    eye_pick, g_pick = eye[pick, None, :], dyn.out_coupling[pick]

    # Row 0 holds the upper sideband (+omega), row 1 the lower (-omega).
    good = np.empty((2, m), dtype=bool)
    cond = np.empty((2, m))
    efficiency = np.empty((2, m))
    noise = np.empty((2, m))
    sumrule = np.empty((2, m))
    symp = np.full(m, np.nan) if symplectic else None
    all_rows = np.full((2, m, 2 * p), np.nan, dtype=np.complex128)

    for lo in range(0, m, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        w = grid[block]
        x, good[0, block], cond[0, block] = _solve_block(dyn, w)
        ok = _good_index(good[0, block])
        # Slot lab frequencies, port-major like everything after the solve:
        # the lower sideband sees the upper's u and v slots swapped, and so
        # their masks and occupancies.
        lab_u, lab_v, mask_u, mask_v = _slots(w, centers)

        # Rows exit and exit + n_ports of S on the upper sideband serve its
        # exit row and the mirrored lower row. They come from one product
        # whether or not the full S is formed, which it is only for the
        # physically masked symplectic residual.
        x_ok = x[ok]
        exit_rows = eye_pick + _s_rows(g_pick, x_ok)
        if symp is not None:
            s = eye + _s_rows(dyn.out_coupling, x_ok).transpose(1, 0, 2)
            slots = np.concatenate([mask_u, mask_v])[:, ok].T
            symp[block][ok] = _masked_symplectic(s, dyn.metric, slots)
        rows = all_rows[:, block]
        rows[0, ok] = exit_rows[0]
        if mirrored:
            good[1, block], cond[1, block] = good[0, block], cond[0, block]
            mirror = exit_rows[1].conj()
            rows[1, ok, :p], rows[1, ok, p:] = mirror[:, p:], mirror[:, :p]
        else:
            x_dn, good[1, block], cond[1, block] = _solve_block(dyn, -w)
            ok_dn = _good_index(good[1, block])
            rows[1, ok_dn] = eye[exit_col] + _s_rows(
                dyn.out_coupling[[exit_col]], x_dn[ok_dn]
            )[0]

        occ_u = np.empty((p, w.size))
        occ_v = np.empty((p, w.size))
        for j, info in enumerate(dyn.ports):
            occ_u[j] = env.occupancy_array(info.name, lab_u[j], mask_u[j])
            occ_v[j] = env.occupancy_array(info.name, lab_v[j], mask_v[j])

        sides = ((mask_u, mask_v, occ_u, occ_v), (mask_v, mask_u, occ_v, occ_u))
        for side, (m_u, m_v, o_u, o_v) in enumerate(sides):
            row = rows[side].T
            efficiency[side, block], noise[side, block], sumrule[side, block] = (
                _sideband_spectra(
                    np.where(m_u, row[:p], 0.0),
                    np.where(m_v, row[p:], 0.0),
                    o_u, o_v, m_v, m_u[exit_col] & good[side, block],
                    sig_col, side == 0,
                )
            )

    failures: list[SweepFailure] = []
    for i in np.nonzero(~(good[0] & good[1]))[0]:
        worst = cond[0, i] if not good[0, i] else cond[1, i]
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

    return SpectrumGrid(
        omegas=grid,
        eta_up=efficiency[0],
        eta_dn=efficiency[1],
        noise_up=noise[0],
        noise_dn=noise[1],
        sumrule_resid=np.fmax(sumrule[0], sumrule[1]),
        symplectic_resid=symp,
        failures=failures,
        exit_rows=all_rows,
        cond=cond,
        _row_labels=(dyn.ports, dyn.signal_port, exit_name),
    )


def consistency_checks(
    dyn: DoubledDynamics, omegas: NDArray[np.float64] | list[float]
) -> dict[str, float]:
    """Worst residuals of the invariants behind eta and N over probe frequencies.

    S is formed for the whole model in one resolvent block, at every
    ``+omega`` and every ``-omega`` of the positive probes ``omegas``.
    S(-omega) is solved independently, never mirrored from S(+omega), so
    ``particle_hole`` checks the symmetry :func:`spectrum_sweep` relies on.
    A probe where either sign is near-singular is left out and counted in
    ``skipped``. Over the other probes the result holds the worst

    - ``unitarity``: max-norm of ``S K S^dag - K`` at ``+omega`` between
      physical slots, as in ``SpectrumGrid.symplectic_resid``;
    - ``particle_hole``: max-norm of ``S(-omega) - Q conj(S(omega)) Q``,
      with ``Q`` swapping the annihilation and creation port slots;
    - ``sum_rule``: flux balance of the masked exit rows at both signs where
      the exit output is physical, as in ``SpectrumGrid.sumrule_resid``.

    Each is 0.0 when no probe contributes.
    """
    probes = np.asarray(omegas, dtype=np.float64)
    p = dyn.n_ports
    signed = np.concatenate([probes, -probes])
    x, good, _ = _solve_block(dyn, signed)
    ok = good[: probes.size] & good[probes.size :]
    both = np.concatenate([ok, ok])
    n = int(np.count_nonzero(ok))
    s = np.eye(2 * p, dtype=np.complex128) + dyn.out_coupling @ x[both]
    s_up, s_dn = s[:n], s[n:]

    centers = np.array([info.band_center for info in dyn.ports])
    _, _, mask_u, mask_v = _slots(signed[both][:, None], centers)
    slots = np.concatenate([mask_u[:n], mask_v[:n]], axis=1)
    # Q as an index: -p..-1 are the creation slots p..2p-1.
    swap = np.arange(-p, p)
    exit_col = dyn.port_index[dyn.exit_port]
    rows = s[:, exit_col]
    physical = mask_u[:, exit_col]
    u = np.where(mask_u, rows[:, :p], 0.0)[physical]
    v = np.where(mask_v, rows[:, p:], 0.0)[physical]
    # np.hypot is the libm hypot behind Python's abs of a complex, which
    # sum_rule_residual squares; NumPy's complex abs can differ in the last bit.
    abs_u = np.hypot(u.real, u.imag) ** 2
    abs_v = np.hypot(v.real, v.imag) ** 2
    residuals = {
        "unitarity": _masked_symplectic(s_up, dyn.metric, slots),
        "particle_hole": np.abs(s_dn - s_up.conj()[:, swap[:, None], swap]),
        "sum_rule": _flux_balance(abs_u.T, abs_v.T),
    }
    worst = {key: float(np.max(r, initial=0.0)) for key, r in residuals.items()}
    worst["skipped"] = float(probes.size - n)
    return worst
