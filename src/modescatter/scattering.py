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
:func:`spectrum_sweep` uses this to solve once per frequency, and refuses
dynamics without that symmetry.

One kernel evaluates S for every entry point: :func:`_solve_block`
inverts ``i*omega + M`` once per signed frequency, a block of frequencies
at a time, and :func:`_s_rows`, the one row function of S, forms only the
rows a caller needs, as ``1 + (G'_rows A^-1) G``. ``A^-1 G`` is never formed.

Physicality masking: a port column only describes a real input field when
its absolute (lab-frame) frequency ``+-omega + band_center`` is positive.
Columns that fall at non-positive lab frequencies are artifacts of the
doubled bookkeeping for zero-centered bands; transfer rows zero them out and
record which ports were dropped. Thermal occupancies are likewise evaluated
at the slot lab frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Any, Callable, Literal, Mapping, Sequence

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


def _abs2(c: complex) -> float:
    """``|c|^2`` as ``re*re + im*im``, the one squaring rule for coefficients of S.

    :func:`_abs2_array` is its array spelling, with the same bits. Not
    Python's ``** 2``: that is ``pow``, which differs from ``x * x`` on
    some inputs and raises ``OverflowError`` where ``x * x`` is inf.
    """
    return c.real * c.real + c.imag * c.imag


def _abs2_array(x: NDArray[np.complex128]) -> NDArray[np.float64]:
    return np.square(x.real) + np.square(x.imag)


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
    omegas: NDArray[np.float64],
    temperature: float | NDArray[np.float64],
    valid: NDArray[np.bool_],
) -> NDArray[np.float64]:
    """Vectorized occupancy; entries where ``valid`` is False or at 0 K are 0.

    ``temperature`` broadcasts against ``omegas``, e.g. one per row.
    """
    out = np.zeros_like(omegas, dtype=np.float64)
    warm = np.not_equal(temperature, 0.0)
    if not warm.any():
        return out
    hot = valid & warm
    with np.errstate(divide="ignore", invalid="ignore"):
        x = hbar * omegas / (k_boltzmann * temperature)
    small = hot & (x <= _EXPM1_CUTOFF)
    with np.errstate(over="ignore"):
        np.divide(1.0, np.expm1(x, out=out, where=small), out=out, where=small)
    tail = hot & ~small
    if tail.any():
        np.exp(-np.minimum(x, 745.0), out=out, where=tail)
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
        return cls.from_temperatures(
            {p.name: t for p, t in zip(dyn.ports, dyn.port_temperatures)}
        )

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

    def _occupancy_rows(
        self, ports: Sequence[str]
    ) -> Callable[[NDArray[np.float64], NDArray[np.bool_]], NDArray[np.float64]]:
        """Occupancies of stacked slots, row ``i`` for port ``ports[i]``.

        Returns a function of ``(omegas_lab, valid)``, both
        ``(len(ports), points)``, that evaluates all rows in one pass, 0
        where ``valid`` is False.
        """
        entries = [self._entry(port) for port in ports]
        temps = np.array([[v if kind == "temperature" else 0.0] for kind, v in entries])
        constant = np.array([[kind == "constant"] for kind, _ in entries])
        values = np.where(constant, [[v] for _, v in entries], 0.0)
        fill = bool(constant.any())

        def rows(
            omegas_lab: NDArray[np.float64], valid: NDArray[np.bool_]
        ) -> NDArray[np.float64]:
            out = _bose_array(omegas_lab, temps, valid)
            return np.where(constant & valid, values, out) if fill else out

        return rows

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

    A grid from :func:`spectrum_sweep` keeps each block's rows ``exit``
    and ``exit + n_ports`` of S at ``+omega`` as they were formed, and
    builds the rest from them on first read. One pass per sideband, block
    by block, gives its efficiency, added noise and flux balance together:
    ``eta_up`` and ``noise_up`` read the upper pass, ``eta_dn`` and
    ``noise_dn`` the lower, and ``sumrule_resid``, the worse balance of
    the two, runs whichever pass has not run yet. A caller that reads only
    the upper sideband never computes the lower one. ``exit_rows``, also
    built on first read, holds the exit-port rows of S at ``+omegas[i]``
    (``exit_rows[0, i]``) and ``-omegas[i]`` (``exit_rows[1, i]``,
    mirrored) on the doubled port slots, before physicality masking, NaN
    where the point failed. ``rows_up`` and ``rows_dn`` are
    :class:`TransferRow` views of ``exit_rows``, None where the point
    failed. All three are None on a grid built without rows. A spectrum
    given to the constructor is kept as given.

    ``cond[i]`` describes the 2-norm condition of the resolvent
    ``A = i*omega + M`` at ``omegas[i]``, for both sidebands: the sweep
    takes particle-hole symmetric dynamics only, whose resolvents at
    ``+-omegas[i]`` have the same singular values. It is the exact value
    (an SVD) wherever it may exceed half of ``CONDITION_LIMIT``, and
    elsewhere the upper bound ``d * |A|_1 * |A^-1|_1``, ``d`` times the
    exact 1-norm condition. The 1-norms are the largest column sums of
    ``|A|`` and of the ``|A^-1|`` the kernel forms anyway, each column
    summed row by row. A point fails where it exceeds ``CONDITION_LIMIT``.
    """

    def __init__(
        self,
        omegas: NDArray[np.float64],
        eta_up: NDArray[np.float64] | None = None,
        eta_dn: NDArray[np.float64] | None = None,
        noise_up: NDArray[np.float64] | None = None,
        noise_dn: NDArray[np.float64] | None = None,
        sumrule_resid: NDArray[np.float64] | None = None,
        symplectic_resid: NDArray[np.float64] | None = None,
        failures: list[SweepFailure] | None = None,
        cond: NDArray[np.float64] | None = None,
        _source: tuple[tuple[PortInfo, ...], str, str, NoiseEnvironment] | None = None,
        _blocks: list[tuple[slice | NDArray[np.intp], NDArray[np.complex128]]]
        | None = None,
    ) -> None:
        self.omegas = omegas
        self.symplectic_resid = symplectic_resid
        self.failures = [] if failures is None else failures
        self.cond = cond
        # Ports, signal port, exit port name and occupancies of the rows.
        self._source = _source
        # Per block: the grid index of its solved points, and rows exit
        # and exit + n_ports of S there, as _s_rows formed them.
        self._blocks = _blocks
        # A given spectrum shadows its derivation below.
        given = {
            "eta_up": eta_up,
            "eta_dn": eta_dn,
            "noise_up": noise_up,
            "noise_dn": noise_dn,
            "sumrule_resid": sumrule_resid,
        }
        self.__dict__.update((k, v) for k, v in given.items() if v is not None)

    @cached_property
    def eta_up(self) -> NDArray[np.float64]:
        return self._upper[0]

    @cached_property
    def noise_up(self) -> NDArray[np.float64]:
        return self._upper[1]

    @cached_property
    def eta_dn(self) -> NDArray[np.float64]:
        return self._lower[0]

    @cached_property
    def noise_dn(self) -> NDArray[np.float64]:
        return self._lower[1]

    @cached_property
    def sumrule_resid(self) -> NDArray[np.float64]:
        return np.fmax(self._upper[2], self._lower[2])

    @cached_property
    def _upper(self) -> NDArray[np.float64]:
        return self._sideband(0)

    @cached_property
    def _lower(self) -> NDArray[np.float64]:
        return self._sideband(1)

    @cached_property
    def exit_rows(self) -> NDArray[np.complex128] | None:
        if self._blocks is None or self._source is None:
            return None
        p = len(self._source[0])
        rows = np.full((2, self.omegas.size, 2 * p), np.nan, dtype=np.complex128)
        for points, s in self._blocks:
            rows[0, points] = s[0]
            rows[1, points] = _mirror(s[1], ndim=1)
        return rows

    @cached_property
    def rows_up(self) -> tuple[TransferRow | None, ...] | None:
        return self._row_views(0)

    @cached_property
    def rows_dn(self) -> tuple[TransferRow | None, ...] | None:
        return self._row_views(1)

    def _row_views(self, side: int) -> tuple[TransferRow | None, ...] | None:
        if self.exit_rows is None or self._source is None:
            return None
        rows = self.exit_rows[side]
        signed = self.omegas if side == 0 else -self.omegas
        views = _transfer_rows(*self._source[:3], signed.tolist(), rows.tolist())
        failed = np.isnan(rows).all(axis=1).tolist()
        return tuple(None if bad else row for row, bad in zip(views, failed))

    def _sideband(self, side: int) -> NDArray[np.float64]:
        """Efficiency, added noise and flux balance at one sideband, ``(3, m)``.

        One pass over the kept blocks masks and squares each block's exit
        row once. The squares are port-major, ``(n_ports, points)``, so each
        operation and each sum over ports runs along the points of the
        block. The lower sideband reads row ``exit + n_ports`` with its
        halves swapped, unconjugated, since ``|conj z|^2 = |z|^2``. The flux
        balance is taken before the signal column is zeroed for the noise.
        """
        if self._blocks is None or self._source is None:
            raise AttributeError(
                "a grid built without exit rows has only the spectra given to it"
            )
        ports, signal_port, exit_name, env = self._source
        p = len(ports)
        port_names = [info.name for info in ports]
        sig_col = port_names.index(signal_port)
        exit_col = port_names.index(exit_name)
        centers = np.array([[info.band_center] for info in ports])
        # Both slot sets of every port, annihilation slots first.
        occupancies = env._occupancy_rows(port_names * 2)
        out = np.full((3, self.omegas.size), np.nan)
        for points, s in self._blocks:
            w = self.omegas[points]
            lab_u, lab_v, mask_u, mask_v = _slots(w if side == 0 else -w, centers)
            row = s[side].T
            u, v = (row[:p], row[p:]) if side == 0 else (row[p:], row[:p])
            abs_u = _abs2_array(np.where(mask_u, u, 0.0))
            abs_v = _abs2_array(np.where(mask_v, v, 0.0))
            defined = mask_u[exit_col]
            out[2, points] = np.where(defined, _flux_balance(abs_u, abs_v), np.nan)
            signal = abs_u if side == 0 else abs_v
            eff = np.where(defined, signal[sig_col], np.nan)
            # The signal column is not noise on its own side.
            signal[sig_col] = 0.0
            occ = occupancies(
                np.concatenate([lab_u, lab_v]), np.concatenate([mask_u, mask_v])
            )
            # Masked columns are zero in abs_v already.
            flux = _port_sums(abs_u * occ[:p]) + _port_sums(abs_v * (occ[p:] + 1.0))
            with np.errstate(invalid="ignore", divide="ignore"):
                out[1, points] = np.where(eff > 0.0, flux / eff, np.nan)
            out[0, points] = eff
        return out


def _solve_block(
    dyn: DoubledDynamics, omegas: NDArray[np.float64]
) -> tuple[NDArray[np.complex128], NDArray[np.bool_], NDArray[np.float64]]:
    """Invert the resolvent ``i*omega + M`` at each signed frequency of a block.

    Returns ``(inv, good, cond)``, ``inv[k]`` being the inverse at
    ``omegas[k]``. ``good`` is False where the 2-norm condition of the
    resolvent exceeds ``CONDITION_LIMIT`` or is not finite; ``inv`` is
    meaningless there. ``cond`` is that 2-norm condition wherever it may
    exceed half the limit, and an upper bound below half the limit
    elsewhere.

    Each resolvent is inverted once; ``A^-1`` gives the exact 1-norm
    condition, and :func:`_s_rows` forms the rows of S a caller needs from
    it. Since ``cond_2 <= d * cond_1``, only points where that bound
    reaches half the limit (or is not finite) need the exact 2-norm
    condition, an SVD. A block holding an exactly singular resolvent is
    screened by SVD first, and only its good points are inverted.

    The resolvents are built with the points last, ``a[:, :, k]`` being
    the resolvent at ``omegas[k]``, and the 1-norms are taken in that
    layout: the largest column sums of ``|A|`` and ``|A^-1|``, each column
    summed row by row in order, with the sums over rows and the maxima over
    columns running along the points.
    """
    n = omegas.size
    dim = dyn.dimension
    a = np.empty((dim, dim, n), dtype=np.complex128)
    a[:] = dyn.dyn_matrix[:, :, None]
    a.reshape(dim * dim, n)[:: dim + 1].imag += omegas
    stack = a.transpose(2, 0, 1)
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(stack)
        good = cond <= CONDITION_LIMIT
        inv = np.full((n, dim, dim), np.nan, dtype=np.complex128)
        inv[good] = np.linalg.inv(stack[good])
        return inv, good, cond
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
    return inv, cond <= CONDITION_LIMIT, cond


@cache
def _identity(size: int) -> NDArray[np.complex128]:
    eye = np.eye(size, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def _s_rows(
    dyn: DoubledDynamics, inv: NDArray[np.complex128], rows: slice
) -> NDArray[np.complex128]:
    """Rows ``rows`` of S at each point of a stack of inverses, ``[row, point]``.

    The inverses are laid out side by side, ``(d, points * d)``, so
    ``G'_rows A^-1`` is one matrix product over the stack, and its rows meet
    ``G`` in a second. Whole rows of a cached identity are then added, which
    turns each negative zero into a positive one, as ``1 + (S - 1)`` does.
    ``rows`` is a slice, so both selections are views; a list would copy.
    :func:`spectrum_sweep` keeps the result as it is.
    """
    n, dim, _ = inv.shape
    g_rows = dyn.out_coupling[rows]
    left = g_rows @ inv.transpose(1, 0, 2).reshape(dim, n * dim)
    g = dyn.in_coupling
    s = (left.reshape(-1, dim) @ g).reshape(g_rows.shape[0], n, g.shape[1])
    s += _identity(2 * dyn.n_ports)[rows, None]
    return s


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
    """``A^-1`` at each signed frequency, from one block solve.

    Raises :class:`NearSingularError` for the first near-singular point.
    """
    inv, good, cond = _solve_block(dyn, signed)
    if good.all():
        return inv
    for omega, ok, c in zip(signed.tolist(), good, cond):
        if not ok:
            raise NearSingularError(
                f"resolvent is near-singular at omega={omega:.9e} rad/s "
                f"(condition estimate {c:.3e})",
                omega=omega,
            )
    return inv


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
    inv = _solve_regular(dyn, np.array([float(omega)]))
    return ScatteringMatrix(
        omega=float(omega),
        matrix=_s_rows(dyn, inv, slice(None))[:, 0],
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
    """Max-norm of ``S K S^dag - K``, optionally restricted to masked slots.

    Unmasked, it is O(1) in the artifact sectors of lab-quadrature
    (viscous) ports; :func:`physical_slot_mask` gives the physical slots.
    Masked, its entries and their sums keep physical slots only.
    """
    slots = None if mask is None else np.asarray(mask)[None]
    if slots is not None and not slots.any():
        return math.nan
    return float(_masked_symplectic(matrix[None], metric, slots)[0])


def physical_slot_mask(
    ports: tuple[PortInfo, ...], omega: float | NDArray[np.float64]
) -> NDArray[np.bool_]:
    """Doubled-port-slot mask at signed frequency ``omega``, or at each of an array.

    Entry ``m`` (annihilation slot of port ``m``) is True where
    ``omega + center_m > 0``, entry ``m + n_ports`` (creation slot) where
    ``-omega + center_m > 0``: the same rule that masks transfer rows. For
    an array of frequencies the slots run along a new last axis.
    """
    centers = np.array([info.band_center for info in ports])
    _, _, physical_u, physical_v = _slots(np.asarray(omega)[..., None], centers)
    return np.concatenate([physical_u, physical_v], axis=-1)


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
    up, dn = _exit_rows(dyn, [omega, -omega], exit_port)
    return up, dn


def _exit_rows(
    dyn: DoubledDynamics, signed: list[float], exit_port: str | None = None
) -> list[TransferRow]:
    """Masked exit rows of S at the given signed frequencies, from one block solve.

    Checks the exit port before solving, and raises the
    :class:`NearSingularError` of the first near-singular frequency.
    """
    name, col = _resolve_exit(dyn.port_index, dyn.exit_port, exit_port)
    omegas = np.array(signed, dtype=np.float64)
    inv = _solve_regular(dyn, omegas)
    # Rows exit and exit + n_ports give the exit row with the bits of S: a
    # product of two rows takes the matrix path that forms S, where one row
    # would take NumPy's matrix-vector path and can move last bits.
    rows = _s_rows(dyn, inv, slice(col, None, dyn.n_ports))[0].tolist()
    return _transfer_rows(dyn.ports, dyn.signal_port, name, omegas.tolist(), rows)


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
        return _abs2(row.u_coeffs[row.signal_port])
    if row.omega < 0.0:
        return _abs2(row.v_coeffs[row.signal_port])
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
    contribute nothing. The annihilation and creation columns are summed
    apart, each in port order, and then added, as :class:`SpectrumGrid`
    sums them below eight ports (Python's ``sum`` would not keep that
    order: it compensates float sums from Python 3.12 on).
    """
    if not row.physical_output:
        raise DomainError(
            f"noise flux undefined: exit output of {row.exit_port!r} is "
            f"unphysical at omega={row.omega:.6e} rad/s"
        )
    cols_u, cols_v = _noise_columns(row)
    flux_u = flux_v = 0.0
    for name, coeff, lab in cols_u:
        flux_u += _abs2(coeff) * env.occupancy(name, lab)
    for name, coeff, lab in cols_v:
        flux_v += _abs2(coeff) * (env.occupancy(name, lab) + 1.0)
    return flux_u + flux_v


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
    # Summed as noise_flux sums, which keeps the bits of the sweep.
    flux_u = flux_v = 0.0
    for coeff in row.u_coeffs.values():
        flux_u += _abs2(coeff)
    for coeff in row.v_coeffs.values():
        flux_v += _abs2(coeff)
    return abs(flux_u - flux_v - 1.0)


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
        commutator += _abs2(coeff)
    for _, coeff, _ in cols_v:
        commutator -= _abs2(coeff)
    expected = 1.0 - efficiency if row.omega > 0.0 else 1.0 + efficiency
    return abs(commutator - expected)


def _check_grid(omegas: NDArray[np.float64]) -> None:
    if omegas.ndim != 1 or omegas.size == 0:
        raise ConfigurationError("frequency grid must be a non-empty 1-d array")
    if omegas[0] <= 0.0 or np.any(~np.isfinite(omegas)):
        raise ConfigurationError("frequency grid must be positive and finite")
    if np.any(np.diff(omegas) <= 0.0):
        raise ConfigurationError("frequency grid must be strictly ascending")


def _mirror(x: NDArray[np.complex128], ndim: int = 2) -> NDArray[np.complex128]:
    """Conjugate ``x`` and swap the two halves of each of its last ``ndim`` axes.

    On a doubled matrix, or a stack of them, this is ``P conj(x) Q``, ``P``
    and ``Q`` swapping the halves of its rows and of its columns; on a
    stack of rows of S, with ``ndim=1``, it swaps the halves of each row.
    """
    # Indices -h..h-1 along a doubled axis of length 2h read its second
    # half, then its first.
    swaps = [np.arange(-(n // 2), n // 2) for n in x.shape[-ndim:]]
    return x.conj()[(..., *np.ix_(*swaps))]


def _particle_hole_symmetric(dyn: DoubledDynamics) -> bool:
    """True when ``M = P conj(M) P``, ``G = P conj(G) Q`` and ``G' = Q conj(G') P``.

    ``P`` and ``Q`` swap the annihilation and creation halves of the mode
    and port slots. :func:`modescatter.network.assemble_dynamics` builds
    every model this way, bit for bit; then ``S(-omega) = Q conj(S(omega)) Q``.
    """
    return all(
        np.array_equal(x, _mirror(x))
        for x in (dyn.dyn_matrix, dyn.in_coupling, dyn.out_coupling)
    )


def _masked_symplectic(
    s: NDArray[np.complex128],
    metric: NDArray[np.float64],
    slots: NDArray[np.bool_] | None,
) -> NDArray[np.float64]:
    """Max-norm of ``S K S^dag - K`` at each point of a stack of S.

    ``slots`` marks the physical doubled port slots of each point; only
    entries between two physical slots, summed over physical input slots
    (the columns η, N and the sum rule keep), count. ``None`` counts all.
    """
    weights = metric if slots is None else metric * slots[:, None, :]
    r_abs = np.abs((s * weights) @ s.conj().transpose(0, 2, 1) - np.diag(metric))
    if slots is not None:
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
    block is solved once, at ``+omega``. The dynamics must have exact
    particle-hole symmetry, as every model built by
    :func:`modescatter.network.assemble_dynamics` has: then
    ``S(-omega) = Q conj(S(omega)) Q`` with ``Q`` swapping the annihilation
    and creation port slots, so the lower-sideband exit row is read from
    the upper solve: the conjugate of row ``exit + n_ports`` with its
    halves swapped. Hand-built dynamics without the symmetry are refused
    before any solve; :func:`transfer_pair` solves ``-omega`` for them,
    and :func:`consistency_checks` reports how far they are from it. The
    block loop keeps only the solve, its screen, the symplectic residual
    and, per block, rows ``exit`` and ``exit + n_ports`` of S at its solved
    points as :func:`_s_rows` formed them, with no copy into a grid-wide
    array and no mirroring. The returned :class:`SpectrumGrid` derives
    efficiency, added noise and the sum rule from them when first read,
    in one pass per sideband, block by block, that masks and squares each
    block's exit row once.

    A point is near-singular when the 2-norm condition of its resolvent
    exceeds ``CONDITION_LIMIT`` (1e12), screened by the exact 1-norm
    condition ``d * |A|_1 * |A^-1|_1`` (see ``SpectrumGrid.cond``); both
    sidebands share that one condition number, as the two resolvents have
    the same singular values. Such points are recorded in
    ``failures`` and hold NaN in every output array; all other points are
    computed normally. The condition number or bound of every point is
    kept as ``cond``.

    ``exit_rows``, both sidebands' exit rows in one array, is built only
    when it or its :class:`TransferRow` views ``rows_up`` and ``rows_dn``
    are first read. No figure of merit reads them.

    Parameters
    ----------
    dyn:
        Assembled dynamics, or any with exact particle-hole symmetry.
    env:
        Per-port occupancy evaluators for the noise spectra. Every port
        needs one, which is checked here even though the occupancies are
        only read with the noise.
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

    Raises
    ------
    ConfigurationError
        For a bad grid, an unknown exit port, a port without an occupancy,
        or dynamics without exact particle-hole symmetry.
    """
    grid = np.asarray(omegas, dtype=np.float64)
    _check_grid(grid)
    m = grid.size
    p = dyn.n_ports
    exit_name, exit_col = _resolve_exit(dyn.port_index, dyn.exit_port, exit_port)
    # Occupancies are read only with the noise spectra; a port without one
    # is bad input whatever the caller reads.
    for info in dyn.ports:
        env._entry(info.name)
    if not _particle_hole_symmetric(dyn):
        raise ConfigurationError(
            "spectrum_sweep needs particle-hole symmetric dynamics, as "
            "assemble_dynamics builds them; use transfer_pair for these"
        )
    # Rows exit and exit + n_ports of S at +omega give both sidebands.
    exit_pair = slice(exit_col, None, p)
    formed = slice(None) if symplectic else exit_pair

    good = np.empty(m, dtype=bool)
    cond = np.empty(m)
    symp = np.full(m, np.nan) if symplectic else None
    blocks = []

    for lo in range(0, m, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        w = grid[block]
        inv, good[block], cond[block] = _solve_block(dyn, w)
        ok = _good_index(good[block])
        s_rows = _s_rows(dyn, inv[ok], formed)
        if symp is not None:
            slots = physical_slot_mask(dyn.ports, w[ok])
            symp[block][ok] = _masked_symplectic(
                s_rows.transpose(1, 0, 2), dyn.metric, slots
            )
            s_rows = s_rows[exit_pair].copy()
        blocks.append((block if isinstance(ok, slice) else lo + ok, s_rows))

    failures = [
        SweepFailure(
            index=int(i),
            omega=float(grid[i]),
            message=(
                f"resolvent is near-singular at omega=+-{grid[i]:.9e} rad/s "
                f"(condition estimate {cond[i]:.3e})"
            ),
        )
        for i in np.nonzero(~good)[0]
    ]

    return SpectrumGrid(
        omegas=grid,
        symplectic_resid=symp,
        failures=failures,
        cond=cond,
        _source=(dyn.ports, dyn.signal_port, exit_name, env),
        _blocks=blocks,
    )


def consistency_checks(
    dyn: DoubledDynamics, omegas: NDArray[np.float64] | list[float]
) -> dict[str, float]:
    """Worst residuals of the invariants behind eta and N over probe frequencies.

    S is formed for the whole model in one resolvent block, at every
    ``+omega`` and every ``-omega`` of the positive probes ``omegas``, by
    :func:`_s_rows`, as :func:`scattering_matrix` forms it.
    S(-omega) is solved independently, never mirrored from S(+omega), so
    ``particle_hole`` checks the symmetry :func:`spectrum_sweep` requires.
    A probe where either sign is near-singular is left out and counted in
    ``skipped``. Over the other probes the result holds the worst

    - ``unitarity``: max-norm of ``S K S^dag - K`` at ``+omega`` over
      physical slots only, as in ``SpectrumGrid.symplectic_resid``;
    - ``particle_hole``: max-norm of ``S(-omega) - Q conj(S(omega)) Q``,
      with ``Q`` swapping the annihilation and creation port slots;
    - ``sum_rule``: flux balance of the masked exit rows at both signs where
      the exit output is physical, as in ``SpectrumGrid.sumrule_resid``.

    Each is 0.0 when no probe contributes.
    """
    probes = np.asarray(omegas, dtype=np.float64)
    p = dyn.n_ports
    signed = np.concatenate([probes, -probes])
    inv, good, _ = _solve_block(dyn, signed)
    ok = good[: probes.size] & good[probes.size :]
    both = np.concatenate([ok, ok])
    n = int(np.count_nonzero(ok))
    # s[i] is S at the i-th solved frequency; the residuals are faster on a copy.
    s = _s_rows(dyn, inv[_good_index(both)], slice(None)).swapaxes(0, 1).copy()
    s_up, s_dn = s[:n], s[n:]

    slots = physical_slot_mask(dyn.ports, signed[both])
    exit_col = dyn.port_index[dyn.exit_port]
    rows = np.where(slots, s[:, exit_col], 0.0)[slots[:, exit_col]]
    abs2 = _abs2_array(rows.T)
    residuals = {
        "unitarity": _masked_symplectic(s_up, dyn.metric, slots[:n]),
        "particle_hole": np.abs(s_dn - _mirror(s_up)),
        "sum_rule": _flux_balance(abs2[:p], abs2[p:]),
    }
    worst = {key: float(np.max(r, initial=0.0)) for key, r in residuals.items()}
    worst["skipped"] = float(probes.size - n)
    return worst
