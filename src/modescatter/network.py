"""Driven bosonic mode networks and their linearized dynamics.

A model is a collection of internal harmonic modes, each assigned to a
spectral band (a rotating-frame window around a fixed center frequency),
connected by drive-mediated bilinear couplings and damped through ports that
carry input/output fields. Under a constant drive the network is linear and
time-stationary, so each signed sideband frequency evolves independently.

The working representation doubles every mode and port into an annihilation
slot and a creation slot (annihilation slots first, in declaration order,
then creation slots in the same order). The creation slot evaluated at
sideband ``omega`` represents the adjoint of the corresponding annihilation
operator at ``-omega``. In this basis the equations of motion read::

    dB/dt = M B - G A_in        A_out = G' B + A_in

with ``M`` the dynamical matrix, ``G`` the input coupling and ``G'`` the
output coupling. Commutator preservation fixes ``G' = K_A G^dag K_B`` where
``K_A``/``K_B`` are the diagonal +1/-1 metrics on the doubled port and mode
spaces; :func:`assemble_dynamics` builds all four objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConfigurationError,
    ModelUnstableError,
    ModelValidationError,
    NumericalError,
)

Frame = Literal["rotating", "lab-quadrature"]
CouplingForm = Literal["beam-splitter", "two-mode-squeezing", "quadrature-position"]
PortRole = Literal["signal", "exit", "loss"]

#: Relative tolerance for drive/band-center resonance matching.
DRIVE_MATCH_RTOL = 1e-9

#: Multiple by which a drive-bridged band gap must exceed the larger total
#: linewidth of the two modes it couples; a smaller gap is a warning, not an
#: error.
SEPARATION_FACTOR = 10.0

_FRAMES = ("rotating", "lab-quadrature")
_FORMS = ("beam-splitter", "two-mode-squeezing", "quadrature-position")
_ROLES = ("signal", "exit", "loss")

#: Standing note attached to every validation report (convention, not a check).
OCCUPANCY_NOTE = (
    "thermal occupancies are evaluated at the slot lab frequency, i.e. the "
    "signed sideband plus the port band center"
)


@dataclass(frozen=True)
class Band:
    """A rotating-frame spectral window.

    Parameters
    ----------
    name:
        Unique label.
    center_frequency:
        Absolute center of the window [rad/s]. Zero denotes a band kept in
        the lab frame (no rotation removed).
    """

    name: str
    center_frequency: float


@dataclass(frozen=True)
class Drive:
    """A classical pump tone at a fixed frequency [rad/s]; 0 means DC."""

    name: str
    frequency: float


@dataclass(frozen=True)
class InternalMode:
    """A harmonic mode of the network.

    ``frame`` selects how the mode is damped and coupled: ``"rotating"``
    modes interact through their annihilation slot only, while
    ``"lab-quadrature"`` modes couple both slots (position-like dynamics,
    e.g. viscous damping). ``resonance_frequency`` is the absolute mode
    frequency [rad/s]; the detuning from the band center enters the
    dynamical matrix.
    """

    name: str
    band: Band
    frame: Frame
    resonance_frequency: float


@dataclass(frozen=True)
class Coupling:
    """A drive-mediated bilinear coupling between two modes.

    ``rate`` is the coupling strength [rad/s]. ``form`` picks the retained
    terms: ``"beam-splitter"`` exchanges quanta, ``"two-mode-squeezing"``
    creates/annihilates pairs, and ``"quadrature-position"`` couples the
    position quadratures of both modes (all four bilinears, half rate each).
    ``drive`` with harmonic ``order`` names the tone that bridges the band
    centers; ``None`` denotes a static (DC) coupling.
    """

    mode_a: InternalMode
    mode_b: InternalMode
    rate: float
    form: CouplingForm
    drive: Drive | None = None
    order: int = 1


@dataclass(frozen=True)
class Port:
    """A damping channel carrying input and output fields.

    ``rate`` is the full damping rate the port contributes [rad/s] and
    ``temperature`` the thermal occupation temperature of its input field
    [K]. ``flavor`` mirrors :class:`InternalMode.frame`: a rotating port
    damps the annihilation slot only, a lab-quadrature port damps through
    the position quadrature. Exactly one port per model carries
    ``role="signal"``; at most one carries ``role="exit"`` (when absent the
    signal port doubles as exit).
    """

    name: str
    mode: InternalMode
    rate: float
    temperature: float
    role: PortRole = "loss"
    flavor: Frame = "rotating"


@dataclass(frozen=True)
class TransducerModel:
    """A complete mode network.

    The tuples are declaration-ordered; slot indices in the assembled
    dynamics follow these orders.
    """

    bands: tuple[Band, ...]
    modes: tuple[InternalMode, ...]
    drives: tuple[Drive, ...]
    couplings: tuple[Coupling, ...]
    ports: tuple[Port, ...]

    def mode_ports(self, mode: InternalMode) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.mode.name == mode.name)

    def total_port_rate(self, mode: InternalMode) -> float:
        return float(sum(p.rate for p in self.ports if p.mode.name == mode.name))

    @property
    def signal_port(self) -> Port:
        for p in self.ports:
            if p.role == "signal":
                return p
        raise ConfigurationError("model has no signal port")

    @property
    def exit_port(self) -> Port:
        for p in self.ports:
            if p.role == "exit":
                return p
        # loopback: the signal port doubles as exit
        return self.signal_port


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_model`: errors, warnings and notes."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class PortInfo:
    """Flat, name-based port record: what the model's structure fixes.

    Built once per layout (:func:`dynamics_layout`) and shared by every
    dynamics filled from it; the rates and temperatures are the fill's.
    """

    name: str
    mode: str
    band_center: float
    role: PortRole
    flavor: Frame


@dataclass(frozen=True, eq=False)
class DoubledDynamics:
    """Assembled doubled-basis dynamics of a validated model.

    Attributes
    ----------
    dimension:
        Size of the doubled mode space (2 x number of modes).
    dyn_matrix:
        ``M`` of shape ``(dimension, dimension)``.
    in_coupling, out_coupling:
        ``G`` of shape ``(dimension, 2p)`` and ``G'`` of shape
        ``(2p, dimension)`` for ``p`` ports.
    metric:
        Diagonal entries (+1/-1) of the doubled port-space metric ``K_A``.
    mode_metric:
        Diagonal entries of the doubled mode-space metric ``K_B``.
    mode_index, port_index:
        Name -> annihilation-slot index. Creation slots sit at
        ``index + n`` (modes) and ``index + p`` (ports).
    ports:
        The layout's port records, in port order.
    port_temperatures:
        Input-field temperature [K] of each port, in port order.
    eigenvalues:
        Eigenvalues of ``dyn_matrix`` as assembled, from the stability
        check.
    """

    dimension: int
    dyn_matrix: NDArray[np.complex128]
    in_coupling: NDArray[np.complex128]
    out_coupling: NDArray[np.complex128]
    metric: NDArray[np.float64]
    mode_metric: NDArray[np.float64]
    mode_index: Mapping[str, int]
    port_index: Mapping[str, int]
    ports: tuple[PortInfo, ...]
    port_temperatures: tuple[float, ...]
    signal_port: str
    exit_port: str
    eigenvalues: NDArray[np.complex128]

    @property
    def n_modes(self) -> int:
        return self.dimension // 2

    @property
    def n_ports(self) -> int:
        return len(self.ports)


@dataclass(frozen=True)
class CouplingRwaEntry:
    """Per-coupling rotating-wave diagnostic."""

    description: str
    gap: float | None
    linewidth: float
    ratio: float | None  # None: not applicable (DC coupling)


@dataclass(frozen=True)
class RwaReport:
    entries: tuple[CouplingRwaEntry, ...]

    @property
    def min_ratio(self) -> float | None:
        ratios = [e.ratio for e in self.entries if e.ratio is not None]
        return min(ratios) if ratios else None


def _check_degenerate(model: TransducerModel) -> None:
    if not model.modes or not model.ports:
        raise ConfigurationError(
            "degenerate model: at least one mode and one port are required"
        )


def _unique_names(items, kind: str, errors: list[str]) -> None:
    seen: set[str] = set()
    for item in items:
        if item.name in seen:
            errors.append(f"duplicate {kind} name {item.name!r}")
        seen.add(item.name)


def _drive_frequency(coupling: Coupling) -> float:
    return 0.0 if coupling.drive is None else abs(coupling.order) * coupling.drive.frequency


def _bridged_frequency(coupling: Coupling) -> float:
    """Band-center combination the drive must supply for resonance."""
    ca = coupling.mode_a.band.center_frequency
    cb = coupling.mode_b.band.center_frequency
    if coupling.form == "two-mode-squeezing":
        return ca + cb
    return abs(ca - cb)


def _coupling_linewidth(model: TransducerModel, coupling: Coupling) -> float:
    """The larger total port rate of the two modes a coupling joins."""
    return max(
        model.total_port_rate(coupling.mode_a), model.total_port_rate(coupling.mode_b)
    )


def port_rate_error(name: str, rate: float) -> str | None:
    """The validation error of a port rate, or None: it must be finite and positive."""
    if math.isfinite(rate) and rate > 0:
        return None
    return f"port {name!r}: rate must be positive, got {rate!r}"


def port_temperature_error(name: str, temperature: float) -> str | None:
    """The validation error of a port temperature, or None: finite and non-negative."""
    if math.isfinite(temperature) and temperature >= 0:
        return None
    return f"port {name!r}: temperature must be non-negative"


def coupling_label(index: int, coupling: Coupling) -> str:
    """How validation names coupling ``index`` in its messages."""
    return f"coupling[{index}] ({coupling.mode_a.name}-{coupling.mode_b.name})"


def coupling_rate_error(label: str, rate: float) -> str | None:
    """The validation error of a coupling rate, or None: finite and non-negative."""
    if math.isfinite(rate) and rate >= 0:
        return None
    return f"{label}: rate must be non-negative, got {rate!r}"


def validate_model(model: TransducerModel) -> ValidationReport:
    """Check structural and physical invariants of a model.

    Parameters
    ----------
    model:
        The network to validate.

    Returns
    -------
    ValidationReport
        ``errors`` are invariant violations (assembly refuses to proceed),
        ``warnings`` are physics caveats (e.g. marginal band separation),
        ``notes`` record conventions applied.

    Raises
    ------
    ConfigurationError
        If the model is degenerate (no modes or no ports).
    """
    _check_degenerate(model)
    report = ValidationReport()
    errs = report.errors

    _unique_names(model.bands, "band", errs)
    _unique_names(model.modes, "mode", errs)
    _unique_names(model.drives, "drive", errs)
    _unique_names(model.ports, "port", errs)

    band_names = {b.name for b in model.bands}
    mode_names = {m.name for m in model.modes}
    drive_names = {d.name for d in model.drives}

    for band in model.bands:
        if not math.isfinite(band.center_frequency) or band.center_frequency < 0:
            errs.append(
                f"band {band.name!r}: center_frequency must be finite and "
                f"non-negative, got {band.center_frequency!r}"
            )

    for mode in model.modes:
        if mode.band.name not in band_names:
            errs.append(f"mode {mode.name!r}: unknown band {mode.band.name!r}")
        if mode.frame not in _FRAMES:
            errs.append(f"mode {mode.name!r}: unknown frame {mode.frame!r}")
        if not math.isfinite(mode.resonance_frequency) or mode.resonance_frequency <= 0:
            errs.append(
                f"mode {mode.name!r}: resonance_frequency must be positive, "
                f"got {mode.resonance_frequency!r}"
            )

    for drive in model.drives:
        if not math.isfinite(drive.frequency) or drive.frequency < 0:
            errs.append(f"drive {drive.name!r}: frequency must be non-negative")

    for port in model.ports:
        if port.mode.name not in mode_names:
            errs.append(f"port {port.name!r}: unknown mode {port.mode.name!r}")
        for error in (
            port_rate_error(port.name, port.rate),
            port_temperature_error(port.name, port.temperature),
        ):
            if error is not None:
                errs.append(error)
        if port.role not in _ROLES:
            errs.append(f"port {port.name!r}: unknown role {port.role!r}")
        if port.flavor not in _FRAMES:
            errs.append(f"port {port.name!r}: unknown flavor {port.flavor!r}")
        if port.flavor == "lab-quadrature" and port.mode.frame != "lab-quadrature":
            errs.append(
                f"port {port.name!r}: lab-quadrature flavor requires a "
                f"lab-quadrature mode, but {port.mode.name!r} is rotating"
            )

    signal_ports = [p for p in model.ports if p.role == "signal"]
    exit_ports = [p for p in model.ports if p.role == "exit"]
    if len(signal_ports) != 1:
        errs.append(f"exactly one signal port is required, found {len(signal_ports)}")
    if len(exit_ports) > 1:
        errs.append(f"at most one exit port is allowed, found {len(exit_ports)}")
    if signal_ports and not exit_ports:
        report.notes.append(
            f"no exit port declared; signal port {signal_ports[0].name!r} doubles as exit"
        )

    ports_of: dict[str, list[Port]] = {}
    for port in model.ports:
        ports_of.setdefault(port.mode.name, []).append(port)
    for mode in model.modes:
        if sum(p.rate for p in ports_of.get(mode.name, ())) <= 0:
            errs.append(f"mode {mode.name!r}: total port rate must be positive")

    # lab-quadrature frames only make sense when something couples both slots
    for mode in model.modes:
        if mode.frame != "lab-quadrature":
            continue
        has_quadrature_port = any(
            p.flavor == "lab-quadrature" for p in ports_of.get(mode.name, ())
        )
        has_position_coupling = any(
            c.form == "quadrature-position"
            and mode.name in (c.mode_a.name, c.mode_b.name)
            for c in model.couplings
        )
        if not (has_quadrature_port or has_position_coupling):
            errs.append(
                f"mode {mode.name!r}: lab-quadrature frame requires a "
                "lab-quadrature port or a quadrature-position coupling"
            )

    for i, coupling in enumerate(model.couplings):
        label = coupling_label(i, coupling)
        for m in (coupling.mode_a, coupling.mode_b):
            if m.name not in mode_names:
                errs.append(f"{label}: unknown mode {m.name!r}")
        rate_error = coupling_rate_error(label, coupling.rate)
        if rate_error is not None:
            errs.append(rate_error)
        if coupling.form not in _FORMS:
            errs.append(f"{label}: unknown form {coupling.form!r}")
            continue
        if coupling.drive is not None and coupling.drive.name not in drive_names:
            errs.append(f"{label}: unknown drive {coupling.drive.name!r}")
        if coupling.drive is not None and coupling.order == 0:
            errs.append(f"{label}: driven coupling requires a nonzero order")

        ca = coupling.mode_a.band.center_frequency
        cb = coupling.mode_b.band.center_frequency
        if coupling.form == "quadrature-position" and min(ca, cb) != 0.0:
            errs.append(
                f"{label}: quadrature-position coupling requires one band "
                "centered at zero"
            )
        supplied = _drive_frequency(coupling)
        required = _bridged_frequency(coupling)
        scale = max(abs(supplied), abs(required), 1.0)
        if abs(supplied - required) > DRIVE_MATCH_RTOL * scale:
            errs.append(
                f"{label}: drive mismatch, band structure requires "
                f"{required:.6e} rad/s but the drive supplies {supplied:.6e}"
            )
        if supplied == 0.0 and ca != cb and coupling.form != "two-mode-squeezing":
            errs.append(f"{label}: DC coupling requires a shared band center")

    # rotating-wave separation between drive-bridged bands, against the
    # linewidth rwa_report gives each coupling
    for i, coupling in enumerate(model.couplings):
        if _drive_frequency(coupling) == 0.0:
            continue
        ca = coupling.mode_a.band.center_frequency
        cb = coupling.mode_b.band.center_frequency
        gap = _bridged_frequency(coupling)
        linewidth = _coupling_linewidth(model, coupling)
        if ca != cb and gap <= SEPARATION_FACTOR * linewidth:
            report.warnings.append(
                f"RWA separation violated on coupling[{i}]: band gap "
                f"{gap:.3e} rad/s vs {SEPARATION_FACTOR:g} x max linewidth "
                f"{linewidth:.3e} rad/s"
            )

    report.notes.append(OCCUPANCY_NOTE)
    return report


class DynamicsLayout(NamedTuple):
    """What a validated model's structure fixes in its doubled-basis dynamics.

    Built by :func:`dynamics_layout`; :func:`fill_dynamics` adds the terms
    of the port and coupling rates to it. ``diagonal`` holds the diagonal
    of ``M`` with only the detuning terms added. ``port_slots`` holds, per
    port, the slot pair of its mode, its own slot pair and whether it is
    lab-quadrature; ``coupling_slots`` holds, per coupling, the slot pairs
    of both modes and the form. ``ports`` are the model's port records,
    which every dynamics filled from the layout shares.
    """

    dimension: int
    diagonal: tuple[complex, ...]
    port_slots: tuple[tuple[int, int, int, int, bool], ...]
    coupling_slots: tuple[tuple[int, int, int, int, str], ...]
    metric: NDArray[np.float64]
    mode_metric: NDArray[np.float64]
    mode_index: Mapping[str, int]
    port_index: Mapping[str, int]
    ports: tuple[PortInfo, ...]
    signal_port: str
    exit_port: str


def dynamics_layout(model: TransducerModel) -> DynamicsLayout:
    """The structure-fixed part of a validated model's dynamics."""
    n = len(model.modes)
    p = len(model.ports)
    dim = 2 * n
    mode_index = {m.name: i for i, m in enumerate(model.modes)}
    port_index = {q.name: i for i, q in enumerate(model.ports)}

    diagonal = [0j] * dim
    for j, mode in enumerate(model.modes):
        detuning = mode.resonance_frequency - mode.band.center_frequency
        diagonal[j] += -1j * detuning
        diagonal[j + n] += 1j * detuning

    port_slots = []
    infos = []
    for q, port in enumerate(model.ports):
        j = mode_index[port.mode.name]
        port_slots.append((j, j + n, q, q + p, port.flavor != "rotating"))
        infos.append(
            PortInfo(
                name=port.name,
                mode=port.mode.name,
                band_center=port.mode.band.center_frequency,
                role=port.role,
                flavor=port.flavor,
            )
        )
    coupling_slots = []
    for c in model.couplings:
        a = mode_index[c.mode_a.name]
        b = mode_index[c.mode_b.name]
        coupling_slots.append((a, a + n, b, b + n, c.form))

    return DynamicsLayout(
        dimension=dim,
        diagonal=tuple(diagonal),
        port_slots=tuple(port_slots),
        coupling_slots=tuple(coupling_slots),
        metric=np.array([1.0] * p + [-1.0] * p),
        mode_metric=np.array([1.0] * n + [-1.0] * n),
        mode_index=mode_index,
        port_index=port_index,
        ports=tuple(infos),
        signal_port=model.signal_port.name,
        exit_port=model.exit_port.name,
    )


def fill_dynamics(
    layout: DynamicsLayout,
    port_rates: Sequence[float],
    port_temperatures: Sequence[float],
    coupling_rates: Sequence[float],
) -> DoubledDynamics:
    """Dynamics of ``layout`` at the given rates, one per port and coupling.

    Ports add damping (and, for lab-quadrature flavor, slot-mixing) terms
    plus input columns, in declaration order; couplings then add
    off-diagonal blocks according to their form. The output coupling is
    derived from the input coupling through the metric so that flux
    bookkeeping is exact for rotating networks. The result shares
    ``layout.ports`` and keeps ``port_temperatures`` as given.

    Raises
    ------
    ModelUnstableError
        If the dynamical matrix has an eigenvalue with positive real part
        (beyond numerical tolerance).
    """
    dim = layout.dimension
    # M and G are filled as Python lists, whose item updates cost far less
    # than NumPy's, and converted once; a Python complex addition rounds as
    # a complex128 one does.
    dyn = [[0j] * dim for _ in range(dim)]
    for k, term in enumerate(layout.diagonal):
        dyn[k][k] = term
    gin = [[0j] * layout.metric.size for _ in range(dim)]

    for (j, jc, q, qc, quadrature), rate in zip(layout.port_slots, port_rates):
        root = math.sqrt(rate)
        half = rate / 2.0
        dyn[j][j] += -half
        dyn[jc][jc] += -half
        if not quadrature:
            gin[j][q] = 1j * root
            gin[jc][qc] = -1j * root
        else:  # lab-quadrature: damping and forcing act on the position slot pair
            dyn[j][jc] += half
            dyn[jc][j] += half
            gin[j][q] = 1j * root
            gin[j][qc] = 1j * root
            gin[jc][q] = -1j * root
            gin[jc][qc] = -1j * root

    for (a, ac, b, bc, form), g in zip(layout.coupling_slots, coupling_rates):
        if form == "beam-splitter":
            dyn[a][b] += -1j * g
            dyn[b][a] += -1j * g
            dyn[ac][bc] += 1j * g
            dyn[bc][ac] += 1j * g
        elif form == "two-mode-squeezing":
            dyn[a][bc] += -1j * g
            dyn[b][ac] += -1j * g
            dyn[ac][b] += 1j * g
            dyn[bc][a] += 1j * g
        else:  # quadrature-position: both retained bilinears at half rate
            gh = g / 2.0
            dyn[a][b] += -1j * gh
            dyn[a][bc] += -1j * gh
            dyn[ac][b] += 1j * gh
            dyn[ac][bc] += 1j * gh
            dyn[b][a] += -1j * gh
            dyn[b][ac] += -1j * gh
            dyn[bc][a] += 1j * gh
            dyn[bc][ac] += 1j * gh

    m_matrix = np.array(dyn, dtype=np.complex128)
    g_matrix = np.array(gin, dtype=np.complex128)
    gout = (layout.metric[:, None] * g_matrix.conj().T) * layout.mode_metric[None, :]

    eigvals = np.linalg.eigvals(m_matrix)
    scale = max(1.0, float(np.abs(m_matrix).max()))
    tol = 1e-9 * scale
    max_real = float(eigvals.real.max())
    if max_real > tol:
        raise ModelUnstableError(
            f"model is unstable: max eigenvalue real part {max_real:.6e} "
            f"rad/s exceeds tolerance {tol:.1e}"
        )

    return DoubledDynamics(
        dimension=dim,
        dyn_matrix=m_matrix,
        in_coupling=g_matrix,
        out_coupling=gout,
        metric=layout.metric,
        mode_metric=layout.mode_metric,
        mode_index=layout.mode_index,
        port_index=layout.port_index,
        ports=layout.ports,
        port_temperatures=tuple(port_temperatures),
        signal_port=layout.signal_port,
        exit_port=layout.exit_port,
        eigenvalues=eigvals,
    )


def assemble_dynamics(model: TransducerModel) -> DoubledDynamics:
    """Build the doubled-basis dynamical matrices of a validated model.

    Validates the model, builds the part of its dynamics the structure
    fixes (:func:`dynamics_layout`: slot indices, detunings, port flavors,
    coupling forms, metrics and the name, mode, band center, role and
    flavor of each port) and fills it with the model's own rates and
    temperatures (:func:`fill_dynamics`). The optimizer builds the
    layout once per run and fills it once per candidate, so both take the
    same numbers from the same routine. The assembly is deterministic:
    identical models produce bit-identical matrices. Detunings enter as
    ``resonance - band center`` on the diagonal.

    Raises
    ------
    ModelValidationError
        If validation reports errors.
    ModelUnstableError
        If the dynamical matrix has an eigenvalue with positive real part
        (beyond numerical tolerance).
    """
    report = validate_model(model)
    if not report.ok:
        raise ModelValidationError(
            "model failed validation: " + "; ".join(report.errors),
            errors=tuple(report.errors),
        )
    return fill_dynamics(
        dynamics_layout(model),
        [q.rate for q in model.ports],
        [q.temperature for q in model.ports],
        [c.rate for c in model.couplings],
    )


def rwa_report(model: TransducerModel) -> RwaReport:
    """Tabulate band-gap-to-linewidth ratios for every coupling.

    For each drive-bridged coupling the report lists the band-center
    combination the drive supplies (difference for beam-splitter and
    quadrature-position forms, sum for two-mode-squeezing) against the
    largest total linewidth of the two coupled modes. DC couplings are
    marked not-applicable (``ratio=None``).
    """
    entries = []
    for coupling in model.couplings:
        linewidth = _coupling_linewidth(model, coupling)
        description = (
            f"{coupling.mode_a.name}-{coupling.mode_b.name} ({coupling.form})"
        )
        if _drive_frequency(coupling) == 0.0:
            entries.append(
                CouplingRwaEntry(
                    description=description, gap=None, linewidth=linewidth, ratio=None
                )
            )
            continue
        gap = _bridged_frequency(coupling)
        ratio = gap / linewidth if linewidth > 0 else math.inf
        entries.append(
            CouplingRwaEntry(
                description=description, gap=gap, linewidth=linewidth, ratio=ratio
            )
        )
    return RwaReport(entries=tuple(entries))


def random_stable_model(
    rng: np.random.Generator,
    n_modes: int | None = None,
) -> TransducerModel:
    """Draw a random stable all-rotating network (seeded, reproducible).

    The generator produces 2-5 modes on widely separated band centers
    (~1e12 rad/s apart at rates up to 1e9 rad/s, so rotating-wave separation
    holds and every slot lab frequency stays positive over practical sweep
    ranges), a connected chain of beam-splitter / two-mode-squeezing
    couplings with squeezing rates kept below the damping stability
    threshold, and one or two ports per mode. The first port is the signal
    and the last the exit. Models are redrawn (bounded) until the assembled
    dynamics are stable.
    """
    return _draw_stable_model(rng, n_modes)[0]


def _draw_stable_model(
    rng: np.random.Generator, n_modes: int | None
) -> tuple[TransducerModel, DoubledDynamics]:
    """:func:`random_stable_model`, with the dynamics its stability test built."""
    if n_modes is None:
        n_modes = int(rng.integers(2, 6))
    if n_modes < 1:
        raise ConfigurationError("n_modes must be at least 1")

    for _ in range(60):
        bands = []
        modes = []
        ports = []
        for j in range(n_modes):
            center = 1.0e12 * (1.0 + 0.35 * j) + rng.uniform(0.0, 1.0e10)
            band = Band(name=f"band{j}", center_frequency=center)
            rate_scale = 10.0 ** rng.uniform(3.0, 9.0)
            detuning = rng.uniform(-2.0, 2.0) * rate_scale
            mode = InternalMode(
                name=f"m{j}",
                band=band,
                frame="rotating",
                resonance_frequency=center + detuning,
            )
            bands.append(band)
            modes.append(mode)
            ports.append((f"p{j}", mode, rate_scale))
            if rng.random() < 0.3:
                extra = 10.0 ** rng.uniform(3.0, 9.0)
                ports.append((f"p{j}x", mode, extra))

        port_objs = []
        last = len(ports) - 1
        for k, (name, mode, rate) in enumerate(ports):
            role: PortRole = "loss"
            if k == 0:
                role = "signal"
            elif k == last:
                role = "exit"
            port_objs.append(
                Port(
                    name=name,
                    mode=mode,
                    rate=rate,
                    temperature=0.0,
                    role=role,
                    flavor="rotating",
                )
            )

        drives = []
        couplings = []
        model_stub = TransducerModel(
            bands=tuple(bands),
            modes=tuple(modes),
            drives=(),
            couplings=(),
            ports=tuple(port_objs),
        )
        for j in range(n_modes - 1):
            a, b = modes[j], modes[j + 1]
            ga = model_stub.total_port_rate(a)
            gb = model_stub.total_port_rate(b)
            squeeze = rng.random() < 0.35
            if squeeze:
                rate = 0.4 * math.sqrt(ga * gb) * rng.uniform(0.1, 1.0)
                freq = a.band.center_frequency + b.band.center_frequency
                form: CouplingForm = "two-mode-squeezing"
            else:
                rate = 10.0 ** rng.uniform(3.0, 9.0)
                freq = abs(a.band.center_frequency - b.band.center_frequency)
                form = "beam-splitter"
            drive = Drive(name=f"d{j}", frequency=freq)
            drives.append(drive)
            couplings.append(
                Coupling(mode_a=a, mode_b=b, rate=rate, form=form, drive=drive)
            )

        model = TransducerModel(
            bands=tuple(bands),
            modes=tuple(modes),
            drives=tuple(drives),
            couplings=tuple(couplings),
            ports=tuple(port_objs),
        )
        try:
            dyn = assemble_dynamics(model)
        except ModelUnstableError:
            continue
        return model, dyn
    raise NumericalError("failed to draw a stable model in 60 attempts")
