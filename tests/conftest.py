"""Shared builders for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import shlex
from pathlib import Path

import numpy as np

from modescatter import (
    Band,
    Coupling,
    Drive,
    InternalMode,
    ModelUnstableError,
    NoiseEnvironment,
    Port,
    TransducerModel,
    TransferRow,
    assemble_dynamics,
)

TAU = 2.0 * math.pi

README = Path(__file__).resolve().parents[1] / "README.md"


@dataclasses.dataclass(frozen=True)
class ReadmeExample:
    """A ``$ modescatter`` command of the README and the lines shown under it."""

    line: int
    argv: list[str]
    shown: list[str]


def readme_model_json() -> str:
    """The model file of the README's "Model files" section."""
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    return block.group(1)


def readme_examples() -> list[ReadmeExample]:
    """Every ``$ modescatter`` command in the README's ``sh`` blocks.

    A command goes on through lines ending in a backslash. The lines after
    it, up to a blank line, the next ``$`` line or the end of the block,
    are what the README shows it printing.
    """
    text = README.read_text()
    examples = []
    for block in re.finditer(r"^```sh\n(.*?)^```$", text, re.S | re.M):
        first = text.count("\n", 0, block.start(1)) + 1
        body = block.group(1).splitlines()
        for start, line in enumerate(body):
            if not line.startswith("$ modescatter "):
                continue
            end = start
            while body[end].endswith("\\"):
                end += 1
            command = " ".join(part.rstrip("\\") for part in body[start : end + 1])
            shown = itertools.takewhile(lambda s: s and not s.startswith("$ "), body[end + 1 :])
            examples.append(ReadmeExample(first + start, shlex.split(command)[2:], list(shown)))
    return examples


def shows(shown: list[str], out: list[str]) -> bool:
    """Whether the output lines ``out`` match the ``shown`` lines of an example.

    Line by line, in order: ``...`` stands for any run of output lines, a
    line ending in ``...`` for one output line that starts with the text
    before it, and any other line for one output line equal to it.
    """
    if not shown:
        return not out
    line, rest = shown[0], shown[1:]
    if line == "...":
        return any(shows(rest, out[k:]) for k in range(len(out) + 1))
    if not out:
        return False
    if line.endswith("..."):
        fits = out[0].startswith(line.removesuffix("..."))
    else:
        fits = out[0] == line
    return fits and shows(rest, out[1:])


def two_mode_converter(
    g_hz: float = 1.0e6,
    kappa_a_hz: float = 4.0e6,
    kappa_b_hz: float = 4.0e6,
    detune_hz: float = 1.0e6,
    t_a: float = 0.0,
    t_b: float = 0.0,
) -> TransducerModel:
    """Two rotating modes in separate bands bridged by a driven exchange term.

    Both modes sit ``detune_hz`` above their band centers, so the conversion
    resonance lands at a positive sideband frequency.
    """
    ca, cb = TAU * 6.0e9, TAU * 4.0e9
    band_a = Band("uwave", ca)
    band_b = Band("acoustic", cb)
    ma = InternalMode("ma", band_a, "rotating", ca + TAU * detune_hz)
    mb = InternalMode("mb", band_b, "rotating", cb + TAU * detune_hz)
    pump = Drive("pump", ca - cb)
    coupling = Coupling(ma, mb, TAU * g_hz, "beam-splitter", drive=pump)
    ports = (
        Port("sig", ma, TAU * kappa_a_hz, t_a, role="signal"),
        Port("out", mb, TAU * kappa_b_hz, t_b, role="exit"),
    )
    return TransducerModel(
        (band_a, band_b), (ma, mb), (pump,), (coupling,), ports
    )


def near_singular_model(
    delta_hz: float = 2.0e6, gamma_hz: float = 1.0e5
) -> TransducerModel:
    """Marginally stable squeezer: S(omega) is singular at the detuning.

    Two rotating modes detuned by +/- delta with a two-mode-squeezing rate
    of exactly half the (equal) port rates put an undamped eigenvalue at
    -i*delta, so the scattering solve blows up at omega = delta while the
    stability check still passes.
    """
    ca, cb = TAU * 3.0e9, TAU * 1.0e9
    delta = TAU * delta_hz
    gamma = TAU * gamma_hz
    band_a = Band("a", ca)
    band_b = Band("b", cb)
    ma = InternalMode("ma", band_a, "rotating", ca + delta)
    mb = InternalMode("mb", band_b, "rotating", cb - delta)
    pump = Drive("pump", ca + cb)
    coupling = Coupling(ma, mb, gamma / 2.0, "two-mode-squeezing", drive=pump)
    ports = (
        Port("pa", ma, gamma, 0.0, role="signal"),
        Port("pb", mb, gamma, 0.0, role="exit"),
    )
    return TransducerModel(
        (band_a, band_b), (ma, mb), (pump,), (coupling,), ports
    )


def synthetic_row_pair(
    rng: np.random.Generator, n_noise: int = 2, omega: float = 1.0e6
) -> tuple[TransferRow, TransferRow, NoiseEnvironment]:
    """Random commutator-consistent exit rows at +/- omega plus occupancies.

    Each row is rescaled so its flux balance sum(|U|^2) - sum(|V|^2) = 1
    holds exactly, as it does for any row of a quasi-unitary scattering
    matrix restricted to physical slots.
    """
    names = ["e", "s"] + [f"n{k}" for k in range(n_noise)]
    centers = {name: (k + 1) * 1.0e12 for k, name in enumerate(names)}

    def draw(sign: float) -> TransferRow:
        u = {n: complex(rng.normal(), rng.normal()) for n in names}
        v = {n: complex(rng.normal(), rng.normal()) for n in names}
        a = sum(abs(c) ** 2 for c in u.values())
        b = sum(abs(c) ** 2 for c in v.values())
        beta = rng.uniform(0.0, 0.8)
        v_scale = math.sqrt(beta * a / b)
        norm = math.sqrt(a * (1.0 - beta))
        u = {n: c / norm for n, c in u.items()}
        v = {n: c * v_scale / norm for n, c in v.items()}
        return TransferRow(
            omega=sign * omega,
            exit_port="e",
            signal_port="s",
            u_coeffs=u,
            v_coeffs=v,
            port_centers=centers,
            dropped=(),
            physical_output=True,
        )

    env = NoiseEnvironment.constant(
        {name: float(rng.uniform(0.0, 3.0)) for name in names}
    )
    return draw(1.0), draw(-1.0), env


def plain_row(
    omega: float,
    u: dict[str, complex],
    v: dict[str, complex],
    signal: str = "s",
    exit_name: str = "e",
) -> TransferRow:
    names = sorted(set(u) | set(v) | {signal, exit_name})
    centers = {name: (k + 1) * 1.0e12 for k, name in enumerate(names)}
    return TransferRow(
        omega=omega,
        exit_port=exit_name,
        signal_port=signal,
        u_coeffs={n: complex(u.get(n, 0.0)) for n in names},
        v_coeffs={n: complex(v.get(n, 0.0)) for n in names},
        port_centers=centers,
        dropped=(),
        physical_output=True,
    )


def wide_model(rng: np.random.Generator) -> TransducerModel:
    """Random stable network over more of the model space than
    ``random_stable_model``: the first mode may sit in a zero-centred
    (lab-frame) band, as a lab-quadrature mode with lab-quadrature ports or
    as a rotating one, and couplings may be beam-splitter,
    two-mode-squeezing or quadrature-position. Ports are thermal or cold;
    signal and exit are drawn from all ports.
    """
    for _ in range(60):
        n_modes = int(rng.integers(2, 5))
        zero_centred = rng.random() < 0.6
        modes = []
        for j in range(n_modes):
            if j == 0 and zero_centred:
                frame = "lab-quadrature" if rng.random() < 0.7 else "rotating"
                band = Band("b0", 0.0)
                modes.append(InternalMode("m0", band, frame, 10.0 ** rng.uniform(5.0, 7.0)))
                continue
            center = 1.0e12 * (1.0 + 0.35 * j) + rng.uniform(0.0, 1.0e10)
            detuning = rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(4.0, 6.0)
            modes.append(InternalMode(f"m{j}", Band(f"b{j}", center), "rotating", center + detuning))
        ports = [
            Port(
                f"p{j}{k}",
                mode,
                10.0 ** rng.uniform(3.0, 6.0),
                0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.1),
                flavor=mode.frame,
            )
            for j, mode in enumerate(modes)
            for k in range(1 if rng.random() < 0.7 else 2)
        ]
        sig, ex = rng.choice(len(ports), size=2, replace=False)
        ports[sig] = dataclasses.replace(ports[sig], role="signal")
        ports[ex] = dataclasses.replace(ports[ex], role="exit")
        rates = {m.name: sum(q.rate for q in ports if q.mode is m) for m in modes}
        drives, couplings = [], []
        for j in range(n_modes - 1):
            a, b = modes[j], modes[j + 1]
            ca, cb = a.band.center_frequency, b.band.center_frequency
            forms = ["beam-splitter", "two-mode-squeezing"]
            if ca == 0.0:
                forms.append("quadrature-position")
            form = forms[int(rng.integers(len(forms)))]
            if form == "beam-splitter":
                rate = 10.0 ** rng.uniform(3.0, 6.0)
            else:
                rate = 0.4 * math.sqrt(rates[a.name] * rates[b.name]) * rng.uniform(0.1, 1.0)
            drive = Drive(f"d{j}", ca + cb if form == "two-mode-squeezing" else abs(ca - cb))
            drives.append(drive)
            couplings.append(Coupling(a, b, rate, form, drive))
        model = TransducerModel(
            tuple(m.band for m in modes), tuple(modes), tuple(drives), tuple(couplings), tuple(ports)
        )
        try:
            assemble_dynamics(model)
        except ModelUnstableError:
            continue
        return model
    raise AssertionError("no stable model drawn")
