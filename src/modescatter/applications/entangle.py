"""Heralded entanglement of two remote emitters through transducers.

Both emitters are symmetrically excited (probability ``p_e`` of emitting a
photon each round), their photons are transduced, mixed on a balanced beam
splitter and detected by two arms. Each arm independently registers a
spurious click with probability ``p_d`` per round (transduced noise photons
acting as dark counts). A round heralds when at least one click lands in
exactly one arm. The one-click scheme conditions on a single round; the
two-click scheme adds a second round after a symmetric flip of both
emitters, so the complementary emitter must also deliver a photon.

Event rules, shared by all three evaluation routes in this module:

* an emitted photon survives transduction and detection with probability
  ``eta``;
* a single surviving photon exits either beam-splitter arm with
  probability 1/2;
* two surviving photons in the same round bunch (mode-matched interference)
  and exit together through one arm, chosen with probability 1/2;
* the heralded one-excitation branch is a coherent Bell state precisely
  when every photon emitted in the conditioning rounds was detected
  (a lost photon tags the emitter in principle, leaving an even mixture of
  |01> and |10>); the detector-sign bookkeeping rotates both Bell signs
  onto the symmetric state.

Populations are labeled by the emitter configuration of the first round
(before any flip). Three routes are provided: ``entangle_fidelity_exact``
evaluates closed-form branch weights; ``protocol_enumerate`` walks the full
microscopic outcome tree and serves as the independent oracle;
``protocol_montecarlo`` samples it stochastically, each trial drawing only
the events its outcome depends on: every event is a Bernoulli draw exact to
2^-61, an emitter gets one detection draw per trial (in the two-click scheme
it emits in exactly one of the two rounds), a threshold event reads one
random byte per trial and a double only where the byte ties with the
threshold, the arm of the detected photons is a fair random bit, and rare
dark clicks are placed by position, so they cost in proportion to their
number.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Literal, Mapping

import numpy as np

from ..errors import ConfigurationError, DomainError, NoHeraldError, ValidityWarning
from .counting import DarkCountResult, check_window

Scheme = Literal["one-click", "two-click"]

_SCHEMES = ("one-click", "two-click")

#: Trials per vectorized Monte Carlo chunk.
_MC_CHUNK = 1 << 18

#: Boolean scratch rows per Monte Carlo chunk: three per emitter (see
#: :func:`_mc_emitter`) and three per round (see :func:`_mc_round`); the
#: outcome classes reuse the rows the rounds leave free.
_MC_FLAGS = 12

#: A dark click rarer than this, or whose complement is, is sampled by
#: position (see :func:`_bernoulli`); any other by one byte per trial (see
#: :func:`_below`). On a 200000-trial row the byte draw takes about 0.12 ms
#: at any p, and the positions 0.37 ms at p = 0.2, 0.20 ms at p = 0.1,
#: 0.11 ms at p = 0.05 and 0.065 ms at p = 0.03 (fastest of 40 alternating
#: calls, 2-vCPU VM): the cost crossover sits near p = 0.05, below this cutoff.
_SPARSE_BELOW = 0.2

#: Most uniforms one batch of geometric gaps draws. Its 64 KB of positions
#: stay below glibc's 128 KB mmap threshold, so no batch maps fresh pages.
_GAP_BATCH = 8192

#: Bit offsets that spread one byte of fair bits over eight trials.
_BIT_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]

#: Floor on the one-click excitation probability picked by :func:`heralding_spec`.
_P_E_FLOOR = 1e-6


@dataclass(frozen=True)
class ProtocolSpec:
    """Parameters of a heralded-entanglement run.

    ``p_e``: excitation (emission) probability per emitter per round;
    ``p_d``: spurious-click probability per arm per round;
    ``eta``: per-photon transduction-plus-detection efficiency.
    """

    scheme: Scheme
    p_e: float
    p_d: float
    eta: float

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {_SCHEMES}"
            )
        if not (0.0 <= self.p_e <= 1.0):
            raise ConfigurationError(f"p_e must lie in [0, 1], got {self.p_e!r}")
        if not (0.0 <= self.p_d < 1.0):
            raise ConfigurationError(f"p_d must lie in [0, 1), got {self.p_d!r}")
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigurationError(f"eta must lie in [0, 1], got {self.eta!r}")


@dataclass(frozen=True)
class ProtocolResult:
    """Conditional state of the emitters given the herald.

    ``populations`` holds the normalized weights on the first-round basis
    states ``"00"``, ``"01"``, ``"10"``, ``"11"`` plus the coherent Bell
    weight ``"psi_plus"`` (the ``"01"``/``"10"`` entries are the incoherent
    remainder). ``success_probability`` counts every herald;
    ``photon_herald_probability`` counts only heralds in which each
    conditioning round's click pattern was caused by a detected photon.
    ``normalization`` is the unnormalized trace of the heralded state, which
    for these weights equals the success probability. Monte Carlo results
    additionally carry standard errors and counts.
    """

    scheme: Scheme
    populations: Mapping[str, float]
    fidelity: float
    success_probability: float
    photon_herald_probability: float
    normalization: float
    fidelity_stderr: float | None = None
    success_stderr: float | None = None
    herald_count: int | None = None
    trials: int | None = None


@dataclass(frozen=True)
class AsymptoticEntangleResult:
    """Small-noise expansion of the conditional fidelity.

    ``fidelity`` evaluates the expansion at the spec's own ``p_e``;
    ``p_e_opt`` and ``fidelity_opt`` give the excitation probability that
    maximizes the expansion and its value there (1/2 by construction for
    the two-click scheme).
    """

    fidelity: float
    p_e_opt: float
    fidelity_opt: float


def _result_from_unnormalized(
    scheme: Scheme,
    w00: float,
    w_psi: float,
    w01: float,
    w10: float,
    w11: float,
    photon_weight: float,
) -> ProtocolResult:
    norm = w00 + w_psi + w01 + w10 + w11
    if norm <= 0.0:
        raise NoHeraldError(
            "the herald condition has probability 0 for these parameters",
            herald_count=0,
        )
    populations = {
        "00": w00 / norm,
        "psi_plus": w_psi / norm,
        "01": w01 / norm,
        "10": w10 / norm,
        "11": w11 / norm,
    }
    fidelity = populations["psi_plus"] + 0.5 * (populations["01"] + populations["10"])
    return ProtocolResult(
        scheme=scheme,
        populations=populations,
        fidelity=fidelity,
        success_probability=norm,
        photon_herald_probability=photon_weight,
        normalization=norm,
    )


def _round_factors(p_d: float, eta: float) -> tuple[float, float, float, float, float]:
    """Herald factors of one round, by number of photons emitted.

    Returns ``(h0, h1, c1, h2, c2)``: the herald probability with 0, 1, 2
    emitted photons, and the photon-caused (coherence-compatible) parts of
    the 1- and 2-photon cases.
    """
    keep = 1.0 - p_d
    h0 = 2.0 * p_d * keep
    c1 = eta * keep
    h1 = c1 + (1.0 - eta) * 2.0 * p_d * keep
    c2 = (1.0 - (1.0 - eta) ** 2) * keep
    h2 = c2 + (1.0 - eta) ** 2 * 2.0 * p_d * keep
    return h0, h1, c1, h2, c2


def heralding_spec(
    dark: DarkCountResult,
    window: float,
    scheme: Scheme,
    p_e: float | None = None,
) -> ProtocolSpec:
    """Protocol parameters of an entanglement link through a transducer.

    The transducer's dark-count rate over the detection ``window``
    (seconds) gives the per-arm false-click probability
    ``p_d = rate * window``, and its transfer efficiency, capped at 1, is
    the photon detection efficiency. Unless ``p_e`` is given, the
    two-click scheme runs at ``p_e = 1/2`` and the one-click scheme at the
    optimum of its small-noise expansion, ``sqrt(p_d / (eta (1 - eta/2)))``,
    floored at 1e-6 and capped at 1/2.

    Raises
    ------
    ConfigurationError
        If ``window`` is negative or not finite.
    DomainError
        If ``p_d`` falls outside [0, 1), or if the one-click optimum is
        requested where the transfer efficiency is not positive.
    """
    check_window(window)
    p_d = dark.rate * window
    if not 0.0 <= p_d < 1.0:
        raise DomainError(
            f"window dark-click probability {p_d:.3g} outside [0, 1);"
            " shrink the window or the noise"
        )
    eff = min(dark.eta_plus, 1.0)
    if p_e is None and scheme == "two-click":
        p_e = 0.5
    elif p_e is None:
        if not eff > 0.0:
            raise DomainError("transfer efficiency is zero at omega_sig")
        p_e_opt = math.sqrt(p_d / (eff * (1.0 - eff / 2.0)))
        p_e = min(max(p_e_opt, _P_E_FLOOR), 0.5)
    return ProtocolSpec(scheme, p_e, p_d, eff)


def entangle_fidelity_exact(spec: ProtocolSpec) -> ProtocolResult:
    """Closed-form conditional populations and fidelity.

    One-click branch weights (unnormalized, common factor ``1 - p_d`` from
    the silent arm):

    * neither emits, one arm dark-counts;
    * one emits and is detected (coherent Bell branch);
    * one emits, the photon is lost, one arm dark-counts (even mixture);
    * both emit: at least one detected, or none detected with a dark count.

    The two-click weights are products of per-round herald factors, the
    second round seeing the flipped emitter configuration.
    """
    p_e, p_d, eta = spec.p_e, spec.p_d, spec.eta
    h0, h1, c1, h2, c2 = _round_factors(p_d, eta)
    if spec.scheme == "one-click":
        keep = 1.0 - p_d
        w00 = (1.0 - p_e) ** 2 * h0
        w_psi = 2.0 * p_e * (1.0 - p_e) * c1
        mix = 2.0 * p_e * (1.0 - p_e) * (1.0 - eta) * 2.0 * p_d * keep
        w11 = p_e**2 * h2
        photon = w_psi + p_e**2 * c2
    else:
        w00 = (1.0 - p_e) ** 2 * h0 * h2
        w_psi = 2.0 * p_e * (1.0 - p_e) * c1**2
        mix = 2.0 * p_e * (1.0 - p_e) * (h1**2 - c1**2)
        w11 = p_e**2 * h2 * h0
        photon = w_psi
    return _result_from_unnormalized(
        spec.scheme, w00, w_psi, mix / 2.0, mix / 2.0, w11, photon
    )


def entangle_fidelity_asymptotic(spec: ProtocolSpec) -> AsymptoticEntangleResult:
    """Small ``p_e``, small ``p_d`` expansion of the conditional fidelity.

    One-click: ``F = 1 - p_e (1 - eta/2) - p_d / (eta p_e)``, maximized at
    ``p_e = sqrt(p_d / (eta (1 - eta/2)))`` where it equals
    ``1 - 2 sqrt((1/eta - 1/2) p_d)``. Two-click (at ``p_e = 1/2``):
    ``F = 1 - (6/eta - 4) p_d``. A :class:`ValidityWarning` is emitted when
    the stated orderings ``p_d/eta << p_e << 1`` (one-click) or
    ``(6/eta - 4) p_d << 1`` (two-click) are not comfortably satisfied.
    """
    p_e, p_d, eta = spec.p_e, spec.p_d, spec.eta
    if eta <= 0.0:
        raise DomainError("asymptotic fidelities require eta > 0")
    if spec.scheme == "one-click":
        if p_e <= 0.0:
            raise DomainError("the one-click expansion requires p_e > 0")
        if p_e > 0.3 or p_d / eta > 0.3 * p_e:
            warnings.warn(
                "one-click expansion outside its regime "
                f"(needs p_d/eta << p_e << 1; got p_d/eta={p_d / eta:.3g}, "
                f"p_e={p_e:.3g})",
                ValidityWarning,
                stacklevel=2,
            )
        fidelity = 1.0 - p_e * (1.0 - eta / 2.0) - p_d / (eta * p_e)
        p_e_opt = math.sqrt(p_d / (eta * (1.0 - eta / 2.0)))
        fidelity_opt = 1.0 - 2.0 * math.sqrt((1.0 / eta - 0.5) * p_d)
        return AsymptoticEntangleResult(
            fidelity=fidelity, p_e_opt=p_e_opt, fidelity_opt=fidelity_opt
        )
    penalty = (6.0 / eta - 4.0) * p_d
    if penalty > 0.2:
        warnings.warn(
            "two-click expansion outside its regime "
            f"((6/eta - 4) p_d = {penalty:.3g} is not small)",
            ValidityWarning,
            stacklevel=2,
        )
    fidelity = 1.0 - penalty
    return AsymptoticEntangleResult(
        fidelity=fidelity, p_e_opt=0.5, fidelity_opt=fidelity
    )


def _round_events(
    p_d: float, eta: float, n_emit: int
) -> Iterator[tuple[float, bool, int]]:
    """Microscopic outcomes of one round: (probability, heralded, detected).

    Enumerates per-photon detection, the beam-splitter arm (single photon
    or bunched pair), and both arms' dark-count flags.
    """
    for flags in itertools.product((0, 1), repeat=n_emit):
        p_det = 1.0
        for f in flags:
            p_det *= eta if f else 1.0 - eta
        n_det = sum(flags)
        arm_choices = ((None, 1.0),) if n_det == 0 else ((0, 0.5), (1, 0.5))
        for arm, p_arm in arm_choices:
            for d0, d1 in itertools.product((0, 1), (0, 1)):
                p_dark = (p_d if d0 else 1.0 - p_d) * (p_d if d1 else 1.0 - p_d)
                clicks = [d0, d1]
                if arm is not None:
                    clicks[arm] = 1
                heralded = clicks[0] + clicks[1] == 1
                yield p_det * p_arm * p_dark, heralded, n_det


def protocol_enumerate(spec: ProtocolSpec) -> ProtocolResult:
    """Exhaustive walk of the microscopic outcome tree.

    Completely independent of the closed-form branch weights: emitter
    configurations, per-photon detections, beam-splitter arms and dark
    counts are enumerated one microscopic event at a time and accumulated
    into the heralded populations.
    """
    p_e, p_d, eta = spec.p_e, spec.p_d, spec.eta
    n_rounds = 1 if spec.scheme == "one-click" else 2
    weights = {"00": 0.0, "psi_plus": 0.0, "01": 0.0, "10": 0.0, "11": 0.0}
    photon = 0.0
    for e1, e2 in itertools.product((0, 1), (0, 1)):
        sector = (p_e if e1 else 1.0 - p_e) * (p_e if e2 else 1.0 - p_e)
        if sector == 0.0:
            continue
        emits = [e1 + e2]
        if n_rounds == 2:
            emits.append((1 - e1) + (1 - e2))
        rounds = [
            [ev for ev in _round_events(p_d, eta, n) if ev[1]] for n in emits
        ]
        for combo in itertools.product(*rounds):
            prob = sector
            coherent = True
            caused = True
            for (p, _, n_det), n_emit in zip(combo, emits):
                prob *= p
                coherent = coherent and n_det == n_emit
                caused = caused and n_det >= 1
            if e1 != e2 and coherent:
                weights["psi_plus"] += prob
            else:
                weights[f"{e1}{e2}"] += prob
            if caused:
                photon += prob
    return _result_from_unnormalized(
        spec.scheme,
        weights["00"],
        weights["psi_plus"],
        weights["01"],
        weights["10"],
        weights["11"],
        photon,
    )


def _below(
    rng: np.random.Generator,
    thresholds: tuple[float, ...],
    outs: tuple[np.ndarray, ...],
    u: np.ndarray,
) -> None:
    """Set each boolean row ``outs[k]`` to ``U < thresholds[k]``, one ``U`` per trial.

    The thresholds lie in [0, 1] and the rows are equally long; ``u`` is
    double scratch of at least that length. Trial ``i`` reads byte ``i`` of
    little-endian full-range 64-bit ``integers`` words (8 trials per
    word) as ``B`` and stands for the uniform ``U = (B + V) / 256``. With
    ``c = floor(256 t)``, ``U < t`` is ``B < c``, or ``B == c`` and
    ``V < 256 t - c``, so ``V`` is drawn (one ``Generator.random`` double
    per trial, in trial order) only for trials tied with a threshold that
    is not a multiple of 1/256. A trial's one ``U`` serves all its
    thresholds, so flags of nested thresholds nest exactly, and each flag
    is Bernoulli(``t``) to within 2^-61.
    """
    n = outs[0].size
    words = rng.integers(0, 1 << 64, size=-(-n // 8), dtype=np.uint64)
    octets = words.astype("<u8", copy=False).view(np.uint8)[:n]
    ties = []  # (c, 256 t - c, row) of thresholds that need V on ties
    for t, out in zip(thresholds, outs):
        scaled = 256.0 * t
        c = int(scaled)
        if c > 255:  # t = 1; no byte is compared with 256, outside its range
            out.fill(True)
            continue
        np.less(octets, c, out=out)
        if scaled > c:
            ties.append((c, scaled - c, out))
    if not ties:
        return
    # The tie masks live in the front bytes of u, so no row-long temporary
    # is allocated; V overwrites them once the tied trials are listed.
    tied, level = u.view(np.bool_)[: 2 * n].reshape(2, n)
    np.equal(octets, ties[0][0], out=tied)
    for c, _, _ in ties[1:]:
        tied |= np.equal(octets, c, out=level)
    at = np.flatnonzero(tied)
    v = rng.random(out=u[: at.size])
    b = octets[at]
    for c, frac, out in ties:
        out[at] = (b < c) | ((b == c) & (v < frac))


def _bernoulli(
    rng: np.random.Generator, p: float, u: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with independent Bernoulli(``p``) flags; ``u`` is scratch.

    An event at least :data:`_SPARSE_BELOW` likely, with a complement at
    least as likely, is ``U < p`` for one uniform per trial drawn by
    :func:`_below`. A rarer one (or one with a rarer complement) is placed
    by position on a constant background: the gap before each rare outcome
    is geometric, ``floor(log(1 - U) / log(1 - rare))`` trials for a
    uniform ``U``. The gaps are drawn into the front of ``u`` in batches
    sized to the expected remaining count (at most :data:`_GAP_BATCH`)
    until they pass the end of the row, so their cost scales with
    ``n rare``, not ``n``.
    """
    rare = min(p, 1.0 - p)
    if rare >= _SPARSE_BELOW:
        _below(rng, (p,), (out,), u)
        return out
    out.fill(rare != p)
    n = out.size
    end = -1  # position of the last rare outcome so far
    while rare > 0.0 and end < n:
        mean = (n - 1 - end) * rare
        batch = min(int(mean + 4.0 * math.sqrt(mean)) + 8, _GAP_BATCH, n)
        g = rng.random(out=u[:batch])
        np.log1p(np.negative(g, out=g), out=g)
        g /= math.log1p(-rare)
        # A gap past the row ends it; the cap keeps the integer cast exact.
        np.minimum(np.floor(g, out=g), n, out=g)
        at = g.astype(np.intp)
        at += 1
        np.cumsum(at, out=at)
        at += end
        end = int(at[-1])
        out[at[: np.searchsorted(at, n)]] = rare == p
    return out


def _fair_bits(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the boolean row ``out`` (a multiple of 64 long) with fair coins.

    One 64-bit ``integers`` word serves 64 trials; byte ``j`` of the words,
    read little-endian, gives trials ``j``, ``j + m``, ..., ``j + 7 m`` of
    the row (``m = out.size // 8``).
    """
    words = rng.integers(0, 1 << 64, size=out.size // 64, dtype=np.uint64)
    octets = words.astype("<u8", copy=False).view(np.uint8)
    bits = out.view(np.uint8).reshape(8, -1)
    np.right_shift(octets, _BIT_SHIFTS, out=bits)
    np.bitwise_and(bits, 1, out=bits)
    return out


def _mc_emitter(
    rng: np.random.Generator,
    p_e: float,
    eta: float,
    u: np.ndarray,
    emit: np.ndarray,
    det1: np.ndarray,
    det2: np.ndarray | None,
) -> None:
    """One emitter's draws: its emission and its one detection per trial.

    Fills ``emit`` (emits in round 1), ``det1`` (emits in round 1 and is
    detected) and, for the two-click scheme, ``det2`` (emits in round 2,
    after the flip, and is detected). The emitter emits in exactly one of
    the two rounds, so a single Bernoulli(``eta``) draw ``D`` serves both:
    ``det1 = emit & D`` and ``det2 = ~emit & D``.

    One uniform ``U`` per trial, from :func:`_below`, decides all three
    flags for every ``p_e`` and ``eta`` in [0, 1]: ``[0, p_e eta)`` emits
    and is detected, ``[p_e eta, p_e)`` emits and is lost, and of the idle
    rest, ``[1 - (1 - p_e) eta, 1)`` is detected in round 2.
    """
    if det2 is None:
        _below(rng, (p_e, p_e * eta), (emit, det1), u)
        return
    start2 = max(p_e, 1.0 - (1.0 - p_e) * eta)  # det2 is U >= start2
    _below(rng, (p_e, p_e * eta, start2), (emit, det1, det2), u)
    np.logical_not(det2, out=det2)


def _mc_round(
    rng: np.random.Generator,
    p_d: float,
    u: np.ndarray,
    det1: np.ndarray,
    det2: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One detection round: (heralded, any photon detected).

    ``det1``/``det2`` flag the emitters that emit in this round and are
    detected; "any detected" is formed in ``det1``. Each arm's dark clicks
    are drawn by :func:`_bernoulli`, and the arm that the detected photons
    (one, or a bunched pair) exit is a fair bit. ``rows`` holds three
    boolean rows, each a multiple of 64 long; the heralded flags are a view
    of the first.
    """
    n = det1.size
    click0, click1, arm0 = rows[0, :n], rows[1, :n], rows[2]
    any_det = np.logical_or(det1, det2, out=det1)
    _bernoulli(rng, p_d, u, click0)  # dark count, arm 0
    _bernoulli(rng, p_d, u, click1)  # dark count, arm 1
    to0 = np.logical_and(_fair_bits(rng, arm0)[:n], any_det, out=arm0[:n])
    click0 |= to0  # detections in arm 0
    click1 |= np.logical_xor(to0, any_det, out=to0)  # detections in arm 1
    return np.logical_xor(click0, click1, out=click0), any_det


def _count_both(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> int:
    """Number of trials where ``a`` and ``b`` both hold; ``out`` is scratch."""
    return int(np.count_nonzero(np.logical_and(a, b, out=out)))


def protocol_montecarlo(
    spec: ProtocolSpec, trials: int, seed: int
) -> ProtocolResult:
    """Stochastic estimate of the heralded populations and fidelity.

    Each trial samples the module's event rules with Bernoulli draws exact
    to 2^-61, and draws only what its outcome depends on:

    * each emitter's emission and its one detection draw share a single
      uniform ``U``: ``[0, p_e eta)`` emits in round 1 and is detected,
      ``[p_e eta, p_e)`` emits and is lost, and in the two-click scheme
      ``[1 - (1 - p_e) eta, 1)`` emits after the flip and is detected
      (the emitter emits in exactly one of the two rounds);
    * a uniform compared with thresholds (an emitter's, or a dark click
      between 20% and 80% likely) is ``U = (B + V) / 256``: ``B`` is one
      byte per trial, 8 trials per 64-bit ``integers`` word, and the
      double ``V`` is drawn only for a trial whose byte equals
      ``floor(256 t)`` for a threshold ``t`` that is not a multiple of
      1/256, since every other comparison is decided by ``B`` alone;
    * the arm that a round's detected photons exit is a fair bit, 64 trials
      per 64-bit ``integers`` word;
    * a dark click rarer than 20%, or with a complement that rare, is
      placed by position with geometric gaps between occurrences, so it
      costs in proportion to its count rather than to ``trials``.

    Every draw is a ``Generator.random`` or ``Generator.integers`` call.
    Trials are simulated in fixed-size vectorized chunks, each driven by its
    own child of ``SeedSequence(seed)``, so results are bit-reproducible for
    a given ``(seed, trials)`` and independent of chunk scheduling. The
    stream of a given seed changed in version 0.3.0, when the byte-plus-tie
    rule above replaced one double per trial for each threshold uniform
    (and in version 0.2.0, when this sampler replaced one that drew a
    uniform per event per trial).
    Fidelity uses the per-trial overlap weights {0, 1/2, 1}; its standard
    error is the sample standard deviation of those weights over heralded
    trials, and the success probability carries a binomial standard error.

    Raises
    ------
    NoHeraldError
        If no trial heralds (carries ``herald_count = 0``).
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed!r}")
    p_e, p_d, eta = spec.p_e, spec.p_d, spec.eta
    two_click = spec.scheme == "two-click"

    n_chunks = (trials + _MC_CHUNK - 1) // _MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    herald_count = 0
    photon_count = 0
    weight_sum = 0.0
    weight_sq_sum = 0.0
    class_counts = {"00": 0, "psi_plus": 0, "01": 0, "10": 0, "11": 0}

    # Scratch for every chunk, allocated once per call: the doubles (tie
    # refinements and geometric gaps, which fill only a short front part)
    # and the boolean rows every intermediate is written into (rounded up
    # to whole 64-bit words of fair bits).
    uniforms = np.empty(min(trials, _MC_CHUNK))
    flags = np.empty((_MC_FLAGS, -(-uniforms.size // 64) * 64), dtype=bool)
    done = 0
    for child in children:
        n = min(_MC_CHUNK, trials - done)
        done += n
        rng = np.random.default_rng(child)
        u, f = uniforms[:n], flags[:, :n]
        width = -(-n // 64) * 64
        emit1, emit2 = f[0], f[3]
        _mc_emitter(rng, p_e, eta, u, emit1, f[1], f[2] if two_click else None)
        _mc_emitter(rng, p_e, eta, u, emit2, f[4], f[5] if two_click else None)
        heralded, caused = _mc_round(rng, p_d, u, f[1], f[4], flags[6:9, :width])
        if two_click:
            her2, any2 = _mc_round(rng, p_d, u, f[2], f[5], flags[9:12, :width])
            heralded &= her2
            caused &= any2
        # Heralded with one excitation: Bell where every emitted photon was
        # detected, mixed otherwise. With one excitation that is where
        # every round detected a photon.
        single = np.logical_xor(emit1, emit2, out=f[7])
        single &= heralded
        bell = np.logical_and(single, caused, out=f[8])
        mixed = np.logical_xor(single, bell, out=single)
        scratch = f[9]
        n_bell = int(np.count_nonzero(bell))
        n_mixed = int(np.count_nonzero(mixed))

        herald_count += int(np.count_nonzero(heralded))
        photon_count += _count_both(heralded, caused, scratch)
        # Overlap weights are 1 (Bell) and 1/2 (mixed): these sums are exact.
        weight_sum += n_bell + 0.5 * n_mixed
        weight_sq_sum += n_bell + 0.25 * n_mixed
        class_counts["psi_plus"] += n_bell
        neither = np.logical_not(np.logical_or(emit1, emit2, out=scratch), out=scratch)
        class_counts["00"] += _count_both(heralded, neither, scratch)
        both = np.logical_and(emit1, emit2, out=scratch)
        class_counts["11"] += _count_both(heralded, both, scratch)
        # a mixed trial has exactly one excitation
        class_counts["01"] += _count_both(mixed, emit2, scratch)
        class_counts["10"] += _count_both(mixed, emit1, scratch)

    if herald_count == 0:
        raise NoHeraldError(
            f"no heralds in {trials} trials; cannot condition",
            herald_count=0,
        )
    fidelity = weight_sum / herald_count
    var = max(weight_sq_sum / herald_count - fidelity**2, 0.0)
    fidelity_stderr = math.sqrt(var / herald_count)
    success = herald_count / trials
    success_stderr = math.sqrt(success * (1.0 - success) / trials)
    populations = {k: v / herald_count for k, v in class_counts.items()}
    return ProtocolResult(
        scheme=spec.scheme,
        populations=populations,
        fidelity=fidelity,
        success_probability=success,
        photon_herald_probability=photon_count / trials,
        normalization=success,
        fidelity_stderr=fidelity_stderr,
        success_stderr=success_stderr,
        herald_count=herald_count,
        trials=trials,
    )
