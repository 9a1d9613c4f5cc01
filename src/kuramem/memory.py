"""Binary pattern storage on honeycomb oscillator networks.

Each admissible winding vector is given a 1-based index by reading its
shifted entries as digits of a base-(2*ceil(nc/4)-1) number, first cycle
most significant; the index in binary, zero-padded to a fixed width, is
the stored pattern. Retrieval runs the dynamics until their limit is
proven (or the state locks) and reads the limit's winding vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import DEFAULT_T_MAX, integrate_batch, lock_dt, rhs
from .equilibria import construct_config, is_phase_cohesive, max_winding, winding_vector
from .errors import ParameterDomainError, RetrievalError
from .graphs import MIN_CYCLE_SIZE, Graph, _check_honeycomb_params, build_honeycomb


@dataclass(frozen=True)
class PatternCodec:
    """Bijection between bit patterns and winding vectors of the
    honeycomb with the given cycle size and cycle count."""

    cycle_size: int
    cycles: int

    def __post_init__(self):
        _check_honeycomb_params(self.cycle_size, self.cycles)

    @cached_property
    def max_winding(self) -> int:
        return max_winding(self.cycle_size)

    @cached_property
    def base(self) -> int:
        """Digit base: admissible winding values per cycle."""
        return 2 * self.max_winding + 1

    @cached_property
    def n_patterns(self) -> int:
        return self.base ** self.cycles

    @cached_property
    def bit_width(self) -> int:
        """Bits needed so the largest index fits: ceil(log2(n_patterns+1))."""
        return math.ceil(math.log2(self.n_patterns + 1))


def codec_for_graph(g: Graph) -> PatternCodec:
    """The codec of g's basis cycles: nc is their size, m their count.
    g must equal build_honeycomb(nc, m, g.coupling).
    Basis cycles are walks and may repeat nodes, so the node count is
    checked first: no honeycomb larger than g itself gets built."""
    m = len(g.cycle_basis)
    nc = len(g.cycle_basis[0]) if m else 0
    if (nc < MIN_CYCLE_SIZE or g.n != m * (nc - 1) + 1
            or g != build_honeycomb(nc, m, g.coupling)):
        raise ParameterDomainError(f"graph is not the honeycomb with nc {nc}, m {m}")
    return PatternCodec(nc, m)


def num_patterns(cycle_size: int, cycles: int) -> int:
    """Number of storable patterns: (2*ceil(nc/4)-1)**m."""
    return PatternCodec(cycle_size, cycles).n_patterns


def capacity(cycle_size: int, cycles: int) -> float:
    """Patterns per oscillator: (2*ceil(nc/4)-1)**m / ((nc-1)*m + 1)."""
    codec = PatternCodec(cycle_size, cycles)
    return codec.n_patterns / (cycles * (cycle_size - 1) + 1)


def encode(winding, codec: PatternCodec) -> str:
    """Bit pattern of a winding vector (most significant bit first)."""
    winding = [int(k) for k in winding]
    if len(winding) != codec.cycles:
        raise ParameterDomainError(
            f"winding vector has {len(winding)} entries, expected {codec.cycles}")
    index = 0
    for k in winding:
        if abs(k) > codec.max_winding:
            raise ParameterDomainError(
                f"winding entry {k} outside |k| <= {codec.max_winding}")
        index = index * codec.base + (k + codec.max_winding)
    index += 1
    return format(index, "b").zfill(codec.bit_width)


def decode(bits: str, codec: PatternCodec) -> np.ndarray:
    """Winding vector of a bit pattern; exact inverse of encode."""
    if len(bits) != codec.bit_width or any(b not in "01" for b in bits):
        raise ParameterDomainError(
            f"pattern must be {codec.bit_width} bits of 0/1, got {bits!r}")
    index = int(bits, 2)
    if not 1 <= index <= codec.n_patterns:
        raise ParameterDomainError(
            f"pattern value {index} outside 1..{codec.n_patterns}")
    index -= 1
    winding = np.empty(codec.cycles, dtype=int)
    for p in range(codec.cycles - 1, -1, -1):
        winding[p] = index % codec.base - codec.max_winding
        index //= codec.base
    return winding


def store(bits: str, codec: PatternCodec) -> np.ndarray:
    """Phase configuration representing a pattern."""
    return construct_config(decode(bits, codec), codec.cycle_size, codec.cycles)


@dataclass
class RetrievalDiagnostics:
    t_converged: float
    residual: float
    cohesive: bool


def retrieve(theta0: np.ndarray, codec: PatternCodec, g: Graph,
             t_max: float = DEFAULT_T_MAX) -> tuple[str, RetrievalDiagnostics]:
    """Relax theta0 until the limit is proven and decode its pattern.

    A one-row integrate_batch with certify: it stops as soon as the state
    proves which stable cohesive equilibrium the flow converges to, whose
    winding it already carries, or else at a phase lock. The RK4 step is
    lock_dt(g) = 1 / (2 c lambda_max(L)). The diagnostics give the time
    of that stop and |rhs|_inf there.

    Raises ParameterDomainError when g is not the honeycomb of codec, and
    RetrievalError when there is no proven limit (nor lock) within t_max
    or the limit's winding vector falls outside the codec's admissible
    range.
    """
    graph_codec = codec_for_graph(g)
    if codec != graph_codec:
        raise ParameterDomainError(f"{codec} does not match the graph's {graph_codec}")
    final, converged, t_elapsed, _ = integrate_batch(
        np.asarray(theta0, dtype=float)[None], g, dt=lock_dt(g), t_max=t_max, certify=True)
    if not converged[0]:
        raise RetrievalError(f"no proven limit within t_max = {t_max}")
    theta = final[0]
    winding = winding_vector(theta, g)
    if np.any(np.abs(winding) > codec.max_winding):
        raise RetrievalError(
            f"converged winding {tuple(int(k) for k in winding)} outside the "
            f"admissible range of the codec")
    diagnostics = RetrievalDiagnostics(
        t_converged=float(t_elapsed[0]),
        residual=float(np.max(np.abs(rhs(theta, g)))),
        cohesive=is_phase_cohesive(theta, g),
    )
    return encode(winding, codec), diagnostics
