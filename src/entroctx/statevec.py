"""Exact few-qubit statevector simulation and product-state preparation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class QuantumState:
    """Normalized complex amplitude vector over 2^n basis states.

    Basis labels are bit-strings most-significant-qubit-first: amplitude
    index b interpreted in binary gives the record b_{n-1} ... b_0 with
    qubit 0 the most significant.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        size = amps.shape[0]
        if amps.ndim != 1 or size == 0 or size & (size - 1):
            raise ValueError("amplitude vector length must be a power of two")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= _NORM_TOL:  # nan and inf norms fail it too
            raise ValueError(f"state not normalized: |psi| = {norm}")

    @property
    def n(self) -> int:
        return int(np.log2(self.amplitudes.shape[0]))


@dataclass(frozen=True)
class StatePrepSpec:
    """State family selector: s1, s2 (the two shipped families) or explicit.

    Family s1 is proportional to (cos a, cos a, sin b, sin b), family s2 to
    (sin a, sin a, cos b, cos b), both normalized with a positive constant.
    """

    family: str
    alpha: float = 0.0
    beta: float = 0.0
    explicit_amplitudes: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in ("s1", "s2", "explicit"):
            raise ValueError(f"unknown state family {self.family!r}")
        if self.family == "explicit" and self.explicit_amplitudes is None:
            raise ValueError("explicit family requires explicit_amplitudes")


# The two runs reported by the reference experiment.
PRESET_S1 = StatePrepSpec(family="s1", alpha=2.9306, beta=2.9306)
PRESET_S2 = StatePrepSpec(family="s2", alpha=2.9306, beta=-5.7112)


@dataclass(frozen=True)
class GateOp:
    """One elementary gate: kind in {u3, cnot, h, sdg}.

    qubits are letter indices (0 = most significant); params is (theta,
    phi, lam) for u3 and empty otherwise.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in ("u3", "cnot", "h", "sdg"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cnot":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("cnot needs distinct (control, target)")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")
        if self.kind == "u3" and len(self.params) != 3:
            raise ValueError("u3 needs (theta, phi, lam)")


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


H_MATRIX = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
SDG_MATRIX = np.diag([1.0, -1.0j])
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gate_matrix(gate: GateOp) -> np.ndarray:
    """2x2 matrix for single-qubit gates, 4x4 for cnot (control first)."""
    if gate.kind == "u3":
        return u3_matrix(*gate.params)
    if gate.kind == "h":
        return H_MATRIX.astype(complex)
    if gate.kind == "sdg":
        return SDG_MATRIX.astype(complex)
    return _CNOT


def family_amplitudes(family: str, alpha, beta) -> np.ndarray:
    """(x, x, y, y) / sqrt(2x^2 + 2y^2) over alpha and beta broadcast, with x, y =
    cos alpha, sin beta (s1) or sin alpha, cos beta (s2). Raises at the first
    point in C order whose parameters are not finite or give the null vector."""
    if family not in ("s1", "s2"):
        raise ValueError(f"state family {family!r} has no (alpha, beta) form")
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    finite = np.isfinite(alpha) & np.isfinite(beta)
    a, b = np.where(finite, (alpha, beta), 0.0)
    x, y = (np.cos(a), np.sin(b)) if family == "s1" else (np.sin(a), np.cos(b))
    norm = np.sqrt(2.0 * (x * x + y * y))
    bad = ~finite | (norm < 1e-12)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        problem = "give the null vector" if finite.flat[k] else "are not finite"
        point = f"(alpha, beta) = ({alpha.flat[k]}, {beta.flat[k]})"
        raise ValueError(f"family {family} parameters {problem} at {point}")
    # times the reciprocal, which is how dividing a complex vector by its norm rounds
    return np.stack([x, x, y, y], axis=-1) * (1.0 / norm)[..., None]


def prepare_state(spec: StatePrepSpec) -> QuantumState:
    """Build the normalized state for a StatePrepSpec (see family_amplitudes)."""
    if spec.family != "explicit":
        return QuantumState(family_amplitudes(spec.family, spec.alpha, spec.beta))
    raw = np.asarray(spec.explicit_amplitudes, dtype=complex)
    norm = np.linalg.norm(raw)
    if not 1e-12 <= norm < np.inf:
        raise ValueError(f"family explicit amplitudes {raw} are null or not finite")
    return QuantumState(raw / norm)


def apply_gate(state: QuantumState, gate: GateOp) -> QuantumState:
    """Apply one gate; returns a new state (norm preserved)."""
    n = state.n
    if any(q < 0 or q >= n for q in gate.qubits):
        raise IndexError(f"gate qubits {gate.qubits} out of range for n={n}")
    psi = state.amplitudes.reshape([2] * n)
    if gate.kind == "cnot":
        c, t = gate.qubits
        op = gate_matrix(gate).reshape(2, 2, 2, 2)
        psi = np.tensordot(op, psi, axes=([2, 3], [c, t]))
        psi = np.moveaxis(psi, [0, 1], [c, t])
    else:
        (q,) = gate.qubits
        psi = np.tensordot(gate_matrix(gate), psi, axes=([1], [q]))
        psi = np.moveaxis(psi, 0, q)
    return QuantumState(psi.reshape(-1))


def apply_circuit(state: QuantumState, gates: list[GateOp]) -> QuantumState:
    for g in gates:
        state = apply_gate(state, g)
    return state


def circuit_unitary(gates: list[GateOp], n: int) -> np.ndarray:
    """Compose a gate list into its full 2^n x 2^n unitary: column b is the
    circuit applied, gate by gate, to basis state b."""
    basis = np.eye(2**n, dtype=complex)
    return np.stack(
        [apply_circuit(QuantumState(e), gates).amplitudes for e in basis], axis=1
    )


def _product_factors(amps: np.ndarray, n: int) -> list[np.ndarray]:
    """Factor a state into per-qubit vectors, or raise if entangled."""
    factors = []
    rest = amps
    for _ in range(n - 1):
        m = rest.reshape(2, -1)
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        if s.shape[0] > 1 and s[1] > 1e-10:
            raise ValueError("synthesis limited to product states")
        factors.append(u[:, 0])
        rest = s[0] * vt[0, :]
    factors.append(rest / np.linalg.norm(rest))
    return factors


def _u3_params_for_target(a: complex, b: complex) -> tuple[float, float, float]:
    # Fix lam = pi so the |+> preparation is exactly the Hadamard matrix;
    # lam does not affect the action on |0>.
    if abs(a) > 1e-12:
        b = b * np.conj(a / abs(a))
        a = abs(a)
        theta = 2 * np.arccos(min(1.0, max(-1.0, float(a))))
        phi = float(np.angle(b)) if abs(b) > 1e-12 else 0.0
    else:
        theta = np.pi
        phi = float(np.angle(b))
    return (float(theta), phi, float(np.pi))


def synthesize_prep_circuit(spec: StatePrepSpec) -> list[GateOp]:
    """One U3 gate per qubit reproducing prepare_state(spec) up to global phase.

    Only product states are supported; the result is self-checked against
    the exact amplitudes to 1e-10 before being returned.
    """
    target = prepare_state(spec)
    factors = _product_factors(target.amplitudes, target.n)
    gates = []
    for q, vec in enumerate(factors):
        params = _u3_params_for_target(vec[0], vec[1])
        gates.append(GateOp("u3", (q,), params))
    built = apply_circuit(
        QuantumState(np.eye(1 << target.n, dtype=complex)[0]), gates
    )
    overlap = abs(np.vdot(built.amplitudes, target.amplitudes))
    if abs(overlap - 1.0) > 1e-10:
        raise AssertionError(f"synthesis self-check failed, overlap {overlap}")
    return gates
