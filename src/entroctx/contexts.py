"""Measurement contexts: exact outcome distributions in two conventions.

A context is one or two mutually commuting Pauli observables measured
together. The coarse convention labels outcomes by eigenvalue tuples; the
fine convention labels them by the full per-qubit readout record in a
diagonalizing basis, which is how hardware actually reports shots and the
only reading under which a single two-outcome observable can carry more
than 1 bit of entropy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PauliString, as_pauli, commutes, matrix
from .statevec import GateOp, QuantumState, circuit_unitary

_SIGNS = (+1, -1)


@dataclass(frozen=True)
class MeasurementContext:
    observables: tuple[PauliString, ...]
    convention: str = "fine"

    def __post_init__(self) -> None:
        obs = tuple(as_pauli(o) for o in self.observables)
        object.__setattr__(self, "observables", obs)
        if not 1 <= len(obs) <= 2:
            raise ValueError("a context holds one or two observables")
        if self.convention not in ("coarse", "fine"):
            raise ValueError(f"unknown convention {self.convention!r}")
        if len({o.n for o in obs}) != 1:
            raise ValueError("context observables must have equal length")
        for o in obs:
            if o.is_identity:
                raise ValueError("degenerate observable with single eigenvalue")
        if len(obs) == 2 and not commutes(obs[0], obs[1]):
            raise ValueError(f"observables do not commute: {obs[0]}, {obs[1]}")

    @property
    def n_qubits(self) -> int:
        return self.observables[0].n

    def label_text(self) -> str:
        return ",".join(str(o) for o in self.observables)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Labeled probability vector for one measurement context."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.labels),):
            raise ValueError("labels/probs length mismatch")
        if p.min() < -1e-10:
            raise ValueError(f"negative probability {p.min()}")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {p.sum()}")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))

    def as_dict(self) -> dict:
        return dict(zip(self.labels, self.probs))


def coarse_labels(n_observables: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(_SIGNS, repeat=n_observables))


def joint_distribution_coarse(
    state: QuantumState, context: MeasurementContext
) -> OutcomeDistribution:
    """Eigenvalue-outcome distribution p(a) or p(a, b): the fine records binned."""
    return coarsen(joint_distribution_fine(state, context), context)


_ROTATE = {
    "Z": [],
    "X": ["h"],
    "Y": ["sdg", "h"],
}

# Letter pair (p, q) on a qubit where the observables conflict -> gates
# taking p to +Z and q to +X there.
_TO_ZX = {
    ("Z", "X"): [],
    ("X", "Z"): ["h"],
    ("Z", "Y"): ["sdg"],
    ("Y", "Z"): ["sdg", "h"],
    ("Y", "X"): ["sdg", "h", "sdg"],
    ("X", "Y"): ["h", "sdg", "sdg", "sdg"],
}


def basis_change_gates(context: MeasurementContext) -> list[GateOp]:
    """Clifford gates mapping each observable of the context to a Z-string.

    A qubit where the observables agree, or where one reads I, is rotated
    into its letter's basis (H for X; Sdg then H for Y; a qubit that is I
    everywhere stays in Z). On the conflicting qubits C (an even number,
    since the observables commute) the first observable is taken to Z and
    the second to X on every qubit; CNOTs from the last qubit of C onto
    the others then leave Z on C minus its last qubit and X on the last,
    which a final H turns into Z. A two-qubit pair thus reads the first
    observable on the first record bit and the second on the second.
    """
    gates, conflicts = [], []
    for j, letters in enumerate(zip(*(o.letters for o in context.observables))):
        used = set(letters) - {"I"}
        if len(used) == 2:
            conflicts.append(j)
            kinds = _TO_ZX[letters]
        else:
            kinds = _ROTATE[used.pop() if used else "Z"]
        gates.extend(GateOp(kind, (j,)) for kind in kinds)
    if conflicts:
        *others, last = conflicts
        gates.extend(GateOp("cnot", (last, t)) for t in others)
        gates.append(GateOp("h", (last,)))
    return gates


def joint_distribution_fine(
    state: QuantumState, context: MeasurementContext
) -> OutcomeDistribution:
    """Distribution of the readout record after the context's basis change.

    Labels are n-bit strings, most significant qubit first: exactly what
    the exported circuit of the context reads out.
    """
    if state.n != context.n_qubits:
        raise ValueError(f"{context.n_qubits}-qubit context on a {state.n}-qubit state")
    u, labels, _ = _kernel(context.observables)
    probs = np.abs(u @ state.amplitudes) ** 2
    return OutcomeDistribution(labels, probs / probs.sum())


@lru_cache(maxsize=None)
def _kernel(observables: tuple[PauliString, ...]) -> tuple:
    """(U_ctx, n-bit record labels, 0/1 binning matrix) of one observables
    tuple: fine probabilities are |U_ctx psi|^2 (Aaronson & Gottesman, PRA
    70, 052328), and row b marks record b's outcome, from diag(U P U^dag)."""
    u = basis_change_unitary(MeasurementContext(observables))
    k = len(observables)
    outcome = 0  # index into coarse_labels: observable j reading -1 sets bit k-1-j
    for j, o in enumerate(observables):
        conj = u @ matrix(o) @ u.conj().T
        signs = np.sign(np.diag(conj).real)
        if np.abs(conj - np.diag(signs)).max() > 1e-12:
            raise ValueError(f"basis change does not diagonalize {o} to +/-1")
        outcome = outcome + (signs < 0) * 2 ** (k - 1 - j)
    binning = np.eye(2**k)[outcome]
    u.setflags(write=False)
    binning.setflags(write=False)
    n = observables[0].n
    return u, tuple(format(b, f"0{n}b") for b in range(2**n)), binning


def _record_index(context: MeasurementContext, label: str) -> int:
    n = context.n_qubits
    if len(label) != n or set(label) - {"0", "1"}:
        raise ValueError(f"bad record length or bits: {label!r} for {n} qubits")
    return int(label, 2)


def record_eigenvalues(context: MeasurementContext, label: str) -> tuple[int, ...]:
    """Map one fine record label to the eigenvalue tuple it implies."""
    row = _kernel(context.observables)[2][_record_index(context, label)]
    return coarse_labels(len(context.observables))[int(row.argmax())]


def coarsen(
    fine: OutcomeDistribution, context: MeasurementContext
) -> OutcomeDistribution:
    """Bin a fine record distribution into coarse eigenvalue outcomes through
    its records' rows of the binning matrix, which also bins counts that
    omit zero-count records."""
    rows = [_record_index(context, label) for label in fine.labels]
    binned = fine.probs @ _kernel(context.observables)[2][rows]
    return OutcomeDistribution(coarse_labels(len(context.observables)), binned)


def _qasm_gate(gate: GateOp, n: int) -> str:
    # letter index j lives at hardware qubit q[n-1-j] (lsb at q[0])
    regs = [n - 1 - q for q in gate.qubits]
    if gate.kind == "u3":
        t, p, l = (repr(float(x)) for x in gate.params)
        return f"u3({t},{p},{l}) q[{regs[0]}];"
    if gate.kind == "cnot":
        return f"cx q[{regs[0]}], q[{regs[1]}];"
    return f"{gate.kind} q[{regs[0]}];"


def export_measurement_circuit(
    context: MeasurementContext, prep: list[GateOp] | None = None
) -> str:
    """OpenQASM 2.0 text: prep gates, basis change, terminal measurement."""
    rotation = basis_change_gates(context)
    n = context.n_qubits
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"// context: {context.label_text()}",
        f"qreg q[{n}];",
        f"creg c[{n}];",
    ]
    if prep:
        lines.append("// state preparation")
        lines.extend(_qasm_gate(g, n) for g in prep)
    lines.append("// basis change")
    lines.extend(_qasm_gate(g, n) for g in rotation)
    lines.append("// readout")
    lines.extend(f"measure q[{k}] -> c[{k}];" for k in range(n))
    return "\n".join(lines) + "\n"


def basis_change_unitary(context: MeasurementContext) -> np.ndarray:
    """Full unitary of the basis-change gate list (for conjugation checks)."""
    return circuit_unitary(basis_change_gates(context), context.n_qubits)
