import numpy as np
import pytest

from entroctx.statevec import (
    PRESET_S1,
    PRESET_S2,
    GateOp,
    QuantumState,
    StatePrepSpec,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    gate_matrix,
    prepare_state,
    synthesize_prep_circuit,
    u3_matrix,
)

RNG = np.random.default_rng(20260825)


def random_state(n: int) -> QuantumState:
    raw = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return QuantumState(raw / np.linalg.norm(raw))


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 1.0]))
    assert QuantumState(np.array([1.0, 0.0])).n == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        StatePrepSpec(family="s3")
    with pytest.raises(ValueError):
        StatePrepSpec(family="explicit")


def test_preset_s1_amplitudes():
    state = prepare_state(PRESET_S1)
    expected = [-0.6914, -0.6914, 0.1481, 0.1481]
    assert np.allclose(state.amplitudes.real, expected, atol=5e-5)
    assert np.allclose(state.amplitudes.imag, 0.0, atol=1e-12)


def test_preset_s2_amplitudes():
    state = prepare_state(PRESET_S2)
    expected = [0.1709, 0.1709, 0.6861, 0.6861]
    assert np.allclose(state.amplitudes.real, expected, atol=5e-5)


def test_s1_equal_angles_normalization_is_exact():
    # cos^2 + sin^2 = 1, so the normalization constant is exactly 1/sqrt(2)
    for alpha in (0.3, 1.1, 2.9306):
        spec = StatePrepSpec(family="s1", alpha=alpha, beta=alpha)
        state = prepare_state(spec)
        assert state.amplitudes[0] == pytest.approx(
            np.cos(alpha) / np.sqrt(2), abs=1e-15
        )


def test_families_agree_on_uniform_point():
    s1 = prepare_state(StatePrepSpec(family="s1", alpha=np.pi / 4, beta=np.pi / 4))
    s2 = prepare_state(StatePrepSpec(family="s2", alpha=np.pi / 4, beta=np.pi / 4))
    assert np.allclose(s1.amplitudes, [0.5] * 4, atol=1e-12)
    assert np.allclose(s2.amplitudes, s1.amplitudes, atol=1e-12)


def test_null_vector_rejected():
    with pytest.raises(ValueError, match="null vector"):
        prepare_state(StatePrepSpec(family="s1", alpha=np.pi / 2, beta=0.0))


def test_u3_action_on_zero():
    theta, phi, lam = 1.1, 0.7, -2.2
    out = u3_matrix(theta, phi, lam) @ np.array([1.0, 0.0])
    assert out[0] == pytest.approx(np.cos(theta / 2))
    assert out[1] == pytest.approx(np.exp(1j * phi) * np.sin(theta / 2))


def test_h_gate_on_zero():
    state = apply_gate(QuantumState(np.array([1.0, 0.0])), GateOp("h", (0,)))
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_cnot_msb_control():
    basis_10 = QuantumState(np.array([0.0, 0.0, 1.0, 0.0]))
    flipped = apply_gate(basis_10, GateOp("cnot", (0, 1)))
    assert np.allclose(flipped.amplitudes, [0.0, 0.0, 0.0, 1.0])


def test_gate_validation():
    with pytest.raises(ValueError):
        GateOp("cz", (0,))
    with pytest.raises(ValueError):
        GateOp("cnot", (1, 1))
    with pytest.raises(ValueError):
        GateOp("u3", (0,), (0.1,))
    with pytest.raises(IndexError):
        apply_gate(QuantumState(np.array([1.0, 0.0])), GateOp("h", (1,)))


def test_norm_preserved_by_random_circuits():
    for _ in range(100):
        state = random_state(2)
        gates = [
            GateOp("u3", (int(RNG.integers(2)),), tuple(RNG.uniform(-np.pi, np.pi, 3))),
            GateOp("h", (int(RNG.integers(2)),)),
            GateOp("cnot", (0, 1)),
            GateOp("sdg", (int(RNG.integers(2)),)),
        ]
        out = apply_circuit(state, gates)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_circuit_unitary_matches_gate_application():
    gates = [
        GateOp("h", (0,)),
        GateOp("cnot", (0, 1)),
        GateOp("u3", (1,), (0.4, -0.3, 1.2)),
    ]
    u = circuit_unitary(gates, 2)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    state = random_state(2)
    assert np.allclose(
        u @ state.amplitudes, apply_circuit(state, gates).amplitudes, atol=1e-12
    )


def test_synthesis_round_trips_presets():
    for spec in (PRESET_S1, PRESET_S2):
        gates = synthesize_prep_circuit(spec)
        assert len(gates) == 2
        assert all(g.kind == "u3" for g in gates)
        built = apply_circuit(
            QuantumState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)), gates
        )
        target = prepare_state(spec)
        overlap = abs(np.vdot(built.amplitudes, target.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_synthesis_round_trips_random_angles():
    for _ in range(1000):
        alpha, beta = RNG.uniform(-np.pi, np.pi, 2)
        spec = StatePrepSpec(
            family=str(RNG.choice(["s1", "s2"])), alpha=alpha, beta=beta
        )
        try:
            target = prepare_state(spec)
        except ValueError:
            continue
        gates = synthesize_prep_circuit(spec)
        built = apply_circuit(
            QuantumState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)), gates
        )
        assert abs(np.vdot(built.amplitudes, target.amplitudes)) == pytest.approx(
            1.0, abs=1e-10
        )


def test_synthesis_zero_angles_gives_hadamard_on_lsb():
    # (1, 1, 0, 0)/sqrt(2) = |0> (x) |+>: the least-significant-qubit gate
    # must be U3(pi/2, 0, pi), whose matrix is exactly the Hadamard
    gates = synthesize_prep_circuit(StatePrepSpec(family="s1", alpha=0.0, beta=0.0))
    lsb = [g for g in gates if g.qubits == (1,)][0]
    theta, phi, lam = lsb.params
    assert theta == pytest.approx(np.pi / 2, abs=1e-12)
    assert phi == pytest.approx(0.0, abs=1e-12)
    assert lam == pytest.approx(np.pi, abs=1e-12)
    assert np.allclose(gate_matrix(lsb), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_synthesis_rejects_entangled_input():
    bell = StatePrepSpec(
        family="explicit",
        explicit_amplitudes=(1 / np.sqrt(2), 0.0, 0.0, 1 / np.sqrt(2)),
    )
    with pytest.raises(ValueError, match="limited to product states"):
        synthesize_prep_circuit(bell)
