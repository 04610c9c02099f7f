import itertools

import numpy as np
import pytest

from entroctx import contexts
from entroctx.contexts import (
    MeasurementContext,
    OutcomeDistribution,
    basis_change_gates,
    basis_change_unitary,
    coarse_labels,
    coarsen,
    export_measurement_circuit,
    joint_distribution_coarse,
    joint_distribution_fine,
    record_eigenvalues,
)
from entroctx.entropy import entropies_from_counts
from entroctx.pauli import (
    OBSERVABLE_SETS,
    PauliString,
    commutes,
    eigenprojectors,
    matrix,
)
from entroctx.statevec import (
    PRESET_S1,
    PRESET_S2,
    QuantumState,
    apply_circuit,
    prepare_state,
    synthesize_prep_circuit,
)


def all_preset_contexts(name: str) -> list[MeasurementContext]:
    obs = OBSERVABLE_SETS[name]
    singles = [MeasurementContext((obs[i],)) for i in (1, 2, 3)]
    pairs = [MeasurementContext((obs[i], obs[(i + 1) % 5])) for i in range(5)]
    return singles + pairs


def random_state(rng, n: int) -> QuantumState:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QuantumState(amps / np.linalg.norm(amps))


def projector_reference(state: QuantumState, ctx: MeasurementContext) -> dict:
    """<psi|P_a P_b|psi> from the observables' eigenprojectors."""
    projs = [eigenprojectors(o) for o in ctx.observables]
    table = {}
    for combo in coarse_labels(len(projs)):
        op = np.eye(2**ctx.n_qubits)
        for proj, a in zip(projs, combo):
            op = op @ proj[0 if a > 0 else 1]
        table[combo] = float(np.real(state.amplitudes.conj() @ op @ state.amplitudes))
    return table


def assert_matches_projectors(state, ctx):
    reference = projector_reference(state, ctx)
    for dist in (
        joint_distribution_coarse(state, ctx),
        coarsen(joint_distribution_fine(state, ctx), ctx),
    ):
        assert dist.labels == coarse_labels(len(ctx.observables))
        for label, p in dist.as_dict().items():
            assert abs(p - reference[label]) <= 1e-12


def test_context_validation():
    with pytest.raises(ValueError, match="do not commute"):
        MeasurementContext((PauliString("ZZ"), PauliString("XI")))
    with pytest.raises(ValueError, match="convention"):
        MeasurementContext((PauliString("ZZ"),), "medium")
    with pytest.raises(ValueError, match="degenerate"):
        MeasurementContext((PauliString("II"),))
    with pytest.raises(ValueError, match="equal length"):
        MeasurementContext((PauliString("Z"), PauliString("ZZ")))


def test_distribution_validation():
    with pytest.raises(ValueError):
        OutcomeDistribution(("a", "b"), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        OutcomeDistribution(("a", "b"), np.array([1.2, -0.2]))


def test_coarse_deterministic_state():
    ctx = MeasurementContext((PauliString("ZZ"), PauliString("IZ")), "coarse")
    zero = QuantumState(np.array([1.0, 0.0, 0.0, 0.0]))
    dist = joint_distribution_coarse(zero, ctx)
    assert dist.as_dict()[(+1, +1)] == pytest.approx(1.0, abs=1e-12)


def test_coarse_single_xx_on_s1():
    state = prepare_state(PRESET_S1)
    dist = joint_distribution_coarse(
        state, MeasurementContext((PauliString("XX"),), "coarse")
    )
    table = dist.as_dict()
    assert table[(+1,)] == pytest.approx(0.2952, abs=1e-4)
    assert table[(-1,)] == pytest.approx(0.7048, abs=1e-4)


def test_coarse_pair_xx_xi_perfectly_correlated():
    # the least significant qubit of s1 is |+>, so XX and XI give the
    # same answer shot by shot
    state = prepare_state(PRESET_S1)
    ctx = MeasurementContext((PauliString("XX"), PauliString("XI")), "coarse")
    table = joint_distribution_coarse(state, ctx).as_dict()
    assert table[(+1, +1)] == pytest.approx(0.2952, abs=1e-4)
    assert table[(-1, -1)] == pytest.approx(0.7048, abs=1e-4)
    assert table[(+1, -1)] == pytest.approx(0.0, abs=1e-12)
    assert table[(-1, +1)] == pytest.approx(0.0, abs=1e-12)


def test_coarse_projector_order_symmetric():
    state = prepare_state(PRESET_S1)
    for name in ("table1", "table2"):
        for ctx in all_preset_contexts(name):
            if len(ctx.observables) != 2:
                continue
            swapped = MeasurementContext(ctx.observables[::-1], "coarse")
            p = joint_distribution_coarse(state, ctx).as_dict()
            q = joint_distribution_coarse(state, swapped).as_dict()
            for (a, b), value in p.items():
                assert q[(b, a)] == pytest.approx(value, abs=1e-12)


def test_coarse_marginal_consistency():
    # summing a pair distribution over one slot reproduces the single
    state = prepare_state(PRESET_S1)
    for name in ("table1", "table2"):
        for ctx in all_preset_contexts(name):
            if len(ctx.observables) != 2:
                continue
            pair = joint_distribution_coarse(state, ctx).as_dict()
            for slot in (0, 1):
                single = joint_distribution_coarse(
                    state, MeasurementContext((ctx.observables[slot],), "coarse")
                ).as_dict()
                for a in (+1, -1):
                    total = sum(
                        v for k, v in pair.items() if k[slot] == a
                    )
                    assert total == pytest.approx(single[(a,)], abs=1e-12)


def gate_list(*texts):
    return [(g.kind, g.qubits) for g in basis_change_gates(MeasurementContext(texts))]


def test_local_basis_rules():
    # a qubit where one observable reads I takes the other's letter; a
    # qubit that is I everywhere stays in Z
    assert gate_list("XX", "XI") == [("h", (0,)), ("h", (1,))]
    assert gate_list("IZ", "ZZ") == []
    assert gate_list("XI") == [("h", (0,))]
    assert gate_list("IY", "ZY") == [("sdg", (1,)), ("h", (1,))]
    # conflicting letters: to (Z, X) per qubit, CNOTs from the last
    # conflicting qubit, H on it
    assert gate_list("ZZ", "XX") == [("cnot", (1, 0)), ("h", (1,))]
    assert gate_list("ZZ", "YX") == [("sdg", (0,)), ("cnot", (1, 0)), ("h", (1,))]
    assert gate_list("XZI", "YYZ") == [
        ("h", (0,)), ("sdg", (0,)), ("sdg", (0,)), ("sdg", (0,)),
        ("sdg", (1,)), ("cnot", (1, 0)), ("h", (1,)),
    ]


def test_fine_deterministic_record():
    ctx = MeasurementContext((PauliString("IZ"),))
    zero = QuantumState(np.array([1.0, 0.0, 0.0, 0.0]))
    dist = joint_distribution_fine(zero, ctx)
    assert dist.as_dict()["00"] == pytest.approx(1.0, abs=1e-12)


def test_fine_single_xx_on_s1():
    state = prepare_state(PRESET_S1)
    dist = joint_distribution_fine(state, MeasurementContext((PauliString("XX"),)))
    table = dist.as_dict()
    assert set(table) == {"00", "01", "10", "11"}
    # least significant bit deterministic: only records ending in 0 occur
    assert table["01"] == pytest.approx(0.0, abs=1e-12)
    assert table["11"] == pytest.approx(0.0, abs=1e-12)
    assert sorted((table["00"], table["10"])) == pytest.approx(
        [0.2952, 0.7048], abs=1e-4
    )


def test_fine_rejects_a_state_of_another_qubit_count():
    for n in (1, 3):
        state = QuantumState(np.eye(2**n)[0].astype(complex))
        with pytest.raises(ValueError, match=f"2-qubit context on a {n}-qubit state"):
            joint_distribution_fine(state, MeasurementContext((PauliString("XX"),)))


def test_fine_uniform_state_two_bits():
    uniform = QuantumState(np.full(4, 0.5))
    dist = joint_distribution_fine(uniform, MeasurementContext((PauliString("ZZ"),)))
    assert np.allclose(dist.probs, 0.25, atol=1e-12)


def test_fine_bell_type_pair():
    state = prepare_state(PRESET_S1)
    ctx = MeasurementContext((PauliString("ZZ"), PauliString("XX")))
    fine = joint_distribution_fine(state, ctx)
    assert set(fine.labels) == {"00", "01", "10", "11"}
    coarse = joint_distribution_coarse(state, ctx).as_dict()
    # record bit k encodes observable k: 0 for eigenvalue +1
    assert fine.as_dict()["01"] == pytest.approx(coarse[(+1, -1)], abs=1e-12)
    assert fine.as_dict()["10"] == pytest.approx(coarse[(-1, +1)], abs=1e-12)


def test_fine_available_for_all_preset_contexts():
    state = prepare_state(PRESET_S1)
    for name in ("table1", "table2"):
        for ctx in all_preset_contexts(name):
            dist = joint_distribution_fine(state, ctx)
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_fine_records_for_three_qubit_conflicts():
    # three qubits with conflicting letters on two of them: the readout
    # record has one bit per qubit and bins to the projector probabilities
    ctx = MeasurementContext((PauliString("XXI"), PauliString("ZZI")))
    state = random_state(np.random.default_rng(3), 3)
    fine = joint_distribution_fine(state, ctx)
    assert fine.labels == tuple(format(b, "03b") for b in range(8))
    assert_matches_projectors(state, ctx)
    zero = QuantumState(np.eye(8)[0].astype(complex))
    assert joint_distribution_coarse(zero, ctx).as_dict()[(+1, +1)] == pytest.approx(
        0.5, abs=1e-12
    )


def test_coarsen_matches_coarse_for_all_preset_contexts():
    rng = np.random.default_rng(11)
    states = [prepare_state(PRESET_S1), prepare_state(PRESET_S2)]
    states += [random_state(rng, 2) for _ in range(4)]
    for name in ("table1", "table2"):
        for ctx in all_preset_contexts(name):
            for state in states:
                assert_matches_projectors(state, ctx)


@pytest.mark.parametrize("pair", list(contexts._TO_ZX))
def test_coarse_matches_projectors_for_each_conflicting_letter_pair(pair):
    # the letter pair sits on either qubit of a two-qubit pair and on
    # either observable; the other qubit conflicts as well (Z against X)
    p, q = pair
    rng = np.random.default_rng(ord(p) * 100 + ord(q))
    for first, second in ((p + "Z", q + "X"), ("Z" + p, "X" + q), ("X" + p, "Z" + q)):
        ctx = MeasurementContext((PauliString(first), PauliString(second)))
        for _ in range(3):
            assert_matches_projectors(random_state(rng, 2), ctx)


@pytest.mark.parametrize("n", [3, 4])
def test_coarse_matches_projectors_for_random_commuting_pairs(n):
    rng = np.random.default_rng(100 + n)
    letters = ["".join(t) for t in itertools.product("IXYZ", repeat=n)][1:]
    checked = 0
    while checked < 40:
        a, b = rng.choice(letters, size=2)
        if a == b or not commutes(a, b):
            continue
        ctx = MeasurementContext((PauliString(a), PauliString(b)))
        assert_matches_projectors(random_state(rng, n), ctx)
        single = MeasurementContext((PauliString(a),))
        assert_matches_projectors(random_state(rng, n), single)
        checked += 1


def test_coarsen_uniform_records_under_zz():
    fine = OutcomeDistribution(("00", "01", "10", "11"), np.full(4, 0.25))
    coarse = coarsen(fine, MeasurementContext((PauliString("ZZ"),))).as_dict()
    assert coarse[(+1,)] == pytest.approx(0.5)
    assert coarse[(-1,)] == pytest.approx(0.5)


def gate_by_gate(state: QuantumState, ctx: MeasurementContext) -> np.ndarray:
    """Reference record distribution: the basis-change gates applied one by one."""
    return np.abs(apply_circuit(state, basis_change_gates(ctx)).amplitudes) ** 2


def test_kernel_matches_gate_by_gate_application():
    rng = np.random.default_rng(23)
    states = [prepare_state(PRESET_S1), prepare_state(PRESET_S2)]
    states += [random_state(rng, 2) for _ in range(4)]
    for name in ("table1", "table2"):
        for ctx in all_preset_contexts(name):
            for state in states:
                fine = joint_distribution_fine(state, ctx)
                assert fine.labels == ("00", "01", "10", "11")
                assert np.abs(fine.probs - gate_by_gate(state, ctx)).max() <= 1e-15
    letters = ["".join(t) for t in itertools.product("IXYZ", repeat=3)][1:]
    checked = 0
    while checked < 40:
        a, b = rng.choice(letters, size=2)
        if a == b or not commutes(a, b):
            continue
        ctx = MeasurementContext((PauliString(a), PauliString(b)))
        state = random_state(rng, 3)
        fine = joint_distribution_fine(state, ctx)
        assert np.abs(fine.probs - gate_by_gate(state, ctx)).max() <= 1e-15
        checked += 1


@pytest.mark.parametrize(
    "texts, counts",
    [
        (("ZZ", "YX"), {"11": 7, "01": 2}),
        (("XX",), {"10": 5}),
        (("XXI", "YYZ"), {"000": 4, "101": 1, "110": 0, "011": 9}),
    ],
)
def test_coarsen_counts_with_omitted_records(texts, counts):
    # counts files may list only the records that occurred; binning them
    # equals adding each listed record's probability to its outcome
    ctx = MeasurementContext(tuple(PauliString(t) for t in texts))
    measured = entropies_from_counts(counts)
    expected = dict.fromkeys(coarse_labels(len(texts)), 0.0)
    for label, p in measured.as_dict().items():
        expected[record_eigenvalues(ctx, label)] += p
    binned = coarsen(measured, ctx)
    assert binned.labels == coarse_labels(len(texts))
    assert np.abs(binned.probs - list(expected.values())).max() <= 1e-15


def test_record_eigenvalues_length_check():
    ctx = MeasurementContext((PauliString("ZZ"),))
    with pytest.raises(ValueError, match="record length"):
        record_eigenvalues(ctx, "0")
    # labels int() would accept are still not records
    for label in ("-1", "+1", "0a", "1_"):
        with pytest.raises(ValueError, match="record length or bits"):
            record_eigenvalues(ctx, label)


def test_export_x_basis_rotations():
    ctx = MeasurementContext((PauliString("XX"), PauliString("XI")))
    text = export_measurement_circuit(ctx)
    assert "OPENQASM 2.0;" in text
    assert 'include "qelib1.inc";' in text
    assert "h q[0];" in text and "h q[1];" in text
    assert text.count("measure") == 2


def test_export_z_basis_needs_no_rotation():
    ctx = MeasurementContext((PauliString("IZ"), PauliString("ZZ")))
    text = export_measurement_circuit(ctx)
    basis_section = text.split("// basis change")[1].split("// readout")[0]
    assert basis_section.strip() == ""


def test_export_bell_template():
    ctx = MeasurementContext((PauliString("ZZ"), PauliString("XX")))
    text = export_measurement_circuit(ctx)
    basis_section = text.split("// basis change")[1].split("// readout")[0]
    assert basis_section.split() == ["cx", "q[0],", "q[1];", "h", "q[0];"]


def test_export_includes_prep_gates():
    ctx = MeasurementContext((PauliString("XX"),))
    prep = synthesize_prep_circuit(PRESET_S1)
    text = export_measurement_circuit(ctx, prep)
    prep_section = text.split("// state preparation")[1].split("// basis change")[0]
    assert prep_section.count("u3(") == 2


def test_export_entangled_s2_pairs():
    # every table2 pair conflicts on both qubits; each exports one CNOT
    for ctx in all_preset_contexts("table2")[3:]:
        text = export_measurement_circuit(ctx)
        basis_section = text.split("// basis change")[1].split("// readout")[0]
        assert basis_section.count("cx q[0], q[1];") == 1
        assert basis_section.strip().endswith("h q[0];")


def test_sdg_h_rotation_for_y():
    gates = basis_change_gates(MeasurementContext((PauliString("YI"),)))
    assert [g.kind for g in gates[:2]] == ["sdg", "h"]


def test_basis_change_diagonalizes_every_supported_context():
    for name in ("table1", "table2"):
        for ctx in all_preset_contexts(name):
            u = basis_change_unitary(ctx)
            for k, obs in enumerate(ctx.observables):
                conj = u @ matrix(obs) @ u.conj().T
                off = conj - np.diag(np.diag(conj))
                assert np.abs(off).max() < 1e-12
                values = [record_eigenvalues(ctx, f"{b:02b}")[k] for b in range(4)]
                assert np.abs(np.diag(conj) - values).max() < 1e-12


def test_preset_pair_records_read_observables_in_order():
    # a two-qubit pair's first record bit is the first observable's sign
    for name in ("table1", "table2"):
        for ctx in all_preset_contexts(name)[3:]:
            if any("I" in o.letters for o in ctx.observables):
                continue
            assert [record_eigenvalues(ctx, lb) for lb in ("00", "01", "10", "11")] == [
                (+1, +1), (+1, -1), (-1, +1), (-1, -1)
            ]


def test_eigenvalue_map_rejects_a_non_diagonalizing_circuit(monkeypatch):
    monkeypatch.setattr(contexts, "basis_change_gates", lambda ctx: [])
    contexts._kernel.cache_clear()
    try:
        with pytest.raises(ValueError, match="does not diagonalize XX"):
            record_eigenvalues(MeasurementContext((PauliString("XX"),)), "00")
    finally:
        contexts._kernel.cache_clear()


def test_coarse_labels_order():
    assert coarse_labels(2) == ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
