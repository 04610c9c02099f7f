"""The three routes agree on generated cycles, not only on the presets.

Each instance is a random commuting Pauli cycle on 2 or 3 qubits with
n = 3..7 observables, drawn by rejection through `resolve_observables`,
and random explicit states. Half the instances carry depolarizing noise
(either convention) and half readout noise (fine convention). Checked:

- a sampled run equals the ingest of its own counts files, bit for bit; a
  cycle that repeats a context (say one observable at two interior places)
  writes two files naming one context, which ingest refuses by name;
- on 2-qubit cycles, runs at s1/s2 family points equal the one-point sweep;
- an exact run without readout noise gets the LP verdict of the closed-form
  n-cycle facets (Araujo et al., PRA 88, 022118 (2013)), computed here from
  literal Pauli matrices: noncontextual iff s_odd(E) <= n - 2, with
  E_i = <X_i X_{i+1}> and s_odd the largest sum_i gamma_i E_i over signs
  gamma with an odd number of -1s. Readout noise breaks no-disturbance, so
  those runs get no facet check.

Every failure message names the seed, the instance, its cycle and its state.
"""

import functools

import numpy as np
import pytest

from entroctx.pipeline import (
    ExperimentConfig,
    cycle_contexts,
    ingest_counts_files,
    resolve_observables,
    run_experiment,
    sweep,
    write_sampled_counts,
)
from entroctx.sampling import NoiseModel
from entroctx.statevec import StatePrepSpec

SEED = 20261020
INSTANCES = 32
STATES = 8  # exact states per instance for the facet check
SHOTS = 2048
FACET_MARGIN = 1e-12

_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}


def _operator(text: str) -> np.ndarray:
    return functools.reduce(np.kron, [_PAULI[letter] for letter in text])


def _cycle(rng, qubits: int, n: int) -> tuple[str, ...]:
    """Non-identity Pauli strings, redrawn until resolve_observables takes them."""
    while True:
        cycle = tuple("".join(rng.choice(list("IXYZ"), qubits)) for _ in range(n))
        if "I" * qubits in cycle:
            continue
        try:
            resolve_observables(cycle)
        except ValueError:
            continue
        return cycle


def _state(rng, cycle: tuple[str, ...], near_facet: bool) -> tuple[complex, ...]:
    """A random state; near a facet, the top eigenvector of sum_i gamma_i X_i X_{i+1}
    for random signs gamma with an odd number of -1s, plus a random tilt, so
    cycles that can violate show contextual points too."""
    dim, n = 2 ** len(cycle[0]), len(cycle)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if near_facet:
        gamma = np.ones(n)
        gamma[rng.choice(n, size=2 * int(rng.integers((n + 1) // 2)) + 1, replace=False)] = -1
        facet = sum(
            g * _operator(cycle[i]) @ _operator(cycle[(i + 1) % n])
            for i, g in enumerate(gamma)
        )
        top = np.linalg.eigh(facet)[1][:, -1]
        amps = top + 0.2 * amps / np.linalg.norm(amps)
    return tuple(complex(z) for z in amps / np.linalg.norm(amps))


def _instances() -> list[dict]:
    rng = np.random.default_rng(SEED)
    made = []
    for k in range(INSTANCES):
        qubits, n = 2 + k % 2, 3 + (k // 4) % 5
        if k % 4 < 2:
            convention = ("coarse", "fine")[int(rng.integers(2))]
            noise = NoiseModel(float(rng.uniform(0.0, 0.5)))
        else:
            f0, f1 = rng.uniform(0.0, 0.1, 2)
            convention = "fine"
            noise = NoiseModel(0.0, ((1.0 - f0, f0), (f1, 1.0 - f1)))
        cycle = _cycle(rng, qubits, n)
        family = ("s1", "s2")[int(rng.integers(2))]
        made.append(
            {
                "k": k,
                "cycle": cycle,
                "states": [_state(rng, cycle, j % 2 == 1) for j in range(STATES)],
                "convention": convention,
                "noise": noise,
                "seed": int(rng.integers(2**31)),
                "family": (family, *rng.uniform(-np.pi, np.pi, 2)),
            }
        )
    return made


INSTANCE_LIST = _instances()


def _case(inst: dict, state) -> str:
    return (
        f"seed {SEED}, instance {inst['k']}: cycle {inst['cycle']}, state {state}, "
        f"{inst['convention']}, {inst['noise']}"
    )


def _config(inst: dict, amplitudes, **overrides) -> ExperimentConfig:
    spec = StatePrepSpec("explicit", explicit_amplitudes=amplitudes)
    settings = {"noise": inst["noise"], "convention": inst["convention"], **overrides}
    return ExperimentConfig(inst["cycle"], spec, **settings)


def _facet_feasible(inst: dict, amplitudes, epsilon: float) -> bool:
    """s_odd(E) <= n - 2 + margin, E from literal matrices. Depolarizing mixes
    each context's outcomes toward uniform: over the fine records that is the
    maximally mixed state, over the four coarse outcomes it zeroes E."""
    psi = np.asarray(amplitudes)
    cycle = inst["cycle"]
    n, dim = len(cycle), psi.size
    corr = []
    for i in range(n):
        product = _operator(cycle[i]) @ _operator(cycle[(i + 1) % n])
        uniform = np.trace(product).real / dim if inst["convention"] == "fine" else 0.0
        exact = (psi.conj() @ product @ psi).real
        corr.append((1.0 - epsilon) * exact + epsilon * uniform)
    corr = np.array(corr)
    s_odd = np.abs(corr).sum()
    if (corr < 0).sum() % 2 == 0:
        s_odd -= 2 * np.abs(corr).min()
    return bool(s_odd <= n - 2 + FACET_MARGIN)


def test_sampled_runs_equal_the_ingest_of_their_counts_files(tmp_path):
    compared = 0
    for inst in INSTANCE_LIST:
        state = inst["states"][0]
        config = _config(inst, state, shots=SHOTS, seed=inst["seed"])
        run = run_experiment(config)
        paths = write_sampled_counts(config, tmp_path / f"instance{inst['k']}")
        case = _case(inst, state)
        contexts = cycle_contexts(resolve_observables(inst["cycle"]))
        texts = [ctx.label_text() for _, _, ctx in contexts]
        if len(set(texts)) < len(texts):
            with pytest.raises(ValueError, match="^duplicate counts for context "):
                ingest_counts_files(paths, inst["cycle"])
            continue
        ingested = ingest_counts_files(paths, inst["cycle"])
        compared += 1
        assert ingested.report == run.report, case
        assert ingested.counts == run.counts, case
        mine, theirs = ingested.feasibility, run.feasibility
        assert mine.feasible == theirs.feasible, case
        assert mine.total_violation == theirs.total_violation, case
    assert compared >= INSTANCES // 2


def test_family_point_runs_equal_the_one_point_sweep_row():
    two_qubit = [inst for inst in INSTANCE_LIST if len(inst["cycle"][0]) == 2]
    assert len(two_qubit) == INSTANCES // 2
    for inst in two_qubit:
        family, alpha, beta = inst["family"]
        [row] = sweep(family, [alpha], [beta], inst["cycle"])
        _, _, m_coarse, m_fine, feasible = row
        spec = StatePrepSpec(family, alpha, beta)
        case = f"{_case(inst, spec)}, no noise"
        runs = {
            conv: run_experiment(ExperimentConfig(inst["cycle"], spec, conv))
            for conv in ("coarse", "fine")
        }
        assert m_coarse == runs["coarse"].report.m_value, case
        assert m_fine == runs["fine"].report.m_value, case
        assert feasible == runs["coarse"].feasibility.feasible, case
        assert feasible == runs["fine"].feasibility.feasible, case


def test_exact_lp_verdicts_equal_the_cycle_facets():
    verdicts = []
    for inst in INSTANCE_LIST:
        depolarizing = inst["noise"].readout_flip is None
        for state in inst["states"]:
            noises = [NoiseModel(), inst["noise"]] if depolarizing else [NoiseModel()]
            for noise in noises:
                run = run_experiment(_config(inst, state, noise=noise))
                facets = _facet_feasible(inst, state, noise.depolarizing_epsilon)
                verdicts.append(facets)
                case = f"{_case(inst, state)}, checked with {noise}"
                assert run.feasibility.feasible == facets, case
    # the instances reach both verdicts, so the check can tell them apart
    assert set(verdicts) == {True, False}
