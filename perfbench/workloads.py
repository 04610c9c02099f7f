"""The three routes as benchmark workloads.

Each workload builds a fixed pool of inputs from a seed (entry k depends
only on the seed and k), then operation i is one call into a public
entroctx entry point on pool entry i mod pool size. `call` is the timed
part; `check` verifies that operation's output and raises CheckFailed
when it is wrong. Inputs are built with the benchmark's own numpy code
wherever the expected answer must not depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Exact witness values at the two preset points, from the roadmap baseline.
ANCHORS = {
    "s1": {"coarse": -2.490998900332, "fine": -0.615637551562},
    "s2": {"coarse": -2.321121317386, "fine": -1.486227655631},
}
OBSERVABLE_SET = {"s1": "table1", "s2": "table2"}
SHOTS = 8192


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _pair_indicators(n: int) -> np.ndarray:
    """(4n, 2^n) 0/1 rows: assignment gives pair (i, i+1) outcome (a, b).

    Rows run over the cycle pairs (1,2), ..., (n,1) and, within a pair,
    over (+,+), (+,-), (-,+), (-,-); assignment k gives observable j
    (0-based) the value -1 when bit n-1-j of k is set.
    """
    k = np.arange(2**n)[:, None]
    values = 1 - 2 * ((k >> (n - 1 - np.arange(n))) & 1)
    rows = []
    for i in range(n):
        j = (i + 1) % n
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            rows.append((values[:, i] == a) & (values[:, j] == b))
    return np.array(rows, dtype=float)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p @ np.log2(p)))


class Workload:
    """A fixed pool of seeded inputs; entry k depends only on (seed, k)."""

    pool_size = 1
    # Operations that cover the workload's input mix once; runs stop on a
    # round boundary and throughput is taken per round.
    round_size = 1

    def __init__(self, ec, seed: int, workdir: Path, size: int | None = None) -> None:
        self.ec = ec
        self.seed = seed
        self.workdir = workdir
        self.pool = [self.make(k) for k in range(size or self.pool_size)]
        self.digest = _digest(part for entry in self.pool for part in self.digest_parts(entry))

    def rng(self, *key: int):
        # SeedSequence takes non-negative entries; fold any int into 64 bits.
        return np.random.default_rng([self.seed % 2**64, *key])

    def items(self, k: int) -> int:
        return 1


class ExactWorkload(Workload):
    """One `sweep` over a seeded 6x6 grid that contains the preset point.

    Even operations sweep family s1 over table1, odd ones s2 over table2.
    """

    name = "exact"
    item = "grid point"
    pool_size = 128
    round_size = 2

    def make(self, k: int):
        family = ("s1", "s2")[k % 2]
        spec = self.ec.preset_config(family).state
        rng = self.rng(1, k)
        alphas = np.sort(np.append(rng.uniform(-np.pi, np.pi, 5), spec.alpha))
        betas = np.sort(np.append(rng.uniform(-np.pi, np.pi, 5), spec.beta))
        return family, alphas, betas

    @staticmethod
    def digest_parts(entry):
        return entry

    def items(self, k: int) -> int:
        _, alphas, betas = self.pool[k]
        return alphas.size * betas.size

    def call(self, k: int):
        family, alphas, betas = self.pool[k]
        return self.ec.sweep(family, alphas, betas, OBSERVABLE_SET[family])

    def check(self, k: int, rows) -> None:
        family, alphas, betas = self.pool[k]
        grid = {(float(a), float(b)) for a in alphas for b in betas}
        _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} points")
        _require({(r[0], r[1]) for r in rows} == grid, "rows do not cover the grid")
        _require(
            all(math.isfinite(r[2]) and math.isfinite(r[3]) for r in rows),
            "non-finite M in a row",
        )
        spec = self.ec.preset_config(family).state
        preset = [r for r in rows if r[0] == spec.alpha and r[1] == spec.beta]
        _require(len(preset) == 1, f"{len(preset)} rows at the {family} preset point")
        row = preset[0]
        for value, convention in ((row[2], "coarse"), (row[3], "fine")):
            anchor = ANCHORS[family][convention]
            _require(
                abs(value - anchor) <= 1e-11,
                f"{family} {convention} M {value!r} != anchor {anchor}",
            )
        _require(row[4] is True, f"{family} preset point not LP-feasible")


class OracleWorkload(Workload):
    """One `lp_feasibility` call (the nc-check path) per operation.

    Every block of 50 instances holds the same mix, in a seeded order, so
    any run length sees the same share of sizes and kinds. Both presets,
    every demo and every test solve n = 5, so 48 of the 50 are n = 5:
    half feasible and half infeasible (nc-check is a yes/no oracle, and
    the two verdicts end the simplex differently), split evenly over the
    constructions of each verdict. That is 12 random noncontextual models
    and 12 sampled marginals of such models at the 8192-shot tolerance
    (feasible); 8 noise-crushed preset sets with M > 0, 8 odd-sign
    correlator cycles and 8 pair sets that disagree on a shared single
    (infeasible). One random model at n = 7 and one at n = 9, the fewest
    that put every size in every block, keep the simplex's growth with n
    in view; a custom observable set can have any length.
    """

    name = "oracle"
    item = "LP instance"
    pool_size = 6000
    mix = (
        ("random", 5, 12),
        ("sampled", 5, 12),
        ("crushed", 5, 8),
        ("odd_cycle", 5, 8),
        ("disagree", 5, 8),
        ("random", 7, 1),
        ("random", 9, 1),
    )
    slots = tuple((kind, n) for kind, n, count in mix for _ in range(count))
    round_size = len(slots)

    def __init__(self, ec, seed: int, workdir: Path, size: int | None = None) -> None:
        self.labels = ec.coarse_labels(2)
        self.indicators = {n: _pair_indicators(n) for n in (5, 7, 9)}
        self._fine_cache = {}
        super().__init__(ec, seed, workdir, size)

    @staticmethod
    def digest_parts(inst):
        return (inst["kind"], inst["n"], inst["tol"], inst["feasible"]), inst["p"]

    # -- instance construction ----------------------------------------------

    def make(self, k: int) -> dict:
        block, slot = divmod(k, len(self.slots))
        kind, n = self.slots[self.rng(2, block).permutation(len(self.slots))[slot]]
        rng = self.rng(2, block, slot)
        tol = 1e-9
        if kind == "random":
            p = self.indicators[n] @ rng.dirichlet(np.ones(2**n))
            feasible = True
        elif kind == "sampled":
            p, tol = self._sampled(rng)
            feasible = True
        elif kind == "crushed":
            p = self._crushed(rng)
            feasible = False
        elif kind == "odd_cycle":
            p = self._odd_cycle(n, rng)
            feasible = False
        else:
            p = self._disagree(n, rng)
            feasible = False
        pairs = {
            (i, i % n + 1): self.ec.OutcomeDistribution(self.labels, p[4 * (i - 1) : 4 * i])
            for i in range(1, n + 1)
        }
        return {"kind": kind, "n": n, "tol": tol, "feasible": feasible, "p": p, "pairs": pairs}

    def _sampled(self, rng):
        # The generating model violates the sampled marginals by at most
        # the summed deviation, so a deviation within the tolerance
        # guarantees the LP optimum is within it too.
        tol = self.ec.lp_tolerance_for(5, SHOTS)
        while True:
            true = self.indicators[5] @ rng.dirichlet(np.ones(32))
            drawn = np.concatenate(
                [rng.multinomial(SHOTS, true[r : r + 4] / true[r : r + 4].sum()) for r in range(0, 20, 4)]
            ) / SHOTS
            if np.abs(drawn - true).sum() <= tol:
                return drawn, tol

    def _crushed(self, rng):
        # Readout crushing on every context but the closing pair, which is
        # depolarized: the acceptance-06 construction with seeded strengths.
        # M > 0 is impossible for any noncontextual model.
        ec = self.ec
        preset = ("s1", "s2")[int(rng.integers(2))]
        fine = self._fine(preset)
        while True:
            q = rng.uniform(0.0, 0.3)
            crush = ec.NoiseModel(readout_flip=((1.0, 0.0), (1.0 - q, q)))
            wrap = ec.NoiseModel(depolarizing_epsilon=rng.uniform(0.6, 1.0))
            h_singles, h_pairs, p = [], {}, []
            for kind, key, ctx, dist in fine:
                coarse = ec.coarsen(ec.apply_noise(dist, wrap if key == (5, 1) else crush), ctx)
                if kind == "single":
                    h_singles.append(_entropy(coarse.probs))
                else:
                    h_pairs[key] = _entropy(coarse.probs)
                    p.append(coarse.probs)
            chain = sum(h_pairs[(i, i + 1)] for i in range(1, 5))
            if h_pairs[(5, 1)] - chain + sum(h_singles) > 1e-6:
                return np.concatenate(p)

    def _fine(self, preset: str):
        if preset not in self._fine_cache:
            ec = self.ec
            config = ec.preset_config(preset)
            state = ec.prepare_state(config.state)
            observables = ec.resolve_observables(config.observable_set)
            self._fine_cache[preset] = [
                (kind, key, ctx, ec.joint_distribution_fine(state, ctx))
                for kind, key, ctx in ec.cycle_contexts(observables, "fine")
            ]
        return self._fine_cache[preset]

    @staticmethod
    def _odd_cycle(n: int, rng):
        # Unbiased singles, correlators gamma_i * c with an odd number of
        # negative signs: sum_i gamma_i E_i = n c > n - 2 breaks an
        # n-cycle facet (Araujo et al., PRA 88, 022118) for c > 0.75.
        gamma = np.ones(n)
        flips = rng.choice(n, size=2 * int(rng.integers((n + 1) // 2)) + 1, replace=False)
        gamma[flips] = -1.0
        c = rng.uniform(0.8, 1.0)
        ab = np.array([1.0, -1.0, -1.0, 1.0])
        return np.concatenate([(1.0 + ab * g * c) / 4.0 for g in gamma])

    def _disagree(self, n: int, rng):
        # Move mass inside one pair so its second observable's marginal
        # differs from the one implied by the next pair.
        p = self.indicators[n] @ rng.dirichlet(np.ones(2**n))
        r = 4 * int(rng.integers(n))
        src = r + (1 if p[r + 1] >= p[r + 3] else 3)
        delta = 0.5 * p[src]
        p[src] -= delta
        p[src - 1] += delta
        return p

    # -- operation -----------------------------------------------------------

    def call(self, k: int):
        inst = self.pool[k]
        return self.ec.lp_feasibility(inst["pairs"], inst["n"], inst["tol"])

    def check(self, k: int, result) -> None:
        inst = self.pool[k]
        _require(
            result.feasible == inst["feasible"],
            f"{inst['kind']} n={inst['n']}: verdict {result.feasible}, built {inst['feasible']}",
        )
        if not inst["feasible"]:
            return
        _require(result.witness is not None, "feasible verdict without a witness")
        if inst["tol"] > 1e-9:
            return
        w = np.asarray(result.witness.weights, dtype=float)
        residual = max(
            float(np.abs(self.indicators[inst["n"]] @ w - inst["p"]).max()),
            abs(float(w.sum()) - 1.0),
            max(0.0, -float(w.min())),
        )
        _require(residual <= 2e-9, f"witness residual {residual:.3e} > 2e-9")


class MeasuredWorkload(Workload):
    """One measured-data job: sample to files, ingest, fit noise, reconcile.

    Jobs cycle through preset x convention; coarse jobs carry depolarizing
    noise, fine jobs depolarizing plus per-qubit readout confusion.
    """

    name = "measured"
    item = "measured-data job"
    pool_size = 64
    round_size = 4

    def make(self, k: int) -> dict:
        rng = self.rng(3, k)
        convention = ("coarse", "fine")[k % 2]
        flip = None
        if convention == "fine":
            f0, f1 = rng.uniform(0.01, 0.05, 2)
            flip = ((1.0 - f0, f0), (f1, 1.0 - f1))
        return {
            "preset": ("s1", "s2")[k // 2 % 2],
            "convention": convention,
            "seed": int(rng.integers(2**31)),
            "epsilon": float(rng.uniform(0.02, 0.1)),
            "readout_flip": flip,
        }

    @staticmethod
    def digest_parts(spec):
        return (spec,)

    def _config(self, k: int):
        spec = self.pool[k]
        flip = spec["readout_flip"]
        noise = self.ec.NoiseModel(spec["epsilon"], flip)
        return self.ec.preset_config(
            spec["preset"],
            convention=spec["convention"],
            shots=SHOTS,
            seed=spec["seed"],
            noise=noise,
        )

    def call(self, k: int):
        ec = self.ec
        config = self._config(k)
        paths = ec.write_sampled_counts(config, self.workdir / "counts")
        ingested = ec.ingest_counts_files(paths, config.observable_set)
        # fit-noise: exact distributions of the run's convention against
        # the ingested entropies, in context order, as the CLI does it.
        state = ec.prepare_state(config.state)
        distribution = (
            ec.joint_distribution_fine
            if config.convention == "fine"
            else ec.joint_distribution_coarse
        )
        dists, targets = [], []
        report = ingested.report
        for kind, key, ctx in ec.cycle_contexts(
            ec.resolve_observables(config.observable_set), config.convention
        ):
            dists.append(distribution(state, ctx))
            targets.append(report.h_singles[key] if kind == "single" else report.h_pairs[key])
        fit = ec.fit_depolarizing(dists, targets)
        return paths, ingested, fit, ec.reproduce_reference()

    def check(self, k: int, output) -> None:
        paths, ingested, fit, reference = output
        run = self.ec.run_experiment(self._config(k))
        gap = abs(ingested.report.m_value - run.report.m_value)
        _require(gap <= 1e-12, f"ingested M differs from the run's M by {gap:.3e}")
        for path in paths:
            counts = json.loads(Path(path).read_text())["counts"]
            _require(sum(counts.values()) == SHOTS, f"{path} counts do not sum to {SHOTS}")
        _require(0.0 <= fit.epsilon <= 1.0, f"fitted epsilon {fit.epsilon} outside [0, 1]")
        _require(math.isfinite(fit.residual), "non-finite fit residual")
        _require(
            any(f.startswith("DISCREPANCY: run s1") for f in reference["flags"]),
            "s1 DISCREPANCY not flagged",
        )
        _require(reference["runs"]["s1"]["consistent"] is False, "s1 reported consistent")
        _require(reference["runs"]["s2"]["consistent"] is True, "s2 reported inconsistent")


WORKLOADS = {w.name: w for w in (ExactWorkload, OracleWorkload, MeasuredWorkload)}
