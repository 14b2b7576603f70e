"""The benchmark's two workloads and the four parts they are made of.

A part builds its inputs from the seed, runs one piece of etklab work
through the public API, and checks it against an oracle that does not share
the code path under test.  A workload is a fixed mix of parts; one op runs
every part of the mix once, in order, so ops are alike.  Why each workload
was chosen is in README.md.

Random streams: part p's set-up uses SeedSequence([seed, p, 0]), its input
for op k uses [seed, p, 1, k + 1] (k = -1 is the warm-up op) and the oracle
of op k samples with [seed, p, 2, k + 1].
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import traceback
from pathlib import Path

import numpy as np

from etklab import cli, etk, learning, mercer, quantum, single_layer
from etklab.feature_maps import LocalFeatureSet, PreprocessingFn
from etklab.tensor_core import LPMPO, MPO

from spans import maybe_span

KERNEL_TOL = 1e-9  # circuit-krr: ETK against statevector, absolute
TWIN_TOL = 1e-10  # tn-krr: LPMPO against its MPO twin, relative
SPECTRUM_TOL = 1e-9  # mercer: generic against closed-form eigenvalues
RECONSTRUCT_TOL = 1e-8  # mercer: eigen-expansion against statevector
ORTHO_TOL = 1e-6  # mercer: eigenfunction Gram against the identity


def _uniform(rng, m: int, dim: int) -> np.ndarray:
    return rng.uniform(-np.pi, np.pi, size=(m, dim))


def _krr(kernel, X, y, X_test):
    """Gram, fit and predict: the op body shared by the two KRR parts."""
    gram = etk.gram_matrix_real(kernel, list(X))
    model = learning.krr_fit(gram, y, learning.default_ridge(gram), X)
    return gram, model.dual_coef, learning.krr_predict(model, kernel, X_test)


class Part:
    """Defaults shared by the parts; ``sizes`` maps "full" and "tiny" (the
    smoke-test size) to the part's parameters, ``stream`` tells the parts'
    random streams apart."""

    stream: int
    oracle_metric = None  # per-layer counter of ops whose oracle check failed
    finish_metric = None  # per-layer counter of failures found by finish()
    sizes: dict = {}

    def setup(self, seed, size, scratch):
        return {"seed": seed, **self.sizes[size]}

    def seeds(self, st, *stream) -> np.random.SeedSequence:
        return np.random.SeedSequence([st["seed"], self.stream, *stream])

    def rng(self, st, *stream) -> np.random.Generator:
        return np.random.default_rng(self.seeds(st, *stream))

    def finish(self, st, done):
        """Run-level checks after the timed phase, given [(k, input, output)]
        of the ops that ran: [(k, message)]."""
        return []

    def close(self, st):
        pass


class CircuitKrr(Part):
    stream = 0
    oracle_metric = "quantum.oracle.failed"
    sizes = {
        # (n qubits, L layers): N = 4, 5 take the dense route, N = 6 ptm
        "full": {"shapes": [(2, 2), (1, 5), (2, 3), (3, 2)], "train": 32, "test": 16},
        "tiny": {"shapes": [(1, 2), (2, 1)], "train": 6, "test": 3},
    }

    def op_input(self, st, k):
        rng = self.rng(st, 1, k + 1)
        cases = []
        for n, layers in st["shapes"]:
            ws = [single_layer.haar_unitary(n, rng) for _ in range(layers)]
            circ = quantum.coordinate_circuit(n, ws)
            dim = circ.data_dim
            X = _uniform(rng, st["train"], dim)
            w = rng.standard_normal(dim) / math.sqrt(dim)
            cases.append((circ, X, np.cos(X @ w), _uniform(rng, st["test"], dim)))
        return cases

    def run_op(self, st, cases):
        out, probes = [], []
        for circ, X, y, X_test in cases:
            kernel = quantum.etk_from_circuit(circ)
            out.append(_krr(kernel, X, y, X_test))
            probes.append((kernel, np.vstack([X, X_test])))
        return out, probes

    def check(self, st, k, cases, out, rec):
        rng = self.rng(st, 2, k + 1)
        failures = []

        def sv(circ, x, x2):
            with maybe_span(rec, "quantum.simulate_kernel"):
                return quantum.simulate_kernel(circ, x, x2)

        for (circ, X, _y, X_test), (gram, alpha, pred) in zip(cases, out):
            m = len(X)
            for i, j in rng.integers(0, m, size=(4, 2)):
                err = abs(gram[i, j] - sv(circ, X[i], X[j]))
                if not err <= KERNEL_TOL:
                    failures.append(f"N={circ.num_sites} gram[{i},{j}] off by {err:.2e}")
            # an entry error of KERNEL_TOL moves a prediction by at most
            # KERNEL_TOL * sum|alpha|
            scale = max(1.0, float(np.abs(alpha).sum()))
            for t in rng.choice(len(X_test), size=min(2, len(X_test)), replace=False):
                expect = sum(a * sv(circ, X_test[t], x) for a, x in zip(alpha, X))
                err = abs(pred[t] - expect)
                if not err <= KERNEL_TOL * scale:
                    failures.append(f"N={circ.num_sites} prediction {t} off by {err:.2e}")
        return failures


class TnKrr(Part):
    stream = 1
    oracle_metric = "tensor_core.oracle.failed"
    sizes = {
        "full": {"sites": 20, "bond": 4, "purification": 2, "data_dim": 4,
                 "train": 32, "test": 16},
        "tiny": {"sites": 4, "bond": 2, "purification": 2, "data_dim": 2,
                 "train": 6, "test": 3},
    }

    def setup(self, seed, size, scratch):
        st = super().setup(seed, size, scratch)
        rng = self.rng(st, 0)
        n, chi, p, dim = st["sites"], st["bond"], st["purification"], st["data_dim"]
        bonds = [1] + [chi] * (n - 1) + [1]
        sites = [rng.standard_normal((bonds[k], 3, p, bonds[k + 1])) for k in range(n)]
        fs = LocalFeatureSet(tuple(
            PreprocessingFn("coordinate", dim, index=k % dim) for k in range(n)
        ))
        # scale every site alike so that K(x, x) averages 1
        probe = etk.etk_from_feature_set(fs, LPMPO(sites), basis="T", psd_verified=True)
        diag = np.mean([etk.evaluate_real(probe, x, x) for x in _uniform(rng, 8, dim)])
        sites = [t * diag ** (-0.5 / n) for t in sites]
        # the MPO twin of C = X X^dagger, site by site: bond chi^2
        twin = [
            np.einsum("arpb,ecpf->aercbf", t, t.conj()).reshape(
                t.shape[0] ** 2, 3, 3, t.shape[3] ** 2
            )
            for t in sites
        ]
        st.update(features=fs, cores=[LPMPO(sites), MPO(twin)])
        return st

    def op_input(self, st, k):
        rng = self.rng(st, 1, k + 1)
        dim = st["data_dim"]
        X = _uniform(rng, st["train"], dim)
        w = rng.standard_normal(dim) / math.sqrt(dim)
        return X, np.cos(X @ w), _uniform(rng, st["test"], dim)

    def run_op(self, st, inp):
        X, y, X_test = inp
        out, probes = [], []
        for core in st["cores"]:
            kernel = etk.etk_from_feature_set(st["features"], core, basis="T",
                                              psd_verified=True)
            out.append(_krr(kernel, X, y, X_test))
            probes.append((kernel, np.vstack([X, X_test])))
        return out, probes

    def check(self, st, k, inp, out, rec):
        X, _y, X_test = inp
        (g_lp, alpha_lp, pred_lp), (g_mpo, _alpha, _pred) = out
        failures = []
        err = np.abs(g_lp - g_mpo).max() / np.abs(g_lp).max()
        if not err <= TWIN_TOL:
            failures.append(f"LPMPO and MPO Gram differ by {err:.2e} relative")
        # LPMPO predictions recomputed on sampled test points with the twin
        twin = etk.etk_from_feature_set(st["features"], st["cores"][1], basis="T")
        rng = self.rng(st, 2, k + 1)
        for t in rng.choice(len(X_test), size=min(2, len(X_test)), replace=False):
            vals = np.array([etk.evaluate_real(twin, X_test[t], x) for x in X])
            expect = vals @ alpha_lp
            scale = max(1.0, float(np.abs(alpha_lp) @ np.abs(vals)))
            err = abs(pred_lp[t] - expect)
            if not err <= TWIN_TOL * scale:
                failures.append(f"prediction {t} off by {err:.2e} against the MPO twin")
        return failures


class Mercer(Part):
    stream = 2
    oracle_metric = "mercer.oracle.failed"
    sizes = {
        # (n, L, data_dim): the first is single-layer, checked in closed form
        "full": {"circuits": [(3, 1, None), (2, 2, 2)]},
        "tiny": {"circuits": [(1, 1, None), (1, 2, 1)]},
    }

    def op_input(self, st, k):
        rng = self.rng(st, 1, k + 1)
        return [
            quantum.coordinate_circuit(
                n, [single_layer.haar_unitary(n, rng) for _ in range(layers)],
                data_dim=dim,
            )
            for n, layers, dim in st["circuits"]
        ]

    def run_op(self, st, circuits):
        return [mercer.mercer_decompose(quantum.etk_from_circuit(c)) for c in circuits], []

    def check(self, st, k, circuits, out, rec):
        failures = []
        (single, multi), ((dec1, _gs1), (dec2, gs2)) = circuits, out
        psi2 = np.abs(single.unitaries[0][:, 0]) ** 2
        closed = np.sort(single_layer.spectrum_arrays(psi2)[0])
        generic = np.sort(dec1.eigenvalues)
        closed, generic = closed[closed > 1e-11], generic[generic > 1e-11]
        if closed.size != generic.size:
            failures.append(f"rank {generic.size} against closed form {closed.size}")
        else:
            err = np.abs(closed - generic).max()
            if not err <= SPECTRUM_TOL:
                failures.append(f"single-layer spectrum off by {err:.2e}")
        rng = self.rng(st, 2, k + 1)
        for x, x2 in _uniform(rng, 6, multi.data_dim).reshape(3, 2, -1):
            rec_k = mercer.reconstruct_kernel(dec2, x, x2)
            with maybe_span(rec, "quantum.simulate_kernel"):
                direct = quantum.simulate_kernel(multi, x, x2)
            if not abs(rec_k - direct) <= RECONSTRUCT_TOL:
                failures.append(f"reconstruction off by {abs(rec_k - direct):.2e}")
        gram = mercer.eigenfunction_gram(dec2, gs2)
        err = np.abs(gram - np.eye(dec2.rank)).max()
        if not err <= ORTHO_TOL:
            failures.append(f"eigenfunction Gram off identity by {err:.2e}")
        return failures


class Learn(Part):
    stream = 3
    finish_metric = "cli.determinism.failed"
    sizes = {
        "full": {"n": 4, "instances": 2, "models": [
            "haar", {"kind": "concentrated", "s": 8}, {"kind": "concentrated", "s": 16},
        ]},
        "tiny": {"n": 2, "instances": 1, "models": [
            "haar", {"kind": "concentrated", "s": 2},
        ]},
    }
    HEADER = "model,instance,m,mse,alignment"

    def setup(self, seed, size, scratch):
        sz = self.sizes[size]
        scratch.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="learn-", dir=scratch))
        config = out / "learn.json"
        config.write_text(json.dumps({
            "experiment": "learn", "seed": 0, "n": sz["n"],
            "models": sz["models"], "instances": sz["instances"],
        }))
        return {"seed": seed, "out": out, "config": config}

    def close(self, st):
        shutil.rmtree(st["out"], ignore_errors=True)

    def op_input(self, st, k):
        return int(self.seeds(st, 1, k + 1).generate_state(1)[0])

    def run_op(self, st, cli_seed):
        argv = ["learn", "--config", str(st["config"]), "--out", str(st["out"]),
                "--seed", str(cli_seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return (code, (st["out"] / "learn.csv").read_bytes()), []

    def check(self, st, k, cli_seed, out, rec):
        code, csv = out
        if code != 0:
            return [f"cli exit code {code}"]
        if rec is not None:
            rec.count("tables.csv_bytes", len(csv))
        lines = csv.decode().splitlines()
        if not lines or lines[0] != self.HEADER or len(lines) < 2:
            return ["learn CSV has no header or no rows"]
        mse = np.array([float(line.split(",")[3]) for line in lines[1:]])
        if not (np.all(np.isfinite(mse)) and np.all(mse >= 0)):
            return ["learn CSV has a negative or non-finite mse"]
        return []

    def finish(self, st, done):
        """Re-run the first timed op's seed: the CSV must be byte-identical."""
        first = next(((k, inp, out) for k, inp, out in done if k == 0), None)
        if first is None:
            return []
        k, cli_seed, (_code, csv) = first
        (_code, again), _ = self.run_op(st, cli_seed)
        if again != csv:
            return [(k, "re-run of the same seed gave a different CSV")]
        return []


class Workload:
    """A named mix of parts.  One op runs every part once, in order; the
    op's input, output and state are lists with one entry per part."""

    def __init__(self, name: str, *parts: Part):
        self.name, self.parts = name, parts
        self.counters = [
            m for p in parts for m in (p.oracle_metric, p.finish_metric) if m
        ]

    def setup(self, seed, size, scratch):
        return [p.setup(seed, size, scratch) for p in self.parts]

    def op_input(self, st, k):
        return [p.op_input(s, k) for p, s in zip(self.parts, st)]

    def run_op(self, st, inp):
        out, probes = [], []
        for p, s, i in zip(self.parts, st, inp):
            o, pr = p.run_op(s, i)
            out.append(o)
            probes += pr
        return out, probes

    def check(self, st, k, inp, out, rec):
        """Oracle failures of one op: [(counter or None, message)].  A check
        that raises counts as a failure of its part."""
        found = []
        for p, s, i, o in zip(self.parts, st, inp, out):
            try:
                msgs = p.check(s, k, i, o, rec)
            except Exception:
                msgs = [traceback.format_exc()]
            found += [(p.oracle_metric, msg) for msg in msgs]
        return found

    def finish(self, st, ops):
        """Run-level failures: [(op index, counter, message)]."""
        found = []
        for n, (p, s) in enumerate(zip(self.parts, st)):
            done = [(op.k, op.inp[n], op.out[n]) for op in ops if op.error is None]
            found += [(k, p.finish_metric, msg) for k, msg in p.finish(s, done)]
        return found

    def close(self, st):
        for p, s in zip(self.parts, st):
            p.close(s)


# krr: kernel evaluation and KRR on circuit (dense) and tensor-network cores;
# spectra: Mercer decomposition and the learning-curve CLI.  Each bypasses
# the other's dominant layers; README.md gives the layer mapping.
WORKLOADS = {w.name: w for w in (
    Workload("krr", CircuitKrr(), TnKrr()),
    Workload("spectra", Mercer(), Learn()),
)}
