"""End-to-end acceptance criteria.

Each test prints exactly one `criterion NN: PASS|FAIL` line (visible with
pytest -s, or in captured output on failure) and asserts the criterion.
"""

import math
import time
from functools import reduce

import numpy as np
import pytest

from conftest import hadamard_circuit, random_circuit
from etklab.etk import (
    etk_from_feature_set,
    evaluate_real,
    feature_matrix,
    linear_sum_etk,
    polynomial_etk,
    shift_invariant_etk,
)
from etklab.learning import default_schedule, learning_comparison_experiment
from etklab.mercer import (
    eigenfunction_gram,
    mercer_decompose,
    reconstruct_kernel,
)
from etklab.quantum import (
    build_core_CT,
    coordinate_circuit,
    etk_from_circuit,
    simulate_kernel,
)
from etklab.single_layer import (
    HAAR_MODEL,
    eigenvalue_scaling_experiment,
    haar_unitary,
    instance_rng,
    sample_psi2,
    single_layer_spectrum,
    spectrum_arrays,
    spectrum_to_mercer,
)
from etklab.tensor_core import (
    MPO,
    SiteStructure,
    kron_rows,
    min_eig_ratio,
    mpo_from_dense,
    mpo_to_dense,
    sandwich_contract,
)
from oracles import dense_core_CT
from test_mercer import random_trig_etk

_csv_cache = {}


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} — {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def kernel_values(kernel, X, X2):
    """Pairwise ETK values K(X[p], X2[p]) via the dense core, on the batched
    feature matrices of both point lists."""
    f1 = kron_rows(feature_matrix(kernel, X))
    f2 = kron_rows(feature_matrix(kernel, X2))
    return ((f1.conj() @ kernel.dense_core()) * f2).sum(1)


@pytest.fixture(scope="module")
def circuit_sweep():
    """50 random circuits with their extracted cores (criteria 1 and 2)."""
    rng = np.random.default_rng(20260823)
    sweep = []
    for i in range(25):  # dense oracle: n <= 2, L <= 2
        n = 1 + i % 2
        layers = 1 + (i // 2) % 2
        circ = random_circuit(n, layers, rng)
        sweep.append((circ, "dense"))
    for i in range(25):  # production extraction: n <= 3, L = 2
        n = 2 + i % 2
        circ = random_circuit(n, 2, rng)
        sweep.append((circ, "ptm"))
    out = []
    for circ, route in sweep:
        if route == "dense":
            ct = dense_core_CT(circ)
            kernel = etk_from_feature_set(
                circ.feature_set(), ct.astype(complex), basis="T", psd_verified=True
            )
        else:
            ct = build_core_CT(circ)
            kernel = etk_from_circuit(circ)
        out.append((circ, route, ct, kernel))
    return out


def test_criterion_01_etk_equals_quantum(circuit_sweep):
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst = 0.0
    for circ, _route, _ct, kernel in circuit_sweep:
        X = rng.uniform(-np.pi, np.pi, (200, circ.data_dim))
        X2 = rng.uniform(-np.pi, np.pi, (200, circ.data_dim))
        vals = kernel_values(kernel, X, X2)
        assert np.abs(vals.imag).max() < 1e-9
        oracle = np.array(
            [simulate_kernel(circ, x, x2) for x, x2 in zip(X, X2)]
        )
        worst = max(worst, np.abs(vals.real - oracle).max())
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-9 and elapsed <= 600,
        f"max |ETK - statevector| = {worst:.3e} over 50 circuits x 200 pairs "
        f"({elapsed:.1f}s)",
    )


def test_criterion_02_core_structure(circuit_sweep):
    worst_imag = worst_sym = 0.0
    worst_eig = 0.0
    for _circ, _route, ct, _kernel in circuit_sweep:
        worst_imag = max(worst_imag, float(np.abs(np.imag(ct)).max()))
        worst_sym = max(worst_sym, float(np.abs(ct - ct.T).max()))
        worst_eig = min(worst_eig, min_eig_ratio(ct.astype(complex)))
    ok = worst_imag <= 1e-10 and worst_sym <= 1e-10 and worst_eig >= -1e-10
    report(
        2,
        ok,
        f"max|Im|={worst_imag:.1e}, max asym={worst_sym:.1e}, "
        f"min eig/trace={worst_eig:.1e}",
    )


def test_criterion_03_hadamard_closed_form():
    circ = hadamard_circuit()
    ct = dense_core_CT(circ)
    core_err = np.abs(ct - np.eye(3)).max()
    kernel = etk_from_circuit(circ)
    grid = np.linspace(-np.pi, np.pi, 100)
    worst = 0.0
    for i, x in enumerate(grid):
        x2 = grid[(i * 37) % 100]
        expect = (1.0 + np.cos(x - x2)) / 2.0
        got = evaluate_real(kernel, np.array([x]), np.array([x2]))
        worst = max(worst, abs(got - expect))
    ok = core_err <= 1e-10 and worst <= 1e-10
    report(
        3,
        ok,
        f"|C_T - I3| = {core_err:.1e}, closed-form error {worst:.1e} on 100 points",
    )


def test_criterion_04_mercer_pipeline():
    rng = np.random.default_rng(4)
    worst_rec = worst_gram = 0.0
    kernels = [random_trig_etk(rng) for _ in range(20)]
    circuits = [random_circuit(2, 2, rng, data_dim=2) for _ in range(10)]
    quantum_kernels = [etk_from_circuit(c) for c in circuits]
    for kernel in kernels + quantum_kernels:
        dec, gs = mercer_decompose(kernel)
        d = kernel.data_dim
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, d)
            x2 = rng.uniform(-np.pi, np.pi, d)
            rec = reconstruct_kernel(dec, x, x2)
            direct = kernel_values(kernel, x[None, :], x2[None, :])[0]
            worst_rec = max(worst_rec, abs(rec - direct))
        g = eigenfunction_gram(dec, gs)
        worst_gram = max(worst_gram, np.abs(g - np.eye(dec.rank)).max())
    ok = worst_rec <= 1e-8 and worst_gram <= 1e-6
    report(
        4,
        ok,
        f"30 kernels: max reconstruction err {worst_rec:.1e}, "
        f"max eigenfunction Gram deviation {worst_gram:.1e}",
    )


def test_criterion_05_single_layer_vs_generic():
    rng = np.random.default_rng(5)
    worst_spec = worst_mass = 0.0
    cases = [(1, 3), (2, 4), (3, 3)]  # (n, number of random W)
    for n, reps in cases:
        for _ in range(reps):
            w = haar_unitary(n, rng)
            psi2 = np.abs(w[:, 0]) ** 2
            terms = single_layer_spectrum(psi2)
            worst_mass = max(
                worst_mass, abs(sum(t.eigenvalue for t in terms) - 1.0)
            )
            closed = np.sort(spectrum_to_mercer(terms).eigenvalues)
            dec, _ = mercer_decompose(etk_from_circuit(coordinate_circuit(n, [w])))
            generic = np.sort(dec.eigenvalues)
            closed_nz = closed[closed > 1e-11]
            generic_nz = generic[generic > 1e-11]
            assert closed_nz.size == generic_nz.size
            worst_spec = max(
                worst_spec, np.abs(closed_nz - generic_nz).max()
            )
    ok = worst_spec <= 1e-9 and worst_mass <= 1e-12
    report(
        5,
        ok,
        f"10 random W, n<=3: spectrum agreement {worst_spec:.1e}, "
        f"mass deviation {worst_mass:.1e}",
    )


def test_criterion_06_haar_scaling():
    t0 = time.time()
    table = eigenvalue_scaling_experiment(range(2, 8), [HAAR_MODEL], 30, 600)
    _csv_cache["haar_scaling"] = table.to_csv()
    means = {
        int(r[1]): r[4] for r in table.rows if r[2] == "aggregate"
    }
    in_band = all(
        0.5 * 2.0**-n <= means[n] <= 2.0 * 2.0**-n for n in range(2, 8)
    )
    ratios = [means[n + 1] / means[n] for n in range(2, 7)]
    ratios_ok = all(0.4 <= r <= 0.6 for r in ratios)
    elapsed = time.time() - t0
    ok = in_band and ratios_ok and elapsed <= 300
    report(
        6,
        ok,
        f"means in [0.5,2]x2^-n: {in_band}; consecutive ratios "
        f"{[f'{r:.2f}' for r in ratios]} in [0.4,0.6]: {ratios_ok} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_07_concentrated_scaling():
    seed = 700
    details = []
    band_ok = variation_ok = count_ok = True
    for model_idx, s in enumerate((4, 16, 64)):
        model = {"kind": "concentrated", "s": s, "eps": 0.001}
        n_lo = max(math.ceil(math.log2(s)), 3)
        means = {}
        for n in range(n_lo, 8):
            largest, counts = [], []
            for inst in range(30):
                rng = instance_rng(seed, model_idx, n, inst)
                psi2 = sample_psi2(model, n, rng)
                eig, _ = spectrum_arrays(psi2)
                largest.append(eig.max())
                counts.append(int(np.sum(eig >= eig.max() / 2.0)))
            means[n] = float(np.mean(largest))
            if max(counts) > s * s:
                count_ok = False
        target = 1.0 / s**2
        lo, hi = min(means.values()), max(means.values())
        this_band = all(target / 4.0 <= m <= 4.0 * target for m in means.values())
        this_var = hi / lo < 2.0
        band_ok &= this_band
        variation_ok &= this_var
        details.append(
            f"s={s}: mean range [{lo:.3g},{hi:.3g}] vs 1/s^2={target:.3g} "
            f"(x4 band {'ok' if this_band else 'VIOLATED'}), "
            f"variation x{hi / lo:.2f}"
        )
    ok = band_ok and variation_ok and count_ok
    report(
        7,
        ok,
        "; ".join(details) + f"; half-max counts <= s^2: {count_ok}",
    )


def test_criterion_08_learning_curves():
    t0 = time.time()
    models = [
        HAAR_MODEL,
        {"kind": "concentrated", "s": 8},
        {"kind": "concentrated", "s": 16},
    ]
    table = learning_comparison_experiment(4, models, 30, 800)
    _csv_cache["learning"] = table.to_csv()
    # mean test MSE per (model, m)
    by_model = {}
    for label, _inst, m, mse, _a in table.rows:
        by_model.setdefault(label, {}).setdefault(m, []).append(mse)
    schedule = sorted(next(iter(by_model.values())))
    full_train = max(schedule)
    m_half = min(schedule, key=lambda m: abs(m - full_train / 2))
    means = {
        label: {m: float(np.mean(v)) for m, v in per_m.items()}
        for label, per_m in by_model.items()
    }
    haar_half = means["haar"][m_half]
    comparative = all(
        means[f"concentrated_s{s}"][m_half] <= 0.5 * haar_half for s in (8, 16)
    )
    monotone = all(
        means[label][full_train] <= means[label][min(schedule)]
        for label in means
    )
    elapsed = time.time() - t0
    ok = comparative and monotone and elapsed <= 1800
    report(
        8,
        ok,
        f"at m={m_half}: haar MSE {haar_half:.3e}, "
        f"s=8 {means['concentrated_s8'][m_half]:.3e}, "
        f"s=16 {means['concentrated_s16'][m_half]:.3e}; "
        f"full<=smallest: {monotone} ({elapsed:.1f}s)",
    )


def test_criterion_09_constructors():
    rng = np.random.default_rng(9)
    worst = 0.0
    poly = polynomial_etk(3, 0.7, 3)
    for _ in range(1000):
        x, x2 = rng.standard_normal(3), rng.standard_normal(3)
        expect = (0.7 + x @ x2) ** 3
        worst = max(
            worst,
            abs(evaluate_real(poly, x, x2) - expect) / max(abs(expect), 1.0),
        )
    constituents = [polynomial_etk(k, 0.4, 2) for k in (1, 2, 3)]
    weights = [0.5, 1.2, 0.8]
    lin = linear_sum_etk(constituents, weights)
    for _ in range(1000):
        x, x2 = rng.standard_normal(2), rng.standard_normal(2)
        expect = sum(
            w * evaluate_real(k, x, x2) for w, k in zip(weights, constituents)
        )
        worst = max(
            worst,
            abs(evaluate_real(lin, x, x2) - expect) / max(abs(expect), 1.0),
        )
    coeffs = rng.uniform(0.0, 1.0, 5)
    shift = shift_invariant_etk(coeffs)
    for _ in range(1000):
        x = rng.uniform(-np.pi, np.pi, 1)
        x2 = rng.uniform(-np.pi, np.pi, 1)
        delta = x[0] - x2[0]
        expect = coeffs[0] + sum(
            coeffs[j] * np.cos(j * delta) for j in range(1, 5)
        )
        worst = max(
            worst,
            abs(evaluate_real(shift, x, x2) - expect) / max(abs(expect), 1.0),
        )
    report(9, worst <= 1e-10, f"3000 randomized evaluations, worst rel err {worst:.1e}")


def test_criterion_10_mpo_scaling():
    rng = np.random.default_rng(10)
    d, chi = 3, 4

    def random_core(n):
        bonds = [1] + [chi] * (n - 1) + [1]
        return MPO(
            [
                rng.standard_normal((bonds[k], d, d, bonds[k + 1]))
                for k in range(n)
            ]
        )

    cases = {}
    for n in (10, 20, 40, 80):
        core = random_core(n)
        cases[n] = core, [rng.standard_normal(d) for _ in range(n)]
    # best of 5 repeats of 20 calls; every repeat times all sizes in turn, so
    # a slow spell of the host hits every size alike
    times = dict.fromkeys(cases, np.inf)
    for _ in range(5):
        for n, (core, locals_) in cases.items():
            t0 = time.perf_counter()
            for _ in range(20):
                sandwich_contract(locals_, core, locals_)
            times[n] = min(times[n], time.perf_counter() - t0)
    linear_ok = all(
        times[n] <= 1.5 * (n / 10) * times[10] for n in (20, 40, 80)
    )
    # dense agreement on a materializable size
    core5 = random_core(5)
    locals5 = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(5)]
    dense = mpo_to_dense(core5)
    big_bra = reduce(np.kron, locals5).conj()
    big_ket = reduce(np.kron, locals5)
    expect = big_bra @ dense @ big_ket
    got = sandwich_contract(locals5, core5, locals5)
    dense_ok = abs(got - expect) <= 1e-10 * max(abs(expect), 1.0)
    ok = linear_ok and dense_ok
    report(
        10,
        ok,
        "times per N "
        + str({n: f"{t * 1e3:.2f}ms" for n, t in times.items()})
        + f", linear x1.5: {linear_ok}, dense match: {dense_ok}",
    )


def test_criterion_11_determinism():
    # re-run the CSV-producing acceptance experiments with the same seeds
    table6 = eigenvalue_scaling_experiment(range(2, 8), [HAAR_MODEL], 30, 600)
    models = [
        HAAR_MODEL,
        {"kind": "concentrated", "s": 8},
        {"kind": "concentrated", "s": 16},
    ]
    table8 = learning_comparison_experiment(4, models, 30, 800)
    same6 = table6.to_csv() == _csv_cache.get("haar_scaling")
    same8 = table8.to_csv() == _csv_cache.get("learning")
    report(
        11,
        same6 and same8,
        f"byte-identical re-runs: scaling {same6}, learning {same8}",
    )
