"""Acceptance suite: every stated bound, verified at its stated tolerance.

Each test prints one line, so running with `pytest -s` gives a one-line
pass/fail summary per criterion. Runtime limits are part of the criteria
and are asserted.
"""
import time

import numpy as np
import scipy.linalg

from qsprep.amplifier import amplify, build_projectors, plan_amplification
from qsprep.blockenc import (
    BlockEncoding,
    extract_block,
    qsvt_circuit,
    reflection_encoding,
    sine_block_encoding,
)
from qsprep.oracle import AmplitudeOracle, phase_unitary, phase_unitary_direct
from qsprep.phases import (
    PhaseSequence,
    find_phases,
    polynomial_from_phases,
    reconstruct,
)
from qsprep.pipeline import PrepConfig, grover_case, verify_error_bounds
from qsprep.polyapprox import (
    Polynomial,
    arcsin_target,
    complete_to_complex,
    evaluate,
)
from qsprep.simulator import (
    StateVector,
    UnitaryMatrix,
    fidelity,
    op_dist,
    project_measure,
)


def report(number, passed, detail, elapsed, limit):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"[criterion {number}] {status} - {detail} (t={elapsed:.1f}s < {limit}s)")
    assert passed, detail
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeded {limit}s"


def diag_unitary(hvals):
    hvals = np.asarray(hvals, dtype=float)
    return UnitaryMatrix(np.diag(np.exp(1j * np.pi * hvals)))


def restricted_phases(rng, d):
    return PhaseSequence(
        rng.uniform(0.3 * np.pi, 0.7 * np.pi, d) * rng.choice([-1.0, 1.0], d)
    )


def test_criterion_1_sine_encoding_exactness():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        h = rng.uniform(-0.95, 0.95, 2**n)
        be = sine_block_encoding(diag_unitary(h))
        worst = max(worst, op_dist(extract_block(be), np.diag(np.sin(np.pi * h))))
    report(1, worst <= 1e-10, f"sine-encoding block error {worst:.2e} <= 1e-10",
           time.time() - start, 10)


def test_criterion_2_arcsin_approximation():
    start = time.time()
    worst_ratio_by_delta = {}
    ok = True
    detail = []
    # the polynomial the pipeline's transform realizes, economized on the
    # interval [-1 + delta, 1 - delta] where the bound is checked
    for delta in (0.1, 0.29):
        ratios = []
        for eps in (1e-2, 1e-4, 1e-6):
            p = arcsin_target(eps, delta)
            xs = np.linspace(-1 + delta, 1 - delta, 10_000)
            err = np.abs(evaluate(p, xs).real - np.arcsin(xs) / np.pi).max()
            ok = ok and err <= eps
            ratios.append(p.degree / np.log(1.0 / eps))
        worst_ratio_by_delta[delta] = max(ratios)
        ok = ok and max(ratios) <= 2.0 / delta
        detail.append(f"delta={delta}: max degree/log(1/eps) = {max(ratios):.2f}")
    report(2, ok, "; ".join(detail), time.time() - start, 30)


def test_criterion_3_qsp_reconstruction():
    start = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    degrees = list(rng.integers(1, 61, size=10))
    for d in degrees:
        target = polynomial_from_phases(restricted_phases(rng, int(d)))
        phi = find_phases(target)
        xs = np.cos(np.pi * (np.arange(max(4 * int(d), 32)) + 0.5) / max(4 * int(d), 32))
        worst = max(worst, np.abs(reconstruct(phi, xs) - evaluate(target, xs)).max())
    for d in rng.integers(2, 61, size=10):
        d = int(d)
        c = rng.standard_normal(d + 1) * 0.7 ** np.arange(d + 1)
        c[(1 if d % 2 == 0 else 0)::2] = 0.0
        xs_full = np.linspace(-1, 1, 4001)
        from numpy.polynomial import chebyshev as cheb

        sup = np.abs(cheb.chebval(xs_full, c)).max()
        pr = Polynomial(c / sup * 0.9, "even" if d % 2 == 0 else "odd")
        target = complete_to_complex(pr)
        phi = find_phases(target)
        xs = np.cos(np.pi * (np.arange(4 * d) + 0.5) / (4 * d))
        worst = max(worst, np.abs(reconstruct(phi, xs) - evaluate(target, xs)).max())
    report(3, worst <= 1e-7, f"20 polynomials (deg <= 60): worst residual {worst:.2e} <= 1e-7",
           time.time() - start, 60)


def test_criterion_4_qsvt_eigenvalue_transform():
    start = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(1, 5))
        evals = rng.uniform(-0.95, 0.95, 2**n)
        d = int(rng.integers(2, 13))
        phi = restricted_phases(rng, d)
        poly = polynomial_from_phases(phi)
        be = reflection_encoding(np.diag(evals))
        out = qsvt_circuit(be, phi, "even" if d % 2 == 0 else "odd")
        err = np.abs(np.diag(extract_block(out)) - evaluate(poly, evals)).max()
        worst = max(worst, err)
    report(4, worst <= 1e-8, f"eigenvalue-transform error {worst:.2e} <= 1e-8 (both parities)",
           time.time() - start, 60)


def test_criterion_5_qsvt_robustness():
    start = time.time()
    rng = np.random.default_rng(105)
    ok = True
    worst_margin = 0.0
    for eps in (1e-6, 1e-4):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            dim = 2**n
            evals = rng.uniform(-0.9, 0.9, dim)
            be = reflection_encoding(np.diag(evals))
            k = rng.standard_normal((2 * dim, 2 * dim))
            k = k + k.T
            k /= np.abs(np.linalg.eigvalsh(k)).max()
            noisy = BlockEncoding(
                UnitaryMatrix(be.unitary.entries @ scipy.linalg.expm(1j * eps * k)),
                be.ancillas, be.proj_left, be.proj_right, certified_error=eps,
            )
            d = int(rng.integers(3, 10))
            phi = restricted_phases(rng, d)
            poly = polynomial_from_phases(phi)
            out = qsvt_circuit(noisy, phi, "even" if d % 2 == 0 else "odd")
            observed = op_dist(extract_block(out), np.diag(evaluate(poly, evals)))
            bound = 4 * d * np.sqrt(eps)
            ok = ok and observed <= bound
            worst_margin = max(worst_margin, observed / bound)
    report(5, ok, f"robustness: worst observed/bound ratio {worst_margin:.3f} <= 1",
           time.time() - start, 60)


def _rank_one_instance(rng, n, sigma, ancillas=2):
    dim = 2 ** (ancillas + n)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s_mat = np.array([[1.0]])
    for _ in range(n):
        s_mat = np.kron(s_mat, had)
    s = UnitaryMatrix(s_mat.astype(complex))
    w = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    w /= np.linalg.norm(w)
    w_full = np.zeros(dim, dtype=complex)
    w_full[: 2**n] = w
    psi = np.zeros(dim, dtype=complex)
    psi[: 2**n] = s_mat[:, 0]
    garbage = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    garbage[: 2**n] = 0.0
    garbage -= np.vdot(w_full, garbage) * w_full
    garbage /= np.linalg.norm(garbage)
    image = sigma * w_full + np.sqrt(1 - sigma**2) * garbage
    basis = np.eye(dim, dtype=complex)
    q_in = np.linalg.qr(np.column_stack([psi] + [basis[:, k] for k in range(dim - 1)]))[0]
    q_in[:, 0] = psi
    q_out = np.linalg.qr(np.column_stack([image] + [basis[:, k] for k in range(dim - 1)]))[0]
    q_out[:, 0] = image
    return UnitaryMatrix(q_out @ q_in.conj().T), s, psi, w_full


def test_criterion_6_amplification():
    start = time.time()
    rng = np.random.default_rng(106)
    ok = True
    details = []
    for sigma in (0.1, 0.25, 0.5):
        for delta in (0.1, 0.01):
            c, s, psi, w_full = _rank_one_instance(rng, n=2, sigma=sigma)
            plan = plan_amplification(sigma, delta)
            u = amplify(c, s, plan)
            flag, _ = build_projectors(2, s)
            post, p = project_measure(flag, StateVector(u.entries @ psi))
            fid = fidelity(post, StateVector(w_full))
            ok = ok and p >= (1 - delta / 2) ** 2 and fid >= 1 - 1e-6
            details.append(f"s={sigma},d={delta}:p={p:.4f}")
    sigmas = (0.05, 0.08, 0.125, 0.2, 0.35)
    rounds = np.array([plan_amplification(s, 0.1).rounds for s in sigmas], dtype=float)
    inv = 1.0 / np.array(sigmas)
    fitted = np.polyval(np.polyfit(inv, rounds, 1), inv)
    resid = np.abs(fitted - rounds).max() / rounds.max()
    ok = ok and resid < 0.2
    report(6, ok, "; ".join(details) + f"; fit residual {resid:.3f} < 0.2",
           time.time() - start, 120)


def test_criterion_7_end_to_end_bounds():
    start = time.time()
    rng = np.random.default_rng(107)
    ok = True
    failures = []
    for run in range(30):
        n = int(rng.integers(2, 7))
        oracle = AmplitudeOracle(n, 8, rng.uniform(0.05, 1.0, 2**n))
        rep = verify_error_bounds(PrepConfig(oracle=oracle, epsilon=0.05, delta=0.1))
        if not rep.all_passed:
            ok = False
            failures.append((run, [c.name for c in rep.bound_checks if not c.passed]))
    report(7, ok, f"30 random oracles (n <= 6): all bound checks passed {failures if failures else ''}",
           time.time() - start, 300)


def test_criterion_8_grover_scaling():
    start = time.time()
    rng = np.random.default_rng(108)
    eps, delta = 0.05, 0.1
    ratios = []
    ok = True
    for n in range(2, 7):
        x0 = int(rng.integers(0, 2**n))
        rep = grover_case(n, x0, delta=delta, epsilon=eps)
        ok = ok and rep.fidelity_to_target >= 1 - eps and rep.all_passed
        ok = ok and int(np.argmax(np.abs(rep.final_state.amplitudes))) == x0
        ratios.append(rep.info["calls_per_sqrt_n"])
    spread = max(ratios) / min(ratios)
    ok = ok and spread < 2.0
    report(8, ok, f"calls/sqrt(N) ratios {['%.0f' % r for r in ratios]}, spread {spread:.2f} < 2",
           time.time() - start, 300)


def test_criterion_9_oracle_compiler():
    start = time.time()
    rng = np.random.default_rng(109)
    worst = 0.0
    restored = True
    for _ in range(50):
        n, m = 2, 3
        c = AmplitudeOracle(n, m, rng.uniform(0, 1, 2**n))
        u = phase_unitary(c)
        dim_v = 2 ** (m + 1)
        idx = np.arange(2**n) * dim_v + 1
        block = u.entries[np.ix_(idx, idx)]
        worst = max(worst, op_dist(block, phase_unitary_direct(c).entries))
        for x in range(2**n):
            col = u.entries[:, x * dim_v + 1]
            support = np.nonzero(np.abs(col) > 0)[0]
            restored = restored and list(support) == [x * dim_v + 1]
    report(9, worst <= 1e-12 and restored,
           f"compiled-vs-direct distance {worst:.2e} <= 1e-12, ancillas restored exactly",
           time.time() - start, 10)
