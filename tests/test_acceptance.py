"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Each test prints its verdict and appends it (plus any recorded oracle values)
to ``acceptance_log.txt`` in the repository root.  Two criteria encode
previously reported reference behavior for the 4-site staggered chain that
exact diagonalization does not reproduce; those tests record the computed
values and then fail honestly rather than asserting the irreproducible claim.
Runtimes are checked against their bounds but not logged, so a rerun on an
unchanged tree leaves the log byte-identical.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import topophase as tp
from topophase import dirac
from topophase.persistence import PersistenceDiagram
from topophase.simplicial import boundary_dense_at
from helpers import random_cloud, ssh4_expectations_closed_form, ssh4_ground_closed_form

LOG_PATH = Path(__file__).resolve().parent.parent / "acceptance_log.txt"
_LOG_STARTED = False

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
HALF_DIAG = math.sqrt(2.0) / 2.0
INF = math.inf


def record(*lines):
    global _LOG_STARTED
    mode = "a" if _LOG_STARTED else "w"
    with open(LOG_PATH, mode) as fh:
        for line in lines:
            print(line)
            fh.write(line + "\n")
    _LOG_STARTED = True


def verdict(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    record(f"ACCEPTANCE {criterion}: {status}{suffix}")
    return ok


def test_c01_square_oracle():
    start = time.perf_counter()
    fc = tp.vr_filtration(SQUARE, max_dim=2)
    dg = tp.reduce(fc)
    elapsed = time.perf_counter() - start
    h1 = [(b, d) for k, b, d in dg.bars if k == 1]
    h0 = sorted((b, d) for k, b, d in dg.bars if k == 0)
    ok = (
        len(h1) == 1
        and abs(h1[0][0] - 0.5) <= 1e-12
        and abs(h1[0][1] - HALF_DIAG) <= 1e-12
        and h0 == [(0.0, 0.5), (0.0, 0.5), (0.0, 0.5), (0.0, INF)]
        and elapsed < 0.1
    )
    verdict("1 (square oracle)", ok, f"runtime < 0.1 s: {'yes' if elapsed < 0.1 else 'NO'}")
    assert ok


def test_c02_reduction_oracle_spectral_agreement():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        pts = random_cloud(rng, n_min=4, n_max=8, dim_min=1, dim_max=3)
        fc = tp.vr_filtration(pts, max_dim=3)
        dg = tp.reduce(fc)
        e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
        for k in (0, 1, 2):
            a = tp.persistent_betti(dg, k, e1, e2)
            b = tp.betti_oracle(fc, k, e1, e2)
            c = dirac.betti_from_laplacian(dirac.persistent_laplacian(fc, k, e1, e2))
            assert a == b == c, (
                f"disagreement on {len(pts)} pts, k={k}, interval=({e1:.4f},{e2:.4f}): "
                f"reduction={a} oracle={b} spectral={c}"
            )
            checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    verdict("2 (triple agreement)", ok,
            f"{checked} probes on 200 clouds, runtime < 60 s: {'yes' if ok else 'NO'}")
    assert ok


def test_c03_dirac_block_identity():
    rng = np.random.default_rng(3030)
    worst_mid = 0.0
    worst_corner = 0.0
    for _ in range(50):
        pts = random_cloud(rng, n_min=4, n_max=8, dim_min=2, dim_max=3)
        fc = tp.vr_filtration(pts, max_dim=3)
        e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
        k = int(rng.integers(0, 3))
        op = dirac.dirac_operator(fc, k, e1, e2, xi=0.0)
        lap = dirac.persistent_laplacian(fc, k, e1, e2)
        mid = op.middle_block(op.matrix @ op.matrix)
        if lap.size:
            worst_mid = max(worst_mid, float(np.max(np.abs(mid - lap))))
        n1, n2, _ = op.block_dims
        corner = op.matrix[:n1, n1:n1 + n2] @ op.matrix[n1:n1 + n2, n1 + n2:]
        if corner.size:
            worst_corner = max(worst_corner, float(np.max(np.abs(corner))))
    ok = worst_mid <= 1e-10 and worst_corner <= 1e-12
    verdict("3 (Dirac block identity)", ok,
            f"max middle-block error {worst_mid:.2e}, max corner {worst_corner:.2e}")
    assert ok


def test_c04_nilpotence():
    rng = np.random.default_rng(4040)
    clouds = [random_cloud(rng, n_max=8) for _ in range(10)] + [SQUARE]
    cloud = tp.build_cloud(np.round(np.linspace(-0.9, 1.0, 20), 12),
                           tp.SSHChain(4), tp.ssh_observables(4))
    clouds.append(cloud.points[4:11])
    worst = 0.0
    for pts in clouds:
        fc = tp.vr_filtration(pts, max_dim=3)
        for k in range(2, fc.max_dim + 1):
            if fc.count_dim(k) == 0:
                continue
            z2 = (np.abs(boundary_dense_at(fc, k - 1, np.inf)).astype(int)
                  @ np.abs(boundary_dense_at(fc, k, np.inf)).astype(int)) % 2
            assert np.all(z2 == 0), f"Z2 nilpotence broken at k={k}"
            real = boundary_dense_at(fc, k - 1, np.inf) @ boundary_dense_at(fc, k, np.inf)
            worst = max(worst, float(np.max(np.abs(real))))
    ok = worst <= 1e-12
    verdict("4 (nilpotence)", ok, f"max real residual {worst:.2e}")
    assert ok


def test_c05_stability():
    rng = np.random.default_rng(5050)
    worst_ratio = 0.0
    for _ in range(50):
        pts = random_cloud(rng, n_min=5, n_max=9, dim_min=2, dim_max=3)
        eta = float(rng.uniform(0.005, 0.05))
        direction = rng.standard_normal(pts.shape)
        direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)
        moved = pts + direction * rng.uniform(0.0, eta, size=(len(pts), 1))
        eps_max = max(tp.vr_filtration(pts, max_dim=0).eps_max,
                      tp.vr_filtration(moved, max_dim=0).eps_max)
        # degree k is reported below max_dim, so degree 2 needs the 3-skeleton
        dg1 = tp.reduce(tp.vr_filtration(pts, eps_max=eps_max, max_dim=3))
        dg2 = tp.reduce(tp.vr_filtration(moved, eps_max=eps_max, max_dim=3))
        for k in range(dg1.max_dim):
            dist = tp.bottleneck(dg1, dg2, k)
            assert dist <= eta + 1e-10, f"stability violated: d_B={dist} > eta={eta} (k={k})"
            if eta > 0:
                worst_ratio = max(worst_ratio, dist / eta)
    verdict("5 (stability)", True, f"worst d_B/eta = {worst_ratio:.3f} over 50 clouds")


def test_c06_unitary_invariance():
    cfg = tp.ScanConfig(lambda_min=-0.5, lambda_max=0.5, step=0.1,
                        intervals=((1, 0.4, 0.8), (0, 0.02, 0.04)),
                        max_dim=3, keep_diagrams=True)
    plain = tp.sweep(cfg)
    worst = 0.0
    for seed in range(10):
        conj = tp.unitary_conjugate_scan(cfg, seed=seed)
        assert conj.betti == plain.betti, f"Betti vectors differ for seed {seed}"
        assert conj.kernel_dims == plain.kernel_dims
        for d1, d2 in zip(plain.diagrams, conj.diagrams):
            for k in range(cfg.max_dim):
                dist = tp.bottleneck(d1, d2, k)
                worst = max(worst, dist)
                assert dist < 1e-10, f"diagram moved by {dist} under seed {seed}"
    verdict("6 (unitary invariance)", True, f"10 seeds, max diagram displacement {worst:.2e}")


REPORTED_BETTI_CHANGE = (1, 2)  # reported persistent Betti values either side of 0
REPORTED_BARS = ((0.3, 0.7), (0.5, 0.9))  # reported long bars in the nontrivial phase


def test_c07_ssh_end_to_end():
    config = tp.ScanConfig(lambda_min=-1.0, lambda_max=1.0, step=0.1,
                           n_sites=4, v=1.0, w=1.0, window_halfwidth=3,
                           intervals=((1, 0.4, 0.8),))
    record("ACCEPTANCE 7: sweep lambda in [-1, 1] step 0.1, window halfwidth 3, probe k=1 [0.4, 0.8]")
    start = time.perf_counter()
    literal_error = None
    report = None
    try:
        report = tp.sweep(config)
    except tp.DegenerateGroundStateError as err:
        literal_error = err
        record(f"  literal sweep raised: {err}")
        record("  (the chain at lambda=-1 splits into two exact dimers; the ground space is 2-dimensional)")
    if report is None:
        diag_config = tp.ScanConfig(lambda_min=-0.9, lambda_max=1.0, step=0.1,
                                    n_sites=4, v=1.0, w=1.0, window_halfwidth=3,
                                    intervals=((1, 0.4, 0.8),), keep_diagrams=True)
        diagnostic = tp.sweep(diag_config)
    else:
        diagnostic = report
    elapsed = time.perf_counter() - start
    key = "k1_0.4_0.8"
    values = [entry[key] for entry in diagnostic.betti]
    record(f"  diagnostic sweep over [{diagnostic.config.lambda_min}, {diagnostic.config.lambda_max}]: "
           f"beta_1^[0.4,0.8] per lambda = {values}")
    record(f"  transitions detected: {list(diagnostic.transitions)}")
    if diagnostic.diagrams:
        for lam_target in (-0.5, 0.5):
            idx = int(np.argmin(np.abs(np.array(diagnostic.lambdas) - lam_target)))
            bars = [(round(b, 4), round(d, 4)) for k, b, d in diagnostic.diagrams[idx].bars if k == 1]
            record(f"  window at lambda={diagnostic.lambdas[idx]:+.1f}: H1 bars = "
                   f"{bars or 'none'} "
                   f"(reported reference: {REPORTED_BARS})")
    record(f"  reported beta_1 change {REPORTED_BETTI_CHANGE[0]} -> {REPORTED_BETTI_CHANGE[1]} "
           f"not reproduced: window clouds lie on a circular arc spanning < 180 degrees, "
           f"whose Vietoris-Rips complexes carry no 1-cycles at any scale")
    record(f"  runtime < 10 s: {'yes' if elapsed < 10 else 'NO'}")
    assert elapsed < 10.0

    brackets = [(left, right) for left, right, _ in diagnostic.transitions]
    ok = (
        literal_error is None
        and len(brackets) == 1
        and brackets[0][0] < 0.0 < brackets[0][1]
        and tp.continuity_check(diagnostic, exclude=(brackets[0][0], brackets[0][1]))
        if brackets
        else False
    )
    verdict("7 (SSH end-to-end)", ok,
            "literal sweep fails at lambda=-1 (exact ground-state degeneracy) and the "
            "probe sees no Betti change anywhere; computed values recorded above")
    if not ok:
        pytest.fail(
            "criterion as stated is not attainable: the [-1, 1] sweep hits an exactly "
            "degenerate ground state at lambda=-1, and on the remaining grid the k=1 "
            "probe is identically zero (the expectation cloud is a sub-half-circle arc), "
            "so no transition bracket exists; see acceptance_log.txt for recorded values"
        )


REPORTED_GROUND_MINUS = (0.3780, 0.5992, -0.5992, -0.3780)
REPORTED_GROUND_PLUS = (0.3780, -0.5992, -0.5992, 0.3780)
REPORTED_TABLE = {
    "n1": 0.1429, "n2": 0.3590, "n3": 0.3590, "n4": 0.1429,
    "re1_2": 0.4526, "im1_2": 0.0, "re2_3": -0.7181, "im2_3": 0.0,
    "re3_4": 0.4526, "im3_4": 0.0,
}  # reported for lambda = -0.5; correlations reported to flip sign at +0.5


def test_c08_ssh_numeric_audit():
    obs = tp.ssh_observables(4)
    labels = obs.labels
    points = {}
    states = {}
    for lam in (-0.5, 0.5):
        state = tp.ground_state(tp.build_ssh_hamiltonian(lam))
        states[lam] = state
        points[lam] = tp.phi_map(state, obs)
        closed = ssh4_expectations_closed_form(lam)
        assert np.allclose(points[lam], closed, atol=1e-12)

    record("ACCEPTANCE 8: ground states and expectation values at lambda = -0.5 / +0.5")
    for lam, reported_vec in ((-0.5, REPORTED_GROUND_MINUS), (0.5, REPORTED_GROUND_PLUS)):
        energy, vec = ssh4_ground_closed_form(lam)
        record(f"  lambda={lam:+.1f}: computed ground state {np.round(vec, 4).tolist()} "
               f"(energy {energy:.4f}); reported reference {list(reported_vec)}")
        assert np.allclose(states[lam].amplitudes.real, vec, atol=1e-12)
    header = "  " + "label".ljust(8) + "reported(-0.5)".rjust(16) + "computed(-0.5)".rjust(16) + "computed(+0.5)".rjust(16)
    record(header)
    for i, label in enumerate(labels):
        record("  " + label.ljust(8)
               + f"{REPORTED_TABLE[label]:+16.4f}"
               + f"{points[-0.5][i]:+16.4f}"
               + f"{points[0.5][i]:+16.4f}")

    p_minus, p_plus = points[-0.5], points[0.5]
    sym_ok = (abs(p_minus[0] - p_minus[3]) < 1e-10 and abs(p_minus[1] - p_minus[2]) < 1e-10
              and abs(p_plus[0] - p_plus[3]) < 1e-10 and abs(p_plus[1] - p_plus[2]) < 1e-10)
    imag_ok = all(abs(p[i]) < 1e-12 for p in (p_minus, p_plus) for i, lbl in enumerate(labels)
                  if lbl.startswith("im"))
    record(f"  symmetry n1=n4, n2=n3 at both lambdas (1e-10): {'ok' if sym_ok else 'VIOLATED'}")
    record(f"  imaginary correlation parts vanish (1e-12): {'ok' if imag_ok else 'VIOLATED'}")
    assert sym_ok and imag_ok

    idx_re12 = labels.index("re1_2")
    idx_re34 = labels.index("re3_4")
    flip_ok = (p_minus[idx_re12] * p_plus[idx_re12] < 0 and p_minus[idx_re34] * p_plus[idx_re34] < 0)
    record(f"  sign flip of re1_2/re3_4 between lambdas: {'ok' if flip_ok else 'NOT OBSERVED'} "
           f"(re1_2: {p_minus[idx_re12]:+.4f} -> {p_plus[idx_re12]:+.4f})")
    record("  note: the ground state of a chain with positive hoppings has strictly "
           "alternating sign structure at every lambda, so nearest-neighbor real "
           "correlations keep one sign on both sides; the reported flip cannot occur "
           "for eigenvectors of this Hamiltonian (reported state vectors are not "
           "eigenvectors of it: H psi_reported is not proportional to psi_reported)")
    verdict("8 (SSH numeric audit)", flip_ok and sym_ok and imag_ok,
            "symmetry and imaginary-part checks pass; the reported sign flip does not occur")
    if not flip_ok:
        pytest.fail(
            "sign-flip sub-check is not attainable for exact eigenvectors; computed "
            "values recorded in acceptance_log.txt"
        )


def test_c09_bottleneck_metric():
    d1 = PersistenceDiagram(dims=[0], births=[0.0], deaths=[1.0])
    d_empty = PersistenceDiagram()
    d_shift = PersistenceDiagram(dims=[0], births=[0.1], deaths=[1.1])
    hand1 = tp.bottleneck(d1, d_empty, 0)
    hand2 = tp.bottleneck(d1, d_shift, 0)
    assert abs(hand1 - 0.5) <= 1e-12
    assert abs(hand2 - 0.1) <= 1e-12

    rng = np.random.default_rng(9090)

    def random_diagram():
        births, deaths = [], []
        for _ in range(int(rng.integers(0, 7))):
            birth = float(rng.uniform(0.0, 1.0))
            births.append(birth)
            deaths.append(birth + float(rng.uniform(1e-6, 1.0)))
        return PersistenceDiagram(dims=[1] * len(births), births=births, deaths=deaths)

    worst_violation = 0.0
    for _ in range(100):
        a, b, c = random_diagram(), random_diagram(), random_diagram()
        ab = tp.bottleneck(a, b, 1)
        assert ab == tp.bottleneck(b, a, 1)
        violation = tp.bottleneck(a, c, 1) - (ab + tp.bottleneck(b, c, 1))
        worst_violation = max(worst_violation, violation)
        assert violation <= 1e-12
    verdict("9 (bottleneck metric)", True,
            f"hand cases {hand1:.12g}/{hand2:.12g}, worst triangle slack {worst_violation:.2e}")


def test_c10_qpe_formula():
    peak = tp.qpe_distribution([1.5], l=2, m_register=4, p=3)  # l*lam = p: limit value
    miss = tp.qpe_distribution([1.0], l=1, m_register=2, p=0)  # integer, wrong residue
    half = tp.qpe_distribution([0.5], l=1, m_register=2, p=0)  # generic value 1/2
    ok = abs(peak - 1.0) <= 1e-12 and abs(miss) <= 1e-12 and abs(half - 0.5) <= 1e-12
    verdict("10 (QPE distribution)", ok, f"peak={peak:.12g} miss={miss:.3e} half={half:.12g}")
    assert ok
