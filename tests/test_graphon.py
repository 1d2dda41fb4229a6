import warnings

import numpy as np
import pytest

from rsgmfg import (ConfigError, Graphon, MeanFieldProblem,
                    coupling_error_eps1, evaluate, grid_matrix, sample_step,
                    solve_spectral, spectral_decompose)
from rsgmfg.gmfg import _apply_kernel
from rsgmfg.graphon import _eigenpairs, load_step_csv

from conftest import make_spec

ALL_KINDS = [Graphon.constant(0.7), Graphon.sinusoidal(),
             Graphon.uniform_attachment(), Graphon.half(),
             Graphon.step(np.array([[0.2, 0.8], [0.8, 0.4]]))]


def mids(N):
    return (np.arange(N) + 0.5) / N


def decompose(g, alphas):
    return spectral_decompose(grid_matrix(g, alphas))


def test_evaluate_pinned_values():
    assert evaluate(Graphon.sinusoidal(), 0.3, 0.3) == pytest.approx(1.0)
    assert evaluate(Graphon.half(), 0.1, 0.7) == 1.0      # 0.7 >= 0.1 + 0.5
    assert evaluate(Graphon.uniform_attachment(), 0.2, 0.6) \
        == pytest.approx(0.4)
    assert evaluate(Graphon.constant(0.3), 0.9, 0.1) == 0.3


def test_half_boundary_is_nonstrict():
    # the indicator uses >=, so a node pair exactly 0.5 apart is connected
    assert evaluate(Graphon.half(), 0.25, 0.75) == 1.0
    assert np.array_equal(sample_step(Graphon.half(), 2).gN,
                          [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: g.kind)
def test_symmetry_and_range(g, rng):
    a = rng.uniform(0, 1, 200)
    b = rng.uniform(0, 1, 200)
    vab = evaluate(g, a, b)
    vba = evaluate(g, b, a)
    assert np.array_equal(vab, vba)
    assert np.all(vab >= 0) and np.all(vab <= 1)


def test_evaluate_rejects_out_of_range():
    with pytest.raises(ValueError):
        evaluate(Graphon.sinusoidal(), -0.1, 0.5)
    with pytest.raises(ValueError):
        evaluate(Graphon.sinusoidal(), 0.5, 1.2)


# The kernel quadrature (G h)(alpha_i) is row i of the solvers'
# _apply_kernel(grid_matrix(g, alphas), h).

def test_section_apply_constant_kernel():
    N = 64
    v = np.tile([1.5, -2.0], (N, 1))
    out = _apply_kernel(grid_matrix(Graphon.constant(0.4), mids(N)), v)
    assert np.allclose(out, [0.6, -0.8], atol=1e-12)


def test_section_apply_against_fine_quadrature():
    # brute-force midpoint rule with 10^4 nodes as the oracle, at the
    # 200-node grid's first node, the node nearest 0.37 and its last node
    g = Graphon.sinusoidal()
    coarse = _apply_kernel(grid_matrix(g, mids(200)), np.ones((200, 1)))
    for i in (0, 74, 199):
        fine = np.mean(evaluate(g, mids(200)[i], mids(10_000)))
        assert abs(coarse[i, 0] - fine) < 1e-3


def test_section_apply_step_indicator_selects_column():
    W = np.array([[0.2, 0.8, 0.1], [0.8, 0.4, 0.5], [0.1, 0.5, 0.9]])
    g = Graphon.step(W)
    N = 3
    for j in range(N):
        h = np.zeros((N, 1))
        h[j] = 1.0
        out = _apply_kernel(grid_matrix(g, mids(N)), h)
        for i in range(N):
            assert out[i, 0] == pytest.approx(W[i, j] / N, abs=1e-15)


def test_sample_step_pinned():
    assert np.all(sample_step(Graphon.constant(0.3), 5).gN == 0.3)
    got = sample_step(Graphon.sinusoidal(), 2).gN
    assert np.allclose(got, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)


def test_spectral_constant_is_rank_one():
    dec = decompose(Graphon.constant(0.6), mids(100))
    assert dec.rank == 1
    assert dec.eigenvalues[0] == pytest.approx(0.6, abs=1e-12)
    assert np.allclose(dec.eigenvectors[:, 0], 1.0, atol=1e-10)
    assert dec.residual < 1e-12


def test_spectral_uniform_attachment_eigenvalues():
    dec = decompose(Graphon.uniform_attachment(), mids(400))
    targets = [4 / (k ** 2 * np.pi ** 2) for k in (1, 3, 5)]
    for got, want in zip(dec.eigenvalues[:3], targets):
        assert abs(got - want) < 1e-3


def test_spectral_sinusoidal_rank_three_with_fine_grid_oracle():
    dec = decompose(Graphon.sinusoidal(), mids(400))
    assert dec.rank == 3
    assert dec.residual < 1e-6
    oracle = decompose(Graphon.sinusoidal(), mids(4000))
    assert oracle.rank == 3
    assert np.allclose(dec.eigenvalues, oracle.eigenvalues, atol=1e-3)
    # multiplicities resolve to three distinct values summing to the trace
    assert dec.eigenvalues.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: g.kind)
def test_spectral_grid_orthonormality_and_eigenpairs(g):
    alphas = mids(150)
    dec = decompose(g, alphas)
    F = dec.eigenvectors
    gram = F.T @ F / len(alphas)
    assert np.max(np.abs(gram - np.eye(dec.rank))) < 1e-8
    K = grid_matrix(g, alphas) / len(alphas)
    resid = K @ F - F * dec.eigenvalues
    assert np.max(np.abs(resid)) < 1e-8


@pytest.mark.parametrize("g", ALL_KINDS, ids=lambda g: g.kind)
def test_spectral_hilbert_schmidt_bound(g):
    alphas = mids(150)
    dec = decompose(g, alphas)
    gsq = np.mean(grid_matrix(g, alphas) ** 2)
    assert np.sum(dec.eigenvalues ** 2) <= gsq + 1e-8


def test_spectral_residual_decreases_with_rank():
    alphas = mids(200)
    g = Graphon.uniform_attachment()
    G = grid_matrix(g, alphas)
    dec = decompose(g, alphas)
    prev = np.sqrt(np.mean(G ** 2))
    for r in range(1, min(dec.rank, 12) + 1):
        F = dec.eigenvectors[:, :r]
        recon = (F * dec.eigenvalues[:r]) @ F.T
        resid = np.sqrt(np.mean((G - recon) ** 2))
        assert resid <= prev + 1e-12
        prev = resid


def test_eps1_sampled_constant_is_zero():
    g = Graphon.constant(0.5)
    assert coupling_error_eps1(sample_step(g, 40), g) == pytest.approx(0.0,
                                                                       abs=1e-15)


def test_eps1_total_mass_mismatch():
    g = Graphon.constant(1.0)
    zero = np.zeros((30, 30))
    assert coupling_error_eps1(zero, g) == pytest.approx(1.0, abs=1e-12)


def test_eps1_sinusoidal_decreases_and_refinement_stable():
    g = Graphon.sinusoidal()
    vals = [coupling_error_eps1(sample_step(g, N), g)
            for N in (25, 50, 100, 200)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # inner quadrature already converged: 10x refinement barely moves it
    v16 = coupling_error_eps1(sample_step(g, 50), g, refine=16)
    v160 = coupling_error_eps1(sample_step(g, 50), g, refine=160)
    assert abs(v16 - v160) < 1e-6


def test_eps1_halving_ratio_at_least_first_order():
    # midpoint sampling of smooth kernels is second order (ratio ~ 1/4)
    sizes = [25, 50, 100, 200, 400]
    for g in (Graphon.sinusoidal(), Graphon.uniform_attachment()):
        vals = {N: coupling_error_eps1(sample_step(g, N), g) for N in sizes}
        for N in sizes[:-1]:
            assert 0.15 <= vals[2 * N] / vals[N] <= 0.7


def test_eps1_half_kernel_exact():
    # row i jumps at beta = (i + 0.5)/N + 0.5: a cell edge when N is odd
    # (error 0), the exact midpoint of one cell when N is even (the sampled
    # value misses the half-filled cell average by 0.5, i.e. eps1 = 0.5/N)
    g = Graphon.half()
    for N in (25, 41):
        assert coupling_error_eps1(sample_step(g, N), g) == 0.0
    for N in (10, 64, 128):
        got = coupling_error_eps1(sample_step(g, N), g)
        assert got == pytest.approx(0.5 / N, abs=1e-12)
    # first-order decay along even sizes
    assert (coupling_error_eps1(sample_step(g, 128), g)
            / coupling_error_eps1(sample_step(g, 64), g)) \
        == pytest.approx(0.5, abs=1e-9)


def test_row_mass_equals_section_of_ones():
    g = Graphon.sinusoidal()
    N = 120
    alphas = mids(N)
    W = grid_matrix(g, alphas)
    sec = _apply_kernel(W, np.ones((N, 1)))
    for i in (0, 17, N - 1):
        assert sec[i, 0] == pytest.approx(W[i].mean(), abs=1e-14)


def test_step_csv_roundtrip_and_symmetrization(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("0.2,0.8\n0.8,0.4\n")
    g = load_step_csv(path)
    assert np.array_equal(g.weights, [[0.2, 0.8], [0.8, 0.4]])

    asym = tmp_path / "asym.csv"
    asym.write_text("0.2,0.9\n0.8,0.4\n")
    with pytest.warns(UserWarning, match="symmetrized"):
        g2 = load_step_csv(asym)
    assert g2.weights[0, 1] == pytest.approx(0.85)


def test_step_rejects_non_finite_weights(tmp_path):
    nan, inf = np.nan, np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no inf - inf warning before it
        for W in ([[0.2, nan], [nan, 0.4]], [[0.2, inf], [inf, 0.4]],
                  [[nan, 0.5], [0.5, 0.4]]):
            with pytest.raises(ConfigError, match="finite"):
                Graphon.step(np.array(W))
        with pytest.raises(ConfigError, match="finite"):
            Graphon(kind="step", weights=np.array([[nan]]))
    path = tmp_path / "w.csv"
    path.write_text("0.2,nan\nnan,0.4\n")
    with pytest.raises(ConfigError, match="finite"):
        load_step_csv(path)


@pytest.mark.parametrize("rank_tol", [1e-8, 1e-4])
@pytest.mark.parametrize("g,n", [(g, 150) for g in ALL_KINDS]
                         + [(Graphon.sinusoidal(), 1000),
                            (Graphon.uniform_attachment(), 1000)],
                         ids=lambda v: getattr(v, "kind", str(v)))
def test_spectral_residual_matches_explicit_reconstruction(g, n, rank_tol):
    # the residual is reported without an n x n reconstruction: the
    # top-L certificate or the dropped eigenvalues' root sum of squares
    G = grid_matrix(g, mids(n))
    dec = spectral_decompose(G, rank_tol)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    explicit = np.sqrt(np.mean((G - recon) ** 2))
    assert abs(dec.residual - explicit) < 1e-13


# The top-L block of _eigenpairs, tried from _TOP_L_MIN_N = 500 nodes on.

N_TOP = 600
INDEFINITE = Graphon.step(np.array([[0.9, 0.1, 0.6],
                                    [0.1, 0.0, 1.0],
                                    [0.6, 1.0, 0.2]]))


def eigh_pairs(G, rank_tol=1e-8):
    K = G / len(G)
    evals, evecs = np.linalg.eigh(0.5 * (K + K.T))
    keep = np.abs(evals) > rank_tol
    return evals[keep], evecs[:, keep]


@pytest.mark.blas_kernels
@pytest.mark.parametrize("g", [Graphon.constant(0.7), Graphon.sinusoidal(),
                               INDEFINITE], ids=["constant", "sinusoidal",
                                                 "indefinite_step"])
def test_top_block_matches_eigh(g):
    G = grid_matrix(g, mids(N_TOP))
    pairs = _eigenpairs(G)
    evals, evecs = eigh_pairs(G)
    assert pairs.solver == "top-L" and pairs.residual <= 1e-8
    assert len(pairs.values) == len(evals)
    assert np.max(np.abs(pairs.values - evals)) < 1e-12
    assert np.max(np.abs(pairs.vectors @ pairs.vectors.T
                         - evecs @ evecs.T)) < 1e-12
    if g is INDEFINITE:
        assert evals.min() < 0 < evals.max()


def test_top_block_rank_zero_above_every_eigenvalue():
    G = grid_matrix(Graphon.sinusoidal(), mids(N_TOP))
    dec = spectral_decompose(G, rank_tol=10.0)
    assert (dec.rank, dec.eigensolver) == (0, "top-L")
    assert dec.residual == pytest.approx(np.sqrt(np.mean(G ** 2)), rel=1e-12)


@pytest.mark.parametrize("g", [Graphon.uniform_attachment(), Graphon.half()],
                         ids=lambda g: g.kind)
def test_full_rank_kernels_fall_back_to_eigh_bit_for_bit(g):
    G = grid_matrix(g, mids(N_TOP))
    pairs = _eigenpairs(G)
    evals, evecs = eigh_pairs(G)
    assert pairs.solver == "eigh"
    assert np.array_equal(pairs.values, evals)
    assert np.array_equal(pairs.vectors, evecs)


@pytest.mark.blas_kernels
def test_top_block_is_deterministic():
    G = grid_matrix(Graphon.sinusoidal(), mids(N_TOP))
    a, b = spectral_decompose(G), spectral_decompose(G)
    assert a.eigensolver == "top-L"
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    assert a.residual == b.residual


@pytest.mark.parametrize("g,full_eighs", [(Graphon.sinusoidal(), 0),
                                          (Graphon.uniform_attachment(), 1)],
                         ids=lambda v: getattr(v, "kind", str(v)))
def test_solve_spectral_full_eigh_count(monkeypatch, g, full_eighs):
    n = 1000
    eigh, shapes = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    solve_spectral(MeanFieldProblem(make_spec(n_t=50, n_alpha=n), g))
    assert shapes.count((n, n)) == full_eighs
