"""The Krylov exponential integrator behind `numerics.evolve`."""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import expm_multiply

from dqlm import krylov, numerics
from dqlm.exact import exact_steady_state
from dqlm.lattice import build_layout
from dqlm.liouvillian import (
    assemble,
    assemble_twisted,
    diagonal_expectation,
    vectorize_into,
)
from dqlm.models import JumpSpec, ModelSpec
from dqlm.numerics import (
    evolve,
    pure_state_vector,
    site_number_diagonals,
)
from dqlm.symmetry import weak_sector


def biased_chain(L, gamma_up, gamma_down, kind="chain-obc"):
    return ModelSpec(layout=build_layout(kind, L),
                     jumps=(JumpSpec(family="biased", gamma_up=gamma_up,
                                     gamma_down=gamma_down),))


def product_state(layout, sites):
    """The product state with the given sites occupied, links down."""
    return sum(1 << layout.site_slots[s - 1] for s in sites)


def frames(superop, v0, times, **options):
    return evolve(superop.matrix, v0, times,
                  observables={"frame": lambda v: v.copy()}, **options)


# L=7 N=2 quenches (rates, initial sites) and how far DOP853 at
# rtol = atol = 1e-9, the integrator `evolve` used before, missed the
# expm_multiply frames and site occupations; the second is the README
# quench, whose occupations make up dynamics.csv
L7_PROBES = [((2.9, 1.1), (2, 5), 5.843e-8, None),
             ((3.0, 1.0), (1, 2), 3.251e-7, 1.712e-10)]


@pytest.mark.slow
@pytest.mark.parametrize("rates, sites, frame_gap, occupation_gap", L7_PROBES,
                         ids=["sites-2-5", "readme"])
def test_l7_quench_beats_dop853_against_expm_multiply(rates, sites, frame_gap,
                                                      occupation_gap):
    spec = biased_chain(7, *rates)
    dsec = weak_sector(spec.layout, 2)
    superop = assemble(spec, sector=dsec)
    v0 = pure_state_vector(product_state(spec.layout, sites), dsec)
    times = np.linspace(0.0, 180.0, 81)
    series = frames(superop, v0, times, dsec=dsec, rtol=1e-9, atol=1e-9)
    assert series.real_form and series.evolved_dim == 3549
    assert series.nfev < 2000 and series.steps > 1
    assert series.krylov_dim_max == krylov.KRYLOV_CAP
    assert series.trace_defect.max() < 1e-12
    # the reference in the same real coordinates, at half the arithmetic
    mirror = numerics._mirror_map(dsec)
    unitary, rotated = numerics._real_form(superop.matrix, *mirror)
    reference = expm_multiply(numerics._real_part(rotated),
                              (unitary.conj().T @ v0).real, start=0.0,
                              stop=180.0, num=81, endpoint=True) @ unitary.T
    got = series.observables["frame"]
    assert np.abs(got - reference).max() <= frame_gap
    if occupation_gap is not None:
        for diag in site_number_diagonals(spec.layout):
            gap = max(abs(diagonal_expectation(a, dsec, diag)
                          - diagonal_expectation(b, dsec, diag))
                      for a, b in zip(got, reference))
            assert gap <= occupation_gap


def test_a_steady_start_stays_put_in_a_handful_of_products():
    spec = biased_chain(5, 3.0, 1.0)
    dsec = weak_sector(spec.layout, 2)
    superop = assemble(spec, sector=dsec)
    rho = exact_steady_state(spec.layout, 3.0, n_particles=2).materialize()
    v0 = vectorize_into(rho, dsec)
    series = frames(superop, v0, np.linspace(0.0, 180.0, 81), dsec=dsec)
    assert np.abs(series.observables["frame"] - v0).max() < 1e-12
    assert series.nfev <= 6


def test_a_zero_start_stays_zero_without_a_product():
    spec = biased_chain(3, 0.8, 0.5)
    dsec = weak_sector(spec.layout, 1)
    superop = assemble(spec, sector=dsec)
    times = np.linspace(0.0, 2.0, 5)
    zero = np.zeros(dsec.dim, dtype=np.complex128)
    series = frames(superop, zero, times, dsec=dsec)
    assert series.evolved_dim == 0 and series.nfev == 0
    assert not np.any(series.observables["frame"])
    # the integrator itself, on the whole zero vector
    result = krylov.integrate(lambda y: superop.matrix @ y, zero, times)
    assert result.nfev == 0
    assert (result.steps, result.krylov_dim_max) == (1, 0)
    assert result.frames.shape == (dsec.dim, 5) and not np.any(result.frames)


def test_complex_path_matches_the_matrix_exponential():
    # the double-space twist at phi = 0.7 does not commute with rho -> rho^+
    spec = biased_chain(4, 2.4, 1.6, kind="chain-pbc")
    dsec = weak_sector(spec.layout, 1)
    superop = assemble_twisted(spec, 0.7, "double-space", sector=dsec)
    rng = np.random.default_rng(11)
    raw = rng.normal(size=dsec.dim) + 1j * rng.normal(size=dsec.dim)
    v0 = raw / np.linalg.norm(raw)
    times = np.array([0.0, 0.3, 1.7, 4.0])
    series = frames(superop, v0, times, dsec=dsec, rtol=1e-11, atol=1e-12)
    assert not series.real_form and series.evolved_dim == dsec.dim
    dense = superop.matrix.toarray()
    for t, frame in zip(times, series.observables["frame"]):
        oracle = scipy.linalg.expm(dense * t) @ v0
        assert np.abs(frame - oracle).max() < 1e-10


def test_happy_breakdown_is_exact_over_the_whole_interval():
    # a 4 x 4 generator: the Krylov space is all of it after 4 products,
    # and the fifth direction is roundoff far below BREAKDOWN_TOL
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(4, 4)) - 3.0 * np.eye(4)
    y0 = rng.normal(size=4)
    times = np.linspace(0.0, 50.0, 6)
    result = krylov.integrate(lambda y: matrix @ y, y0, times, rtol=1e-12,
                              atol=1e-14)
    assert (result.steps, result.krylov_dim_max) == (1, 4) and result.nfev == 4
    for t, frame in zip(times, result.frames.T):
        assert np.abs(frame - scipy.linalg.expm(matrix * t) @ y0).max() < 1e-13


def test_rtol_below_the_floor_is_raised_with_a_warning():
    spec = biased_chain(5, 3.0, 1.0)
    dsec = weak_sector(spec.layout, 2)
    superop = assemble(spec, sector=dsec)
    v0 = pure_state_vector(product_state(spec.layout, (1, 2)), dsec)
    times = np.linspace(0.0, 1.0, 3)
    with pytest.warns(UserWarning, match="rtol"):
        series = frames(superop, v0, times, dsec=dsec, rtol=1e-300,
                        atol=1e-300)
    floor = frames(superop, v0, times, dsec=dsec, rtol=100 * krylov.EPS,
                   atol=1e-300)
    assert series.status == 0 and series.nfev == floor.nfev
    assert np.array_equal(series.observables["frame"],
                          floor.observables["frame"])
    # a negative atol has no floor
    with pytest.raises(ValueError, match="atol"):
        krylov.integrate(lambda y: y, np.ones(2), times, atol=-1.0)
