"""The piecewise engine is checked against brute-force grid oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from kqr.noise import Atom, NoiseLaw, PowerPiece


def uniform_law(halfwidth=0.5):
    return NoiseLaw([PowerPiece(-halfwidth, halfwidth, -halfwidth, 0.0, 1.0 / (2 * halfwidth))])


def mixed_law():
    # 0.6 uniform on [-0.5, 0.5] plus atoms at -0.2 (0.15) and 0.3 (0.25)
    return NoiseLaw(
        [PowerPiece(-0.5, 0.5, -0.5, 0.0, 0.6)],
        [Atom(-0.2, 0.15), Atom(0.3, 0.25)],
    )


def power_law(p=1.0, halfwidth=0.5):
    c = (p + 1.0) / (2.0 * halfwidth ** (p + 1.0))
    return NoiseLaw(
        [PowerPiece(-halfwidth, 0.0, 0.0, p, c), PowerPiece(0.0, halfwidth, 0.0, p, c)]
    )


def test_mass_validation():
    with pytest.raises(ValueError):
        NoiseLaw([PowerPiece(-1, 1, -1, 0.0, 1.0)])  # mass 2
    with pytest.raises(ValueError):
        NoiseLaw([], [Atom(0.0, 0.5)])


def test_anchor_must_be_outside():
    with pytest.raises(ValueError):
        PowerPiece(-1.0, 1.0, 0.0, 1.0, 1.0)


def test_cdf_against_quadrature():
    law = mixed_law()
    for y in np.linspace(-0.7, 0.7, 29):
        direct = quad(lambda u: 0.6, -0.5, min(max(y, -0.5), 0.5))[0] if y > -0.5 else 0.0
        direct += 0.15 * (y >= -0.2) + 0.25 * (y >= 0.3)
        assert law.cdf(y) == pytest.approx(direct, abs=1e-12)
    assert law.cdf(-0.2, strict=True) == pytest.approx(law.cdf(-0.2) - 0.15, abs=1e-15)


def test_interval_moments_against_quadrature():
    law = power_law(p=1.5)
    for a, b in [(-0.4, -0.1), (-0.3, 0.2), (0.05, 0.5), (-1, 1)]:
        m0, m1, m2 = law.interval_moments(a, b)
        c = 2.5 / (2 * 0.5**2.5)
        for k, got in enumerate((m0, m1, m2)):
            want = quad(lambda y: y**k * c * abs(y) ** 1.5, max(a, -0.5), min(b, 0.5), limit=200)[0]
            assert got == pytest.approx(want, abs=1e-10)


def test_interval_moments_atoms_open_interval():
    law = mixed_law()
    m0, _, _ = law.interval_moments(-0.2, 0.3)  # both endpoints are atoms
    assert m0 == pytest.approx(0.6 * 0.5, abs=1e-12)  # no atom mass included
    m0_in, m1_in, _ = law.interval_moments(-0.25, 0.35)
    assert m0_in == pytest.approx(0.6 * 0.6 + 0.15 + 0.25, abs=1e-12)
    assert m1_in == pytest.approx(0.6 * (0.35**2 - 0.25**2) / 2 + 0.15 * -0.2 + 0.25 * 0.3, abs=1e-12)


def grid_quantile_oracle(law, tau, n=200001, slack=1e-5):
    """Brute-force quantile interval via both CDF conditions on a fine grid.

    Grid points are augmented with the law's breakpoints (atoms sit between
    grid points otherwise); the slack covers singleton quantiles strictly
    between grid points, where both conditions can only hold up to one grid
    step of CDF mass.
    """
    lo, hi = law.support
    ts = np.sort(np.concatenate([np.linspace(lo - 0.1, hi + 0.1, n), law.breakpoints]))
    ok = (law.cdf(ts) >= tau - slack) & (1.0 - law.cdf(ts, strict=True) >= 1.0 - tau - slack)
    sel = ts[ok]
    return sel[0], sel[-1]


@pytest.mark.parametrize("tau", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_quantile_interval_uniform(tau):
    law = uniform_law(0.5)
    t1, t2 = law.quantile_interval(tau)
    expected = -0.5 + tau  # exact inverse CDF
    assert t1 == pytest.approx(expected, abs=1e-12)
    assert t2 == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("tau", [0.1, 0.3, 0.5, 0.62, 0.9])
def test_quantile_interval_matches_grid_oracle(tau):
    # Positions can only agree up to the CDF-mass the oracle's slack allows
    # (a vanishing density stretches that mass over a visible t-range), so
    # agreement is asserted on the mass scale.
    for law in (mixed_law(), power_law(1.0), power_law(-0.5)):
        t1, t2 = law.quantile_interval(tau)
        o1, o2 = grid_quantile_oracle(law, tau)
        assert abs(law.cdf(t1) - law.cdf(o1)) <= 2e-5
        assert abs(law.cdf(t2, strict=True) - law.cdf(o2, strict=True)) <= 2e-5
        assert o1 - 1e-5 <= t1 <= t2 <= o2 + 1e-5 or law.cdf(t1) >= tau


def test_quantile_interval_two_atoms_flat():
    law = NoiseLaw([], [Atom(-0.5, 0.5), Atom(0.5, 0.5)])
    assert law.quantile_interval(0.5) == (-0.5, 0.5)
    assert law.quantile_interval(0.3) == (-0.5, -0.5)
    assert law.quantile_interval(0.7) == (0.5, 0.5)


def _violates_a_condition(law, t, tau, witness_interval):
    """t breaks a quantile condition: directly in floats, or through an exact
    positive-mass witness when the CDF gap falls below double resolution
    (interval moments are computed without cancellation)."""
    if law.cdf(t) < tau or 1.0 - law.cdf(t, strict=True) < 1.0 - tau:
        return True
    a, b = witness_interval
    gap = law.interval_moments(a, b)[0] + law.atom_mass_at(b)
    return gap > 0.0


def test_quantile_conditions_and_outside_violation():
    eps = 1e-6
    for law in (uniform_law(), mixed_law(), power_law(2.0)):
        for tau in (0.1, 0.5, 0.9):
            t1, t2 = law.quantile_interval(tau)
            for t in (t1, t2):
                assert law.cdf(t) >= tau - 1e-12
                assert 1.0 - law.cdf(t, strict=True) >= 1.0 - tau - 1e-12
            assert _violates_a_condition(law, t1 - eps, tau, (t1 - eps, t1))
            assert _violates_a_condition(law, t2 + eps, tau, (t2, t2 + eps))


def test_interior_mass_is_zero():
    law = NoiseLaw([], [Atom(-0.5, 0.5), Atom(0.5, 0.5)])
    t1, t2 = law.quantile_interval(0.5)
    assert law.interval_moments(t1, t2)[0] == 0.0


def test_pinball_against_quadrature():
    from kqr.losses import pinball_loss

    for law in (uniform_law(1.0), mixed_law(), power_law(0.5)):
        for tau in (0.2, 0.5, 0.8):
            for t in (-0.7, -0.1, 0.0, 0.33, 0.9):
                want = 0.0
                for p in law.pieces:
                    integrand = (
                        lambda y, _p=p: pinball_loss(tau, y, t)
                        * _p.scale * abs(y - _p.anchor) ** _p.exponent
                    )
                    # split at the loss kink so quad sees smooth integrands
                    want += quad(integrand, p.lo, min(max(t, p.lo), p.hi), limit=200)[0]
                    want += quad(integrand, min(max(t, p.lo), p.hi), p.hi, limit=200)[0]
                want += sum(a.mass * pinball_loss(tau, a.location, t) for a in law.atoms)
                # tolerance is the oracle's: quad on |y|^p endpoint singularities
                assert law.pinball(tau, t) == pytest.approx(want, abs=1e-9)


def ks_distance(law, ys):
    """sup_y |F_n(y) - F(y)| for laws with atoms: compare the left and right
    limits of both CDFs at every distinct sample value."""
    ys = np.sort(ys)
    n = len(ys)
    vals, first = np.unique(ys, return_index=True)
    count_le = np.searchsorted(ys, vals, side="right") / n
    count_lt = first / n
    right_gap = np.abs(count_le - law.cdf(vals))
    left_gap = np.abs(count_lt - law.cdf(vals, strict=True))
    return float(max(right_gap.max(), left_gap.max()))


def test_sampling_matches_cdf():
    rng = np.random.default_rng(42)
    for law in (uniform_law(), mixed_law(), power_law(1.0)):
        ys = law.sample(rng, 100_000)
        assert ks_distance(law, ys) < 0.01


def test_sampling_deterministic():
    law = mixed_law()
    a = law.sample(np.random.default_rng(7), 100)
    b = law.sample(np.random.default_rng(7), 100)
    assert np.array_equal(a, b)


# -- reference tests: the noise layer against the loops it replaced ---------------
#
# The arithmetic of cdf, moments and quantile_interval was kept when each
# quantity came to be computed once, so each must match its reference bit
# for bit (np.array_equal), not to a tolerance.


def reference_laws():
    """The noise laws of the five families, plus contaminated variants."""
    from kqr import distributions as d

    models = [
        d.bounded_density_mixture(),
        d.uniform_noise(halfwidth=0.3),
        d.polynomial_density(),
        d.polynomial_density(exponent=-0.5),
        d.dirac_atom_mixture(),
        d.two_atom(),
        d.bounded_density_mixture(contaminant_weight=0.2, contaminant_atom=0.1),
        d.polynomial_density(exponent=1.5, contaminant_weight=0.3, contaminant_atom=-0.2),
    ]
    return [m.noise for m in models]


def reference_moments(piece, a, b):
    """PowerPiece.moments as first written: np.clip, and sign(u) and |u|
    taken again in each antiderivative."""
    p = piece.exponent

    def j0(u):
        return np.sign(u) * np.abs(u) ** (p + 1.0) / (p + 1.0)

    def j1(u):
        return np.abs(u) ** (p + 2.0) / (p + 2.0)

    def j2(u):
        return np.sign(u) * np.abs(u) ** (p + 3.0) / (p + 3.0)

    a = np.clip(np.asarray(a, dtype=float), piece.lo, piece.hi)
    b = np.clip(np.asarray(b, dtype=float), piece.lo, piece.hi)
    b = np.maximum(a, b)
    ua, ub = a - piece.anchor, b - piece.anchor
    d0, d1, d2 = j0(ub) - j0(ua), j1(ub) - j1(ua), j2(ub) - j2(ua)
    c = piece.anchor
    return (piece.scale * d0, piece.scale * (d1 + c * d0),
            piece.scale * (d2 + 2.0 * c * d1 + c * c * d0))


def reference_cdf(law, y, strict):
    """The sum over pieces of moments(p.lo, y)[0] plus the atoms, clipped."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    for p in law.pieces:
        out = out + p.moments(p.lo, y)[0]
    for a in law.atoms:
        hit = (y > a.location) if strict else (y >= a.location)
        out = out + np.where(hit, a.mass, 0.0)
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def reference_quantile_interval(law, tau):
    """quantile_interval as first written: one scalar cdf per breakpoint and
    level, on every call."""
    z = law.breakpoints
    f = np.array([law.cdf(v) for v in z])
    fl = np.array([law.cdf(v, strict=True) for v in z])
    t_min = z[-1]
    for k in range(len(z)):
        if f[k] >= tau:
            if fl[k] >= tau and k > 0:
                need = tau - f[k - 1]
                if need >= fl[k] - f[k - 1]:
                    t_min = float(z[k])
                else:
                    piece = law._piece_covering(z[k - 1], z[k])
                    base = piece.moments(piece.lo, z[k - 1])[0]
                    t_min = float(piece.ppf_from_lo(base + need))
            else:
                t_min = float(z[k])
            break
    t_max = z[0]
    for k in range(len(z) - 1, -1, -1):
        if fl[k] <= tau:
            if f[k] > tau or k == len(z) - 1:
                t_max = float(z[k])
            else:
                piece = law._piece_covering(z[k], z[k + 1])
                need = tau - f[k]
                if piece is None or need <= 0.0:
                    t_max = float(z[k])
                elif need >= fl[k + 1] - f[k]:
                    t_max = float(z[k + 1])
                else:
                    base = piece.moments(piece.lo, z[k])[0]
                    t_max = float(piece.ppf_from_lo(base + need))
            break
    if t_max < t_min:
        t_min = t_max = 0.5 * (t_min + t_max)
    return t_min, t_max


def _probe_points(law):
    z = law.breakpoints
    return np.concatenate([np.linspace(-0.7, 0.7, 281), z, np.nextafter(z, -1.0),
                           np.nextafter(z, 1.0), [-0.0, 0.0]])


def test_piece_moments_match_reference():
    rng = np.random.default_rng(5)
    a = rng.uniform(-0.7, 0.7, 400)
    b = a + rng.uniform(-0.2, 0.6, 400)
    for law in reference_laws():
        for p in law.pieces:
            ends = [(a, b), (p.lo, _probe_points(law)), (_probe_points(law), p.hi)]
            ends += [(float(x), float(y)) for x, y in zip(a[:40], b[:40])]
            for lo, hi in ends:
                for got, want in zip(p.moments(lo, hi), reference_moments(p, lo, hi)):
                    assert np.array_equal(got, want)
                assert np.array_equal(p.mass_between(lo, hi), reference_moments(p, lo, hi)[0])


@pytest.mark.parametrize("strict", [False, True])
def test_cdf_matches_reference(strict):
    for law in reference_laws():
        ys = _probe_points(law)
        assert np.array_equal(law.cdf(ys, strict=strict), reference_cdf(law, ys, strict))
        grid = np.vstack([ys, -ys])
        assert np.array_equal(law.cdf(grid, strict=strict), reference_cdf(law, grid, strict))
        for y in ys:
            got = law.cdf(y, strict=strict)
            assert isinstance(got, float) and got == reference_cdf(law, y, strict)


def test_quantile_interval_matches_reference(monkeypatch):
    for law in reference_laws():
        z = law.breakpoints
        levels = np.concatenate([[law.cdf(v) for v in z], [law.cdf(v, strict=True) for v in z]])
        levels = levels[(levels > 0.0) & (levels < 1.0)]
        taus = np.concatenate([np.linspace(0.005, 0.995, 199), levels,
                               np.nextafter(levels, 0.0), np.nextafter(levels, 1.0)])
        want = [reference_quantile_interval(law, tau) for tau in taus]
        got = [law.quantile_interval(tau) for tau in taus]
        assert np.array_equal(got, want)

        # the levels are computed once per law: later queries call no cdf
        def refuse(*args, **kwargs):
            raise AssertionError("quantile_interval evaluated the CDF again")

        monkeypatch.setattr(law, "cdf", refuse)
        assert [law.quantile_interval(tau) for tau in taus] == got


def random_law(rng):
    """1 to 3 power pieces, with a zero-density gap before each later piece
    half the time, and 0 to 3 atoms at piece edges, inside pieces or in the
    gaps.  Exponents come from {-0.5, 0, 0.5, 1, 2} and each piece's anchor
    sits at its lower or upper end."""
    n_pieces = int(rng.integers(1, 4))
    ends = np.sort(rng.uniform(-1.0, 1.0, 2 * n_pieces))
    for i in range(2, 2 * n_pieces, 2):
        if rng.random() < 0.5:
            ends[i] = ends[i - 1]  # no gap before this piece
    spans = [(float(ends[i]), float(ends[i + 1])) for i in range(0, 2 * n_pieces, 2)]
    candidates = [e for span in spans for e in span]
    candidates += [float(rng.uniform(lo, hi)) for lo, hi in spans]
    candidates += [0.5 * (a[1] + b[0]) for a, b in zip(spans[:-1], spans[1:]) if a[1] < b[0]]
    locations = sorted(set(rng.choice(candidates, int(rng.integers(0, 4)), replace=False)))
    weights = rng.dirichlet(np.ones(n_pieces + len(locations)))
    pieces = []
    for (lo, hi), w in zip(spans, weights):
        p = float(rng.choice([-0.5, 0.0, 0.5, 1.0, 2.0]))
        scale = w * (p + 1.0) / (hi - lo) ** (p + 1.0)
        pieces.append(PowerPiece(lo, hi, lo if rng.random() < 0.5 else hi, p, scale))
    atoms = [Atom(float(loc), float(w)) for loc, w in zip(locations, weights[n_pieces:])]
    return NoiseLaw(pieces, atoms)


def test_quantile_interval_matches_reference_on_random_laws():
    """Bit for bit at every breakpoint level and both its float neighbours,
    on laws with gaps between pieces, atoms on piece edges and inside
    pieces, and singular or vanishing densities at either end."""
    rng = np.random.default_rng(15)
    gaps = 0
    for _ in range(120):
        law = random_law(rng)
        f, fl = law._levels
        levels = np.concatenate([f, fl])
        taus = np.concatenate([levels, np.nextafter(levels, 0.0), np.nextafter(levels, 1.0)])
        taus = np.unique(taus[(taus > 0.0) & (taus < 1.0)])
        for tau in taus:
            assert law.quantile_interval(tau) == reference_quantile_interval(law, tau)
        gaps += any(a.hi < b.lo for a, b in zip(law.pieces[:-1], law.pieces[1:]))
    assert gaps >= 20  # the zero-density gaps are exercised


def reference_interval_moments(law, a, b):
    """interval_moments as first written: all three moments of every piece
    and atom, summed in the same order."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m0 = np.zeros(np.broadcast(a, b).shape)
    m1 = np.zeros_like(m0)
    m2 = np.zeros_like(m0)
    for p in law.pieces:
        d0, d1, d2 = reference_moments(p, a, b)
        m0, m1, m2 = m0 + d0, m1 + d1, m2 + d2
    for at in law.atoms:
        w = np.where((a < at.location) & (at.location < b), at.mass, 0.0)
        m0 = m0 + w
        m1 = m1 + w * at.location
        m2 = m2 + w * at.location**2
    return m0, m1, m2


def test_interval_moments_to_order_one_are_the_first_two_of_order_two():
    """Asking for fewer moments leaves out m2 and changes no bit of m0, m1;
    both orders match the sum as first written."""
    rng = np.random.default_rng(6)
    a = rng.uniform(-0.7, 0.7, 400)
    b = a + rng.uniform(-0.2, 0.6, 400)
    for law in reference_laws():
        z = _probe_points(law)
        ends = [(a, b), (a.reshape(20, 20), b.reshape(20, 20)), (z, z + 0.1), (z - 0.2, z),
                (-0.3, 0.25), (0.4, -0.1)]
        for lo, hi in ends:
            want = reference_interval_moments(law, lo, hi)
            full = law.interval_moments(lo, hi)
            low = law.interval_moments(lo, hi, 1)
            assert len(full) == 3 and len(low) == 2
            for got, ref in zip(full, want):
                assert np.array_equal(got, ref)
            for got, ref in zip(low, want[:2]):
                assert np.array_equal(got, ref)
            for p in law.pieces:
                assert all(np.array_equal(x, y) for x, y in
                           zip(p.moments(lo, hi, 1), reference_moments(p, lo, hi)[:2]))
