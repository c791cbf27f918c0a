import numpy as np
import pytest
from scipy.optimize import brentq

from cvsheet.mhd import IdealGasEos, PhysState, alfven_speed, sound_speed
from cvsheet.stability import (LambdaPair, StabilityError,
                               assemble_symmetrizer, boundary_quadratic_form,
                               build_lambda, check_b0_positive,
                               check_stability, extend_lambda,
                               symmetrizer_matrices, wang_yu_compare)

EOS = IdealGasEos()


def _pair(u2p=0.0, u2m=0.0, H2p=1.0, H2m=1.0, p=1.0, S=0.0):
    plus = PhysState(p=p, u1=0.0, u2=u2p, H1=0.0, H2=H2p, S=S)
    minus = PhysState(p=p, u1=0.0, u2=u2m, H1=0.0, H2=H2m, S=S)
    return plus, minus


def test_stability_zero_jump_always_satisfied():
    plus, minus = _pair(H2p=0.5, H2m=0.0)
    rep = check_stability(plus, minus, EOS, k=1e-3)
    assert rep.satisfied
    assert rep.margin_min == pytest.approx(float(rep.a_plus * 0.5))


def test_stability_violated_without_field():
    plus, minus = _pair(u2p=0.5, u2m=-0.5, H2p=0.0, H2m=0.0)
    rep = check_stability(plus, minus, EOS, k=1e-3)
    assert not rep.satisfied
    assert rep.margin_min == pytest.approx(-1.0)


def test_stability_incompressible_limit():
    # surrogate c -> infinity: a -> 1/sqrt(rho), margin -> |H+|+|H-|-|[u2]|
    class StiffEos(IdealGasEos):
        def density_dp(self, p, S):
            return np.asarray(1e-12 * np.ones_like(np.asarray(p, float)))

        def density(self, p, S):
            return np.ones_like(np.asarray(p, float))

    plus, minus = _pair(u2p=0.3, u2m=-0.2, H2p=1.0, H2m=0.7)
    rep = check_stability(plus, minus, StiffEos(), k=1e-3,
                          admissibility_margin=1e-15)
    exact = 1.0 + 0.7 - 0.5
    assert rep.margin_min == pytest.approx(exact, rel=1e-6)


def test_build_lambda_zero_jump():
    plus, minus = _pair(u2p=0.0, u2m=0.0)
    lam = build_lambda(plus, minus, EOS)
    assert np.all(lam.lam_plus == 0.0)
    assert np.all(lam.lam_minus == 0.0)


def test_build_lambda_one_sided():
    plus, minus = _pair(u2p=1.0, u2m=0.0, H2p=2.0, H2m=0.0)
    lam = build_lambda(plus, minus, EOS, k=1e-6)
    assert lam.lam_plus == pytest.approx(0.5)
    assert lam.lam_minus == 0.0
    # mirrored case
    plus, minus = _pair(u2p=1.0, u2m=0.0, H2p=0.0, H2m=2.0)
    lam = build_lambda(plus, minus, EOS, k=1e-6)
    assert lam.lam_plus == 0.0
    assert lam.lam_minus == pytest.approx(-0.5)


def test_build_lambda_two_sided_closed_form():
    # with a± = 1 forced: H2+ = 2, H2- = 1, [u2] = 1: lambda± = ±1/3
    class UnitA(IdealGasEos):
        def density(self, p, S):
            return np.ones_like(np.asarray(p, float))

        def density_dp(self, p, S):
            return 1e18 * np.ones_like(np.asarray(p, float))  # cA/c -> 0... c tiny

    # easier: check the identity directly with the ideal gas
    plus, minus = _pair(u2p=1.0, u2m=0.0, H2p=2.0, H2m=1.0, p=2.0)
    lam = build_lambda(plus, minus, EOS, k=1e-6)
    identity = lam.lam_plus * 2.0 - lam.lam_minus * 1.0
    assert identity == pytest.approx(1.0, abs=1e-14)
    rep = check_stability(plus, minus, EOS)
    assert abs(lam.lam_plus) < rep.a_plus
    assert abs(lam.lam_minus) < rep.a_minus


def test_build_lambda_requires_stability():
    plus, minus = _pair(u2p=5.0, u2m=-5.0, H2p=0.1, H2m=0.0)
    with pytest.raises(StabilityError):
        build_lambda(plus, minus, EOS)


def test_collar_positivity_error_names_the_collar_and_eps():
    # the wall is stable, but a low-entropy interior (S = -3 beyond x1 =
    # 0.1) is too dense for the multiplier that the collar carries there
    plus, minus = _pair(u2p=0.45, u2m=-0.45, H2p=1.0, H2m=1.0)
    lam = build_lambda(plus, minus, EOS)
    x1 = np.linspace(0.0, 1.0, 33)
    S = np.where(x1 > 0.1, -3.0, 0.0)[:, None]
    states = [PhysState(p=np.ones_like(S), u1=0.0, u2=u2, H1=0.0, H2=1.0,
                        S=S) for u2 in (0.45, -0.45)]
    with pytest.raises(StabilityError,
                       match=r"B0 lost positivity in the collar .*"
                             r"retry with eps < 0\.5"):
        extend_lambda(lam, x1, eps=0.5, states=states, eos=EOS)


def test_build_lambda_vectorized_invariants():
    rng = np.random.default_rng(11)
    n = 4000
    plus = PhysState(p=rng.uniform(0.5, 3.0, n), u1=0.0,
                     u2=rng.normal(0, 0.2, n), H1=0.0,
                     H2=rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n),
                     S=rng.uniform(-0.3, 0.3, n))
    minus = PhysState(p=rng.uniform(0.5, 3.0, n), u1=0.0,
                      u2=rng.normal(0, 0.2, n), H1=0.0,
                      H2=rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n),
                      S=rng.uniform(-0.3, 0.3, n))
    rep = check_stability(plus, minus, EOS, k=1e-3)
    keep = rep.margin >= 1e-3

    def restrict(state):
        return PhysState(*(np.broadcast_to(np.asarray(getattr(state, f), float),
                                           (n,))[keep]
                           for f in ("p", "u1", "u2", "H1", "H2", "S")))

    lam = build_lambda(restrict(plus), restrict(minus), EOS, k=1e-3)
    H2p = np.asarray(plus.H2)[keep]
    H2m = np.asarray(minus.H2)[keep]
    jump = (np.asarray(np.broadcast_to(plus.u2, n))[keep]
            - np.asarray(np.broadcast_to(minus.u2, n))[keep])
    assert np.max(np.abs(lam.lam_plus * H2p - lam.lam_minus * H2m - jump)) < 1e-12
    assert np.all(np.abs(lam.lam_plus) < rep.a_plus[keep])
    assert np.all(np.abs(lam.lam_minus) < rep.a_minus[keep])


def test_symmetrizer_shapes_and_lambda_zero():
    state = PhysState(p=1.0, u1=0.2, u2=0.1, H1=0.4, H2=0.8, S=0.0)
    bundle = assemble_symmetrizer(state, 0.0, EOS)
    from cvsheet.mhd import assemble_coefficients
    assert np.allclose(bundle.B0, assemble_coefficients(state, EOS)[0])
    S, T = symmetrizer_matrices(state, 0.0, EOS)
    assert np.allclose(S, np.eye(6))
    assert np.allclose(T, 0.0)


def test_b0_entry_pattern():
    class Unit(IdealGasEos):
        def density(self, p, S):
            return np.ones_like(np.asarray(p, float))

        def density_dp(self, p, S):
            return np.ones_like(np.asarray(p, float))

    state = PhysState(p=1.0, u1=0.0, u2=0.0, H1=0.0, H2=1.0, S=0.0)
    bundle = assemble_symmetrizer(state, 0.5, Unit())
    # rho = c = 1: entry (1,3) of B0 (1-indexed) is lambda H2 / c^2
    assert bundle.B0[0, 2] == pytest.approx(0.5)
    assert np.allclose(bundle.B0, bundle.B0.T)
    assert np.allclose(bundle.B1, bundle.B1.T)
    assert np.allclose(bundle.B2, bundle.B2.T)


def test_b0_positivity_analytic_vs_eigen():
    rng = np.random.default_rng(5)
    agree = 0
    for _ in range(300):
        state = PhysState(p=rng.uniform(0.3, 4.0), u1=rng.normal(),
                          u2=rng.normal(), H1=rng.normal(0, 1.5),
                          H2=rng.normal(0, 1.5), S=rng.uniform(-0.5, 0.5))
        from cvsheet.mhd import alfven_speed, sound_speed
        rho = EOS.density(state.p, state.S)
        bound = np.sqrt(1.0 / (rho * (1.0 + (alfven_speed(state, EOS)
                                             / sound_speed(state, EOS)) ** 2)))
        lam = rng.uniform(-1.4, 1.4) * bound
        cert = check_b0_positive(state, lam, EOS)
        assert cert.positive == (cert.min_eig > 0) or abs(cert.min_eig) < 1e-12
        agree += 1
    assert agree == 300


def test_b0_singular_at_criterion_boundary():
    state = PhysState(p=1.3, u1=0.0, u2=0.0, H1=0.6, H2=-0.9, S=0.2)
    from cvsheet.mhd import alfven_speed, sound_speed
    rho = EOS.density(state.p, state.S)
    lam_star = np.sqrt(1.0 / (rho * (1.0 + (alfven_speed(state, EOS)
                                            / sound_speed(state, EOS)) ** 2)))
    cert = check_b0_positive(state, lam_star, EOS)
    assert abs(cert.min_eig) <= 1e-10


def test_extend_lambda_profile_and_positivity():
    plus, minus = _pair(u2p=0.4, u2m=-0.4, H2p=1.5, H2m=1.2)
    lamb = build_lambda(
        PhysState(*(np.full(8, getattr(plus, f)) for f in
                    ("p", "u1", "u2", "H1", "H2", "S"))),
        PhysState(*(np.full(8, getattr(minus, f)) for f in
                    ("p", "u1", "u2", "H1", "H2", "S"))), EOS)
    x1 = np.linspace(0.0, 2.0, 21)
    field = extend_lambda(lamb, x1, eps=0.5)
    assert np.allclose(field[0][0, :], lamb.lam_plus)   # eta(0) = 1
    assert np.allclose(field[:, x1 > 0.5, :], 0.0)      # beyond the collar
    # halving eps cannot decrease the positivity margin anywhere: sweep the
    # smallest eigenvalue of the symmetrized time coefficient pointwise
    field2 = extend_lambda(lamb, x1, eps=0.25)
    assert np.all(np.abs(field2) <= np.abs(field) + 1e-15)
    grid_plus = PhysState(*(np.full((21, 8), getattr(plus, f))
                            for f in ("p", "u1", "u2", "H1", "H2", "S")))
    eig1 = check_b0_positive(grid_plus, field[0], EOS)
    eig2 = check_b0_positive(grid_plus, field2[0], EOS)
    from cvsheet.stability import assemble_symmetrizer

    def min_eigs(lam_field):
        B0 = assemble_symmetrizer(grid_plus, lam_field, EOS).B0
        return np.linalg.eigvalsh(np.moveaxis(B0, (0, 1), (-2, -1))).min(-1)

    assert np.all(min_eigs(field2[0]) >= min_eigs(field[0]) - 1e-12)
    assert eig1.positive and eig2.positive


def test_boundary_form_decomposition_identity():
    rng = np.random.default_rng(2)
    n = 64
    x2 = np.linspace(-np.pi, np.pi, n, endpoint=False)
    plus = PhysState(p=1.0, u1=0.0, u2=0.4, H1=0.0, H2=1.4, S=0.0)
    minus = PhysState(p=1.0, u1=0.0, u2=-0.4, H1=0.0, H2=-1.1, S=0.0)
    bt = {"u2p": 0.4, "u2m": -0.4, "H2p": 1.4, "H2m": -1.1,
          "d1uNp": 0.3, "d1uNm": -0.1, "d1HNp": 0.2, "d1HNm": 0.15,
          "d1q_jump": 0.5}
    phi = 0.1 * np.sin(x2)
    dphi_t = 0.05 * np.cos(2 * x2)
    dphi_2 = 0.1 * np.cos(x2)
    qp = rng.normal(size=n)
    lam = build_lambda(plus, minus, EOS)
    generic = LambdaPair(lam_plus=np.full(n, 0.21), lam_minus=np.full(n, -0.17))

    for pair in (lam, generic):
        lp = np.broadcast_to(pair.lam_plus, n)
        lm = np.broadcast_to(pair.lam_minus, n)
        # manufacture traces satisfying the linearized constraints exactly
        vplus = {"q": qp,
                 "uN": dphi_t + bt["u2p"] * dphi_2 - phi * bt["d1uNp"],
                 "HN": bt["H2p"] * dphi_2 - phi * bt["d1HNp"]}
        vminus = {"q": qp + phi * bt["d1q_jump"],
                  "uN": dphi_t + bt["u2m"] * dphi_2 + phi * bt["d1uNm"],
                  "HN": bt["H2m"] * dphi_2 + phi * bt["d1HNm"]}
        dec = boundary_quadratic_form(vplus, vminus, pair, phi, dphi_t,
                                      dphi_2, bt)
        assert dec.constraint_warning is None
        assert np.max(np.abs(dec.total - dec.leading - dec.lot)) < 1e-12

    # with the constructed lambda the leading coefficient vanishes
    lamf = LambdaPair(lam_plus=np.broadcast_to(lam.lam_plus, n),
                      lam_minus=np.broadcast_to(lam.lam_minus, n))
    vplus = {"q": qp, "uN": dphi_t + bt["u2p"] * dphi_2 - phi * bt["d1uNp"],
             "HN": bt["H2p"] * dphi_2 - phi * bt["d1HNp"]}
    vminus = {"q": qp + phi * bt["d1q_jump"],
              "uN": dphi_t + bt["u2m"] * dphi_2 + phi * bt["d1uNm"],
              "HN": bt["H2m"] * dphi_2 + phi * bt["d1HNm"]}
    dec = boundary_quadratic_form(vplus, vminus, lamf, phi, dphi_t, dphi_2, bt)
    assert np.max(np.abs(dec.leading_coeff)) < 1e-12


def test_boundary_form_zero_input():
    zero = np.zeros(8)
    v = {"q": zero, "uN": zero, "HN": zero}
    pair = LambdaPair(lam_plus=zero, lam_minus=zero)
    bt = {k: 0.0 for k in ("u2p", "u2m", "H2p", "H2m", "d1uNp", "d1uNm",
                           "d1HNp", "d1HNm", "d1q_jump")}
    dec = boundary_quadratic_form(v, v, pair, zero, zero, zero, bt)
    assert np.all(dec.total == 0.0)


@pytest.mark.parametrize("p, H2", [(1.0, 1.0), (2.0, 0.5), (0.5, 0.6)])
def test_wang_yu_thresholds_are_on_the_squared_half_jump(p, H2):
    # on a symmetric sheet u2± = ±v the margin 2 a |H2| - 2 v vanishes at
    # v = u2_jump / 2 = sqrt(ours): the thresholds bound (u2_jump / 2)^2
    def margin(v):
        return check_stability(*_pair(u2p=v, u2m=-v, H2p=H2, H2m=H2, p=p),
                               EOS).margin_min

    root = brentq(margin, 0.0, 10.0, xtol=1e-15)
    plus, _ = _pair(H2p=H2, p=p)
    ours, _, _ = wang_yu_compare(sound_speed(plus, EOS),
                                 alfven_speed(plus, EOS))
    assert root == pytest.approx(np.sqrt(ours), rel=1e-12)


def test_wang_yu_limits_and_strictness():
    ours, sub, sup = wang_yu_compare(1.0, 1.0 - 1e-8)
    assert ours == pytest.approx(0.5, abs=1e-3)
    assert sub == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError):
        wang_yu_compare(1.0, 1.0)
    rng = np.random.default_rng(1)
    c = rng.uniform(0.5, 3.0, 1000)
    frac = rng.uniform(1e-4, 1 - 1e-4, 1000)
    ours, sub, sup = wang_yu_compare(c, frac * c)
    assert np.all(ours < sub)
    assert np.all(sub < sup)
    # small-cA joint vanishing
    o, s, _ = wang_yu_compare(1.0, 1e-8)
    assert o < 1e-12 and s < 1e-12
