"""Secondary Friedrichs symmetrizer, the lambda construction, and stability.

The boundary quadratic form of the symmetrized linearized system is
2 [qdot (udot_N - lambda Hdot_N)].  Choosing the multiplier fields
lambda±(t, x2) so that [u2 - lambda H2] = 0 kills the form's leading
coefficient; such lambda with |lambda±| < a± exist exactly when

    a+ |H2+| + a- |H2-| - |[u2]| > 0,      a± = 1 / sqrt(rho± (1 + c_A±^2/c±^2)),

which is the stability condition this module checks, maps, and compares
against the closed-form subsonic/supersonic thresholds of the spectral
analysis for symmetric piecewise-constant backgrounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mhd import (IH1, IH2, IP, IU1, IU2, NCOMP, PhysState, alfven_speed,
                  assemble_coefficients, sound_speed, _require_admissible)
from .profiles import eta

#: magnetic fields below this magnitude are routed through the one-sided
#: branch of the lambda construction to avoid sign noise
H2_TINY = 1e-10
#: boundary traces off the linearized wall constraints by more than this
#: make the boundary form's decomposition formal
_CONSTRAINT_TOL = 1e-8


class StabilityError(RuntimeError):
    """Raised when an operation requires the stability condition."""


def _a_hat(state: PhysState, eos, margin: float) -> np.ndarray:
    """The symmetrizer bound a = 1/sqrt(rho (1 + cA^2/c^2))."""
    rho = eos.density(state.p, state.S)
    cA = alfven_speed(state, eos, margin)
    c = sound_speed(state, eos, margin)
    return np.asarray(np.sqrt(1.0 / (rho * (1.0 + (cA / c) ** 2))), float)


@dataclass
class StabilityReport:
    """Pointwise margin a+|H2+| + a-|H2-| - |[u2]| and the k-threshold flag."""

    margin: np.ndarray
    k: float
    a_plus: np.ndarray
    a_minus: np.ndarray

    @property
    def satisfied(self) -> bool:
        return bool(np.all(self.margin >= self.k))

    @property
    def margin_min(self) -> float:
        return float(np.min(self.margin))


def check_stability(plus: PhysState, minus: PhysState, eos,
                    k: float = 1e-3, admissibility_margin: float = 1e-6
                    ) -> StabilityReport:
    """The margin a+|H2+| + a-|H2-| - |[u2]| against the threshold ``k``;
    ``admissibility_margin``, the least density and drho/dp the wave speeds
    accept, is lowered for a nearly incompressible EOS (drho/dp ~ 1e-12)."""
    ap = _a_hat(plus, eos, admissibility_margin)
    am = _a_hat(minus, eos, admissibility_margin)
    jump_u2 = np.asarray(plus.u2, float) - np.asarray(minus.u2, float)
    margin = ap * np.abs(plus.H2) + am * np.abs(minus.H2) - np.abs(jump_u2)
    margin = np.asarray(np.broadcast_arrays(margin, ap * np.ones_like(am))[0], float)
    return StabilityReport(margin=margin, k=k, a_plus=ap, a_minus=am)


@dataclass
class LambdaPair:
    """Boundary multiplier fields lambda±.

    Wherever the stability margin is positive the fields satisfy
    |lambda±| < a± and lambda+ H2+ - lambda- H2- = [u2].
    """

    lam_plus: np.ndarray
    lam_minus: np.ndarray


def build_lambda(plus: PhysState, minus: PhysState, eos,
                 k: float = 1e-3) -> LambdaPair:
    """Boundary values of the multiplier, case-split on the H2 signs.

    Zero jump gives lambda± = 0; a single nonvanishing H2 forces the
    one-sided solution [u2]/H2; otherwise the two-sided closed form splits
    the jump proportionally to a±|H2±|.
    """
    report = check_stability(plus, minus, eos, k)
    if not report.satisfied:
        raise StabilityError(
            f"stability condition violated: min margin {report.margin_min}")
    ap, am = report.a_plus, report.a_minus
    H2p = np.asarray(plus.H2, float)
    H2m = np.asarray(minus.H2, float)
    ju = np.asarray(plus.u2, float) - np.asarray(minus.u2, float)
    ap, am, H2p, H2m, ju = np.broadcast_arrays(ap, am, H2p, H2m, ju)

    denom = ap * np.abs(H2p) + am * np.abs(H2m)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_p_two = np.sign(H2p) * ap * ju / denom
        lam_m_two = -np.sign(H2m) * am * ju / denom
        lam_p_one = ju / np.where(np.abs(H2p) > H2_TINY, H2p, 1.0)
        lam_m_one = -ju / np.where(np.abs(H2m) > H2_TINY, H2m, 1.0)

    p_zero = np.abs(H2p) <= H2_TINY
    m_zero = np.abs(H2m) <= H2_TINY
    lam_p = np.where(m_zero, lam_p_one, lam_p_two)
    lam_m = np.where(m_zero, 0.0, np.where(p_zero, lam_m_one, lam_m_two))
    lam_p = np.where(p_zero & ~m_zero, 0.0, lam_p)
    zero_jump = ju == 0.0
    lam_p = np.where(zero_jump, 0.0, lam_p)
    lam_m = np.where(zero_jump, 0.0, lam_m)
    return LambdaPair(lam_plus=np.asarray(lam_p, float),
                      lam_minus=np.asarray(lam_m, float))


def extend_lambda(pair: LambdaPair, x1: np.ndarray, *, eps: float,
                  states=None, eos=None) -> np.ndarray:
    """Interior extension lambda^(x1, x2) = eta(x1) lambda(x2), per side,
    with the collar profile eta of width ``eps``.

    Returns a (2, n1, n2)-shaped field (broadcasting any leading axes of
    the boundary values).  When interior ``states`` are supplied, B0
    positivity is verified on every grid point instead of assumed; losing
    it means the collar eps must shrink.
    """
    prof = eta(np.asarray(x1, float), eps)[:, None]
    lam_p = np.atleast_1d(np.asarray(pair.lam_plus, float))
    lam_m = np.atleast_1d(np.asarray(pair.lam_minus, float))
    lam = np.stack([lam_p[..., None, :] * prof, lam_m[..., None, :] * prof])
    if states is not None:
        for i, st in enumerate(states):
            cert = check_b0_positive(st, lam[i], eos)
            if not cert.positive:
                raise StabilityError(
                    f"B0 lost positivity in the collar (min eig "
                    f"{cert.min_eig}); retry with eps < {eps}")
    return lam


@dataclass
class SymmetrizerBundle:
    """S, T and the symmetrized coefficient matrices for one side."""

    S: np.ndarray
    T: np.ndarray
    B0: np.ndarray
    B1: np.ndarray
    B2: np.ndarray


def symmetrizer_matrices(state: PhysState, lam, eos):
    """The multiplier pair (S, T): S is 6x6, T the divergence weight vector."""
    rho, rho_p = _require_admissible(state, eos)
    lam = np.asarray(lam, float)
    shape = np.broadcast_shapes(lam.shape, np.shape(np.asarray(state.p, float)))
    rho = np.broadcast_to(rho, shape)
    c2 = np.broadcast_to(1.0 / rho_p, shape)
    H1 = np.broadcast_to(np.asarray(state.H1, float), shape)
    H2 = np.broadcast_to(np.asarray(state.H2, float), shape)
    lam = np.broadcast_to(lam, shape)
    S = np.zeros((NCOMP, NCOMP) + shape)
    for i in range(NCOMP):
        S[i, i] = 1.0
    S[IP, IU1] = lam * H1 / (rho * c2)
    S[IP, IU2] = lam * H2 / (rho * c2)
    S[IU1, IP] = lam * H1 * rho
    S[IU2, IP] = lam * H2 * rho
    S[IU1, IH1] = -rho * lam
    S[IU2, IH2] = -rho * lam
    S[IH1, IU1] = -lam
    S[IH2, IU2] = -lam
    T = np.zeros((NCOMP,) + shape)
    T[IP] = -lam
    T[IH1] = -lam * H1
    T[IH2] = -lam * H2
    return S, T


def assemble_symmetrizer(state: PhysState, lam, eos) -> SymmetrizerBundle:
    """Symmetrized matrices B0 = S A0, B1 = S A1 + T e4^T, B2 = S A2 + T e5^T.

    The T columns absorb the div H terms; all three outputs stay symmetric.
    Each A_k is released as soon as its B_k is formed.
    """
    S, T = symmetrizer_matrices(state, lam, eos)
    A = list(assemble_coefficients(state, eos))
    B0, B1, B2 = (np.einsum("ik...,kj...->ij...", S, A.pop(0))
                  for _ in range(3))
    B1[:, IH1] += T
    B2[:, IH2] += T
    return SymmetrizerBundle(S=S, T=T, B0=B0, B1=B1, B2=B2)


@dataclass(frozen=True)
class PositivityCertificate:
    positive: bool      # rho lambda^2 (1 + cA^2/c^2) < 1 at every point
    min_eig: float


def check_b0_positive(state: PhysState, lam, eos) -> PositivityCertificate:
    """B0 > 0 iff rho lambda^2 < 1 / (1 + cA^2/c^2): the criterion at every
    point, and the smallest eigenvalue of B0 it is checked against."""
    bundle = assemble_symmetrizer(state, lam, eos)
    B0 = np.moveaxis(bundle.B0, (0, 1), (-2, -1))
    eigs = np.linalg.eigvalsh(B0)
    rho = np.asarray(eos.density(state.p, state.S), float)
    cA = alfven_speed(state, eos)
    c = sound_speed(state, eos)
    lhs = rho * np.asarray(lam, float) ** 2 * (1.0 + (cA / c) ** 2)
    return PositivityCertificate(positive=bool(np.all(lhs < 1.0)),
                                 min_eig=float(np.min(eigs)))


def linearized_wall_rows(vplus, vminus, phi, dphi_t, dphi_2, bt):
    """The linearized wall conditions as the rows (kin+, kin-, H_N+, H_N-,
    [q]) of the perturbation's wall traces ``q``, ``uN``, ``HN`` per side,
    the front phi with its rate and d2 phi, and the basic wall traces ``bt``
    (``linearized.boundary_traces``)."""
    return (dphi_t + bt["u2p"] * dphi_2 - vplus["uN"] - phi * bt["d1uNp"],
            dphi_t + bt["u2m"] * dphi_2 - vminus["uN"] + phi * bt["d1uNm"],
            bt["H2p"] * dphi_2 - vplus["HN"] - phi * bt["d1HNp"],
            bt["H2m"] * dphi_2 - vminus["HN"] + phi * bt["d1HNm"],
            vplus["q"] - vminus["q"] + phi * bt["d1q_jump"])


def leading_coefficient(lam_pair: LambdaPair, bt):
    """[u2 - lambda H2] of the wall traces ``bt``: the boundary form's
    leading coefficient, which ``build_lambda``'s multiplier kills."""
    return ((bt["u2p"] - lam_pair.lam_plus * bt["H2p"])
            - (bt["u2m"] - lam_pair.lam_minus * bt["H2m"]))


@dataclass
class BoundaryFormDecomposition:
    """total = leading + lot, with the leading coefficient reported separately."""

    total: np.ndarray
    leading: np.ndarray
    lot: np.ndarray
    leading_coeff: np.ndarray
    constraint_warning: str | None = None


def boundary_quadratic_form(vplus, vminus, lam_pair: LambdaPair,
                            phi, dphi_t, dphi_2,
                            basic_traces) -> BoundaryFormDecomposition:
    """Boundary quadratic form 2 [qdot (udot_N - lambda Hdot_N)] and its split.

    The traces are those ``linearized_wall_rows`` reads; ``d1q_jump`` is the
    sum of one-sided d1 q-hat traces, by the straightening convention.  The
    split uses the homogeneous wall rows; if the supplied traces violate
    them beyond tolerance a warning is attached and the decomposition is
    still returned.
    """
    lp, lm = lam_pair.lam_plus, lam_pair.lam_minus
    bt = basic_traces
    total = 2.0 * (vplus["q"] * (vplus["uN"] - lp * vplus["HN"])
                   - vminus["q"] * (vminus["uN"] - lm * vminus["HN"]))

    coeff = leading_coefficient(lam_pair, bt)
    leading = 2.0 * coeff * vplus["q"] * dphi_2
    d1uN_jump = (bt["d1uNp"] - lp * bt["d1HNp"]) + (bt["d1uNm"] - lm * bt["d1HNm"])
    lot = (-2.0 * d1uN_jump * vplus["q"] * phi
           - 2.0 * bt["d1q_jump"] * phi * dphi_t
           - 2.0 * bt["d1q_jump"] * (bt["u2m"] - lm * bt["H2m"]) * phi * dphi_2
           - 2.0 * bt["d1q_jump"] * (bt["d1uNm"] - lm * bt["d1HNm"]) * phi ** 2)

    warning = None
    worst = max(float(np.max(np.abs(r))) for r in linearized_wall_rows(
        vplus, vminus, phi, dphi_t, dphi_2, bt))
    if worst > _CONSTRAINT_TOL:
        warning = (f"boundary traces violate the linearized constraints by "
                   f"{worst:.3e}; decomposition is formal")
    return BoundaryFormDecomposition(total=total, leading=leading, lot=lot,
                                     leading_coeff=coeff,
                                     constraint_warning=warning)


def wang_yu_compare(c_hat, cA_hat):
    """Stability thresholds on (u2_jump/2)^2 for the symmetric background
    u2± = ±u2_jump/2 with equal p and H2 on both sides.

    Returns (ours, wy_subsonic, wy_supersonic): our bound
    cA^2 c^2 / (c^2 + cA^2) against the spectral subsonic and supersonic
    thresholds c^2 (1 ∓ sqrt((c^2 - cA^2)/(c^2 + cA^2))).  Only the
    sub-Alfvenic regime 0 < cA < c is admitted.
    """
    c = np.asarray(c_hat, dtype=float)
    cA = np.asarray(cA_hat, dtype=float)
    if np.any(cA <= 0.0) or np.any(cA >= c):
        raise ValueError("wang_yu_compare requires 0 < cA < c")
    c2, a2 = c ** 2, cA ** 2
    ours = a2 * c2 / (c2 + a2)
    root = c2 * np.sqrt((c2 - a2) / (c2 + a2))
    return ours, c2 - root, c2 + root
