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

from dataclasses import dataclass, field

import numpy as np

from .mhd import (IH1, IH2, IP, IU1, IU2, NCOMP, PhysState, alfven_speed,
                  assemble_coefficients, sound_speed, _require_admissible)
from .profiles import EtaProfile

#: magnetic fields below this magnitude are routed through the one-sided
#: branch of the lambda construction to avoid sign noise
H2_TINY = 1e-10


class StabilityError(RuntimeError):
    """Raised when an operation requires the stability condition."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"stability condition violated: min margin {report.margin_min}")


@dataclass(frozen=True)
class AlfvenData:
    """Alfven speed and the symmetrizer bound a = 1/sqrt(rho (1 + cA^2/c^2))."""

    c_A: np.ndarray
    a_hat: np.ndarray

    @classmethod
    def from_state(cls, state: PhysState, eos, margin: float = 1e-6) -> "AlfvenData":
        rho = eos.density(state.p, state.S)
        cA = alfven_speed(state, eos, margin)
        c = sound_speed(state, eos, margin)
        a = np.sqrt(1.0 / (rho * (1.0 + (cA / c) ** 2)))
        return cls(c_A=np.asarray(cA, float), a_hat=np.asarray(a, float))


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
    ap = AlfvenData.from_state(plus, eos, admissibility_margin).a_hat
    am = AlfvenData.from_state(minus, eos, admissibility_margin).a_hat
    jump_u2 = np.asarray(plus.u2, float) - np.asarray(minus.u2, float)
    margin = ap * np.abs(plus.H2) + am * np.abs(minus.H2) - np.abs(jump_u2)
    margin = np.asarray(np.broadcast_arrays(margin, ap * np.ones_like(am))[0], float)
    return StabilityReport(margin=margin, k=k, a_plus=ap, a_minus=am)


@dataclass
class LambdaPair:
    """Boundary multiplier fields lambda± with their interior collar profile.

    Wherever the stability margin is positive the fields satisfy
    |lambda±| < a± and lambda+ H2+ - lambda- H2- = [u2].
    """

    lam_plus: np.ndarray
    lam_minus: np.ndarray
    eta: EtaProfile = field(default_factory=lambda: EtaProfile(eps=0.25))


def build_lambda(plus: PhysState, minus: PhysState, eos,
                 k: float = 1e-3) -> LambdaPair:
    """Boundary values of the multiplier, case-split on the H2 signs.

    Zero jump gives lambda± = 0; a single nonvanishing H2 forces the
    one-sided solution [u2]/H2; otherwise the two-sided closed form splits
    the jump proportionally to a±|H2±|.
    """
    report = check_stability(plus, minus, eos, k)
    if not report.satisfied:
        raise StabilityError(report)
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


def extend_lambda(pair: LambdaPair, x1: np.ndarray, *, eps: float | None = None,
                  states=None, eos=None) -> np.ndarray:
    """Interior extension lambda^(x1, x2) = eta(x1) lambda(x2), per side.

    Returns a (2, n1, n2)-shaped field (broadcasting any leading axes of
    the boundary values).  When interior ``states`` are supplied, B0
    positivity is verified on every grid point instead of assumed; losing
    it means the collar eps must shrink.
    """
    eta = pair.eta if eps is None else EtaProfile(eps=eps)
    prof = eta.value(np.asarray(x1, float))[:, None]
    lam_p = np.atleast_1d(np.asarray(pair.lam_plus, float))
    lam_m = np.atleast_1d(np.asarray(pair.lam_minus, float))
    lam = np.stack([lam_p[..., None, :] * prof, lam_m[..., None, :] * prof])
    if states is not None:
        for i, st in enumerate(states):
            cert = check_b0_positive(st, lam[i], eos)
            if not cert.positive:
                raise StabilityError(_FakeReport(cert.min_eig, eta.eps))
    return lam


@dataclass
class _FakeReport:
    margin_min: float
    eps: float

    def __str__(self):
        return (f"B0 lost positivity in the collar (min eig {self.margin_min}); "
                f"retry with eps < {self.eps}")


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
    """
    S, T = symmetrizer_matrices(state, lam, eos)
    A0, A1, A2 = assemble_coefficients(state, eos)
    B0 = np.einsum("ik...,kj...->ij...", S, A0)
    B1 = np.einsum("ik...,kj...->ij...", S, A1)
    B2 = np.einsum("ik...,kj...->ij...", S, A2)
    B1[:, IH1] += T
    B2[:, IH2] += T
    return SymmetrizerBundle(S=S, T=T, B0=B0, B1=B1, B2=B2)


@dataclass(frozen=True)
class PositivityCertificate:
    positive: bool
    min_eig: float
    criterion_lhs: float  # max over points of rho lambda^2 (1 + cA^2/c^2)

    def __bool__(self):
        return self.positive


def check_b0_positive(state: PhysState, lam, eos) -> PositivityCertificate:
    """B0 > 0 iff rho lambda^2 < 1 / (1 + cA^2/c^2); certificate carries min eig."""
    bundle = assemble_symmetrizer(state, lam, eos)
    B0 = np.moveaxis(bundle.B0, (0, 1), (-2, -1))
    eigs = np.linalg.eigvalsh(B0)
    rho = np.asarray(eos.density(state.p, state.S), float)
    cA = alfven_speed(state, eos)
    c = sound_speed(state, eos)
    lhs = rho * np.asarray(lam, float) ** 2 * (1.0 + (cA / c) ** 2)
    return PositivityCertificate(
        positive=bool(np.all(lhs < 1.0)),
        min_eig=float(np.min(eigs)),
        criterion_lhs=float(np.max(lhs)))


@dataclass
class BoundaryFormDecomposition:
    """total = leading + lot, with the leading coefficient reported separately."""

    total: np.ndarray
    leading: np.ndarray
    lot: np.ndarray
    leading_coeff: np.ndarray
    constraint_warning: str | None = None


def boundary_quadratic_form(vplus, vminus, lam_pair: LambdaPair,
                            phi, dphi_t, dphi_2, basic_traces,
                            constraint_tol: float = 1e-8) -> BoundaryFormDecomposition:
    """Boundary quadratic form 2 [qdot (udot_N - lambda Hdot_N)] and its split.

    ``vplus``/``vminus`` are dicts with boundary traces ``q``, ``uN``, ``HN``;
    ``basic_traces`` carries the background boundary data: ``u2±``, ``H2±``,
    ``d1uN±``, ``d1HN±`` and the normal-derivative jump ``d1q_jump`` (the sum
    of one-sided d1 q-hat traces, by the straightening convention).  The
    split uses the linearized boundary conditions and the H_N constraint; if
    the supplied traces violate them beyond tolerance a warning is attached
    and the decomposition is still returned.
    """
    lp, lm = lam_pair.lam_plus, lam_pair.lam_minus
    bt = basic_traces
    total = 2.0 * (vplus["q"] * (vplus["uN"] - lp * vplus["HN"])
                   - vminus["q"] * (vminus["uN"] - lm * vminus["HN"]))

    coeff = (bt["u2p"] - lp * bt["H2p"]) - (bt["u2m"] - lm * bt["H2m"])
    leading = 2.0 * coeff * vplus["q"] * dphi_2
    d1uN_jump = (bt["d1uNp"] - lp * bt["d1HNp"]) + (bt["d1uNm"] - lm * bt["d1HNm"])
    lot = (-2.0 * d1uN_jump * vplus["q"] * phi
           - 2.0 * bt["d1q_jump"] * phi * dphi_t
           - 2.0 * bt["d1q_jump"] * (bt["u2m"] - lm * bt["H2m"]) * phi * dphi_2
           - 2.0 * bt["d1q_jump"] * (bt["d1uNm"] - lm * bt["d1HNm"]) * phi ** 2)

    warning = None
    res_bc_p = dphi_t + bt["u2p"] * dphi_2 - vplus["uN"] - phi * bt["d1uNp"]
    res_bc_m = dphi_t + bt["u2m"] * dphi_2 - vminus["uN"] + phi * bt["d1uNm"]
    res_hn_p = bt["H2p"] * dphi_2 - vplus["HN"] - phi * bt["d1HNp"]
    res_hn_m = bt["H2m"] * dphi_2 - vminus["HN"] + phi * bt["d1HNm"]
    res_q = vplus["q"] - vminus["q"] + phi * bt["d1q_jump"]
    worst = max(float(np.max(np.abs(r)))
                for r in (res_bc_p, res_bc_m, res_hn_p, res_hn_m, res_q))
    if worst > constraint_tol:
        warning = (f"boundary traces violate the linearized constraints by "
                   f"{worst:.3e}; decomposition is formal")
    return BoundaryFormDecomposition(total=total, leading=leading, lot=lot,
                                     leading_coeff=coeff,
                                     constraint_warning=warning)


def wang_yu_compare(c_hat, cA_hat):
    """Squared-velocity stability thresholds for the symmetric background.

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
