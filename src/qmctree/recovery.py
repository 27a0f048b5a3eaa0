"""Petz-map recovery, the normality compatibility test, and pair selection."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .layout import LAYOUT_CACHE_SIZE, LayoutError, SubsystemLayout, _apply, _product_plan
from .linalg import SUPPORT_CUTOFF_FACTOR, HermitianEig, frobenius, spectral_function
from .states import (
    DensityOperator,
    conditional_mutual_information,
    mutual_information,
    overlap_distance,
    overlap_violation,
    pairwise_marginals,
    von_neumann_entropy,
)

DEFAULT_EPS_MARGINAL = 1e-8
DEFAULT_EPS_NORMALITY = 1e-8
# selection scores and tree weights (nats) closer than this count as
# equal, so the documented tie order, not rounding, decides between them
TIE_TOL = 1e-10


class RecoveryError(ValueError):
    """Raised for inconsistent overlaps or malformed recovery inputs."""


class IncompatiblePairsError(RecoveryError):
    """Raised when a selection rule's all-pairs hypothesis fails."""


def compose_layouts(
    rho_ab: DensityOperator, rho_bc: DensityOperator
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], SubsystemLayout]:
    """Split two overlapping marginals into (A, B, C) label groups."""
    plan = _pair_plan(rho_ab.layout, rho_bc.layout, None)
    return plan.a, plan.b, plan.c, plan.layout


@dataclass(frozen=True)
class _PairPlan:
    """The layout facts of a pair of marginals on AB and BC, so that a call
    on the pair makes one cache lookup."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...]
    layout: SubsystemLayout  # of the joint state
    shared: frozenset  # b, as marginals and stored factors are keyed
    # the local-product plans of rho_BC^z (rho_B^-z (x) 1) on BC, of
    # X m_AB on the joint, X on BC, and of (X m_AB) X^dagger on the joint
    factor: tuple
    left: tuple
    right: tuple


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _pair_plan(ab: SubsystemLayout, bc: SubsystemLayout,
               target: SubsystemLayout | None) -> _PairPlan:
    """The plan of marginals on the layouts ``ab`` and ``bc``, whose joint
    is ``target`` or, when that is None, the labels A, B, C in that order."""
    b = set(ab.labels) & set(bc.labels)
    if not b:
        raise LayoutError("marginals share no label")
    a = tuple(l for l in ab.labels if l not in b)
    c = tuple(l for l in bc.labels if l not in b)
    if not a or not c:
        raise LayoutError("one marginal is contained in the other")
    b = tuple(l for l in ab.labels if l in b)
    for label in b:
        if ab.dim_of(label) != bc.dim_of(label):
            raise LayoutError(f"dimension mismatch on shared label {label!r}")
    labels = a + b + c
    layout = SubsystemLayout(
        labels, tuple(ab.dim_of(l) if l in ab.labels else bc.dim_of(l) for l in labels))
    if target is not None:
        if set(target.labels) != set(layout.labels):
            raise LayoutError("target layout labels do not match the marginals")
        layout = target
    return _PairPlan(
        a, b, c, layout, frozenset(b),
        _product_plan(bc, bc.restrict(b), bc),
        _product_plan(bc, ab, layout),
        _product_plan(layout, bc, layout),
    )


@dataclass(frozen=True)
class RecoveryResult:
    state: DensityOperator
    pre_normalization_trace: float


def petz_recover(
    rho_ab: DensityOperator,
    rho_bc: DensityOperator,
    t: float = 0.0,
    eps_m: float = DEFAULT_EPS_MARGINAL,
    target: SubsystemLayout | None = None,
) -> RecoveryResult:
    """Recover a joint state from two marginals sharing their middle factor.

    Applies the rotated transpose map to ``rho_ab`` (t = 0 is the plain
    map); the output is renormalized with the raw trace recorded.  The
    marginals must agree on the shared factor within ``eps_m``
    (``math.inf`` accepts any pair), and the raw trace must be positive.
    """
    plan = _pair_plan(rho_ab.layout, rho_bc.layout, target)
    if eps_m < math.inf:  # an infinite tolerance accepts any residual
        residual = overlap_violation(rho_ab, rho_bc, plan.shared, eps_m)
        if residual is not None:
            raise RecoveryError(
                f"marginals disagree on {plan.b}: trace distance {residual:.3e} "
                f"> {eps_m:.1e}"
            )
    m = _petz_product(rho_ab.matrix, rho_bc, t, plan)
    return _petz_state(m, plan.layout, plan.b, _rank_deficient(rho_ab, rho_bc))


def _petz_product(m_ab, rho_bc, t, plan: _PairPlan) -> np.ndarray:
    """The raw Petz output (X m_ab) X^dagger, X = rho_BC^z rho_B^-z, z = (1 + it)/2."""
    x = _bc_factor(rho_bc, plan, (1 + 1j * t) / 2)
    return _apply(plan.right, _apply(plan.left, x, m_ab), x.conj().T)


def _petz_state(m: np.ndarray, layout: SubsystemLayout, b,
                decompose: bool = False) -> RecoveryResult:
    """The state of the unnormalized Petz output ``m`` (overwritten).

    Only the spectrum is taken, and ``eig`` is left to first use, unless
    ``decompose`` is set or an eigenvalue is negative: then one ``eigh``
    cuts rounding's negative eigenvalues from ``m`` and the state keeps it.
    A rank-deficient input gives a rank-deficient output, whose zero
    eigenvalues rounding mostly leaves negative, so callers set
    ``decompose`` for it rather than take a spectrum in vain.
    """
    w = v = None
    if not decompose:
        w = np.linalg.eigvalsh(m)  # like eigh, reads one triangle
    if w is None or w[0] < 0.0:
        w, v = np.linalg.eigh(m)
        neg = w < 0.0
        if neg.any():
            m -= (v[:, neg] * w[neg]) @ v[:, neg].conj().T
            w[neg] = 0.0
    tr = _normalize(m, float(w.sum()), b)
    w /= tr
    if v is None:
        state = DensityOperator._checked(layout, m, w)
    else:
        state = DensityOperator._from_eig(layout, HermitianEig(w, v), m)
    return RecoveryResult(state, tr)


def _normalize(m: np.ndarray, tr: float, b) -> float:
    """Divide the Petz output ``m`` in place by its raw trace ``tr`` > 0."""
    if not tr > 0.0:
        raise RecoveryError(
            f"recovered operator has pre-normalization trace {tr:.3e}: "
            f"rho_AB has no weight on the support of rho_BC's marginal on {b}"
        )
    m /= tr
    return tr


def _bc_factor(rho_bc: DensityOperator, plan: _PairPlan, z) -> np.ndarray:
    """rho_BC^z (rho_B^-z (x) 1_C) on the factors of ``rho_bc``, with
    rho_B its stored marginal on the shared labels of ``plan``.

    The z = 1/2 factor, shared by the normality test and the t = 0 Petz
    map, is kept read-only on ``rho_bc`` per label set; other z are not.
    """
    if z == 0.5 and plan.shared in rho_bc._bc_factors:
        return rho_bc._bc_factors[plan.shared]
    x = _apply(plan.factor, spectral_function(rho_bc.eig, "power", z),
               spectral_function(rho_bc.marginal(plan.shared).eig, "power", -z))
    if z == 0.5:
        x.setflags(write=False)
        rho_bc._bc_factors[plan.shared] = x
    return x


@dataclass(frozen=True)
class CompatReport:
    """Outcome of the normality-based compatibility test."""

    marginal_consistency_residual: float
    normality_residual: float
    self_adjoint_residual: float
    rank_deficient: bool
    verdict: bool
    eps_m: float = field(default=DEFAULT_EPS_MARGINAL, compare=False)
    eps_n: float = field(default=DEFAULT_EPS_NORMALITY, compare=False)


def check_qmc_compatibility(
    rho_ab: DensityOperator,
    rho_bc: DensityOperator,
    eps_m: float = DEFAULT_EPS_MARGINAL,
    eps_n: float = DEFAULT_EPS_NORMALITY,
) -> CompatReport:
    """Test whether two overlapping marginals admit a joint state with zero
    conditional correlation across their shared factor."""
    return _normality_test(rho_ab, rho_bc, eps_m, eps_n)[0]


def _normality_test(rho_ab, rho_bc, eps_m, eps_n):
    """The report and theta theta^dagger (the t = 0 Petz output)."""
    plan = _pair_plan(rho_ab.layout, rho_bc.layout, None)
    marg_res = overlap_distance(rho_ab, rho_bc, plan.shared)
    rank_deficient = _rank_deficient(rho_ab, rho_bc)

    # theta = rho_BC^1/2 rho_B^-1/2 rho_AB^1/2, the first two acting on BC only
    theta = _apply(plan.left, _bc_factor(rho_bc, plan, 0.5),
                   spectral_function(rho_ab.eig, "sqrt"))
    theta_h = theta.conj().T
    norm = frobenius(theta)
    scale = max(norm ** 2, SUPPORT_CUTOFF_FACTOR)
    tt = theta @ theta_h
    norm_res = frobenius(tt - theta_h @ theta) / scale
    sa_res = frobenius(theta - theta_h) / max(norm, 1e-300)

    verdict = marg_res <= eps_m and norm_res <= eps_n
    return CompatReport(marg_res, norm_res, sa_res, rank_deficient, verdict, eps_m, eps_n), tt


def _rank_deficient(rho_ab: DensityOperator, rho_bc: DensityOperator) -> bool:
    """Whether either marginal is rank deficient, read from the spectra
    they keep (rho_B = Tr_C rho_BC is full rank whenever rho_BC is)."""
    return not (rho_ab.is_full_rank() and rho_bc.is_full_rank())


# ---------------------------------------------------------------------------
# best two out of three

def best_in_tie_order(order, score):
    """The first item of ``order`` whose score is within TIE_TOL of the
    largest score."""
    top = max(score(item) for item in order)
    return next(item for item in order if score(item) >= top - TIE_TOL)


def chains_in_tie_order(labels: tuple[str, str, str]):
    """The three middle-vertex chains, in the fixed tie-break order
    (XY,YZ) pairs: (AB,BC) < (BC,AC) < (AB,AC)."""
    a, b, c = labels
    return [(a, b, c), (b, c, a), (b, a, c)]


def chain_pairs(chain):
    x, y, z = chain
    return tuple(sorted((x, y))), tuple(sorted((y, z)))


def chain_discarded(chain):
    x, y, z = chain
    return tuple(sorted((x, z)))


@dataclass(frozen=True)
class PairSelection:
    discarded_pair: tuple[str, str]
    chain: tuple[str, str, str]
    scores: dict
    estimator: DensityOperator


def best_pair_min_entropy(
    marginals: dict, estimators: dict
) -> PairSelection:
    """Select the chain whose estimator has minimum von Neumann entropy.

    ``estimators`` maps chains (X, Y, Z) to their joint estimators; ties
    within TIE_TOL are broken by the fixed chain order.
    """
    if not estimators:
        raise RecoveryError("no estimators supplied")
    labels = _tripartite_labels(marginals)
    order = [c for c in chains_in_tie_order(labels) if c in estimators]
    if not order:
        raise RecoveryError("estimators do not match any tripartite chain")
    scores = {c: von_neumann_entropy(estimators[c]) for c in order}
    best = best_in_tie_order(order, lambda c: -scores[c])
    return PairSelection(chain_discarded(best), best, scores, estimators[best])


def _tripartite_labels(marginals: dict) -> tuple[str, str, str]:
    labels = sorted({l for pair in marginals for l in pair})
    if len(labels) != 3 or len(marginals) != 3:
        raise RecoveryError("expected three bipartite marginals on three labels")
    return tuple(labels)


def best_pair_mutual_info(
    source,
    eps_m: float = DEFAULT_EPS_MARGINAL,
    eps_n: float = DEFAULT_EPS_NORMALITY,
) -> PairSelection:
    """Discard the marginal with minimum mutual information and recover.

    ``source`` is either a tripartite DensityOperator or a dict mapping
    sorted label pairs to bipartite marginals.  All three chains must pass
    the compatibility check; otherwise IncompatiblePairsError is raised and
    the caller should fall back to the min-entropy rule.
    """
    if isinstance(source, DensityOperator):
        if len(source.labels) != 3:
            raise LayoutError("mutual-information selection expects three factors")
        marginals = pairwise_marginals(source)
    else:
        marginals = {tuple(sorted(k)): v for k, v in source.items()}
    labels = _tripartite_labels(marginals)

    outputs = {}  # chain -> its t = 0 Petz output, its overlap checked
    for chain in chains_in_tie_order(labels):
        p1, p2 = chain_pairs(chain)
        report, outputs[chain] = _normality_test(
            marginals[p1], marginals[p2], eps_m, eps_n
        )
        if not report.verdict:
            raise IncompatiblePairsError(
                f"chain {'-'.join(chain)} fails the compatibility check "
                f"(marginal residual {report.marginal_consistency_residual:.3e}, "
                f"normality residual {report.normality_residual:.3e})"
            )

    mi = {
        pair: mutual_information(m, (pair[0],), (pair[1],))
        for pair, m in marginals.items()
    }
    order = chains_in_tie_order(labels)
    scores = {c: mi[chain_pairs(c)[0]] + mi[chain_pairs(c)[1]] for c in order}
    best = best_in_tie_order(order, scores.__getitem__)
    ab, bc = (marginals[p] for p in chain_pairs(best))
    _, b, _, layout = compose_layouts(ab, bc)
    estimator = _petz_state(outputs[best], layout, b, _rank_deficient(ab, bc)).state
    return PairSelection(chain_discarded(best), best, scores, estimator)


# ---------------------------------------------------------------------------
# relative-entropy bookkeeping

# how far an estimator's marginals may stray from the marginals it was
# built from before an entropy bookkeeping report refuses it
ESTIMATOR_MARGINAL_TOL = 1e-6


def _estimator_conflict(estimator: DensityOperator, marginals) -> str | None:
    """Why ``estimator`` strays from one of ``marginals`` by more than
    ESTIMATOR_MARGINAL_TOL in trace distance, or None."""
    for m in marginals:
        dist = overlap_violation(m, estimator, m.labels, ESTIMATOR_MARGINAL_TOL)
        if dist is not None:
            return (f"estimator violates the {tuple(sorted(m.labels))} "
                    f"marginal by {dist:.3e}")
    return None


@dataclass(frozen=True)
class RelativeEntropyGap:
    """Four-term split of S(rho_true || estimator) for a chain X-Y-Z."""

    neg_pairwise_mutual_info: float
    neg_estimator_cmi: float
    sum_single_entropies: float
    neg_joint_entropy: float

    @property
    def total(self) -> float:
        return (
            self.neg_pairwise_mutual_info
            + self.neg_estimator_cmi
            + self.sum_single_entropies
            + self.neg_joint_entropy
        )


def relative_entropy_gap(
    rho_true: DensityOperator,
    estimator: DensityOperator,
    chain: tuple[str, str, str],
) -> RelativeEntropyGap:
    x, y, z = chain
    conflict = _estimator_conflict(
        estimator, [rho_true.marginal(p) for p in chain_pairs(chain)])
    if conflict is not None:
        raise RecoveryError(conflict)
    mi_sum = mutual_information(
        rho_true.marginal(sorted((x, y))), (x,), (y,)
    ) + mutual_information(rho_true.marginal(sorted((y, z))), (y,), (z,))
    cmi = conditional_mutual_information(estimator, (x,), (y,), (z,))
    singles = sum(
        von_neumann_entropy(rho_true.marginal((w,))) for w in rho_true.labels
    )
    return RelativeEntropyGap(
        -mi_sum, -cmi, singles, -von_neumann_entropy(rho_true)
    )
