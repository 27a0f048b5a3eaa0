"""Maximum-entropy estimation by convex dual minimization.

Each marginal rho_e is a constraint, with one Hermitian multiplier Lambda_e
on its factors (in rho_e's label order).  The dual F(Lambda) = log Tr exp(H0
+ sum_e Lambda_e (x) 1) - sum_e Tr(Lambda_e rho_e) is smooth and convex, with
gradient Tr_rest rho(Lambda) - rho_e in Lambda_e; it is minimized by damped
Newton steps with a backtracking line search (H0 = 0 for plain entropy
maximization, H0 = log prior for minimum-relative-entropy updating).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .layout import SubsystemLayout, embed
from .linalg import HermitianEig, spectral_function, trace_distance
from .recovery import compose_layouts
from .states import OVERLAP_TOL, DensityOperator, MarginalSet, overlap_conflict


class MaxEntError(ValueError):
    pass


class ConstraintConflictError(MaxEntError):
    """Overlapping marginals disagree on the factors they share."""


class ConvergenceError(MaxEntError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InfeasibleConstraintsError(MaxEntError):
    """Multipliers diverged past the norm cap: targets look infeasible."""


# ---------------------------------------------------------------------------
# constraints

@dataclass(frozen=True)
class ConstraintSet:
    """Marginals on factors of a joint layout that the state must reproduce.

    Construction checks each marginal's labels and dimensions against the
    layout (LayoutError) and every overlapping pair within ``overlap_tol``
    trace distance on the factors they share (ConstraintConflictError).
    """

    layout: SubsystemLayout
    marginals: tuple[DensityOperator, ...]
    overlap_tol: float = field(default=OVERLAP_TOL, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        conflict = overlap_conflict(self.layout, self.marginals, self.overlap_tol)
        if conflict is not None:
            raise ConstraintConflictError(conflict)


def marginal_constraints(marginals: MarginalSet) -> ConstraintSet:
    """Constraints pinning each marginal of the parent layout."""
    return ConstraintSet(marginals.parent, marginals.marginals, marginals.overlap_tol)


def expectation_constraints(layout: SubsystemLayout, marginals) -> ConstraintSet:
    """As marginal_constraints, but without requiring the marginals to
    cover the layout (used for one-step sequential updates)."""
    return ConstraintSet(layout, marginals)


# ---------------------------------------------------------------------------
# dual solver

GRAD_TOL = 1e-10  # stop once every marginal mismatch has this Frobenius norm
RESIDUAL_TOL = 1e-6  # largest final residual accepted as converged
MAX_ITER = 10000
MULTIPLIER_CAP = 1e3  # a multiplier beyond this means infeasible targets
ARMIJO = 1e-4  # sufficient-decrease fraction of the predicted decrease
BACKTRACK = 0.5  # step-length factor per rejected trial
MIN_STEP = 1e-14  # the line search stalls below this step length


@dataclass(frozen=True)
class MaxEntSolution:
    multipliers: tuple[np.ndarray, ...]  # Lambda_e, in each marginal's label order
    state: DensityOperator
    log_partition: float
    residual: float  # largest Frobenius norm of a marginal mismatch
    iterations: int


def _split(lam, marginals):
    """The multipliers Lambda_e as (d_e, d_e) views of the flat vector ``lam``,
    or each marginal's (d_e, d_e, ...) block of a stack along its first axis."""
    dims = [m.layout.dim for m in marginals]
    ends = itertools.accumulate(d * d for d in dims)
    return [lam[end - d * d:end].reshape(d, d, *lam.shape[1:]) for d, end in zip(dims, ends)]


def _gibbs(base, constraints, lam):
    layout, marginals = constraints.layout, constraints.marginals
    h = sum((embed(l, m.layout, layout) for m, l in zip(marginals, _split(lam, marginals))),
            base)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    shift = np.max(w)
    ew = np.exp(w - shift)
    z = float(np.sum(ew))
    log_z = shift + np.log(z)
    rho = (v * (ew / z)) @ v.conj().T
    return rho, log_z, w, v, ew, z


def _dual_value(log_z, lam, targets):
    """log Z - sum_e Tr(Lambda_e rho_e), with ``targets`` the flat rho_e."""
    return log_z - float(np.vdot(targets, lam).real)


def _unit_stack(constraints, v):
    """v^dagger (E_jk (x) 1) v for the matrix units E_jk of every marginal's
    factors, stacked (m, D, D) in the order of the flat multipliers.

    For each marginal the rows of v are permuted to (d_rest, d_e D), the
    marginal's factors after the rest, so one GEMM X^dagger X gives them all.
    """
    layout, marginals, n = constraints.layout, constraints.marginals, len(v)
    tensor = v.reshape(*layout.dims, n)
    stack = np.empty((sum(m.layout.dim ** 2 for m in marginals), n, n), dtype=complex)
    for marg, block in zip(marginals, _split(stack, marginals)):
        d = marg.layout.dim
        first = [layout.index(l) for l in marg.labels]
        rest = [i for i in range(layout.n) if i not in first]
        x = tensor.transpose(*rest, *first, layout.n).reshape(-1, d * n)
        block[...] = (x.conj().T @ x).reshape(d, n, d, n).transpose(0, 2, 1, 3)
    return stack


def _mismatch(stack, ew, z, targets):
    """vec(Tr_rest rho - rho_e) for every marginal, from the stack's diagonals
    weighted by the Gibbs weights: Tr(rho (E_jk (x) 1)) = (Tr_rest rho)_kj."""
    return np.diagonal(stack, axis1=1, axis2=2).conj() @ (ew / z) - targets


def _residual(grad, marginals):
    """Largest Frobenius norm of a marginal mismatch Tr_rest rho - rho_e."""
    return max((np.vdot(g, g).real for g in _split(grad, marginals)), default=0.0) ** 0.5


def _hessian(stack, w, ew, z):
    """Hessian of log Z in the flat multipliers, from the unit stack in the
    eigenbasis of H: complex, Hermitian and positive semidefinite.

    phi holds the divided differences of exp on the spectrum w, with
    ew = exp(w - max w); the expm1 form keeps full relative precision on
    small gaps and cannot overflow (Higham, Functions of Matrices, ch. 10).
    """
    gap = np.abs(w[:, None] - w)
    nonzero = gap > 0
    ratio = np.where(nonzero, -np.expm1(-gap) / np.where(nonzero, gap, 1.0), 1.0)
    phi = np.maximum(ew[:, None], ew) * ratio
    f = stack.reshape(len(stack), w.size ** 2)
    mean = np.diagonal(stack, axis1=1, axis2=2) @ ew / z
    hess = (f.conj() @ (phi.ravel() * f).T) / z - np.outer(mean.conj(), mean)
    return (hess + hess.conj().T) / 2


def minimize_dual(base: np.ndarray, constraints: ConstraintSet) -> MaxEntSolution:
    """Damped-Newton minimization of the convex dual; start is Lambda = 0."""
    marginals = constraints.marginals
    targets = np.concatenate([np.empty(0, complex)] + [m.matrix.ravel() for m in marginals])
    lam = np.zeros(targets.size, dtype=complex)

    rho, log_z, w, v, ew, z = _gibbs(base, constraints, lam)
    value = _dual_value(log_z, lam, targets)
    iterations, null = 0, None
    for iterations in range(1, MAX_ITER + 1):
        stack = _unit_stack(constraints, v)
        grad = _mismatch(stack, ew, z, targets)
        if _residual(grad, marginals) <= GRAD_TOL:
            break
        hess = _hessian(stack, w, ew, z)
        reg = 1e-13 * max(np.trace(hess).real, 1.0)
        if null is None:
            # The Hessian's null directions change no state.  Targets whose
            # traces are not exactly one, or that disagree on shared factors
            # within overlap_tol, tilt the dual along them, where it has no
            # minimum.  The tilt is the same at every Lambda: take it out of
            # the targets once, here at Lambda = 0, and keep every step off it.
            hw, hv = np.linalg.eigh(hess)
            null = hv[:, hw <= reg]
            fixed = null @ (null.conj().T @ grad)
            targets, grad = targets + fixed, grad - fixed
            if _residual(grad, marginals) <= GRAD_TOL:
                break
        step = np.linalg.solve(hess + reg * np.eye(len(grad)), -grad)
        step = step - null @ (null.conj().T @ step)
        if np.vdot(grad, step).real >= 0:
            step = -grad  # fall back to steepest descent

        slope = float(np.vdot(grad, step).real)
        # A predicted decrease below the float resolution of the dual value
        # makes the Armijo test rounding noise: take the full Newton step
        # untested, which this close to the optimum contracts the gradient
        # quadratically.
        untested = -slope <= 1e-13 * max(1.0, abs(value))
        alpha = 1.0
        while alpha >= MIN_STEP:
            trial = lam + alpha * step
            gibbs = _gibbs(base, constraints, trial)
            trial_value = _dual_value(gibbs[1], trial, targets)
            if untested or trial_value <= value + ARMIJO * alpha * slope:
                lam, value = trial, trial_value
                rho, log_z, w, v, ew, z = gibbs
                break
            alpha *= BACKTRACK
        else:
            break  # line search stalled; report the honest residual

        if not untested and np.max(np.abs(lam), initial=0.0) > MULTIPLIER_CAP:
            message = f"multiplier norm exceeded {MULTIPLIER_CAP:.1e}; targets appear infeasible"
            deficient = next((m for m in marginals if not m.is_full_rank()), None)
            if deficient is not None:  # a Gibbs state meets it only in the limit
                message += (f"; target on ({', '.join(deficient.labels)}) is rank "
                            "deficient; every Gibbs state is full rank")
            raise InfeasibleConstraintsError(message)
    else:  # the last step's mismatch is not yet known
        grad = _mismatch(_unit_stack(constraints, v), ew, z, targets)

    residual = _residual(grad, marginals)
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"dual solver stopped at residual {residual:.3e} after "
            f"{iterations} iterations",
            residual=residual,
        )
    # positive, trace one and decomposed by construction: not decomposed again
    eig = HermitianEig(ew / z, v)  # exp keeps eigh's ascending order
    state = DensityOperator._certified(constraints.layout, (rho + rho.conj().T) / 2, eig)
    multipliers = tuple((l + l.conj().T) / 2 for l in _split(lam, marginals))
    return MaxEntSolution(multipliers, state, log_z, residual, iterations)


def solve_maxent(constraints: ConstraintSet) -> MaxEntSolution:
    """Maximum-entropy Gibbs state meeting the marginal constraints."""
    d = constraints.layout.dim
    return minimize_dual(np.zeros((d, d), dtype=complex), constraints)


def bayesian_update(
    prior: DensityOperator, constraints: ConstraintSet
) -> DensityOperator:
    """Minimum-relative-entropy posterior for a full-rank prior."""
    if not prior.is_full_rank():
        raise MaxEntError("prior must be full rank for the log to be defined")
    if prior.layout != constraints.layout:
        raise MaxEntError("prior layout does not match the constraints")
    base = spectral_function(prior.eig, "log")
    return minimize_dual(base, constraints).state


# ---------------------------------------------------------------------------
# diagram commutativity

@dataclass(frozen=True)
class DiagramReport:
    commutes: bool
    distance_two_orders: float
    distance_first_to_joint: float
    distance_second_to_joint: float
    tol: float

    @property
    def max_distance(self) -> float:
        return max(
            self.distance_two_orders,
            self.distance_first_to_joint,
            self.distance_second_to_joint,
        )


def diagram_commutes(
    rho_ab: DensityOperator,
    rho_bc: DensityOperator,
    tol: float = 1e-5,
) -> DiagramReport:
    """Compare sequential updates in both orders against the joint update.

    Each arrow is a minimum-relative-entropy update from the previous state;
    the diagram commutes exactly when the marginals admit a joint state with
    zero conditional correlation across the shared factor.
    """
    _, _, _, layout = compose_layouts(rho_ab, rho_bc)
    c_ab = expectation_constraints(layout, (rho_ab,))
    c_bc = expectation_constraints(layout, (rho_bc,))

    # an update from the maximally mixed state is the max-entropy state
    sigma1 = solve_maxent(c_ab).state
    sigma2 = bayesian_update(sigma1, c_bc)
    varrho1 = solve_maxent(c_bc).state
    varrho2 = bayesian_update(varrho1, c_ab)
    joint = solve_maxent(expectation_constraints(layout, (rho_ab, rho_bc))).state

    d12 = trace_distance(sigma2.matrix, varrho2.matrix)
    d1j = trace_distance(sigma2.matrix, joint.matrix)
    d2j = trace_distance(varrho2.matrix, joint.matrix)
    return DiagramReport(max(d12, d1j, d2j) <= tol, d12, d1j, d2j, tol)
