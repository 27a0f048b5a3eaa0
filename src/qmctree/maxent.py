"""Maximum-entropy estimation by convex dual minimization.

The dual F(lambda) = log Tr exp(H0 + sum lambda_i Theta_i) - sum lambda_i
<Theta_i> is smooth and convex; it is minimized by damped Newton steps with
a backtracking line search (H0 = 0 for plain entropy maximization, H0 =
log prior for minimum-relative-entropy updating).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import SubsystemLayout, embed
from .linalg import MatrixError, is_hermitian, spectral_function, trace_distance
from .recovery import compose_layouts
from .states import DensityOperator, MarginalSet, maximally_mixed

# largest disagreement between two marginals' targets for a shared observable
TARGET_TOL = 1e-8


class MaxEntError(ValueError):
    pass


class ConstraintConflictError(MaxEntError):
    """Overlapping marginals imply contradictory expectation targets."""


class ConvergenceError(MaxEntError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InfeasibleConstraintsError(MaxEntError):
    """Multipliers diverged past the norm cap: targets look infeasible."""


# ---------------------------------------------------------------------------
# operator basis

def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Identity plus the d^2 - 1 traceless generators, Tr(L^2) = 2 each."""
    if d < 1:
        raise MaxEntError("dimension must be >= 1")
    basis = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            basis.append(asym)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1
        diag[l] = -l
        basis.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag).astype(complex))
    return basis


# ---------------------------------------------------------------------------
# constraints

@dataclass(frozen=True)
class ConstraintSet:
    """Hermitian observables on a joint layout with expectation targets, kept
    as read-only (m, D, D) complex and (m,) float arrays.  A complex128
    observables array is adopted without a copy, like DensityOperator.matrix."""

    layout: SubsystemLayout
    observables: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        d = self.layout.dim
        obs = np.asarray(self.observables, dtype=complex)
        if obs.size == 0:
            obs = np.empty((0, d, d), dtype=complex)
        if obs.ndim != 3 or obs.shape[1:] != (d, d):
            raise MaxEntError(f"observable shape {obs.shape[1:]} does not match "
                              f"the layout's {(d, d)}")
        targets = np.array(self.targets, dtype=float)
        if targets.shape != (len(obs),):
            raise MaxEntError("observables and targets differ in length")
        if not is_hermitian(obs):
            raise MatrixError("constraint observable is not Hermitian")
        if not np.all(np.isfinite(targets)):
            raise MaxEntError("targets must be finite")
        obs.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "targets", targets)

    def __len__(self):
        return len(self.observables)


def marginal_constraints(marginals: MarginalSet) -> ConstraintSet:
    """Expectation constraints pinning each marginal of the parent layout.

    For a marginal on factors (X, Y) these are the embedded basis products
    L_k L_l for (k, l) != (0, 0); shared-overlap duplicates are removed
    after a consistency check on their targets.
    """
    return expectation_constraints(marginals.parent, marginals.marginals)


def expectation_constraints(layout: SubsystemLayout, marginals) -> ConstraintSet:
    """As marginal_constraints, but without requiring the marginals to
    cover the layout (used for one-step sequential updates).

    Each marginal's observables are one batched Kronecker product over the
    layout's factors, in layout order: every basis element on the marginal's
    factors, the identity elsewhere; each is keyed by its basis index on
    every factor.  Targets use Tr(rho_e L) = Tr((rho_e (x) 1/d_rest) embed(L)).
    """
    bases = {d: np.array(gell_mann_basis(d)) for d in set(layout.dims)}
    blocks = [np.empty((0, layout.dim, layout.dim), dtype=complex)]
    targets, seen = [np.empty(0)], {}  # seen: basis indices -> target
    for marg in marginals:
        sub = marg.layout
        weight = embed(marg.matrix, sub, layout) / (layout.dim // sub.dim)
        factors = [bases[d] if l in sub.labels else bases[d][:1]
                   for l, d in zip(layout.labels, layout.dims)]
        block = np.ones((1, 1, 1), dtype=complex)
        for f in factors:
            block = np.einsum("aij,bkl->abikjl", block, f).reshape(
                len(block) * len(f), block.shape[1] * f.shape[1], -1)
        values = np.einsum("kij,ji->k", block, weight).real
        keys = list(np.ndindex(*(len(f) for f in factors)))
        fresh = [row for row in range(1, len(keys)) if keys[row] not in seen]
        for key, value in zip(keys[1:], values[1:]):  # row 0 is the identity
            if abs(seen.setdefault(key, value) - value) > TARGET_TOL:
                named = {l: k for l, k in zip(layout.labels, key) if k}
                raise ConstraintConflictError(
                    f"conflicting targets for shared observable {named}: "
                    f"{seen[key]} vs {value}")
        blocks.append(block[fresh])
        targets.append(values[fresh])
    return ConstraintSet(layout, np.concatenate(blocks), np.concatenate(targets))


# ---------------------------------------------------------------------------
# dual solver

GRAD_TOL = 1e-10  # stop once every gradient entry is this small
RESIDUAL_TOL = 1e-6  # largest final residual accepted as converged
MAX_ITER = 10000
MULTIPLIER_CAP = 1e3  # a multiplier beyond this means infeasible targets
ARMIJO = 1e-4  # sufficient-decrease fraction of the predicted decrease
BACKTRACK = 0.5  # step-length factor per rejected trial
MIN_STEP = 1e-14  # the line search stalls below this step length


@dataclass(frozen=True)
class MaxEntSolution:
    multipliers: np.ndarray
    state: DensityOperator
    log_partition: float
    residual: float
    iterations: int


def _gibbs(base, thetas, lam):
    h = base + np.tensordot(lam, thetas, axes=1)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    shift = np.max(w)
    ew = np.exp(w - shift)
    z = float(np.sum(ew))
    log_z = shift + np.log(z)
    rho = (v * (ew / z)) @ v.conj().T
    return rho, log_z, w, v, ew, z


def _dual_value(log_z, lam, targets):
    return log_z - float(np.dot(lam, targets))


def _gradient(rho, thetas, targets):
    """Tr(rho Theta_i) - <Theta_i> for the stacked observables."""
    return np.einsum("kij,ij->k", thetas, rho.conj()).real - targets


def _hessian(thetas_tilde, w, ew, z):
    """Hessian of log Z from the observables in the eigenbasis of H.

    phi holds the divided differences of exp on the spectrum w, with
    ew = exp(w - max w); the expm1 form keeps full relative precision on
    small gaps and cannot overflow (Higham, Functions of Matrices, ch. 10).
    """
    gap = np.abs(w[:, None] - w)
    nonzero = gap > 0
    ratio = np.where(nonzero, -np.expm1(-gap) / np.where(nonzero, gap, 1.0), 1.0)
    phi = np.maximum(ew[:, None], ew) * ratio
    f = thetas_tilde.reshape(len(thetas_tilde), w.size ** 2)
    mean = np.diagonal(thetas_tilde, axis1=1, axis2=2).real @ ew / z
    hess = (f.conj() @ (phi.ravel() * f).T).real / z - np.outer(mean, mean)
    return (hess + hess.T) / 2


def minimize_dual(base: np.ndarray, constraints: ConstraintSet) -> MaxEntSolution:
    """Damped-Newton minimization of the convex dual; start is lambda = 0."""
    thetas, targets = constraints.observables, constraints.targets
    lam = np.zeros(len(thetas))

    rho, log_z, w, v, ew, z = _gibbs(base, thetas, lam)
    value = _dual_value(log_z, lam, targets)
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        grad = _gradient(rho, thetas, targets)
        if np.max(np.abs(grad), initial=0.0) <= GRAD_TOL:
            break
        hess = _hessian(v.conj().T @ thetas @ v, w, ew, z)
        reg = 1e-13 * max(np.trace(hess).real, 1.0)
        try:
            step = np.linalg.solve(hess + reg * np.eye(len(grad)), -grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
            step = -step if np.dot(step, grad) > 0 else step
        if np.dot(step, grad) >= 0:
            step = -grad  # fall back to steepest descent

        slope = float(np.dot(grad, step))
        # A predicted decrease below the float resolution of the dual value
        # makes the Armijo test rounding noise: take the full Newton step
        # untested, which this close to the optimum contracts the gradient
        # quadratically.
        untested = -slope <= 1e-13 * max(1.0, abs(value))
        alpha = 1.0
        while alpha >= MIN_STEP:
            trial = lam + alpha * step
            gibbs = _gibbs(base, thetas, trial)
            trial_value = _dual_value(gibbs[1], trial, targets)
            if untested or trial_value <= value + ARMIJO * alpha * slope:
                lam, value = trial, trial_value
                rho, log_z, w, v, ew, z = gibbs
                break
            alpha *= BACKTRACK
        else:
            break  # line search stalled; report the honest residual

        if not untested and np.max(np.abs(lam), initial=0.0) > MULTIPLIER_CAP:
            raise InfeasibleConstraintsError(
                f"multiplier norm exceeded {MULTIPLIER_CAP:.1e}; "
                "targets appear infeasible"
            )

    residual = float(np.max(np.abs(_gradient(rho, thetas, targets)), initial=0.0))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"dual solver stopped at residual {residual:.3e} after "
            f"{iterations} iterations",
            residual=residual,
        )
    state = DensityOperator(constraints.layout, (rho + rho.conj().T) / 2)
    return MaxEntSolution(lam, state, log_z, residual, iterations)


def solve_maxent(constraints: ConstraintSet) -> MaxEntSolution:
    """Maximum-entropy Gibbs state meeting the expectation constraints."""
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
    uniform = maximally_mixed(layout)

    sigma1 = bayesian_update(uniform, c_ab)
    sigma2 = bayesian_update(sigma1, c_bc)
    varrho1 = bayesian_update(uniform, c_bc)
    varrho2 = bayesian_update(varrho1, c_ab)
    joint = solve_maxent(expectation_constraints(layout, (rho_ab, rho_bc))).state

    d12 = trace_distance(sigma2.matrix, varrho2.matrix)
    d1j = trace_distance(sigma2.matrix, joint.matrix)
    d2j = trace_distance(varrho2.matrix, joint.matrix)
    return DiagramReport(max(d12, d1j, d2j) <= tol, d12, d1j, d2j, tol)
