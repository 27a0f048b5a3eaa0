"""Maximum-entropy estimation by convex dual minimization.

The dual F(lambda) = log Tr exp(H0 + sum lambda_i Theta_i) - sum lambda_i
<Theta_i> is smooth and convex; it is minimized by damped Newton steps with
a backtracking line search (H0 = 0 for plain entropy maximization, H0 =
log prior for minimum-relative-entropy updating).
"""

from __future__ import annotations

import itertools
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
    """Hermitian observables on a joint layout with expectation targets."""

    layout: SubsystemLayout
    observables: tuple
    targets: tuple
    keys: tuple = ()

    def __post_init__(self):
        if len(self.observables) != len(self.targets):
            raise MaxEntError("observables and targets differ in length")
        for obs in self.observables:
            if not is_hermitian(obs):
                raise MatrixError("constraint observable is not Hermitian")
        if any(not np.isfinite(t) for t in self.targets):
            raise MaxEntError("targets must be finite")

    def __len__(self):
        return len(self.observables)

    def merged_with(self, other: "ConstraintSet") -> "ConstraintSet":
        if other.layout.labels != self.layout.labels:
            raise MaxEntError("cannot merge constraints on different layouts")
        return _dedupe(
            self.layout,
            list(self.observables) + list(other.observables),
            list(self.targets) + list(other.targets),
            list(self.keys) + list(other.keys),
        )


def marginal_constraints(marginals: MarginalSet) -> ConstraintSet:
    """Expectation constraints pinning each marginal of the parent layout.

    For a marginal on factors (X, Y) these are the embedded basis products
    L_k L_l for (k, l) != (0, 0); shared-overlap duplicates are removed
    after a consistency check on their targets.
    """
    return expectation_constraints(marginals.parent, marginals.marginals)


def expectation_constraints(layout: SubsystemLayout, marginals) -> ConstraintSet:
    """As marginal_constraints, but without requiring the marginals to
    cover the layout (used for one-step sequential updates)."""
    bases = {l: gell_mann_basis(layout.dim_of(l)) for l in set(layout.labels)}
    observables, targets, keys = [], [], []
    for marg in marginals:
        sub = marg.layout
        ranges = [range(layout.dim_of(l) ** 2) for l in sub.labels]
        for idx in itertools.product(*ranges):
            if all(k == 0 for k in idx):
                continue
            local = bases[sub.labels[0]][idx[0]]
            for label, k in zip(sub.labels[1:], idx[1:]):
                local = np.kron(local, bases[label][k])
            target = float(np.trace(marg.matrix @ local).real)
            observables.append(embed(local, sub, layout))
            targets.append(target)
            keys.append(
                frozenset((l, k) for l, k in zip(sub.labels, idx) if k != 0)
            )
    return _dedupe(layout, observables, targets, keys)


def _dedupe(layout, observables, targets, keys):
    seen = {}
    obs_out, tgt_out, key_out = [], [], []
    for obs, tgt, key in zip(observables, targets, keys):
        if key in seen:
            if abs(tgt - tgt_out[seen[key]]) > TARGET_TOL:
                raise ConstraintConflictError(
                    f"conflicting targets for shared observable {sorted(key)}: "
                    f"{tgt_out[seen[key]]} vs {tgt}"
                )
            continue
        seen[key] = len(obs_out)
        obs_out.append(obs)
        tgt_out.append(tgt)
        key_out.append(key)
    return ConstraintSet(layout, tuple(obs_out), tuple(tgt_out), tuple(key_out))


# ---------------------------------------------------------------------------
# dual solver

@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-10
    residual_tol: float = 1e-6
    max_iter: int = 10000
    multiplier_cap: float = 1e3
    armijo: float = 1e-4
    backtrack: float = 0.5
    min_step: float = 1e-14


@dataclass(frozen=True)
class MaxEntSolution:
    multipliers: np.ndarray
    state: DensityOperator
    log_partition: float
    residual: float
    iterations: int


def _gibbs(base, thetas, lam):
    h = base + sum(l * t for l, t in zip(lam, thetas)) if len(lam) else base
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    shift = np.max(w)
    ew = np.exp(w - shift)
    z = float(np.sum(ew))
    log_z = shift + np.log(z)
    rho = (v * (ew / z)) @ v.conj().T
    return rho, log_z, w, v, ew, z


def _dual_value(log_z, lam, targets):
    return log_z - float(np.dot(lam, targets))


def _hessian(thetas_tilde, w, ew, z):
    # divided differences of exp on the (shifted) spectrum
    n = len(w)
    phi = np.empty((n, n))
    for p in range(n):
        dw = w[p] - w
        close = np.abs(dw) < 1e-12
        phi[p] = np.where(close, ew[p], (ew[p] - ew) / np.where(close, 1.0, dw))
    m = len(thetas_tilde)
    mean = np.array([np.sum(np.diag(t).real * ew) / z for t in thetas_tilde])
    hess = np.empty((m, m))
    for i in range(m):
        ti = thetas_tilde[i]
        for j in range(i, m):
            tj = thetas_tilde[j]
            val = np.sum(ti.conj() * (phi * tj)).real / z
            hess[i, j] = hess[j, i] = val - mean[i] * mean[j]
    return hess


def minimize_dual(
    base: np.ndarray,
    constraints: ConstraintSet,
    config: SolverConfig | None = None,
) -> MaxEntSolution:
    """Damped-Newton minimization of the convex dual; start is lambda = 0."""
    cfg = config or SolverConfig()
    thetas = [np.asarray(t, dtype=complex) for t in constraints.observables]
    targets = np.asarray(constraints.targets, dtype=float)
    lam = np.zeros(len(thetas))

    rho, log_z, w, v, ew, z = _gibbs(base, thetas, lam)
    value = _dual_value(log_z, lam, targets)
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        grad = np.array(
            [np.sum(rho.conj() * t).real for t in thetas]
        ) - targets
        residual = float(np.max(np.abs(grad))) if len(grad) else 0.0
        if residual <= cfg.grad_tol:
            break
        thetas_tilde = [v.conj().T @ t @ v for t in thetas]
        hess = _hessian(thetas_tilde, w - np.max(w), ew, z)
        reg = 1e-13 * max(np.trace(hess).real, 1.0)
        try:
            step = np.linalg.solve(hess + reg * np.eye(len(grad)), -grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
            step = -step if np.dot(step, grad) > 0 else step
        if np.dot(step, grad) >= 0:
            step = -grad  # fall back to steepest descent

        alpha = 1.0
        slope = float(np.dot(grad, step))
        if -slope <= 1e-13 * max(1.0, abs(value)):
            # Predicted decrease is below the float resolution of the dual
            # value, so the Armijo test is pure rounding noise.  Take the
            # full (damped-free) Newton step: this close to the optimum it
            # contracts the gradient quadratically.
            lam = lam + step
            rho, log_z, w, v, ew, z = _gibbs(base, thetas, lam)
            value = _dual_value(log_z, lam, targets)
            continue
        while alpha >= cfg.min_step:
            trial = lam + alpha * step
            rho_t, log_z_t, w_t, v_t, ew_t, z_t = _gibbs(base, thetas, trial)
            if _dual_value(log_z_t, trial, targets) <= value + cfg.armijo * alpha * slope:
                lam = trial
                rho, log_z, w, v, ew, z = rho_t, log_z_t, w_t, v_t, ew_t, z_t
                value = _dual_value(log_z, lam, targets)
                break
            alpha *= cfg.backtrack
        else:
            break  # line search stalled; report the honest residual

        if len(lam) and float(np.max(np.abs(lam))) > cfg.multiplier_cap:
            raise InfeasibleConstraintsError(
                f"multiplier norm exceeded {cfg.multiplier_cap:.1e}; "
                "targets appear infeasible"
            )

    grad = np.array([np.sum(rho.conj() * t).real for t in thetas]) - targets
    residual = float(np.max(np.abs(grad))) if len(grad) else 0.0
    if residual > cfg.residual_tol:
        raise ConvergenceError(
            f"dual solver stopped at residual {residual:.3e} after "
            f"{iterations} iterations",
            residual=residual,
        )
    state = DensityOperator(constraints.layout, (rho + rho.conj().T) / 2)
    return MaxEntSolution(lam, state, log_z, residual, iterations)


def solve_maxent(
    constraints: ConstraintSet, config: SolverConfig | None = None
) -> MaxEntSolution:
    """Maximum-entropy Gibbs state meeting the expectation constraints."""
    d = constraints.layout.dim
    base = np.zeros((d, d), dtype=complex)
    return minimize_dual(base, constraints, config)


def bayesian_update(
    prior: DensityOperator,
    constraints: ConstraintSet,
    config: SolverConfig | None = None,
) -> DensityOperator:
    """Minimum-relative-entropy posterior for a full-rank prior."""
    if not prior.is_full_rank():
        raise MaxEntError("prior must be full rank for the log to be defined")
    if prior.layout.labels != constraints.layout.labels:
        raise MaxEntError("prior layout does not match the constraints")
    base = spectral_function(prior.eig, "log")
    return minimize_dual(base, constraints, config).state


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
    config: SolverConfig | None = None,
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

    sigma1 = bayesian_update(uniform, c_ab, config)
    sigma2 = bayesian_update(sigma1, c_bc, config)
    varrho1 = bayesian_update(uniform, c_bc, config)
    varrho2 = bayesian_update(varrho1, c_ab, config)
    joint = solve_maxent(c_ab.merged_with(c_bc), config).state

    d12 = trace_distance(sigma2.matrix, varrho2.matrix)
    d1j = trace_distance(sigma2.matrix, joint.matrix)
    d2j = trace_distance(varrho2.matrix, joint.matrix)
    return DiagramReport(max(d12, d1j, d2j) <= tol, d12, d1j, d2j, tol)
