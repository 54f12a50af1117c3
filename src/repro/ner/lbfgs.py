"""Limited-memory BFGS for the CRF training objective.

The unconstrained path of L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) with
``scipy.optimize.minimize(method="L-BFGS-B")``'s defaults, so it takes
that call's iterates up to rounding (``tests/ner/test_lbfgs.py``).
Every inner product is ``np.sum(a * b)``: no BLAS call, so no BLAS
thread count can change a result.

The line search is MINPACK-2's ``dcsrch`` / ``dcstep`` (Moré & Thuente,
Argonne 1983; Averick, Carter & Moré 1993), ported from the
BSD-3-licensed Python translation in SciPy's ``optimize/_dcsrch.py``
(Copyright the SciPy developers).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

MEMORY = 10
MAX_TRIALS = 20
GRADIENT_TOLERANCE = 1e-5
REDUCTION_TOLERANCE = 1e7 * float(np.finfo(float).eps)  # factr * epsmch
#: Sufficient decrease, curvature and interval-width tolerances.
FTOL, GTOL, XTOL = 1e-3, 0.9, 0.1
STEP_MAX = 1e10

CONVERGED_GRADIENT = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
CONVERGED_REDUCTION = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
ITERATION_LIMIT = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
LINE_SEARCH_FAILED = "ABNORMAL_TERMINATION_IN_LNSRCH"


@dataclass(frozen=True)
class Result:
    """Status 0 converged, 1 iteration limit, 2 line search failed."""

    x: np.ndarray
    fun: float
    iterations: int
    calls: int
    status: int
    message: str


def minimize(objective, x0: np.ndarray, max_iterations: int) -> Result:
    """Minimise ``objective(x) -> (f, gradient)`` from ``x0`` in at
    most ``max_iterations`` accepted steps (at least one)."""
    x = np.array(x0, dtype=float)
    f, g = objective(x)
    calls, iterations = 1, 0
    if np.max(np.abs(g)) <= GRADIENT_TOLERANCE:
        return Result(x, f, 0, calls, 0, CONVERGED_GRADIENT)
    pairs: deque = deque(maxlen=MEMORY)
    while True:
        d = _direction(g, pairs)
        slope = float(np.sum(g * d))
        step = (min(1.0 / np.sqrt(np.sum(d * d)), STEP_MAX)
                if iterations == 0 else 1.0)
        accepted, trials = _line_search(objective, x, f, slope, d, step)
        calls += trials
        if accepted is None:
            if not pairs:
                return Result(x, f, iterations, calls, 2, LINE_SEARCH_FAILED)
            pairs.clear()
            continue
        f_old, g_old = f, g
        step, x, f, g, new_slope = accepted
        iterations += 1
        if iterations >= max_iterations:
            return Result(x, f, iterations, calls, 1, ITERATION_LIMIT)
        if np.max(np.abs(g)) <= GRADIENT_TOLERANCE:
            return Result(x, f, iterations, calls, 0, CONVERGED_GRADIENT)
        if f_old - f <= REDUCTION_TOLERANCE * max(abs(f_old), abs(f), 1.0):
            return Result(x, f, iterations, calls, 0, CONVERGED_REDUCTION)
        # sᵀy from the two directional derivatives, as L-BFGS-B takes it.
        sy = (new_slope - slope) * step
        if sy > np.finfo(float).eps * (-slope * step):
            y = g - g_old
            pairs.append((step * d, y, sy, float(np.sum(y * y))))


def _direction(g: np.ndarray, pairs: deque) -> np.ndarray:
    """``-H g`` by the two-loop recursion (``-g`` with no pairs)."""
    q = -g
    alphas = []
    for s, y, sy, _yy in reversed(pairs):
        alphas.append(float(np.sum(s * q)) / sy)
        q = q - alphas[-1] * y
    if pairs:
        q = q * (pairs[-1][2] / pairs[-1][3])
    for (s, y, sy, _yy), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - float(np.sum(y * q)) / sy) * s
    return q


def _line_search(objective, x, f, slope, d, step):
    """``((step, x, f, g, slope) at the accepted point, calls)``, or
    ``(None, calls)`` when no step was accepted."""
    if not slope < 0:
        return None, 0
    search = _MoreThuente(f, slope, step)
    for trials in range(1, MAX_TRIALS + 1):
        trial = x + step * d
        f_trial, g_trial = objective(trial)
        slope_trial = float(np.sum(g_trial * d))
        done, next_step = search.next(step, f_trial, slope_trial)
        if done:
            return (step, trial, f_trial, g_trial, slope_trial), trials
        if not np.isfinite(next_step):
            break
        step = float(next_step)
    return None, trials


class _MoreThuente:
    """``dcsrch`` on ``phi(step) = f(x + step·d)``: ``stx`` is the best
    step so far, ``sty`` the interval's other end."""

    def __init__(self, f0: float, g0: float, step: float) -> None:
        self.f0, self.g0 = np.float64(f0), np.float64(g0)
        self.gtest = FTOL * self.g0
        self.bracketed, self.stage = False, 1
        self.width, self.width1 = STEP_MAX, STEP_MAX / 0.5
        self.stx = self.sty = np.float64(0.0)
        self.fx = self.fy = self.f0
        self.gx = self.gy = self.g0
        self.stmin, self.stmax = 0.0, step + 4.0 * step

    @np.errstate(all="ignore")
    def next(self, step: float, f: float, g: float):
        """``(True, step)`` if ``step``, where ``phi = f`` and ``phi' =
        g``, ends the search, else ``(False, the next trial step)``."""
        step, f, g = np.float64(step), np.float64(f), np.float64(g)
        ftest = self.f0 + step * self.gtest
        if self.stage == 1 and f <= ftest and g >= 0:
            self.stage = 2
        # dcsrch ends on convergence and on its warnings (rounding
        # errors, xtol, stpmax, stpmin) alike, keeping the step.
        if (self._stuck(step) or f <= ftest and abs(g) <= GTOL * -self.g0
                or step == STEP_MAX and f <= ftest and g <= self.gtest
                or step == 0 and (f > ftest or g >= self.gtest)):
            return True, step
        # Lower but not sufficiently lower: step on the modified
        # function, phi less its sufficient-decrease line.
        shift = (self.gtest if self.stage == 1 and self.fx >= f > ftest
                 else 0.0)
        (stx, fx, gx, sty, fy, gy, step, self.bracketed) = _dcstep(
            self.stx, self.fx - self.stx * shift, self.gx - shift,
            self.sty, self.fy - self.sty * shift, self.gy - shift,
            step, f - step * shift, g - shift, self.bracketed,
            self.stmin, self.stmax)
        self.stx, self.fx, self.gx = stx, fx + stx * shift, gx + shift
        self.sty, self.fy, self.gy = sty, fy + sty * shift, gy + shift
        if self.bracketed:
            # Bisect when the interval did not shrink enough.
            if abs(sty - stx) >= 0.66 * self.width1:
                step = stx + 0.5 * (sty - stx)
            self.width1, self.width = self.width, abs(sty - stx)
            self.stmin, self.stmax = min(stx, sty), max(stx, sty)
        else:
            self.stmin = step + 1.1 * (step - stx)
            self.stmax = step + 4.0 * (step - stx)
        step = min(max(step, 0.0), STEP_MAX)
        return False, stx if self._stuck(step) else step

    def _stuck(self, step) -> bool:
        return self.bracketed and (step <= self.stmin or step >= self.stmax
                                   or self.stmax - self.stmin
                                   <= XTOL * self.stmax)


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, stpmin,
            stpmax):
    """MINPACK-2 ``dcstep``: the updated interval, the next trial step
    (safeguarded cubic, quadratic or secant) and whether it brackets."""
    opposite = np.sign(dp) * np.sign(dx) < 0
    theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
    secant = stp + (dp / (dp - dx)) * (stx - stp)
    if fp > fx:
        # Higher value: the cubic step if nearer stx than the
        # quadratic step, else their mean.
        cubic = _cubic(theta, stx, dx, stp, dp)
        quadratic = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (
            stp - stx)
        stpf = (cubic if abs(cubic - stx) <= abs(quadratic - stx)
                else cubic + (quadratic - cubic) / 2.0)
        bracketed = True
    elif opposite:
        # Derivatives of opposite sign: the farther of cubic and secant.
        cubic = _cubic(theta, stp, dp, stx, dx)
        stpf = cubic if abs(cubic - stp) > abs(secant - stp) else secant
        bracketed = True
    elif abs(dp) < abs(dx):
        # Same sign, derivative shrinking: the cubic step only where
        # the cubic tends to infinity in the step's direction.
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0.0, (theta / s) ** 2
                                - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            cubic = stp + r * (stx - stp)
        else:
            cubic = stpmax if stp > stx else stpmin
        if bracketed:
            stpf = cubic if abs(cubic - stp) < abs(secant - stp) else secant
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = cubic if abs(cubic - stp) > abs(secant - stp) else secant
            stpf = min(max(stpf, stpmin), stpmax)
    elif bracketed:
        # Same sign, derivative not shrinking: the cubic toward sty.
        stpf = _cubic(3.0 * (fp - fy) / (sty - stp) + dy + dp,
                      stp, dp, sty, dy)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, bracketed


def _cubic(theta, a, da, b, db):
    """Minimiser of the cubic with slopes ``da`` at ``a`` and ``db`` at
    ``b`` (``theta`` carries the values)."""
    s = max(abs(theta), abs(da), abs(db))
    gamma = s * np.sqrt((theta / s) ** 2 - (da / s) * (db / s))
    if b < a:
        gamma = -gamma
    return a + ((gamma - da) + theta) / (((gamma - da) + gamma) + db) * (
        b - a)
