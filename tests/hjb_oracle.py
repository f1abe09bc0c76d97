"""The HJB backward step and adjoint sweep as the transport module formed
them when every term was rebuilt at each step, kept as an oracle for the
kernel's bit-for-bit tests.

``Oracle`` wraps an ``_HJBWorkspace`` for its grid, flags, cost and cost model,
and forms the jump taps and the per-step terms (difference quotients, the
control argmin, the implicit system and the jump weights) itself, from the
controls, in the adjoint sweep too.
"""

from typing import List

import numpy as np
from scipy.linalg.lapack import dgtsv

from levysot.transport import GOLDEN, SPLIT_STEP, ValueGrid


def _lincomb(coefs, arrays):
    """coefs[0] * arrays[0] + coefs[1] * arrays[1] + ..., summed in order.

    Elementwise, so every entry gets the same arithmetic at any array shape;
    a BLAS product would not promise that across batch sizes.
    """
    out = coefs[0] * arrays[0]
    for c, a in zip(coefs[1:], arrays[1:]):
        out = out + c * a
    return out


def _params(P: np.ndarray) -> List[np.ndarray]:
    return [P[..., i] for i in range(P.shape[-1])]


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system in place with LAPACK gtsv.

    Raises LinAlgError on a singular matrix and ValueError on a non-finite
    solution, the exception types of ``scipy.linalg.solve_banded``.
    """
    *_, x, info = dgtsv(dl, d, du, rhs, overwrite_dl=1, overwrite_d=1,
                        overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if not np.isfinite(x).all():
        raise ValueError("HJB step produced infs or NaNs")
    return x


def _vertex_or_end(m, rate, convex, mid: float, lo: float, hi: float) -> np.ndarray:
    """argmin over [lo, hi] of a (s - mid)^2 + m (s - mid), mid the midpoint,
    given rate = -1 / (2a) where a > 0 (``convex``): the clipped vertex
    there, else the lower end, lo on ties.  Works in place on m."""
    ends = None if convex.all() else np.where(m >= 0, lo, hi)
    s = np.multiply(m, rate, out=m)
    s += mid
    np.clip(s, lo, hi, out=s)
    return s if ends is None else np.where(convex, s, ends)


def _lowest(S: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Per entry, the candidate of S (K, ...) with the lowest H, the first
    on ties."""
    return np.take_along_axis(S, np.argmin(H, axis=0)[None], axis=0)[0]


def _restrict(terms, cols):
    """The stencil terms of a (B, n) stack at the nodes ``cols``."""
    *arrays, jlin = terms
    return tuple(None if a is None else a[:, cols] for a in arrays) + (
        None if jlin is None else [j[:, cols] for j in jlin],)


class Oracle:
    """The per-step kernel over the workspace ``ws``."""

    def __init__(self, ws):
        self.ws = ws
        # a jump by y is linear interpolation of v at x + y, extrapolated
        # linearly past the edges: the two-tap gather (1 - f) v[i] + f v[i+1]
        self.taps = []
        for y in ws.aff.locations:
            pos = np.arange(ws.n) + y / ws.h
            i = np.clip(np.floor(pos).astype(int), 0, ws.n - 2)
            f = pos - i
            self.taps.append((i, i + 1, 1.0 - f, f, np.column_stack([i, i + 1]).ravel()))

    def __getattr__(self, name):
        return getattr(self.ws, name)

    def effective_drift(self, P: np.ndarray) -> np.ndarray:
        return self.drift0 + _lincomb(self.drift_lin, _params(P))

    def diffusion(self, P: np.ndarray) -> np.ndarray:
        return self.aff.c0 + _lincomb(self.aff.c_lin, _params(P))

    def jump_weights(self, P: np.ndarray) -> List[np.ndarray]:
        """Clipped jump weight per location."""
        ps = _params(P)
        return [np.maximum(w0 + _lincomb(wl, ps), 0.0)
                for w0, wl in zip(self.aff.w0, self.aff.w_lin)]

    def cost(self, t: float, P: np.ndarray, cols=None) -> np.ndarray:
        """L(t, x, P) for a stack of controls over the grid nodes (or the
        nodes ``cols``, P's second-to-last axis), in one call."""
        x = self.x_grid if cols is None else self.x_grid[cols]
        x = np.broadcast_to(x, P.shape[:-1]).ravel()
        return self.L(t, x, P.reshape(-1, P.shape[-1])).reshape(P.shape[:-1])

    def jump_parts(self, V: np.ndarray) -> List[np.ndarray]:
        """S_j v - v per jump location, for a (B, n) stack."""
        return [g * V[:, i] + f * V[:, i1] - V for i, i1, g, f, *_ in self.taps]

    def jump_apply_transpose(self, W: List[np.ndarray], q: np.ndarray) -> np.ndarray:
        """J^T q for the forward (adjoint) sweep of one value vector.

        The scatter-add visits source nodes in ascending order, so each sum
        runs in the order of a CSR product with S^T and the L-BFGS-B
        gradient does not depend on how J^T is stored.
        """
        out = np.zeros(self.n)
        for (_, _, g, f, index, *_), w in zip(self.taps, W):
            wq = w * q
            out += np.bincount(
                index, weights=np.column_stack([g * wq, f * wq]).ravel(), minlength=self.n
            ) - wq
        return out

    # -- per-step Hamiltonian minimization -------------------------------

    def _stencils(self, V: np.ndarray, parts: List[np.ndarray]):
        """Difference quotients and jump terms of H for a (B, n) stack."""
        h = self.h
        dc = np.empty_like(V)
        dc[:, 1:-1] = (V[:, 2:] - V[:, :-2]) / (2.0 * h)
        dc[:, 0] = (V[:, 1] - V[:, 0]) / h
        dc[:, -1] = (V[:, -1] - V[:, -2]) / h
        # linear-extrapolation ghosts: zero curvature at the padded edges
        d2v = np.zeros_like(V)
        d2v[:, 1:-1] = (V[:, 2:] - 2.0 * V[:, 1:-1] + V[:, :-2]) / self.h2
        dp = dm = None
        if not self.central:
            diff = (V[:, 1:] - V[:, :-1]) / h
            dp = np.empty_like(V)
            dp[:, :-1] = diff
            dp[:, -1] = diff[:, -1]
            dm = np.empty_like(V)
            dm[:, 1:] = diff
            dm[:, 0] = diff[:, 0]
        # J(p)v = J(0)v + sum_i p_i j_i, with the j_i in a list; no control
        # changes J(0)v, and H is formed without it
        jlin = None
        if parts:
            jlin = [_lincomb(wl, parts) for wl in self.aff.w_lin.T]
        return dp, dm, dc, d2v, jlin

    def hamiltonian(self, k, P, i, S, terms, cols=None) -> np.ndarray:
        """H at step k with coordinate i of P set to each of the K probes in S.

        P has shape (..., m, n_params) for the m nodes ``cols`` (all nodes
        when None) and ``terms`` are restricted to them; S broadcasts to
        (K,) + P.shape[:-1].  Returns that shape, from a single exact cost
        call.
        """
        Q = self._with_coordinate(P, i, S)
        H = self._stencil_terms(Q, terms)
        H += self.cost(self.t_grid[k], Q, cols)
        return H

    @staticmethod
    def _with_coordinate(P, i, S) -> np.ndarray:
        """Controls P with coordinate i set to each of the K probes in S."""
        Q = np.empty((len(S),) + P.shape)
        if P.shape[-1] > 1:
            Q[...] = P
        Q[..., i] = S
        return Q

    def _stencil_terms(self, Q, terms) -> np.ndarray:
        """H at controls Q without the cost; a function of its own so that
        its temporaries are freed before the cost call."""
        dp, dm, dc, d2v, jlin = terms
        b = self.effective_drift(Q)
        c = self.diffusion(Q)
        if self.central:
            H = b * dc
        else:
            upwind = np.maximum(b, 0.0) * dp + np.minimum(b, 0.0) * dm
            H = np.where(c >= np.abs(b) * self.h, b * dc, upwind)
        H += 0.5 * c * d2v
        if jlin is not None:
            H += _lincomb(jlin, _params(Q))
        return H

    def optimize_controls(self, k: int, terms, shape) -> np.ndarray:
        """Per-node minimizing parameters of the discrete Hamiltonian at step k."""
        aff = self.aff
        P = np.empty(shape + (aff.n_params,))
        P[...] = 0.5 * (aff.lows + aff.highs)
        sweeps = 1 if aff.n_params == 1 else 2
        for _ in range(sweeps):
            for i in range(aff.n_params):
                lo, hi = aff.lows[i], aff.highs[i]
                P[..., i] = lo if hi <= lo else self._minimize_coordinate(
                    k, P, i, lo, hi, terms)
        return P

    def _minimize_coordinate(self, k, P, i, lo, hi, terms) -> np.ndarray:
        """Per-node argmin over coordinate i at step k.

        Along the coordinate, H(s) = const + beta (s - mid) + L(s): beta
        comes exactly from the stencil terms, and the cost model gives L's
        slope and curvature at the other coordinates of P.  Under the
        central stencil H is one quadratic and the argmin its clipped
        vertex.  Under the auto stencil H is one quadratic on each piece
        between the split points, and the argmin is the best of each
        branch's clipped vertex and the piece ends.  The cells where the
        cost model failed its check take golden section on the exact cost.
        """
        model = self.model
        dp, dm, dc, d2v, jlin = terms
        mid = model.mid[i]
        a = 0.5 * model.hess[k, :, i, i]
        convex = a > 0
        rate = np.divide(-0.5, a, out=np.zeros_like(a), where=convex)
        cost_slope = model.g[k, :, i]
        for j in range(P.shape[-1]):
            if j != i:
                cost_slope = cost_slope + model.hess[k, :, i, j] * (P[..., j] - model.mid[j])
        # H's slope at mid apart from the drift term, whose difference
        # quotient depends on the stencil branch
        slope = 0.5 * self.aff.c_lin[i] * d2v + cost_slope
        if jlin is not None:
            slope += jlin[i]
        dl = self.drift_lin[i]
        if self.central:
            s = _vertex_or_end(slope + dl * dc, rate, convex, mid, lo, hi)
        else:
            vertices = [_vertex_or_end(slope + dl * d, rate, convex, mid, lo, hi)
                        for d in (dc, dp, dm)]
            S = np.stack(vertices + self._piece_ends(P, i, lo, hi))
            u = S - mid
            # H up to terms constant in s, with the modelled cost
            H = self._stencil_terms(self._with_coordinate(P, i, S), terms)
            H += (a * u + cost_slope) * u
            s = _lowest(S, H)
        bad = np.flatnonzero(~model.ok[k])
        if bad.size:
            s[:, bad] = self._piecewise_golden(
                k, P[:, bad], i, lo, hi, _restrict(terms, bad), bad)
        return s

    def _split_points(self, P, i, lo, hi) -> List[np.ndarray]:
        """The points of [lo, hi] where c(s) = |b(s)| h along coordinate i.

        Under the auto stencil the drift term of H switches there between
        b dc and the upwind b dp or b dm, so H is one quadratic in s
        between them and jumps at them.  None under the central stencil.
        """
        if self.central:
            return []
        dl, cl, h = self.drift_lin[i], self.aff.c_lin[i], self.h
        b_rest = self.effective_drift(P) - dl * P[..., i]
        c_rest = self.diffusion(P) - cl * P[..., i]
        splits = []
        for sign in (1.0, -1.0):
            denom = cl - sign * h * dl
            if denom != 0.0:
                splits.append(np.clip((sign * h * b_rest - c_rest) / denom, lo, hi))
        return splits

    def _piece_ends(self, P, i, lo, hi) -> List[np.ndarray]:
        """Both ends of [lo, hi], and each split point with a point just
        inside either side, because the upwind side of a split is open."""
        inside = SPLIT_STEP * (hi - lo)
        shape = P.shape[:-1]
        return [np.full(shape, lo), np.full(shape, hi)] + [
            np.clip(r + e, lo, hi) for r in self._split_points(P, i, lo, hi)
            for e in (-inside, 0.0, inside)]

    def _piecewise_golden(self, k, P, i, lo, hi, terms, cols) -> np.ndarray:
        """Golden section on the exact cost over each piece of [lo, hi]
        between the split points; of the piece minima and the piece ends,
        the candidate with the lowest exact H wins.  Where H is infinite at
        both probes, golden section returns the upper end of its bracket;
        the priced ends let a finite H at another end win."""
        shape = P.shape[:-1]
        ends = np.sort(np.stack(
            [np.full(shape, lo), *self._split_points(P, i, lo, hi), np.full(shape, hi)]), axis=0)
        pieces = np.broadcast_to(P, (len(ends) - 1,) + P.shape)
        S = self._golden_section(k, pieces, i, ends[:-1], ends[1:], terms, cols)
        S = np.concatenate([S, ends])
        return _lowest(S, self.hamiltonian(k, P, i, S, terms, cols))

    def _golden_section(self, k, P, i, lo, hi, terms, cols) -> np.ndarray:
        """Per-node golden-section argmin of H over coordinate i on the
        brackets [lo, hi], arrays of shape P.shape[:-1]."""
        a, b_ = lo, hi
        for _ in range(48):
            c1 = b_ - GOLDEN * (b_ - a)
            c2 = a + GOLDEN * (b_ - a)
            f1, f2 = self.hamiltonian(k, P, i, np.stack([c1, c2]), terms, cols)
            left = f1 < f2
            b_ = np.where(left, c2, b_)
            a = np.where(left, a, c1)
        return np.clip(0.5 * (a + b_), lo, hi)

    # -- frozen-control implicit step ------------------------------------

    def tridiagonal(self, b: np.ndarray, c: np.ndarray):
        """(dl, d, du) of I - dt * (implicit drift + implicit diffusion).

        b and c are (B, n) stacks; the B systems are laid end to end as one
        system of size B * n whose couplings across block boundaries are
        zero, so gtsv eliminates each block exactly as it would alone.
        """
        h, h2, dt = self.h, self.h2, self.dt
        half = 0.5 * dt * c / h2
        if self.central:
            diag = 1.0 + dt * c / h2
            row_upper = -0.5 * dt * b / h - half
            row_lower = 0.5 * dt * b / h - half
        else:
            up = np.maximum(b, 0.0)
            dn = np.minimum(b, 0.0)
            central = c >= np.abs(b) * h
            diag = np.where(central, 1.0 + dt * c / h2, 1.0 + dt * (up - dn) / h + dt * c / h2)
            row_upper = np.where(central, -0.5 * dt * b / h - half, -dt * up / h - half)
            row_lower = np.where(central, 0.5 * dt * b / h - half, dt * dn / h - half)
        du = np.empty_like(b)
        dl = np.empty_like(b)
        du[:, :-1] = row_upper[:, :-1]
        dl[:, :-1] = row_lower[:, 1:]
        du[:, -1] = dl[:, -1] = 0.0
        # edge rows sit in the padded region: one-sided drift, zero curvature
        diag[:, 0] = 1.0 + dt * b[:, 0] / h
        du[:, 0] = -dt * b[:, 0] / h
        diag[:, -1] = 1.0 - dt * b[:, -1] / h
        dl[:, -2] = dt * b[:, -1] / h
        return dl.ravel()[:-1], diag.ravel(), du.ravel()[:-1]

    def backward_step(self, k: int, V: np.ndarray):
        """Values at t_k from values V at t_{k+1}, for a (B, n) stack.

        Returns the controls (B, n, n_params) and the values (B, n).
        """
        parts = self.jump_parts(V)
        P = self.optimize_controls(k, self._stencils(V, parts), V.shape)
        source = self.cost(self.t_grid[k], P)
        if parts:
            source = _lincomb(self.jump_weights(P), parts) + source
        rhs = V + self.dt * source
        dl, d, du = self.tridiagonal(self.effective_drift(P), np.maximum(self.diffusion(P), 0.0))
        return P, _gtsv(dl, d, du, rhs.ravel()).reshape(V.shape)

    def solve(self, terminal: np.ndarray) -> ValueGrid:
        """One backward sweep of one terminal potential; the controls stand
        in for the kept systems, so that ``forward`` reads them."""
        values = np.empty((self.n_t + 1, self.n))
        controls = np.empty((self.n_t, self.n, self.aff.n_params))
        values[-1] = terminal
        V = values[-1:]
        for k in range(self.n_t - 1, -1, -1):
            P, V = self.backward_step(k, V)
            controls[k] = P[0]
            values[k] = V[0]
        return ValueGrid(self.x_grid, self.t_grid, values, controls, self.report, controls)

    def initial_values(self, terminals: np.ndarray) -> np.ndarray:
        V = terminals
        for k in range(self.n_t - 1, -1, -1):
            _, V = self.backward_step(k, V)
        return V

    def forward(self, controls: np.ndarray, q0: np.ndarray) -> np.ndarray:
        ws = self
        q = q0
        for k in range(ws.n_t):
            P = controls[k]
            dl, d, du = ws.tridiagonal(ws.effective_drift(P)[None],
                                       np.maximum(ws.diffusion(P), 0.0)[None])
            r = _gtsv(du, d, dl, q.copy())  # the transposed system
            q = r + ws.dt * ws.jump_apply_transpose(ws.jump_weights(P), r)
        return q
