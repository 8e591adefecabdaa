"""The lattice DPs with their own step, stage walk and contraction: the
reference for ``gexpect``'s folded trinomial step (``gexpect._sup_step``,
``gexpect._sup_dp`` and ``gexpect._running_max_lhs``).

Each loop walks the stages itself, builds every candidate of the step as a
new array and contracts a finished stage by indexing, where the library
shares one step, one stage walk (``gexpect._lattice_steps``) and one
contraction between its DPs.  The library's DPs equal these bit for bit.
"""

from __future__ import annotations

import numpy as np


def contract(V, s_prev, s_cur):
    """Keep, at the start step of the stage (s_prev, s_cur], the node that
    equals the newest recorded boundary position."""
    r_prev = 2 * s_prev + 1
    P = V.shape[0] // r_prev
    V3 = V.reshape(P, r_prev, V.shape[1])
    a = np.arange(r_prev)
    return V3[:, a, a - s_prev + s_cur]


def sup_dp(tab, s, probs, record=None, policy=None):
    """The lattice DP over the stage steps ``s`` from the terminal table
    ``tab``; returns the step-0 array.  ``record[k]``, if given, is the
    value array at step k; ``policy[k]``, if given, is (interior offsets,
    index into ``probs`` of the chosen side-move probability), ties going
    to the later, larger one."""
    N = len(s)
    V = tab.reshape(-1, 2 * s[-1] + 1)
    if record is not None:
        record[s[-1]] = V.copy()
    sb = [0] + list(s)
    for i in range(N, 0, -1):
        for k in range(sb[i] - 1, sb[i - 1] - 1, -1):
            up, dn, mid = V[:, 2:], V[:, :-2], V[:, 1:-1]
            best = None
            arg = None
            for ci, pr in enumerate(probs):
                cand = pr * (up + dn) + (1.0 - 2.0 * pr) * mid
                if best is None:
                    best = cand
                    arg = np.zeros(cand.shape, dtype=np.int8)
                else:
                    take = cand >= best  # ties prefer the larger sigma
                    best = np.where(take, cand, best)
                    arg[take] = ci
            V = V.copy()
            V[:, 1:-1] = best
            if policy is not None:
                half = (V.shape[1] - 1) // 2
                policy[k] = (np.arange(-half + 1, half), arg)
            if k == sb[i - 1] and i > 1:
                V = contract(V, sb[i - 1], sb[i])
            if record is not None:
                record[k] = V.copy()
    return V


def running_max_lhs(records, s, probs, pw):
    """E-hat[(sup_k M_k)^pw] by the DP over (node, rank of the running max)
    from ``sup_dp``'s ``records``."""
    mvals = np.unique(np.concatenate([v.ravel() for v in records.values()]))
    mvals = np.concatenate([[-np.inf], mvals])
    powv = mvals ** pw
    powv[0] = 0.0  # sentinel, never selected
    n_m = len(mvals)

    def ranks(arr):
        return np.searchsorted(mvals, arr).astype(np.int64)

    sb = [0] + list(s)
    N = len(s)
    top = s[-1]
    r_top = ranks(records[top])
    m_axis = np.arange(n_m)
    W = powv[np.maximum(m_axis[None, None, :], r_top[:, :, None])]
    for i in range(N, 0, -1):
        for k in range(sb[i] - 1, sb[i - 1] - 1, -1):
            up, dn, mid = W[:, 2:, :], W[:, :-2, :], W[:, 1:-1, :]
            best = None
            for pr in probs:
                cand = pr * (up + dn) + (1.0 - 2.0 * pr) * mid
                best = cand if best is None else np.maximum(best, cand)
            C = W.copy()
            C[:, 1:-1, :] = best
            if k == sb[i - 1] and i > 1:
                r_prev = 2 * sb[i - 1] + 1
                P = C.shape[0] // r_prev
                C4 = C.reshape(P, r_prev, C.shape[1], n_m)
                a = np.arange(r_prev)
                C = C4[:, a, a - sb[i - 1] + sb[i], :]
            rk = ranks(records[k])
            idx = np.broadcast_to(np.maximum(m_axis[None, None, :],
                                             rk[:, :, None]), C.shape)
            W = np.take_along_axis(C, idx, axis=2)
    return float(W[0, s[0], 0])
