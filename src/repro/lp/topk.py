"""Linear encodings of "sum of the k largest of T values".

Pretium's operating cost on a metered link is proportional to the 95th
percentile of its utilisation across a window — a non-convex quantity
(Theorem 4.1 in the paper shows that optimising it exactly is NP-hard).
Section 4.2 replaces it with ``z_e``: the *mean of the top 10%* of the
utilisation samples, which is linearly correlated with the 95th percentile
(see :mod:`repro.costs.percentile` and the Figure 5 benchmark).  The sum of
the top-k values then has to enter a linear program as an upper bound that
becomes tight under minimisation.  Two encodings are provided, each as a
:func:`topk_template` of COO triplets that :func:`add_sum_topk_coo` emits:

``"sorting"``
    The paper's Theorem 4.2 construction: ``k`` bubble-sort passes of linear
    comparators, O(kT) constraints, three constraints per comparator (the
    paper highlights that this improves on prior work's five).

``"cvar"``
    The classical Rockafellar–Uryasev / CVaR encoding
    ``S >= k*eta + sum_t max(x_t - eta, 0)`` with O(T) constraints.

Both yield the exact sum of the top-k at the optimum of a minimisation;
tests and the ``bench_topk_encodings`` benchmark verify they agree.  The
CVaR form is the one every schedule LP (SAM, PC, the offline baselines) is
built with because it is dramatically smaller; the sorting-network form
exists for fidelity to the paper's Theorem 4.2 construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import ModelError
from .model import EQ, GE, LE, SENSE_CODES, Model

#: The encodings :func:`topk_template` accepts.
TOPK_ENCODINGS = ("cvar", "sorting")


def sum_topk_exact(values: Sequence[float], k: int) -> float:
    """Exact sum of the ``k`` largest entries of ``values`` (reference)."""
    if k <= 0:
        return 0.0
    arr = np.asarray(values, dtype=float)
    k = min(k, arr.size)
    return float(np.sort(arr)[-k:].sum())


class TopkTemplate(NamedTuple):
    """One encoding of "sum of the top ``k`` of ``T`` inputs" as COO
    triplets over *relative* columns: ``0 .. T-1`` are the inputs,
    ``T .. T+n_aux-1`` the auxiliary variables the encoding creates (all
    ``>= 0``), ``bound`` the column of ``S``.  Every row has rhs 0.
    """

    n_aux: int
    n_rows: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    codes: np.ndarray
    bound: int


def topk_template(T: int, k: int, encoding: str = "cvar") -> TopkTemplate:
    """The encoding's triplets, with variables and rows numbered in
    creation order (the order of the term-by-term reference encodings in
    ``tests/reference/expr.py``)."""
    if not 0 < k <= T:
        raise ValueError(f"k must be in 1..{T}, got {k}")
    if encoding == "cvar":
        return _cvar_template(T, k)
    if encoding == "sorting":
        return _sorting_template(T, k)
    raise ValueError(f"unknown top-k encoding {encoding!r}; "
                     f"expected one of {TOPK_ENCODINGS}")


def _template(n_aux, rows, cols, vals, codes, bound) -> TopkTemplate:
    codes = np.asarray(codes, dtype=np.int8)
    return TopkTemplate(n_aux, codes.size, np.asarray(rows, dtype=np.int64),
                        np.asarray(cols, dtype=np.int64),
                        np.asarray(vals, dtype=np.float64), codes, bound)


def _cvar_template(T: int, k: int) -> TopkTemplate:
    """CVaR: aux = eta, u_0..u_{T-1}, S; ``u_t - x_t + eta >= 0`` per
    sample, then ``S - k*eta - sum(u) >= 0``."""
    t = np.arange(T)
    eta, u, total = T, T + 1 + t, 2 * T + 1
    return _template(
        T + 2,
        rows=np.concatenate([t, t, t, np.full(T + 2, T)]),
        cols=np.concatenate([u, t, np.full(T, eta), [total, eta], u]),
        vals=np.concatenate([np.ones(T), -np.ones(T), np.ones(T),
                             [1.0, -float(k)], -np.ones(T)]),
        codes=np.full(T + 1, SENSE_CODES[GE]), bound=total)


def _sorting_template(T: int, k: int) -> TopkTemplate:
    """Theorem 4.2's network: per pass, comparator pairs (m, M)
    interleaved and three rows per comparator; then ``S``."""
    rows, cols, vals, codes = [], [], [], []
    current = list(range(T))
    pass_maxima = current if k == T else []
    next_var, row = T, 0
    for _ in range(k if k < T else 0):
        running_max = current[0]
        next_values = []
        for incoming in current[1:]:
            low, high = next_var, next_var + 1
            next_var += 2
            # running + incoming - low - high == 0
            rows += [row] * 4
            cols += [running_max, incoming, low, high]
            vals += [1.0, 1.0, -1.0, -1.0]
            # low - running <= 0 ; low - incoming <= 0
            rows += [row + 1, row + 1, row + 2, row + 2]
            cols += [low, running_max, low, incoming]
            vals += [1.0, -1.0, 1.0, -1.0]
            codes += [SENSE_CODES[EQ], SENSE_CODES[LE], SENSE_CODES[LE]]
            row += 3
            next_values.append(low)
            running_max = high
        pass_maxima.append(running_max)
        current = next_values
    # S - sum(pass maxima) >= 0
    rows += [row] * (1 + len(pass_maxima))
    cols += [next_var, *pass_maxima]
    vals += [1.0] + [-1.0] * len(pass_maxima)
    codes.append(SENSE_CODES[GE])
    return _template(next_var + 1 - T, rows, cols, vals, codes, next_var)


def add_sum_topk_coo(model: Model, var_indices, k: int, name: str = "topk",
                     encoding: str = "cvar") -> int:
    """Add an upper bound on the sum of the top-``k`` samples.

    Takes the variable *indices* of the samples (e.g. a
    :class:`~repro.lp.model.VariableBlock`'s ``indices``), which must be
    distinct, and emits the encoding's :func:`topk_template` through
    :meth:`Model.add_constraints_coo`.  Returns the index of a variable
    ``S`` such that at any feasible point ``S >= sum of the k largest
    sample values``, with equality at the optimum whenever ``S`` carries
    a positive cost in a minimisation (or is subtracted in a
    maximisation).
    """
    x = np.asarray(var_indices, dtype=np.int64)
    template = topk_template(x.size, k, encoding)
    if np.unique(x).size != x.size:
        raise ModelError("top-k inputs must be distinct variables")
    aux = model.add_variables_array(template.n_aux, f"{name}.aux", lb=0.0)
    columns = np.concatenate([x, aux.indices])
    model.add_constraints_coo(template.rows, columns[template.cols],
                              template.vals, template.codes,
                              np.zeros(template.n_rows), name=name)
    return int(columns[template.bound])
