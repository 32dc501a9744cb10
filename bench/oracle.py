"""Independent recomputation of what tempdiag reports, used to check it.

Nothing here imports tempdiag: the model file is parsed again, candidate
sets are solved again over the mixed-radix assignment space, and step
conditionals, priors and joints are rebuilt from numpy ``P^n`` entries, with
joints kept in log space so that long streams stay representable.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

#: Smallest positive normal double; below it a joint has lost precision.
TINY = np.finfo(float).tiny
LOG_TINY = math.log(TINY)
#: Relative tolerance for values the engine computes in another order.
RTOL = 1e-9


def prob(value) -> float:
    return float(Fraction(value)) if isinstance(value, str) else float(value)


class Model:
    """A model file, with components in sorted-id order."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        comps = sorted(raw["components"], key=lambda c: c["id"])
        self.ids = [c["id"] for c in comps]
        self.modes = [list(c["modes"]) for c in comps]
        self.matrices = [np.array([[prob(x) for x in row] for row in c["matrix"]])
                         for c in comps]
        self.initials = [None if c.get("initial_distribution") is None
                         else np.array([prob(x) for x in c["initial_distribution"]])
                         for c in comps]
        col = {cid: i for i, cid in enumerate(self.ids)}
        self.rules = [([(col[a["component"]], self.modes[col[a["component"]]]
                         .index(a["mode"])) for a in r["body"]], r["head"])
                      for r in raw.get("rules", [])]
        self.partners: dict[str, set[str]] = {}
        for a, b in raw.get("exclusive", []):
            self.partners.setdefault(a, set()).add(b)
            self.partners.setdefault(b, set()).add(a)
        radix = [len(m) for m in self.modes]
        # Row r is the r-th assignment in lexicographic order.
        self.space = np.indices(radix).reshape(len(radix), -1).T
        self._powers: dict[tuple[int, int], np.ndarray] = {}

    def power(self, c: int, n: int) -> np.ndarray:
        key = (c, n)
        if key not in self._powers:
            self._powers[key] = np.linalg.matrix_power(self.matrices[c], n)
        return self._powers[key]

    def encode(self, assignment: dict) -> tuple[int, ...]:
        return tuple(self.modes[c].index(assignment[cid])
                     for c, cid in enumerate(self.ids))

    def candidates(self, present, absent, criterion: str) -> np.ndarray:
        """Rows of ``space`` explaining one observation entry."""
        predicted: dict[str, np.ndarray] = {}
        for body, head in self.rules:
            fires = np.ones(len(self.space), dtype=bool)
            for c, m in body:
                fires &= self.space[:, c] == m
            predicted[head] = predicted.get(head, False) | fires
        none = np.zeros(len(self.space), dtype=bool)
        ok = np.ones(len(self.space), dtype=bool)
        for atom in absent:
            ok &= ~predicted.get(atom, none)
        for atom in present:
            for other in self.partners.get(atom, ()):
                ok &= ~predicted.get(other, none)
            if criterion == "abductive":
                ok &= predicted.get(atom, none)
        return self.space[ok]

    def initial_distributions(self, t0: int, first_layer: np.ndarray):
        """Declared, else induced uniformly from the t=0 candidates, else
        uniform over the modes."""
        out = []
        for c, declared in enumerate(self.initials):
            if declared is not None:
                out.append(declared)
            elif t0 == 0 and len(first_layer):
                counts = np.bincount(first_layer[:, c], minlength=len(self.modes[c]))
                out.append(counts / len(first_layer))
            else:
                out.append(np.full(len(self.modes[c]), 1.0 / len(self.modes[c])))
        return out

    def log_priors(self, t: int, layer: np.ndarray, initials) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return sum(np.log((initials[c] @ self.power(c, t))[layer[:, c]])
                       for c in range(len(self.ids)))

    def factors(self, prev: np.ndarray, nxt: np.ndarray, gap: int) -> np.ndarray:
        """Per-component n-step entries, shape (|prev|, |nxt|, components)."""
        return np.stack([self.power(c, gap)[prev[:, c][:, None], nxt[:, c][None, :]]
                         for c in range(len(self.ids))], axis=-1)


def admissible(factors: np.ndarray, sigma: float, mode: str) -> np.ndarray:
    if mode == "per-component":
        return (factors >= sigma).all(axis=-1)
    return factors.prod(axis=-1) >= sigma


def near_threshold(factors: np.ndarray, sigma: float, mode: str) -> np.ndarray:
    """Edges whose threshold test could flip under last-digit rounding (none
    at sigma 0, which every probability passes)."""
    if sigma == 0:
        return np.zeros(factors.shape[:-1], dtype=bool)
    values = factors if mode == "per-component" else factors.prod(axis=-1, keepdims=True)
    return (np.abs(values - sigma) <= RTOL * sigma).any(axis=-1)


def prefix_counts(masks: list[np.ndarray], first: int) -> list[int]:
    """Number of admissible partial paths ending at each instant."""
    vec = np.ones(first, dtype=np.int64)
    counts = [int(vec.sum())]
    for mask in masks:
        vec = vec @ mask.astype(np.int64)
        counts.append(int(vec.sum()))
    return counts


def log_of(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def same_prob(reported: float, log_expected: float) -> bool:
    """Does a reported probability match a log-space value wherever the
    value is representable as a normal double?"""
    if log_expected == -math.inf:
        return reported == 0.0
    if log_expected < LOG_TINY:
        return 0.0 <= reported <= TINY * (1 + RTOL)
    expected = math.exp(log_expected)
    return abs(reported - expected) <= RTOL * expected
