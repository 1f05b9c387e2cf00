"""Exact distances over a quantized schema.

Numeric/ordinal/binary axes are min-max normalized (index difference divided
by grid span); one-hot groups contribute a Hamming term of 1 when the
category differs. Distances are computed as scaled integers (multiplied by
the lcm of the grid spans, squared for L2), so comparisons are exact.

``scaled`` works in Python ints and is exact on any grid; the exact oracle's
descent, for trees and compiled forests alike, uses the same terms.
``scaled_rows`` is an int64 row version of ``scaled``, called by no oracle:
the tests check it against ``scaled``, and the benchmark still traces it. Its
guard bounds the whole row sum: each interval axis contributes at most
``group_term`` (a full-span gap), as does each one-hot group, so a row is at
most ``(n_iv + n_groups) * group_term``. Past ``2**63 - 1`` it refuses rather
than wrap.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .errors import ContractViolation
from .schema import FeatureSchema, Point

# largest row sum the int64 path may produce
_INT64_MAX = (1 << 63) - 1
DISTANCE_KINDS = ("l2", "l1")


class Distance:
    def __init__(self, schema: FeatureSchema, kind: str = "l2"):
        if kind not in DISTANCE_KINDS:
            raise ContractViolation(f"unknown distance kind {kind!r}")
        self.schema = schema
        self.kind = kind
        spans = [size - 1 for size in schema.iv_sizes]
        self.scale = lcm(*spans) if spans else 1
        self.weights = tuple(self.scale // s for s in spans)
        self.group_term = self.scale**2 if kind == "l2" else self.scale
        n_terms = len(spans) + len(schema.group_sizes)
        self.vectorizable = n_terms * self.group_term <= _INT64_MAX
        self._w = np.asarray(self.weights, dtype=np.int64) if self.vectorizable else None

    def scaled(self, a: Point, b: Point) -> int:
        """Scaled distance: d^2 * scale^2 for L2, d * scale for L1."""
        total = 0
        if self.kind == "l2":
            for w, va, vb in zip(self.weights, a.ivals, b.ivals):
                d = (va - vb) * w
                total += d * d
        else:
            for w, va, vb in zip(self.weights, a.ivals, b.ivals):
                total += abs(va - vb) * w
        for ca, cb in zip(a.cats, b.cats):
            if ca != cb:
                total += self.group_term
        return total

    def scaled_rows(self, x: Point, proj_iv: np.ndarray, group_mismatch: np.ndarray):
        """Vectorized ``scaled`` between ``x`` and rows of projected points.

        ``proj_iv`` is (n, n_interval_axes); ``group_mismatch`` counts
        differing groups per row. Refuses when a row sum could pass int64.
        """
        if not self.vectorizable:
            raise ContractViolation(
                "grid spans too large for the int64 distance path: a row sum "
                "could exceed 2**63 - 1"
            )
        x_iv = np.asarray(x.ivals, dtype=np.int64)
        if proj_iv.size:
            diff = (proj_iv - x_iv) * self._w
            if self.kind == "l2":
                base = np.square(diff).sum(axis=1)
            else:
                base = np.abs(diff).sum(axis=1)
        else:
            base = np.zeros(len(group_mismatch), dtype=np.int64)
        return base + group_mismatch * self.group_term
