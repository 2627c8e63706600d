"""Metric preference instances: weighted voter locations and candidates
embedded in a finite (pseudo)metric, plus the derived pairwise bias
distributions that drive every deliberation model in this package.

The normalized bias of a location i for an ordered candidate pair (c1, c2)
is (d(i,c1) - d(i,c2)) / d(c1,c2), a number in [-1, 1]; negative values
favor c1. Social cost of a candidate is the mass-weighted sum of distances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

MASS_TOL = 1e-9        # masses must sum to 1 within this; renormalized if so
TRIANGLE_TOL = 1e-12   # absolute slack for triangle-inequality checks


def _mass_sum(masses: list[float]) -> float:
    """math.fsum, or the plain float sum where fsum raises (overflow, inf - inf)."""
    try:
        return math.fsum(masses)
    except (OverflowError, ValueError):
        return sum(masses)


class InvalidInstance(ValueError):
    """Raised when an instance fails validation; carries the violation list."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class UnknownCandidate(KeyError):
    """Raised for an id the instance does not declare. Prints its message
    as is, where a KeyError prints the repr of its argument."""

    def __str__(self) -> str:
        return str(self.args[0])


class ZeroCandidateDistance(ZeroDivisionError):
    """Normalized bias is undefined for coincident candidates."""


class DegenerateOptimum(ZeroDivisionError):
    """Distortion is undefined when the social optimum has zero cost."""


@dataclass(frozen=True, eq=False)
class MetricInstance:
    """Immutable instance: candidates, weighted locations, full distance table.

    Points are candidates plus locations; a location id may equal a candidate
    name, meaning voter mass sits exactly at that candidate. `dist` is indexed
    by point order: candidates first (declaration order), then locations that
    are not candidates (declaration order).
    """

    candidates: tuple[str, ...]
    location_ids: tuple[str, ...]
    masses: np.ndarray          # aligned with location_ids, sums to 1
    points: tuple[str, ...]     # candidates + non-candidate locations
    dist: np.ndarray            # (P, P) symmetric, zero diagonal
    _index: dict[str, int] = field(init=False, repr=False)
    _location_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.masses.flags.writeable = False
        self.dist.flags.writeable = False
        object.__setattr__(
            self, "_index", {p: k for k, p in enumerate(self.points)}
        )
        rows = np.array([self._index[lid] for lid in self.location_ids],
                        dtype=int)
        rows.flags.writeable = False
        object.__setattr__(self, "_location_rows", rows)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        candidates: list[str] | tuple[str, ...],
        locations: list[tuple[str, float]],
        distances: dict[tuple[str, str], float],
    ) -> "MetricInstance":
        """Validating constructor. Renormalizes masses within MASS_TOL of 1,
        fills self-distances with 0, and raises InvalidInstance otherwise.
        """
        candidates = tuple(candidates)
        loc_ids = tuple(lid for lid, _ in locations)
        if len(set(loc_ids)) != len(loc_ids):
            raise InvalidInstance(["duplicate location ids"])
        if len(set(candidates)) != len(candidates):
            raise InvalidInstance(["duplicate candidate names"])
        for p in set(candidates) | set(loc_ids):
            if "|" in p:
                raise InvalidInstance([f"point id may not contain '|': {p!r}"])

        points = list(candidates)
        for lid in loc_ids:
            if lid not in candidates:
                points.append(lid)
        points = tuple(points)
        index = {p: k for k, p in enumerate(points)}

        P = len(points)
        D = np.zeros((P, P))
        seen = set()
        for (a, b), v in distances.items():
            if a not in index or b not in index:
                raise InvalidInstance([f"distance references unknown id: {a}|{b}"])
            ia, ib = index[a], index[b]
            key = (min(ia, ib), max(ia, ib))
            if key in seen and D[ia, ib] != v:
                raise InvalidInstance(
                    [f"conflicting duplicate distance for pair {a}|{b}"]
                )
            seen.add(key)
            D[ia, ib] = v
            D[ib, ia] = v
        missing = [
            (points[i], points[j])
            for i in range(P)
            for j in range(i + 1, P)
            if (i, j) not in seen
        ]
        if missing:
            raise InvalidInstance(
                [f"missing distance for pair {a}|{b}" for a, b in missing[:5]]
            )

        masses = np.array([m for _, m in locations], dtype=float)
        total = _mass_sum(masses.tolist())
        if masses.size and abs(total - 1.0) <= MASS_TOL and total > 0:
            masses = masses / total

        inst = cls(candidates, loc_ids, masses, points, D)
        violations = validate(inst)
        if violations:
            raise InvalidInstance(violations)
        return inst

    # -- lookups -----------------------------------------------------------

    def index_of(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownCandidate(
                f"unknown candidate or location {point!r}") from None

    def candidate_index(self, c: str) -> int:
        if c not in self.candidates:
            raise UnknownCandidate(f"unknown candidate {c!r}")
        return self._index[c]

    def distance(self, a: str, b: str) -> float:
        return float(self.dist[self.index_of(a), self.index_of(b)])

    @property
    def m(self) -> int:
        return len(self.candidates)

    def location_distances(self, c: str) -> np.ndarray:
        """Distances from every location (in location order) to candidate c."""
        return self.dist[self._location_rows, self.candidate_index(c)]


def validate(inst: MetricInstance) -> list[str]:
    """Return a list of invariant violations (empty when the instance is valid).

    Checks: at least 2 candidates and 1 location, finite nonnegative masses
    summing to 1 within MASS_TOL, a finite, symmetric, nonnegative distance
    table with zero diagonal, and the triangle inequality within
    TRIANGLE_TOL (absolute).
    """
    out: list[str] = []
    if inst.m < 2:
        out.append(f"need at least 2 candidates, got {inst.m}")
    if len(inst.location_ids) < 1:
        out.append("need at least 1 location")
    mass = inst.masses
    if (mass < 0).any():
        out.append("negative location mass")
    if not np.isfinite(mass).all():
        out.append("non-finite location mass")
    else:
        total = _mass_sum(mass.tolist())
        if abs(total - 1.0) > MASS_TOL:
            out.append(f"masses sum to {total!r}, not 1")
    D = inst.dist
    if (D < 0).any():
        out.append("negative distance")
    if np.diagonal(D).any():
        out.append("nonzero self-distance")
    if not np.array_equal(D, D.T, equal_nan=True):
        out.append("asymmetric distance table")
    if not np.isfinite(D).all():
        # the triangle scan would subtract inf from inf
        out.append("non-finite distance")
        return out
    # d(i,j) <= d(i,k) + d(k,j) for all triples, vectorized over one leg
    for k in range(D.shape[0]):
        slack = D - (D[:, k][:, None] + D[k, :][None, :])
        if (slack > TRIANGLE_TOL).any():
            i, j = np.unravel_index(np.argmax(slack), slack.shape)
            out.append(
                "triangle violation: "
                f"d({inst.points[i]},{inst.points[j]}) > "
                f"d(.,{inst.points[k]}) route by {slack[i, j]:.3e}"
            )
            break
    return out


# -- bias distributions ----------------------------------------------------


@dataclass(frozen=True, eq=True)
class BiasDistribution:
    """Finitely supported distribution of normalized biases on [-1, 1].

    Atoms are strictly sorted by value; equal-valued atoms are merged on
    construction and probabilities renormalized within MASS_TOL.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    @classmethod
    def from_atoms(cls, atoms: list[tuple[float, float]]) -> "BiasDistribution":
        merged: dict[float, list[float]] = {}
        for v, p in atoms:
            if p < 0:
                raise ValueError(f"negative probability {p!r}")
            if abs(v) > 1.0 + 1e-9:
                raise ValueError(f"bias value out of [-1,1]: {v!r}")
            v = min(1.0, max(-1.0, v))
            merged.setdefault(v, []).append(p)
        values = tuple(sorted(merged))
        probs = [math.fsum(merged[v]) for v in values]
        total = math.fsum(probs)
        if abs(total - 1.0) > MASS_TOL or total <= 0:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs = tuple(p / total for p in probs)
        return cls(values, probs)

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probs))

    def __len__(self) -> int:
        return len(self.values)


def candidate_distance(inst: MetricInstance, c1: str, c2: str) -> float:
    """d(c1,c2), the divisor of every normalized bias for the pair; raises
    ZeroCandidateDistance when the candidates coincide."""
    d12 = float(inst.dist[inst.candidate_index(c1), inst.candidate_index(c2)])
    if d12 == 0.0:
        raise ZeroCandidateDistance(f"d({c1},{c2}) = 0")
    return d12


def normalized_bias(inst: MetricInstance, i: str, c1: str, c2: str) -> float:
    """(d(i,c1) - d(i,c2)) / d(c1,c2); negative favors c1."""
    d12 = candidate_distance(inst, c1, c2)
    ii = inst.index_of(i)
    b = (inst.dist[ii, inst.candidate_index(c1)] - inst.dist[ii, inst.candidate_index(c2)]) / d12
    return float(min(1.0, max(-1.0, b)))


def signed_diffs(inst: MetricInstance, c1: str, c2: str) -> np.ndarray:
    """Per-location d(i,c1) - d(i,c2), location order.

    Shares the sign of the normalized bias (the divisor d(c1,c2) is positive),
    so averaging decisions can be made on these without the lossy division.
    """
    return inst.location_distances(c1) - inst.location_distances(c2)


def bias_distribution(inst: MetricInstance, c1: str, c2: str) -> BiasDistribution:
    """Mass-weighted distribution of normalized biases for the pair (c1, c2)."""
    d12 = candidate_distance(inst, c1, c2)
    diffs = signed_diffs(inst, c1, c2)
    return BiasDistribution.from_atoms(
        [(float(d) / d12, float(p)) for d, p in zip(diffs, inst.masses)]
    )


# -- social cost -----------------------------------------------------------


def social_cost(inst: MetricInstance, c: str) -> float:
    dists = inst.location_distances(c)
    return math.fsum((inst.masses * dists).tolist())


def social_optimum(inst: MetricInstance) -> str:
    """Candidate minimizing social cost; ties broken by declaration order."""
    best, best_cost = None, math.inf
    for c in inst.candidates:
        cost = social_cost(inst, c)
        if cost < best_cost:
            best, best_cost = c, cost
    return best


def _distortions(inst: MetricInstance) -> dict[str, float]:
    """Each candidate's social cost over the social optimum's, from one
    social_cost per candidate; raises DegenerateOptimum when the optimum's
    cost is 0."""
    costs = {c: social_cost(inst, c) for c in inst.candidates}
    opt_cost = min(costs.values())
    if opt_cost == 0.0:
        raise DegenerateOptimum("social optimum has zero cost")
    return {c: cost / opt_cost for c, cost in costs.items()}


def distortion_of(inst: MetricInstance, c: str) -> float:
    ratios = _distortions(inst)
    inst.candidate_index(c)     # raises UnknownCandidate
    return ratios[c]


# -- JSON round trip -------------------------------------------------------


def instance_to_json(inst: MetricInstance) -> str:
    """Canonical JSON: each unordered pair once, keys sorted, self-pairs omitted."""
    dists = {}
    P = len(inst.points)
    for i in range(P):
        for j in range(i + 1, P):
            dists[f"{inst.points[i]}|{inst.points[j]}"] = inst.dist[i, j]
    doc = {
        "candidates": list(inst.candidates),
        "locations": [
            {"id": lid, "mass": float(m)}
            for lid, m in zip(inst.location_ids, inst.masses)
        ],
        "distances": {k: dists[k] for k in sorted(dists)},
    }
    return json.dumps(doc, indent=2)


def instance_from_json(text: str) -> MetricInstance:
    """Parse the JSON instance format, rejecting fields of the wrong JSON
    type rather than coercing them. MetricInstance.build then rejects
    unknown ids, conflicting duplicate pairs, nonzero self-distances and
    incomplete distance tables (self-pairs default to 0).
    """
    doc = _typed(json.loads(text), dict, "instance")
    candidates = [_typed(c, str, "candidate")
                  for c in _typed(doc.get("candidates"), list, "candidates")]
    locs = [_typed(loc, dict, "location")
            for loc in _typed(doc.get("locations"), list, "locations")]
    locations = [(_typed(loc.get("id"), str, "location id"),
                  _number(loc.get("mass"), "mass")) for loc in locs]
    distances: dict[tuple[str, str], float] = {}
    for key, v in _typed(doc.get("distances"), dict, "distances").items():
        a, _, b = key.partition("|")
        if not b:
            raise InvalidInstance([f"malformed distance key {key!r}"])
        distances[(a, b)] = _number(v, f"distance {key!r}")
    return MetricInstance.build(candidates, locations, distances)


def _typed(v, types, what: str):
    """v itself if it has one of the JSON types; a bool is not a number."""
    if isinstance(v, bool) or not isinstance(v, types):
        raise InvalidInstance([f"{what} has the wrong JSON type: {v!r}"])
    return v


def _number(v, what: str) -> float:
    try:
        return float(_typed(v, (int, float), what))
    except OverflowError:
        raise InvalidInstance([f"{what} is out of float range"]) from None


def load_instance(path: str) -> MetricInstance:
    with open(path) as fh:
        return instance_from_json(fh.read())
