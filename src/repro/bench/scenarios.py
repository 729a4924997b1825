"""Named solve scenarios: the cross-workload matrix behind the benches.

Every solve-level perf claim in this repo used to be measured on a single
16-path cyclic-quadratic workload.  This module is the registry that fixes
that: a fixed set of *named* solve scenarios spanning the classical
families -- cyclic-n, katsura-n, noon-n, a Speelpenning-product family,
seeded random sparse systems, an irregular-degree family, and a
triangular chain whose root count sits far below its Bezout bound -- each
carrying its dimension/seed knobs, expected Bezout number, (where
classically known) exact root count, and the recommended start strategy
with its path count.

The four solve-level benches (``bench/batch_tracking.py``,
``bench/escalation.py``, ``bench/eval_plan.py``, ``bench/shard.py``) sweep
:func:`bench_scenarios` so every ``BENCH_*.json`` records a per-scenario
matrix, and the tier-1 differential suite (``tests/scenarios/``) asserts
batched-vs-scalar and plan-vs-walk identity on every registry member.

Two tiers:

* **tier-1 scenarios** (``tier1=True``) are small enough (<= 16 paths) to
  run in the fast test tier on every commit;
* **matrix extras** (``tier1=False``) widen each family for the slow
  full-matrix runs (``pytest -m scenario_matrix``) and bench sweeps.

Scenario shapes are deliberately diverse: ``regular=False`` members force
the padded/unpacked device layout (the fallback the packed 16-bit encoding
rejects), and ``all_paths_converge=False`` members (the noon family) have
genuine solutions at infinity, exercising failure accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..polynomials.generators import (
    cyclic_quadratic_system,
    irregular_degree_system,
    katsura_root_count,
    katsura_system,
    noon_root_count,
    noon_system,
    random_sparse_system,
    speelpenning_product_system,
    triangular_root_count,
    triangular_sparse_system,
)
from ..polynomials.system import PolynomialSystem

__all__ = [
    "FAMILIES",
    "SCENARIOS",
    "Scenario",
    "ScenarioFamily",
    "bench_scenarios",
    "get_scenario",
    "iter_scenarios",
    "matrix_scenarios",
    "scenario_names",
    "tier1_scenarios",
]


@dataclass(frozen=True)
class ScenarioFamily:
    """One named family of solve systems.

    ``builder(size, seed)`` returns the family member of the given size
    knob; families that are deterministic simply ignore the seed.  ``size``
    is the family's natural index (the katsura index, not the dimension --
    katsura-n lives in dimension ``n + 1``).
    """

    name: str
    description: str
    builder: Callable[[int, Optional[int]], PolynomialSystem]


@dataclass(frozen=True)
class Scenario:
    """One named solve workload of the registry.

    ``bezout_number`` is the expected total-degree path count;
    ``known_root_count`` is the classically known exact number of finite
    solutions, or ``None`` when the family has no closed-form count (the
    integrity tests then fall back to the Bezout bound).  When
    ``all_paths_converge`` is true the two coincide and every total-degree
    path must end at a finite root -- the property the differential matrix
    leans on for exact acceptance.

    ``start_strategy`` names the recommended
    :class:`~repro.tracking.start_systems.StartStrategy` for the family
    (``"diagonal"`` where the rows are diagonal-dominated or triangular,
    ``"total-degree"`` otherwise), and ``start_paths`` the number of paths
    that strategy tracks -- equal to ``bezout_number`` for total-degree
    scenarios, and strictly below it exactly where the diagonal start
    saves work (the triangular family).
    """

    name: str
    family: str
    size: int
    seed: Optional[int]
    dimension: int
    bezout_number: int
    known_root_count: Optional[int]
    all_paths_converge: bool
    regular: bool
    tier1: bool
    start_strategy: str = "total-degree"
    start_paths: int = 0

    def __post_init__(self) -> None:
        if self.start_paths == 0:
            object.__setattr__(self, "start_paths", self.bezout_number)

    def build_system(self) -> PolynomialSystem:
        """Build this scenario's target system (fresh on every call)."""
        return FAMILIES[self.family].builder(self.size, self.seed)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe description; ``None`` fields are omitted (the bench
        checker treats ``null`` anywhere in a report as a silent failure)."""
        payload = {
            "name": self.name,
            "family": self.family,
            "size": self.size,
            "seed": self.seed,
            "dimension": self.dimension,
            "bezout_number": self.bezout_number,
            "known_root_count": self.known_root_count,
            "all_paths_converge": self.all_paths_converge,
            "regular": self.regular,
            "tier1": self.tier1,
            "start_strategy": self.start_strategy,
            "start_paths": self.start_paths,
        }
        return {key: value for key, value in payload.items()
                if value is not None}


FAMILIES: Dict[str, ScenarioFamily] = {
    family.name: family
    for family in (
        ScenarioFamily(
            name="cyclic",
            description="cyclic quadratic chain x_i^2 = x_{(i+1) mod n}; "
                        "regular, 2^n converging paths",
            builder=lambda size, seed: cyclic_quadratic_system(size),
        ),
        ScenarioFamily(
            name="katsura",
            description="katsura-n magnetism system in dimension n+1; "
                        "2^n converging paths, roots known exactly",
            builder=lambda size, seed: katsura_system(size),
        ),
        ScenarioFamily(
            name="noon",
            description="Noonburg neural-network system; Bezout 3^n but "
                        "3^n - 2n finite roots (2n paths diverge)",
            builder=lambda size, seed: noon_system(size),
        ),
        ScenarioFamily(
            name="speelpenning",
            description="Speelpenning product coupled with diagonal x_i^n "
                        "terms; irregular, n^n converging paths",
            builder=lambda size, seed: speelpenning_product_system(
                size, seed=seed),
        ),
        ScenarioFamily(
            name="random-sparse",
            description="seeded random sparse system with diagonal leading "
                        "terms; irregular, all Bezout paths converge",
            builder=lambda size, seed: random_sparse_system(size, seed=seed),
        ),
        ScenarioFamily(
            name="irregular",
            description="deterministic degrees cycling 1,2,3 per row; "
                        "irregular shape forcing the unpacked layout",
            builder=lambda size, seed: irregular_degree_system(
                size, seed=seed),
        ),
        ScenarioFamily(
            name="triangular",
            description="triangular chain: row i couples x_i^{e_i} to "
                        "x_{i-1}^{e_i+1}; prod(e_i) finite roots, far "
                        "below Bezout -- the diagonal start's showcase",
            builder=lambda size, seed: triangular_sparse_system(
                size, seed=seed),
        ),
    )
}


def _scenario(name: str, family: str, size: int, seed: Optional[int],
              dimension: int, bezout: int, roots: Optional[int],
              converge: bool, regular: bool, tier1: bool,
              strategy: str = "total-degree",
              start_paths: int = 0) -> Scenario:
    return Scenario(name=name, family=family, size=size, seed=seed,
                    dimension=dimension, bezout_number=bezout,
                    known_root_count=roots, all_paths_converge=converge,
                    regular=regular, tier1=tier1, start_strategy=strategy,
                    start_paths=start_paths)


#: The registry, ordered: tier-1 members first, then the matrix extras.
SCENARIOS: Tuple[Scenario, ...] = (
    # -- tier-1: small path counts, safe for the fast test tier -----------
    _scenario("cyclic-4", "cyclic", 4, None, 4, 16, 16,
              converge=True, regular=True, tier1=True),
    _scenario("katsura-3", "katsura", 3, None, 4, 8, katsura_root_count(3),
              converge=True, regular=False, tier1=True),
    _scenario("noon-2", "noon", 2, None, 2, 9, noon_root_count(2),
              converge=False, regular=False, tier1=True),
    _scenario("speelpenning-2", "speelpenning", 2, 11, 2, 4, 4,
              converge=True, regular=False, tier1=True),
    _scenario("random-sparse-3", "random-sparse", 3, 5, 3, 9, 9,
              converge=True, regular=False, tier1=True,
              strategy="diagonal"),
    _scenario("irregular-3", "irregular", 3, 7, 3, 6, 6,
              converge=True, regular=False, tier1=True,
              strategy="diagonal"),
    _scenario("triangular-3", "triangular", 3, 13, 3, 12,
              triangular_root_count(3),
              converge=False, regular=False, tier1=True,
              strategy="diagonal", start_paths=triangular_root_count(3)),
    # -- matrix extras: wider members for the slow full-matrix tier -------
    _scenario("cyclic-5", "cyclic", 5, None, 5, 32, 32,
              converge=True, regular=True, tier1=False),
    _scenario("katsura-4", "katsura", 4, None, 5, 16, katsura_root_count(4),
              converge=True, regular=False, tier1=False),
    _scenario("noon-3", "noon", 3, None, 3, 27, noon_root_count(3),
              converge=False, regular=False, tier1=False),
    _scenario("speelpenning-3", "speelpenning", 3, 11, 3, 27, 27,
              converge=True, regular=False, tier1=False),
    _scenario("random-sparse-4", "random-sparse", 4, 5, 4, 27, 27,
              converge=True, regular=False, tier1=False,
              strategy="diagonal"),
    _scenario("irregular-5", "irregular", 5, 7, 5, 12, 12,
              converge=True, regular=False, tier1=False,
              strategy="diagonal"),
    _scenario("triangular-4", "triangular", 4, 13, 4, 24,
              triangular_root_count(4),
              converge=False, regular=False, tier1=False,
              strategy="diagonal", start_paths=triangular_root_count(4)),
)

_BY_NAME: Dict[str, Scenario] = {s.name: s for s in SCENARIOS}


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name; raise loudly with the known names."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ConfigurationError(
            f"unknown scenario {name!r}; registry has: {known}"
        ) from None


def iter_scenarios(tier1_only: bool = False,
                   family: Optional[str] = None) -> Iterator[Scenario]:
    """Iterate registry scenarios, optionally restricted."""
    if family is not None and family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ConfigurationError(
            f"unknown scenario family {family!r}; registry has: {known}")
    for scenario in SCENARIOS:
        if tier1_only and not scenario.tier1:
            continue
        if family is not None and scenario.family != family:
            continue
        yield scenario


def tier1_scenarios() -> List[Scenario]:
    """The fast tier: every scenario small enough for tier-1 tests."""
    return [s for s in SCENARIOS if s.tier1]


def matrix_scenarios() -> List[Scenario]:
    """The slow full matrix: wider members of every family."""
    return [s for s in SCENARIOS if not s.tier1]


def scenario_names(tier1_only: bool = False) -> List[str]:
    return [s.name for s in iter_scenarios(tier1_only=tier1_only)]


def bench_scenarios() -> List[Scenario]:
    """The scenarios the solve-level benches sweep into ``BENCH_*.json``.

    The tier-1 set: one member per family, small enough that regenerating
    all four bench reports stays fast while still covering a regular shape,
    irregular shapes, a divergent-path family, and a random sparse system.
    """
    return tier1_scenarios()
