"""Benchmark workloads: one instance config, the report sections it runs,
an explicit budget table, and the digests its outputs must reproduce.

Each workload is chosen so that one group of modules does most of its work
there and almost none on the others (see README.md for the layer map).
The benchmark seed becomes ``InstanceConfig.seed``; it picks the Schur
pairs checked in ``verify`` and appears in the report's ``config`` block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

SECTIONS = ("spectrum", "rate", "distance", "verify")

# Today's report defaults, written out so that a change to
# report.DEFAULT_BUDGETS cannot change the work a workload asks for.
BASE_BUDGETS = {
    "distance": 1 << 24,
    "svd_side": 5000,
    "field_scan": 1 << 20,
    "mc_samples": 10_000_000,
    "verify_basis": 64,
}

# The seed whose canonical report bytes are recorded below.  Other seeds
# are checked against the same digest after the report's config.seed is
# reset to this value: the seed changes which Schur pairs are checked, not
# what a passing report says.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    sections: tuple[str, ...]
    budgets: dict = field(default_factory=dict)
    report_sha256: str = ""  # canonical_json(full_report(...)) at REFERENCE_SEED
    bundle_sha256: str = ""  # canonical_json(instance.bundle_json()) at REFERENCE_SEED

    def instance_config(self, seed: int):
        # Imported here: the launcher reads this module without the sources.
        from orbitcodes.instance import InstanceConfig

        return InstanceConfig(seed=seed, **self.config)

    def report_kwargs(self) -> dict:
        return {s: s in self.sections for s in SECTIONS}

    def budget_table(self) -> dict:
        return {**BASE_BUDGETS, **self.budgets}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spectrum-I52",
            config={"instantiation": "I", "p": 5, "m": 2},
            sections=("spectrum",),
            report_sha256="76c6abd7c102e817da5c8ce62465aba307f11f438c925b5390cac891053d3e52",
            bundle_sha256="7e3d04d62b8657be8f7260eda54e91c2def9caa53cb88c906bac5268a7a0d201",
        ),
        Workload(
            name="local-II22",
            config={"instantiation": "II", "p": 2, "m": 2, "gamma": Fraction(1), "D": 96},
            sections=("distance", "verify"),
            budgets={"verify_basis": 4},
            report_sha256="828c861831a8e90e85b7a416c65f8b0226bdbd77ef896e35a7cc3b9528681358",
            bundle_sha256="eb2c5475e0d240719cd67e9bad2caee117a0f69b91e73c6a61955c895ddd5600",
        ),
        Workload(
            name="rate-I23",
            config={"instantiation": "I", "p": 2, "m": 3, "D": 896},
            sections=("rate",),
            report_sha256="829fc3ee94d860995b18e3412508b80b99d18760a4168d46112d9c70ef06e518",
            bundle_sha256="919584f296a99bc0df9adb1e73a9be3aa4fd337b4ecdb7ad7b1a70317d9e0882",
        ),
        # Harness smoke rung (smoke.py); not a benchmark workload.
        Workload(
            name="smoke-I22",
            config={"instantiation": "I", "p": 2, "m": 2},
            sections=SECTIONS,
            report_sha256="8903f26cbd67c38363f3760e24092dbf092de24e3f492f5e6fb1bc7b841aefb6",
            bundle_sha256="84b9b0b3647a55b63f3e0cbfd6deba1f625c7146b085ae27b3225e57b0373e2b",
        ),
    )
}

BENCH_WORKLOADS = ("spectrum-I52", "local-II22", "rate-I23")
