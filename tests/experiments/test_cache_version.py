"""``CACHE_VERSION`` is tied to the simulators' results.

A result cache entry is keyed on its task and on
:data:`~repro.experiments.campaign.CACHE_VERSION`, so a change that moves
any simulated result must bump the version, or a re-run campaign mixes
results of the old code into the new.  The golden digests of the two
vectorized kernels pin their exact results; this test pins those digests to
the version they were recorded under, so re-recording an existing golden
without a version bump fails.  A new golden scenario needs no bump: it
changes no result that an existing cache entry holds.

The golden tables are read from the test sources with :mod:`ast`, so no
test module is imported.  The probed goldens are left out on purpose: they
also cover loop counters, which a pure speed-up may move without changing
any result.
"""

import ast
import pathlib

from repro.experiments.campaign import CACHE_VERSION

SIM_TESTS = pathlib.Path(__file__).resolve().parents[1] / "sim"

#: The golden modules whose ``GOLDEN`` tables are pinned.
GOLDEN_MODULES = ("test_batched_golden.py", "test_conflict_golden.py")

#: The golden digests recorded under each ``CACHE_VERSION``, keyed
#: ``"<golden module>:<scenario>"``.  A change that re-records a golden
#: bumps the version and records the new digests under it.
RECORDED = {
    1: {
        "test_batched_golden.py:dcf-activity":
            "c163b8b8a3a081f8c06252a30308e061acaf7b24064fb21e05081bf683479ea3",
        "test_batched_golden.py:dcf-fer-report-no-warmup":
            "824de6b5b955743686e9f46c87b1d184fd5dd5c13fb79b2ab5231af9e4955f83",
        "test_batched_golden.py:dcf-fer-retry":
            "0b436eb96ad6ba2dfd77053435943cb675d2e667df0f570e02fc72e6a6f61403",
        "test_batched_golden.py:dcf-on-off":
            "402258ee665bdb1113d60cbf5b2e376bf4e5c00827623c218b9b098af269a07d",
        "test_batched_golden.py:dcf-report":
            "358f5d1642bfd83516c833464a45cb2d4dcb67fd3bd0fd9911a845d5e007088b",
        "test_batched_golden.py:fixed-p":
            "92a4897d2eec08d464972a2758683c493d51b8a6625898b7e6747a915f3dae97",
        "test_batched_golden.py:fixed-p-weighted":
            "7221df83fe28908ddf48317749f032baffd980a6b017ea24983f1faef4917c07",
        "test_batched_golden.py:idlesense-activity-poisson":
            "c097ac65bce82790bd5d6325b011d29efc6ae1f9dee678f205d49b1b689fd4c5",
        "test_batched_golden.py:idlesense-fer-no-warmup":
            "e18bbc572532dbe98a8ecebc5af2b66460c9026e69e545d4fd327991209b8603",
        "test_batched_golden.py:idlesense-poisson-queue-retry":
            "f5cc64be38dba2ae77b0657e278e93960ac878b35557a50cae410a2dac93e793",
        "test_batched_golden.py:idlesense-report":
            "48c33533b246b4fd5895e6063fdd1ed15741e18d99cd3f97c4b4ac1cfdbbb47c",
        "test_batched_golden.py:randomreset-fer-retry":
            "fcb02adb48358860c767d8cc53ee71ec8d89ed1df37dde11b7341fd6d36bfc73",
        "test_batched_golden.py:randomreset-stage-m":
            "2e23e9cdf4938d1e9ec8691ddb7527e6e3118cbba7c744d4d740b360e2149bc1",
        "test_batched_golden.py:tora-report":
            "7e61a67ae8a56a78c9aa69119a0c3af3667361632d1617f0bf07a97e2b3639a2",
        "test_batched_golden.py:wtop-report":
            "366b1e040bfbd56568394dd80ed19ec7bd3ffa98fcc86af6b17a9b9ad0e885d8",
        "test_batched_golden.py:wtop-weighted":
            "09642e8582e8c32c6bff38c3cec62b5e5bb0c50df4706f92ed5259125e6734f5",
        "test_conflict_golden.py:dcf-fer-retry-report":
            "7ab99ed53cedfc911ba18601fd10906bdf9a91db2d9a0f1bdca125799eb51e43",
        "test_conflict_golden.py:dcf-poisson-queue":
            "8fc3b488d6b9a20709eb44f2479e1f05aaf412bec022d1efbf829b50fadaf519",
        "test_conflict_golden.py:idlesense-fer-retry":
            "51eb459e50f8b9ee8975d3f9bdb87013a761bbb4efede8c2a6defdd26047883f",
        "test_conflict_golden.py:idlesense-fer-retry-report-no-warmup":
            "49001aee3f0a903e63deed88e2a14c7c92c77b7875be7d1b5f0583ed0fa34720",
        "test_conflict_golden.py:idlesense-poisson-queue-retry":
            "fa43695824a1db82b7b6e8a69a3754a746d258a3fe9c7a1eddeb6fcc3d095762",
        "test_conflict_golden.py:idlesense-report":
            "e8a3f10f4f69ae6ab67b1f2d95849ee5705f4f51a1a559d3da1e6a2dd7229908",
        "test_conflict_golden.py:tora-report":
            "0305b0f3cf14a107ea79af9d3625df3600db218dc0e9390a52c63dd3505f5b00",
        "test_conflict_golden.py:wtop-report":
            "85e3a6c0d80f66a89a413679c48890ff8d36367d26424fc92d6aad103a0913a0",
    },
}


def _golden_digests():
    """Every ``GOLDEN`` entry of the golden modules, read unexecuted."""
    digests = {}
    for module in GOLDEN_MODULES:
        tree = ast.parse((SIM_TESTS / module).read_text(encoding="utf-8"))
        [table] = [
            node.value for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["GOLDEN"]
        ]
        for name, digest in ast.literal_eval(table).items():
            digests[f"{module}:{name}"] = digest
    return digests


def test_golden_digests_are_recorded_under_the_current_cache_version():
    assert CACHE_VERSION in RECORDED, (
        f"no golden digests are recorded under CACHE_VERSION {CACHE_VERSION}")
    current = _golden_digests()
    recorded = RECORDED[CACHE_VERSION]
    missing = sorted(set(recorded) - set(current))
    assert missing == [], (
        f"recorded golden scenario(s) no longer exist: {missing}; drop them "
        f"from RECORDED if they were deleted on purpose")
    moved = sorted(key for key, digest in recorded.items()
                   if current[key] != digest)
    assert moved == [], (
        f"golden digest(s) {moved} changed under CACHE_VERSION "
        f"{CACHE_VERSION}: bump CACHE_VERSION, so that cache entries of the "
        f"old results stop being served, and record the new digests under "
        f"the new version")
