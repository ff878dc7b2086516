"""Byte-level guard on the JSON reports of the ring-heavy commands.

Each digest is the SHA-256 of the report a command writes to standard output
for a bundled fixture at the fixture's own order, or at the order given as
a third key entry (timing goes to standard error, so the bytes are
deterministic).  A change to the cohomology ring, the
product-form coefficients or the chart pairings that alters any report byte
fails here, whatever it does to speed.  The `fans` reports are also pinned
as they were while each cone kept the rows it was built from, and rebuilt
from those rows.
"""

import hashlib

import pytest

from test_cones import old_kahler_cone, old_secondary_cone
from test_degeneracy import HEXAGON, MULTI_CHART, SEVEN_RAYS, SURFACE0_6
from test_ring_table import P3_CONES, P3_RAYS, SQUARE8
from gkzfrac import checks, cli

DIGESTS = {
    ("bseries", "p1"):
        "d4e13ecb6551287a0b1f73b8476d03efce8294524c877dcf09b0223b93d2123b",
    ("bseries", "p2"):
        "4cfd1e298d10bcff5c334ac4f9deca2c16a7b7483a41ee3ea2d0451d5049e8da",
    ("bseries", "p1xp1"):
        "c15e4cc357c357f355c2c5c7e5c933dd71387e1337e2a9d15e890595d2b436f7",
    ("bseries", "p1xp1_r1"):
        "2da1902bb5e47f65bb8fa37d40d7f1094d49bb7bac2f357cd245d88338a6a077",
    ("bseries", "f1"):
        "3e091d20b5fed6ae89051a1954e1ba9417348d93550ed4d3f41b9c5c7f85aeb6",
    ("degeneracy", "p1"):
        "ff732c0d32e45e227714da91fdc8af8a59b952a2f7e2fc800c756b03231f752f",
    ("degeneracy", "p2"):
        "86739351acf5b42aa433d5be75a2baf8299aecf05e3eda6d97574aaca9dda5c0",
    ("degeneracy", "p1xp1"):
        "eb22202bab00ee72da382ed247614f23fb535a93aa11f3b4947cf0c0afcc72af",
    ("degeneracy", "p1xp1_r1"):
        "cab3b3c23d50bea97fd8f4986c91f6b97314cb63aaa088e921d0345ed1b14be2",
    ("degeneracy", "f1"):
        "2a02da9fbbfd06d0d0c3d6352acde092cb9d56e08e2365dd3d990624d86c027e",
    ("check-all", "p1"):
        "43fc19c015f7c76e322db036e8fbc13e885190720416be5d867db44bac881212",
    ("check-all", "p1xp1"):
        "4ed98114c1267d76068277b1d62c938c9bd3306270147b5c2a85e3432e7b9508",
    ("check-all", "p1xp1_r1"):
        "60a20a5b6d0545ac2cc58d14c9796d35d531c13dcb6e9afff9aef0f98056ea93",
    # above order 8 the oracle check reads a cut of the shared region slab
    ("check-all", "p1xp1_r1", 10):
        "675a5e538b1e2e84dd39606993a205d25696e4f53ee04dab9ac8fef8eab0706d",
    ("check-all", "p2"):
        "ad513711531eb35195ba4fa57180710c40b22108abb5d118491d70246e6299c7",
    ("check-all", "f1"):
        "da596c6a253b16a8ac7e70de3550f8115676d17bf47483498c2887433368bb6e",
    ("series", "p1xp1", 12):
        "98909d1a2cb1f26a84a4a21dc293d621b591424cbba08362ce304c51c6a2d5d6",
    ("fans", "p1"):
        "8ebe4e810ec5d4a1a2d8bf4654da4812820e11efb6d71a120b2c326bd489bae8",
    ("fans", "p2"):
        "0947afaa041ae86717ef81867f2dd6ce98aacd5b21628e1831720ee9f8919c60",
    ("fans", "p1xp1"):
        "0e9df57fb3b21bc57b7ec576dbcbb3d0237ac87f2b95b46db7c29dd32a5e061e",
    ("fans", "p1xp1_r1"):
        "c22b18cad9dad397778ff7869ec867e70b9deee2edb24e6a554cadb1a6891769",
    ("fans", "f1"):
        "098495d140eda7c4a2cfe29ca2deb8cdfea35565c11a272b046a828cb15c124b",
}

# The `fans` reports written while each cone kept the rows it was built
# from: the Kahler cone's in collection order, and the secondary cone's
# redundant (1, 1) on f1.
FANS_WITH_THE_OLD_ROWS = {
    "p1": "8ebe4e810ec5d4a1a2d8bf4654da4812820e11efb6d71a120b2c326bd489bae8",
    "p2": "0947afaa041ae86717ef81867f2dd6ce98aacd5b21628e1831720ee9f8919c60",
    "p1xp1":
        "351092496a30096c36372a1392222102638500fc608d1942ed8f8a736242942c",
    "p1xp1_r1":
        "d7ce0b87ce3847a195f245a04ce4d23d25f610c123511a3079884a7083626fc9",
    "f1": "d9c2eeb6e61851e2d5a1382310266d23d6c9e5bbf2feae5606b75d630a9aad04",
}


# The one-block cyclic surfaces of ``test_degeneracy.MULTI_CHART`` at order
# 5, with 2, 2, 4 and 8 charts: no bundled fixture has a chart after the
# first.  Pinned while each later chart still expanded x^D in its own logs.
MULTI_CHART_RAYS = {"dp6": HEXAGON, "surface0_6rays_r1": SURFACE0_6,
                    "seven_rays": SEVEN_RAYS, "square8": SQUARE8}
MULTI_CHART_DIGESTS = {
    ("degeneracy", "dp6"):
        "0568fbecbf95aa0ffbea043b58bf6149e660ce56bbe16b5b1aa9d8515d46aa3c",
    ("degeneracy", "surface0_6rays_r1"):
        "72a9bc69c24f00c3d8b2685c794c807110e51866a5758aeadd6fc7707ae8673c",
    ("degeneracy", "seven_rays"):
        "4c006b92060eda2d7eb92f8a7b46a19c4843b9ccc195ad36a8b70f400e420ad4",
    ("degeneracy", "square8"):
        "a1c9af80ebd27a60453d92f63f43017bb7f833100f6348fceba4fef25b679554",
    ("check-all", "dp6"):
        "cc9f92fa6d2fe161788e0010248efc11f64c24f6480765cc7cc27d998c24288b",
    ("check-all", "surface0_6rays_r1"):
        "adb858e8cb68a81585c56ab4f7641b0f2420045c6042d3d9c6aa34d043db5f0d",
    ("check-all", "seven_rays"):
        "80b015a24a86a7e2f82c2cdc639c4f1e0d5654c868fe86f6fbcdbcbd83798044",
    ("check-all", "square8"):
        "aef751a9045a94408a57f63548c95d0b794c776a494d1b4a9b4f31102e0dcee9",
}


# The paper's running example, the double cover of P^3 branched along eight
# planes (P^3 with four one-ray blocks), at order 4.
RUNNING_EXAMPLE = cli.InputSpec("p3_r4", 3, P3_RAYS, P3_CONES,
                                [[0], [1], [2], [3]], order=4)
RUNNING_EXAMPLE_DIGESTS = {
    "check-all":
        "8cb03f03e8a509d49bfcdc45fc5da23f83a72174670c92cec70f2a703fcb9c7a",
    "degeneracy":
        "94522352eac00b166ebee93fe43777c0159429bd9727b94f38aec149bd6a3f75",
}


def spec_digest(command, spec, order=None):
    text = cli.run_command(command, spec, {"order": order}).to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(command, name, order=None):
    return spec_digest(command, cli.parse_input(cli.fixture_path(name)),
                       order)


def multi_chart_spec(name):
    """The surface as a parsed input at order 5."""
    rays = MULTI_CHART_RAYS[name]
    n = len(rays)
    return cli.InputSpec(name, 2, rays, [[i, (i + 1) % n] for i in range(n)],
                         [list(range(n))], order=5)


@pytest.mark.parametrize("key", sorted(DIGESTS),
                         ids=lambda key: "-".join(map(str, key)))
def test_report_digest(key):
    command, name, *order = key
    assert report_digest(command, name, *order) == DIGESTS[key]


@pytest.mark.parametrize("key", sorted(MULTI_CHART_DIGESTS),
                         ids=lambda key: "-".join(key))
def test_multi_chart_report_digest(key):
    command, name = key
    spec = multi_chart_spec(name)
    fan, built = spec.fan(), MULTI_CHART[name][0]()
    assert (fan.rays, fan.max_cones) == (built.rays, built.max_cones)
    assert spec_digest(command, spec) == MULTI_CHART_DIGESTS[key]


@pytest.mark.parametrize("command", sorted(RUNNING_EXAMPLE_DIGESTS))
def test_running_example_report_digest(command):
    assert spec_digest(command, RUNNING_EXAMPLE) == \
        RUNNING_EXAMPLE_DIGESTS[command]


@pytest.mark.parametrize("name", sorted(FANS_WITH_THE_OLD_ROWS))
def test_fans_bytes_move_only_by_the_cone_rows(name):
    """With the old builders' rows put back, in their old order, the
    `fans` report is the old one byte for byte."""
    spec = cli.parse_input(cli.fixture_path(name))
    report = cli.run_command("fans", spec, {"order": None})
    sys = checks.Instance(spec.fan(), order=1).sys
    old = {"kahler_cone": old_kahler_cone(sys.basis_coords, sys.collections),
           "secondary_cone": old_secondary_cone(sys, sys.points, sys.tmax)}
    for field, cone in old.items():
        assert report.payload[field]["rays"] == [list(r) for r in cone.rays]
        report.payload[field]["inequalities"] = [
            list(g) for g in cone.inequalities]
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == FANS_WITH_THE_OLD_ROWS[name]
