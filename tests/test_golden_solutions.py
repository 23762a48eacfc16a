"""Golden routing digests: the committed oracle for both search tiers.

Each constant is ``sha256(repr((solution_fingerprint(s), solution_metrics(s))))``
of one routed (design, router) pair, with the helpers of
:mod:`repro.bench.micro`.  The constants were produced by routing every pair
through the frozen ``GridPoint``-dict reference engines (the seed search
architecture) and through the flat-index ``SearchCore`` engines on every
tier of the time; all runs agreed on every pair, and the same digests came
out under ``PYTHONHASHSEED`` 0, 1, 2 and unset.  The reference engines have
since been deleted, so these constants carry their authority: any drift of
the ``native`` or ``python`` tier fails here, with numpy importable or not.

What is pinned:

* suite designs (ispd18 / ispd19 test1-3 at scale 0.5) and the seeded fuzz
  designs of ``tests/test_native_kernel.py``: the full rip-up campaign of
  ``DetailedRouter`` (its reroute order is sorted), but only the initial
  routing pass (``max_iterations=0``) of Mr.TPL and DAC-2012, whose rip-up
  campaigns on these designs depend on the hash seed (conflict-pair
  orientation follows set iteration order; see ROADMAP);
* the three hand-crafted figure designs: the full campaign of every router.

A change meant to alter routing results regenerates these constants with
the same helpers and says why.  ``(random_2, DetailedRouter)`` postdates
the reference engines: it was produced on the flat-index tiers alone,
which agree.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import accel
from repro.baselines.dac2012 import Dac2012Router
from repro.bench import suite_case
from repro.bench.micro import (
    fig1_dense_cluster,
    fig1_multi_pin_net,
    fig3_walkthrough_design,
    solution_fingerprint,
    solution_metrics,
)
from repro.dr.router import DetailedRouter
from repro.tpl.mr_tpl import MrTPLRouter
from tests.test_native_kernel import random_design

ROUTERS = {
    "DetailedRouter": DetailedRouter,
    "MrTPLRouter": MrTPLRouter,
    "Dac2012Router": Dac2012Router,
}

#: Hand-crafted designs whose full campaign is pinned for every router.
MICRO_DESIGNS = {
    "fig1_multi_pin_net": fig1_multi_pin_net,
    "fig1_dense_cluster": fig1_dense_cluster,
    "fig3_walkthrough_design": fig3_walkthrough_design,
}

DESIGNS = {
    **{
        f"{suite}_test{number}": (
            lambda suite=suite, number=number: suite_case(suite, number, scale=0.5).build()
        )
        for suite in ("ispd18", "ispd19")
        for number in (1, 2, 3)
    },
    **{f"random_{seed}": (lambda seed=seed: random_design(seed)) for seed in range(6)},
    **MICRO_DESIGNS,
}

GOLDEN = {
    ("ispd18_test1", "DetailedRouter"): "c2155ca83a8c033fd7f72d9e4d3a9b5d721a69439e78605f59842dbb61802e11",
    ("ispd18_test1", "MrTPLRouter"): "f8e79d55ae3d97d9b76517461287042a2587a783e3548d90980368760843cdf0",
    ("ispd18_test1", "Dac2012Router"): "871ad01916dec3ef93b6695a980da3b258c47b430d73866a459faeb6eef052f3",
    ("ispd18_test2", "DetailedRouter"): "81895e88b3cf058be199392aef67753c7876aefcb0ce9afa866ae51b6c9c5515",
    ("ispd18_test2", "MrTPLRouter"): "1d0514705d80b3c341c2df0b08eddc8fb7d3b861c3edc19f4448dae85ad6a825",
    ("ispd18_test2", "Dac2012Router"): "c8072990bfea391139e28ff1253ef25f1850c30a0f0bfcd51312a1ecd4f66417",
    ("ispd18_test3", "DetailedRouter"): "123db0ec12d965bd9b062e6a334d890def7bf211c37a315b21e108a076370010",
    ("ispd18_test3", "MrTPLRouter"): "adbbab51f1ceb81d122ecb58c2b8d2d24aca9ecd741f2877e7a7262a334a7da4",
    ("ispd18_test3", "Dac2012Router"): "1e4741b817a4a2171b9f8b42ad60be7e18acab4276a29f208f1161771d4bf680",
    ("ispd19_test1", "DetailedRouter"): "bc4456ef4a4273ec5f710357073efb2f0f9125075c5189ae30535b4c069353d5",
    ("ispd19_test1", "MrTPLRouter"): "d7ad47968b825937416f6aa5e6b06175d83ad34ed211f714450cd00063dbefae",
    ("ispd19_test1", "Dac2012Router"): "a0fa397b0348e6c3208dcad05806b2ce91a5db93e91f5240bfa2630e439785f1",
    ("ispd19_test2", "DetailedRouter"): "4116026153ff3ec6885814d3f0b8a54457065f02d7d0582b86078070f95ecc69",
    ("ispd19_test2", "MrTPLRouter"): "3816db11a93050fefb262fc026a3bf2eda8e6e8003a61d62fcaf0f8b93ea2fef",
    ("ispd19_test2", "Dac2012Router"): "e346f5bb638aa25b22638d5837bf05c5688a9de033383e1d5ed7acd1fb687fff",
    ("ispd19_test3", "DetailedRouter"): "554633c4ad4240835526e264f0d83cffbf575b95828538ca487a814976ad16cb",
    ("ispd19_test3", "MrTPLRouter"): "1174f59cb412eb4981749220d02f581213878d43469854086e6f5ffbba4192ae",
    ("ispd19_test3", "Dac2012Router"): "c14cdf850423a6582a0c77181fac601f108173a940f2263d80dcbe0b60b63e52",
    ("random_0", "DetailedRouter"): "56fa3d44f1594c20b634a11b6d83967745d7db719561d4951991b7c1ea5263e6",
    ("random_0", "MrTPLRouter"): "4b1c49c5b742f4b7b44e05e8391c52e3995742c53bc3d06463467c56ae344ae2",
    ("random_0", "Dac2012Router"): "596132963fa7b6e33e7cf02a09881b848bd7c1a0d04c98802b8e50f9163a5181",
    ("random_1", "DetailedRouter"): "79f33bebb91899dedfc61c8e290a743e40e4bbe5e6aec583fd63534ac1c66155",
    ("random_1", "MrTPLRouter"): "aa392cad9c2d6e059925a22c3fb3a409e15019d0b33946630e11e6b02149e110",
    ("random_1", "Dac2012Router"): "d8f23bf69818a4f5728ee67c3763702ef6accb7b55b02de0065bff4925f97436",
    ("random_2", "DetailedRouter"): "337f875510b3936c21ab62341099cb5ee623d01ab772f03681044d9208a909fb",
    ("random_2", "MrTPLRouter"): "163d68b8d6aa32c8c01ff222a49e8669834c8d49cf921d76c1835d43a7ead49a",
    ("random_2", "Dac2012Router"): "dc2bb6d2a3e00c53e00bfcf4c062ab61d7ac9e8f82e16cc9589c3b1731fbb21c",
    ("random_3", "DetailedRouter"): "2f91c44dc813c42d5d4c76dad1a0ada0a883bffc7cc9abae567b5e1412a527fa",
    ("random_3", "MrTPLRouter"): "50cb1825aa84a62fce34087269c75b4f9a90401b1296241b6b6f7e44f3cc40ca",
    ("random_3", "Dac2012Router"): "4c9bba8d74fea395015725dca94ee3e755da5222db934600670cda5663fe1ff0",
    ("random_4", "DetailedRouter"): "ced6f26dc1650ecb82b8c832a82b6f24a213f82a02a649d72317ae3c2ed4f112",
    ("random_4", "MrTPLRouter"): "32c05167328a5cf6fe448faee2583d27096a6065294f0823cae43959ecb9550e",
    ("random_4", "Dac2012Router"): "ba53868aaada98c018ada5b1943d35575531208f5ecf4c9cb40b9936d305f9b6",
    ("random_5", "DetailedRouter"): "aa40e5765f83e5eea7a5f2f1e9b253ba9e65859a5258328c4825589e597c6fe5",
    ("random_5", "MrTPLRouter"): "81393f19838ad0fa582f7806e0e682ef4e800acfda4039a37df52179302a9b4f",
    ("random_5", "Dac2012Router"): "d4c1ed9373214ed4225e56661a372cdc33d6541905becf2b136fdb81784bc79a",
    ("fig1_multi_pin_net", "DetailedRouter"): "8f82cae23fec37edc26c05860f471ed319f485a08822a2e77e943d53414b41c7",
    ("fig1_multi_pin_net", "MrTPLRouter"): "98a779fd96c7a950f9a910ecacaaf712a382242d796066425dabe07fc001cd95",
    ("fig1_multi_pin_net", "Dac2012Router"): "98a779fd96c7a950f9a910ecacaaf712a382242d796066425dabe07fc001cd95",
    ("fig1_dense_cluster", "DetailedRouter"): "e7ae0515b3b214a859d7e2df0a05a5bc586de919b3b5d06a2d37dfd2e2133adb",
    ("fig1_dense_cluster", "MrTPLRouter"): "e32c5d91664657bff650283deab98b88bdbc62c56515732b397e8ca98296ebde",
    ("fig1_dense_cluster", "Dac2012Router"): "3fadd4f65e26b76ae452c214a7510d80db887afc0c40fdb6a1d32f474a006543",
    ("fig3_walkthrough_design", "DetailedRouter"): "a7ae3fb8ce29f8dc85a5d96ccea492d4e991dee48b47772653f13f785dd6aabc",
    ("fig3_walkthrough_design", "MrTPLRouter"): "1ddc3e0809911e44c7fb35d12feff9fef9b75bf0bc7ec99de074273b0a985161",
    ("fig3_walkthrough_design", "Dac2012Router"): "1ddc3e0809911e44c7fb35d12feff9fef9b75bf0bc7ec99de074273b0a985161",
}

def golden_digest(design_name, router_name):
    """Route one golden pair on the active tier and return its digest."""
    kwargs = {}
    if design_name not in MICRO_DESIGNS and router_name != "DetailedRouter":
        kwargs["max_iterations"] = 0
    solution = ROUTERS[router_name](DESIGNS[design_name](), **kwargs).run()
    blob = repr((solution_fingerprint(solution), solution_metrics(solution)))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Test id -> search tier.  The Python tier runs the buffered expand
#: protocol, so its cases are named ``buffered-python``.
TIER_IDS = {"native": "native", "buffered-python": "python"}


@pytest.fixture(params=list(TIER_IDS))
def search_tier(request):
    """Force one search tier for the test, restoring the gate after."""
    tier = TIER_IDS[request.param]
    native = tier == "native"
    if native and not accel.native_available():
        pytest.skip("native search tier unavailable on this host")
    prev_native = accel.set_native_enabled(native)
    try:
        assert accel.active_search_tier() == tier
        yield tier
    finally:
        accel.set_native_enabled(prev_native)


def test_every_design_and_router_is_pinned():
    assert set(GOLDEN) == {(design, router) for design in DESIGNS for router in ROUTERS}


@pytest.mark.parametrize("design_name,router_name", list(GOLDEN))
def test_golden_solution(search_tier, design_name, router_name):
    assert golden_digest(design_name, router_name) == GOLDEN[(design_name, router_name)]


#: Routes every golden pair on both tiers with ``import numpy`` blocked and
#: prints ``{tier: {"design|router": digest}}`` as JSON.
_NUMPY_BLOCKED_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from repro import accel
from tests.test_golden_solutions import GOLDEN, golden_digest
digests = {}
for tier in accel.TIERS:
    accel.set_native_enabled(tier == "native")
    if accel.active_search_tier() != tier:
        continue
    digests[tier] = {
        design + "|" + router: golden_digest(design, router) for design, router in GOLDEN
    }
print(json.dumps(digests))
"""


def test_golden_solutions_without_numpy():
    """Both tiers reproduce every digest in a process that cannot import numpy."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env.pop("REPRO_PURE_PYTHON", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _NUMPY_BLOCKED_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    digests = json.loads(completed.stdout)
    expected = {f"{design}|{router}": digest for (design, router), digest in GOLDEN.items()}
    assert "python" in digests
    if accel.native_available():
        assert "native" in digests
    for tier, got in digests.items():
        assert got == expected, f"{tier} tier drifted with numpy blocked"
