"""Golden artifacts: every CLI command, in both formats, byte for byte.

Each case runs ``cli.run`` on a small fixed config and seed and compares the
sha256 of the whole artifact (metadata lines included) with a recorded
digest.  A refactor that changes any byte of any artifact fails here.  After
a deliberate change of the output, print the new table with
``PYTHONPATH=src python tests/test_golden.py`` and review it before pasting:
its last line names the entries that differ from ``GOLDEN``, or says that no
digest moved.
"""

import hashlib
import json
import os
import sys

import pytest

import cevpolar as cp
from cevpolar.cli import run

CONFIGS = {
    "ell": {"radial": {"kind": "rayleigh"},
            "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
            "angular": {"kind": "uniform"}},
    "lp3": {"radial": {"kind": "weibull", "params": {"shape": 1.0}},
            "curve": {"kind": "lp", "params": {"p": 3.0, "rho": 0.0}},
            "angular": {"kind": "uniform"}},
    "mix": {"mixture": {"p": 0.4, "rho": 0.8, "tau_mix": -0.4}},
    "dec": {"curve": {"kind": "elliptical", "params": {"rho": 0.3}},
            "profile": "gaussian", "ridge_weight": True},
    "exp": {"radial": {"kind": "exponential", "params": {"rate": 1.0}},
            "curve": {"kind": "power",
                      "params": {"t0": 0.5, "kappa": 2.0, "delta": 1.0, "c_minus": 0.4,
                                 "c_plus": 0.6, "lambda_v": 1.0, "rho": 0.3}},
            "angular": {"kind": "power",
                        "params": {"t0": 0.5, "tau": 0.5, "g_minus_frac": 0.4,
                                   "window": 0.2}}},
    # serialized laws: a von Mises grid cache, and the numeric radial and
    # tabulated angular laws of a decomposed density
    "vm": {"radial": cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s)).to_dict(),
           "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
           "angular": {"kind": "uniform"}},
    "num": cp.decompose_density(cp.standard_normal_profile,
                                cp.elliptical_curve(0.3)).to_dict(),
}

#: argv of each case; "{name}" stands for the path of CONFIGS[name]
CASES = {
    "limit": ("limit", "--eta", "2", "--zeta", "1", "--grid", "-2:2:1"),
    "simulate-joint": ("simulate", "-c", "{ell}", "--n", "2000", "--seed", "7"),
    "simulate-conditional": ("simulate", "-c", "{ell}", "--n", "2000", "--seed", "7",
                             "--threshold", "3.0"),
    "simulate-conditional-vm": ("simulate", "-c", "{vm}", "--n", "2000", "--seed", "7",
                                "--threshold", "3.0"),
    "simulate-mixture": ("simulate", "-c", "{mix}", "--n", "2000", "--seed", "7"),
    "verify": ("verify", "-c", "{ell}", "--levels", "0.99,0.999", "--n", "2000",
               "--seed", "11"),
    "verify-lp3": ("verify", "-c", "{lp3}", "--levels", "0.99,0.999", "--n", "2000",
                   "--seed", "11"),
    "tail-ell": ("tail", "-c", "{ell}", "--x-grid", "2:6:2"),
    "tail-lp3": ("tail", "-c", "{lp3}", "--x-grid", "4:12:4"),
    "tail-exp": ("tail", "-c", "{exp}", "--x-grid", "20:40:10"),
    "tail-vm": ("tail", "-c", "{vm}", "--x-grid", "2:6:2"),
    "tail-num": ("tail", "-c", "{num}", "--x-grid", "2:6:2"),
    "independence": ("independence", "-c", "{ell}", "--t-grid", "2:3:1"),
    "independence-lp3": ("independence", "-c", "{lp3}", "--t-grid", "2:3:1"),
    "second-order": ("second-order", "-c", "{ell}", "--x-grid", "6:8:2",
                     "--z-grid", "-1:1:1"),
    "decompose": ("decompose", "-c", "{dec}", "--points", "5"),
}

GOLDEN = {
    "decompose.csv":
        "22dd9d2c3f97c0be39106a89c1c83ce3310821ece7f24e9d60efdf990ae90d10",
    "decompose.json":
        "31d6906ba1903bef57a2e1ad8d147fbd5e37428fcd1343a388712abdb95d6d3f",
    "independence.csv":
        "eeb76714f602ea5939cbf8f6251406dc69f233ad6966586ec9c993de9bb759af",
    "independence.json":
        "cce2a89f66c4b4b1dd4bc4a6baa2ed76c9306869a786c42dc6448ed85cc15048",
    "independence-lp3.csv":
        "b1d5d61a9b466985442dfa691d4f05fb0861d3ccc53303e68455336c855f4168",
    "independence-lp3.json":
        "164a547db17a9b28a5df9d2580be055d866749b7cc1b7b37d10ea9ad11a0e6e1",
    "limit.csv":
        "370cf0edb55574acac4153fd827f94258bd63f3519737d06d770274e31c720a6",
    "limit.json":
        "1bb162be9470b55c259bbfbd671217386ca85320234a3d258e461ef264e625ad",
    "second-order.csv":
        "fed38948c5d840999e1857a50e7f08ffb755befbdaba7e5dc727d6388530459d",
    "second-order.json":
        "d97df484c1142b229846bcea4392c4bc0fa80b3e1a743644a26ab39dfeb3c635",
    "simulate-conditional.csv":
        "8c460e9b975603df8caaa5ce56aafe51c552d3545cccae74ad6f403dbca0fb90",
    "simulate-conditional.json":
        "abb2c49c73fad49b5db9fa06109d61dbd730347ed85cdf050efa010ae4fac9f9",
    "simulate-conditional-vm.csv":
        "862ab98f22de77887ad75c1d61ce59627e3e6211b97141571f42e06252cad387",
    "simulate-conditional-vm.json":
        "5743dfb047c79b56a421d566e6c2e2fe233fa75814b494d52d495a8560bbc8a2",
    "simulate-joint.csv":
        "5bc0c9ffca3320ebe79bbdb228564b8c5285c72224817eb778d325c72e153535",
    "simulate-joint.json":
        "f246ebd03db8ebd513475b7e85e676e951db3a8430b14edf6dca94f9b9ccad61",
    "simulate-mixture.csv":
        "a91d21887b3356e6c409669d51f6eed0def4e0547e90fbdc52f4a537d01736da",
    "simulate-mixture.json":
        "68f2519c4f69b3ebbe905c6fa5f08922c87e6b255647fb3b3dc03cd4c67c7ed0",
    "tail-ell.csv":
        "3445cc727fd6fbfaf582e1f978317f59b9d60f361b4e89b6835f8d7726e474ff",
    "tail-ell.json":
        "655d7c09ae7d13a8afa8166876a6a99729f8c0b80ca82a4d22417e69f327e954",
    "tail-exp.csv":
        "832ac521c7dc36f7be5027fdf5043377adf59727ed7bf367cb6228e7b733024a",
    "tail-exp.json":
        "e47b6dcc2980f50498b7ca3ff738481206cf589832a8851377d48a6de28bd11c",
    "tail-lp3.csv":
        "2a93152581abc215b67c70b822afb52181dd88dda043acd22a1a4b11a6f80f37",
    "tail-lp3.json":
        "c9e050d8e76a67e67b881961f4e32a6b70ad6733ccc8656a90009af3842898e0",
    "tail-num.csv":
        "d06e52fffe6c31ef1301daad82417832772c1e17dc9f134181831e3b7c504aef",
    "tail-num.json":
        "5cc5554cc2705b26412d4f494f7be4e0cd220333d84fd363c23241dcdf426390",
    "tail-vm.csv":
        "083ee641be8d7ac254f1e536f5cd7b931ce0a0092f678f54edc3dc37299d8cff",
    "tail-vm.json":
        "c5a1958c4231ad2565e757a4db315f88ec280aef4636ab1b5ed28a1d395a3862",
    "verify.csv":
        "a18ce06257e4b32d775ff8615cbdc0088a049efb23d078343becd591187f914e",
    "verify.json":
        "e30bb3eec7c574299dd4e88228d5813a6776c2364c78811f86a1427326f49198",
    "verify-lp3.csv":
        "1fcb302207d7b5b351df919a2e32da94622683e69cb511658ef20a5aaf29e8e2",
    "verify-lp3.json":
        "fb67dabad03d06e6200929d98272d3dff5cbcd619062ee56fd701bf0c4f50d95",
}


def artifact_digest(work_dir, case, fmt):
    """sha256 of the artifact that one case writes in the given format."""
    paths = {}
    for name, cfg in CONFIGS.items():
        paths[name] = os.path.join(work_dir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh)
    out = os.path.join(work_dir, f"{case}.{fmt}")
    argv = [arg.format(**paths) for arg in CASES[case]]
    code = run(argv + ["--format", fmt, "-o", out])
    assert code == 0, f"{case} exited {code}"
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_matches_golden_digest(tmp_path, case, fmt):
    assert artifact_digest(str(tmp_path), case, fmt) == GOLDEN[f"{case}.{fmt}"]


if __name__ == "__main__":
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fmt in ("csv", "json"):
                table[f"{case}.{fmt}"] = digest = artifact_digest(tmp, case, fmt)
                sys.stdout.write(f'    "{case}.{fmt}":\n        "{digest}",\n')
    moved = sorted(key for key in {*GOLDEN, *table} if GOLDEN.get(key) != table.get(key))
    sys.stdout.write(f"# moved: {', '.join(moved)}\n" if moved else "# no digest moved\n")
