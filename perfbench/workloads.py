"""Workload definitions: model configs, CLI commands and output checks.

Every command goes through the public entry point ``cevpolar.cli.run``.
The checks compare the seed-independent numbers of each artifact with the
values in ``reference.json`` (recorded at the commit that defined the
benchmark) and hold the seed-dependent numbers to statistical bands, so a
run on any seed can be checked.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: relative tolerance for seed-independent numbers (the oracle's own
#: quadrature check is 1e-7 relative; this is ten times looser)
REL_TOL = 1e-6
#: KS band half-width in units of 1/sqrt(ESS); plus a floor for the grid on
#: which the reference distance was located
KS_BAND = 3.0
KS_FLOOR = 1e-4
#: conditional-CDF agreement in standard errors
CDF_SE = 4.0
Y_STD_POINTS = (-0.5, 0.0, 0.5)

VERIFY_LEVELS = "0.99,0.999,0.9999"

WORKLOADS = {
    "verify-sweep": (
        "oracle-bound convergence sweep (75 oracle CDFs per config); radial "
        "survival dominates on ell, curve u/v on lp3; sampler about 1%"),
    "independence-solve": (
        "the oracle and numerics layers used as sequential level solves; the only "
        "heavy user of survival_y_oracle; no sampling"),
    "conditional-simulate": (
        "oracle-free write side: the CSV writer for 1e6 rows on ell and the "
        "per-element von Mises inversion on vm"),
}


def model_configs(names):
    """JSON configs for the named models; ``vm`` builds its law here."""
    out = {}
    for name in names:
        if name == "ell":
            out[name] = {"radial": {"kind": "rayleigh"},
                         "curve": {"kind": "elliptical", "params": {"rho": 0.6}},
                         "angular": {"kind": "uniform"}}
        elif name == "lp3":
            out[name] = {"radial": {"kind": "weibull", "params": {"shape": 1.0}},
                         "curve": {"kind": "lp", "params": {"p": 3.0, "rho": 0.0}},
                         "angular": {"kind": "uniform"}}
        elif name == "vm":
            import cevpolar as cp
            law = cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s))
            out[name] = {"radial": law.to_dict(),
                         "curve": {"kind": "elliptical", "params": {"rho": 0.3}},
                         "angular": {"kind": "uniform"}}
        else:
            raise KeyError(name)
    return out


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how to check its artifact."""

    kind: str      # verify | independence | simulate | exit-only
    config: str    # model name
    argv: tuple
    output: str


def commands(workload, work_dir, seed):
    def cfg(name):
        return os.path.join(work_dir, f"{name}.json")

    def out(tag):
        return os.path.join(work_dir, f"out-{tag}")

    if workload == "verify-sweep":
        return [Command("verify", c, ("verify", "-c", cfg(c), "--levels", VERIFY_LEVELS,
                                      "--n", "100000", "--seed", str(seed),
                                      "--format", "json", "-o", out(f"verify-{c}.json")),
                        out(f"verify-{c}.json"))
                for c in ("ell", "lp3")]
    if workload == "independence-solve":
        return [Command("independence", c, ("independence", "-c", cfg(c), "--t-grid", "2:6:1",
                                            "--format", "json", "-o", out(f"indep-{c}.json")),
                        out(f"indep-{c}.json"))
                for c in ("ell", "lp3")]
    if workload == "conditional-simulate":
        return [Command("simulate", c, ("simulate", "-c", cfg(c), "--threshold", thr,
                                        "--n", n, "--seed", str(seed), "-o", out(f"sim-{c}.csv")),
                        out(f"sim-{c}.csv"))
                for c, thr, n in (("ell", "4.5", "1000000"), ("vm", "3.0", "100000"))]
    raise KeyError(workload)


def configs_of(workload):
    return ("ell", "vm") if workload == "conditional-simulate" else ("ell", "lp3")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Result of checking one artifact."""

    ok: bool
    digest: str = ""    # sha256 of the data rows (metadata excluded)
    ess: float = 0.0    # effective sample size of the conditional draws
    note: str = ""


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(got, want):
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)))
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def json_body(path):
    with open(path) as fh:
        body = json.load(fh)
    body.pop("meta", None)
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return body, digest


def _compare(body, ref, keys):
    bad = [k for k in keys if not _close(body.get(k), ref[k])]
    return f"differs from reference in {bad}" if bad else ""


def check_verify(path, ref):
    body, digest = json_body(path)
    note = _compare(body, ref, ("thresholds", "oracle_dist", "pass"))
    ess = body.get("eff_size", [])
    ks = body.get("ks", [])
    if len(ess) != len(ref["ks_limit"]) or len(ks) != len(ess):
        return Outcome(False, digest, 0.0, "wrong number of levels")
    for k, e, d0 in zip(ks, ess, ref["ks_limit"]):
        if not e > 0.0 or abs(k - d0) > KS_BAND / math.sqrt(e) + KS_FLOOR:
            note += f" ks {k!r} outside band around {d0!r} for ess {e!r}"
    return Outcome(not note, digest, float(sum(ess)), note.strip())


def check_independence(path, ref):
    body, digest = json_body(path)
    note = _compare(body, ref, ("thresholds", "ratios", "products", "ratio_pass", "decay_pass"))
    return Outcome(not note, digest, 0.0, note)


def check_simulate(path, ref):
    """Stream the CSV in blocks so the check adds little to the peak RSS."""
    sha = hashlib.sha256()
    meta = {}
    threshold = ref["threshold"]
    wsum = w2sum = 0.0
    min_x = math.inf
    below = np.zeros(len(ref["y_std"]))
    y_cuts = ref["m_t"] + ref["a_t"] * np.asarray(ref["y_std"])
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[2:].rstrip("\n").partition("=")
            meta[key] = value
            line = fh.readline()
        if line.strip() != "x,y,weight":
            return Outcome(False, "", 0.0, f"unexpected header {line!r}")
        sha.update(line.encode())
        while True:
            block = list(itertools.islice(fh, 100_000))
            if not block:
                break
            text = "".join(block)
            sha.update(text.encode())
            arr = np.loadtxt(block, delimiter=",", ndmin=2)
            x, y, w = arr[:, 0], arr[:, 1], arr[:, 2]
            min_x = min(min_x, float(x.min()))
            wsum += math.fsum(w)
            w2sum += math.fsum(w * w)
            below += [math.fsum(w[y <= cut]) for cut in y_cuts]
    notes = []
    if not min_x > threshold:
        notes.append(f"x {min_x!r} not above threshold {threshold!r}")
    if abs(wsum - 1.0) > 1e-9:
        notes.append(f"weights sum to {wsum!r}")
    ess = 1.0 / w2sum if w2sum > 0.0 else 0.0
    claimed = float(meta.get("effective_size", "nan"))
    if not math.isclose(claimed, ess, rel_tol=1e-9):
        notes.append(f"effective_size {claimed!r} but rows give {ess!r}")
    for y_std, emp, exact in zip(ref["y_std"], below / wsum, ref["oracle_cdf"]):
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / ess) if ess > 0.0 else math.inf
        if not abs(emp - exact) < CDF_SE * se:
            notes.append(f"cdf at y_std={y_std} is {emp!r}, oracle {exact!r}, se {se!r}")
    return Outcome(not notes, sha.hexdigest(), claimed, "; ".join(notes))


CHECKS = {
    "verify": check_verify,
    "independence": check_independence,
    "simulate": check_simulate,
}


def check(cmd, reference):
    if cmd.kind == "exit-only":
        return Outcome(True)
    return CHECKS[cmd.kind](cmd.output, reference[cmd.kind][cmd.config])
