"""cevpolar benchmark: three CLI workloads with checked outputs and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Each run is one interpreter with one caller and no threads, driving
``cevpolar.cli.run(argv)`` in a closed loop: a workload pass runs its two
commands back to back, and passes repeat until ``--seconds`` of command time
has been spent (at least one pass). Every artifact is checked after its pass,
outside the timed phase. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
  five fresh interpreters of the time from spawn to imported program and
  written inputs), ``wall_s`` (median pass time) and ``peak_rss_mb`` (peak
  RSS of the run's process). Both times are given at a reference CPU speed
  (see ``speed.py``), because the raw times on a shared machine spread too
  widely to bound; the raw pass times are printed beside them. The lines
  before the JSON also give ``ess_per_s`` (conditional-draw effective sample
  size per second of ``wall_s``, where the workload samples) and
  ``fail_frac`` (``failed / attempted``).
- ``--trace 1`` makes one untraced pass, then wraps every ``cevpolar`` layer
  (see ``tracer.py``) and repeats traced passes; it reports per-layer
  counters (median over traced passes), ``ess_per_s`` of the untraced pass,
  the tracing overhead (traced minus untraced ``wall_s``), and fails the run
  if a traced pass changes a data row or a counter the workload must
  exercise stays zero. A layer a workload does not reach reads zero.

Other modes: ``--self-test`` (metric names against BENCHMARK.json, and a
failing command counted rather than crashing the harness) and ``--record``
(rewrite reference.json from the current code; only for a change to the
benchmark itself, never to make a program change pass).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import speed
import workloads as wl

SETUP_PROBES = 5

V, I, S = "verify-sweep", "independence-solve", "conditional-simulate"
ALL = (V, I, S)

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better, workloads on which the traced value must be non-zero)
PER_LAYER = (
    ("cli.run.self_s", "s", "lower", (S,)),
    ("diagnostics.convergence_sweep.total_s", "s", "lower", (V,)),
    ("diagnostics.oracle_grid_distance.calls", "count", "lower", (V,)),
    ("diagnostics.oracle_grid_distance.total_s", "s", "lower", (V,)),
    ("diagnostics.ks_distance.self_s", "s", "lower", (V,)),
    ("diagnostics.empirical_conditional_cdf.self_s", "s", "lower", (V,)),
    ("diagnostics.independence_condition_check.total_s", "s", "lower", (I,)),
    ("diagnostics.joint_exceedance_decay.total_s", "s", "lower", (I,)),
    ("model.conditional_cdf_oracle.calls", "count", "lower", (V,)),
    ("model.conditional_cdf_oracle.total_s", "s", "lower", (V,)),
    ("model.conditional_cdf_oracle.integrals_per_value", "ratio", "lower", (V,)),
    ("model.joint_cdf_y_oracle.calls", "count", "lower", (V,)),
    ("model.joint_cdf_y_oracle.total_s", "s", "lower", (V,)),
    ("model.survival_x_oracle.calls", "count", "lower", (V,)),
    ("model.survival_x_oracle.total_s", "s", "lower", (V,)),
    ("model.survival_y_oracle.calls", "count", "lower", (I,)),
    ("model.survival_y_oracle.total_s", "s", "lower", (I,)),
    ("model.joint_exceedance_oracle.calls", "count", "lower", (I,)),
    ("model.joint_exceedance_oracle.total_s", "s", "lower", (I,)),
    ("model.solve_b_x.calls", "count", "lower", (I,)),
    ("model.solve_b_x.total_s", "s", "lower", (I,)),
    ("model.solve_b_y.calls", "count", "lower", (I,)),
    ("model.solve_b_y.total_s", "s", "lower", (I,)),
    ("model.solve_b.oracle_calls_per_solve", "ratio", "lower", (I,)),
    ("model.sample_conditional.calls", "count", "lower", (S,)),
    ("model.sample_conditional.total_s", "s", "lower", (S,)),
    ("model.sample_conditional.elements", "count", "lower", (S,)),
    ("model.sample_conditional.kept_frac", "ratio", "higher", (S,)),
    ("model.sample_conditional.ess_frac", "ratio", "higher", (S,)),
    ("model.sample_conditional.max_weight_fraction", "ratio", "lower", (S,)),
    ("numerics.integrate_with_breakpoints.calls", "count", "lower", (V, I)),
    ("numerics.integrate_with_breakpoints.total_s", "s", "lower", (V, I)),
    ("numerics.integrate_panel.calls", "count", "lower", (V, I)),
    ("numerics.integrate_panel.self_s", "s", "lower", (V, I)),
    ("numerics.integrand_points", "count", "lower", (V, I)),
    ("numerics.quadrature_errors", "count", "lower", ()),
    ("numerics.bisect_monotone.calls", "count", "lower", ALL),
    ("numerics.bisect_monotone.self_s", "s", "lower", ALL),
    ("numerics.refine_zeros.calls", "count", "lower", ALL),
    ("numerics.refine_zeros.total_s", "s", "lower", ALL),
    ("radial.survival.calls", "count", "lower", (V,)),
    ("radial.survival.elements", "count", "lower", (V,)),
    ("radial.survival.self_s", "s", "lower", (V,)),
    ("radial.log_survival.calls", "count", "lower", (V,)),
    ("radial.log_survival.self_s", "s", "lower", (V,)),
    ("radial.aux_psi.calls", "count", "lower", (V,)),
    ("radial.inverse_log_survival.calls", "count", "lower", (S,)),
    ("radial.inverse_log_survival.elements", "count", "lower", (S,)),
    ("radial.inverse_log_survival.total_s", "s", "lower", (S,)),
    ("geometry.curve.u.calls", "count", "lower", (V, I)),
    ("geometry.curve.u.elements", "count", "lower", (V, I)),
    ("geometry.curve.u.self_s", "s", "lower", (V, I)),
    ("geometry.curve.v.calls", "count", "lower", (V, I)),
    ("geometry.curve.v.elements", "count", "lower", (V, I)),
    ("geometry.curve.v.self_s", "s", "lower", (V, I)),
    ("geometry.curve.u_inverse.calls", "count", "lower", (V, I)),
    ("geometry.curve.u_inverse.total_s", "s", "lower", (V, I)),
    ("geometry.angular.density.calls", "count", "lower", (V, I)),
    ("geometry.angular.density.self_s", "s", "lower", (V, I)),
    ("limits.normalization.calls", "count", "lower", (V,)),
    ("limits.normalization.total_s", "s", "lower", (V,)),
    ("limits.LimitLaw.cdf.calls", "count", "lower", (V,)),
    ("limits.LimitLaw.cdf.elements", "count", "lower", (V,)),
    ("limits.LimitLaw.cdf.self_s", "s", "lower", (V,)),
    ("ess_per_s", "1/s", "higher", (V, S)),
    ("trace.overhead_s", "s", "lower", ()),
)


def _ratio(num, den):
    return num / den if den else 0.0


#: per-layer metrics that are not a plain span counter
DERIVED = {
    "model.conditional_cdf_oracle.integrals_per_value": lambda s: _ratio(
        s["model.conditional_cdf_oracle>numerics.integrate_with_breakpoints"],
        s["model.conditional_cdf_oracle.calls"]),
    "model.solve_b.oracle_calls_per_solve": lambda s: _ratio(
        s["model.solve_b_x>model.survival_x_oracle"] + s["model.solve_b_y>model.survival_y_oracle"],
        s["model.solve_b_x.calls"] + s["model.solve_b_y.calls"]),
    "model.sample_conditional.elements": lambda s: s["sampler.proposed"],
    "model.sample_conditional.kept_frac": lambda s: _ratio(s["sampler.returned"],
                                                           s["sampler.proposed"]),
    "model.sample_conditional.ess_frac": lambda s: _ratio(s["sampler.ess"], s["sampler.proposed"]),
    "model.sample_conditional.max_weight_fraction": lambda s: s["sampler.max_weight"],
    "numerics.quadrature_errors": lambda s: s["numerics.integrate_with_breakpoints.errors"],
}


class SetupError(Exception):
    """The checkout does not hold the program, or its inputs cannot be made."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_program(root):
    """Import cevpolar from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cevpolar", "__init__.py")):
        raise SetupError(f"no cevpolar sources under {src}")
    sys.path.insert(0, src)
    import cevpolar
    from cevpolar import cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cevpolar.__file__))) != src:
        raise SetupError(f"cevpolar imported from {cevpolar.__file__}, not from {src}")
    return cli


def make_inputs(root, workload):
    """Work directory inside the checkout holding the workload's configs."""
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    for name, config in wl.model_configs(wl.configs_of(workload)).items():
        with open(os.path.join(work, f"{name}.json"), "w") as fh:
            json.dump(config, fh)
    return work


def measure_setup(root, workload):
    """Median time of fresh interpreters from spawn to inputs ready.

    Each probe interpreter samples its CPU speed while it imports and makes
    inputs, and reports it on its ``ready`` line; the time is scaled to the
    reference speed like the pass times.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
                cwd=root, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            fields = line.split()
            if proc.wait(timeout=60) != 0 or fields[:1] != ["ready"]:
                raise SetupError("set-up probe failed")
        times.append(speed.scaled(elapsed, *map(float, fields[1:])))
    return statistics.median(times)


def machine_record():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pass:
    raw_s: float     # wall time of the pass's commands
    wall_s: float    # the same at the reference CPU speed (see speed.py)
    ess: float       # total effective sample size of the pass's draws


class Runner:
    """Runs passes of a workload, checks every artifact, counts failures."""

    def __init__(self, cli, cmds, reference):
        self.cli = cli
        self.cmds = cmds
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests = None  # data-row digests of the first pass
        self.notes = []

    def run_pass(self):
        """Run every command; return a Pass (checks run after the timing)."""
        results = []
        with speed.Probe() as probe:
            for cmd in self.cmds:
                t0 = time.perf_counter()
                try:
                    rc = self.cli.run(list(cmd.argv))
                except Exception:
                    traceback.print_exc()
                    rc = None
                results.append((cmd, rc, time.perf_counter() - t0))
        wall = sum(dt for _, _, dt in results)
        return Pass(wall, probe.scaled(wall), self._check(results))

    def _check(self, results):
        ess = 0.0
        digests = []
        for cmd, rc, _ in results:
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                self.notes.append(f"{cmd.argv[0]} on {cmd.config}: exit code {rc}")
                digests.append(None)
                continue
            try:
                out = wl.check(cmd, self.reference)
            except (OSError, ValueError, KeyError) as exc:
                out = wl.Outcome(False, note=f"unreadable artifact: {exc!r}")
            if out.ok and self.digests is not None and self.digests[len(digests)] != out.digest:
                out.ok, out.note = False, "data rows differ from the first pass"
            if not out.ok:
                self.failed += 1
                self.notes.append(f"{cmd.argv[0]} on {cmd.config}: {out.note}")
            digests.append(out.digest)
            ess += out.ess
        if self.digests is None:
            self.digests = digests
        return ess


def run_until(runner, seconds, on_pass=None):
    """Passes until ``seconds`` of raw command time is spent (at least one)."""
    passes = []
    while not passes or sum(p.raw_s for p in passes) < seconds:
        passes.append(runner.run_pass())
        if on_pass is not None:
            on_pass()
    return passes


def describe(passes):
    return ", ".join(f"{p.raw_s:.3f} ({p.wall_s:.3f})" for p in passes)


def layer_metrics(snapshots, untraced, traced):
    """Per-layer values: median over traced passes of each counter."""
    out = {}
    for name, unit, _, _ in PER_LAYER:
        if name == "ess_per_s":
            value = untraced.ess / untraced.wall_s
        elif name == "trace.overhead_s":
            value = statistics.median(p.wall_s for p in traced) - untraced.wall_s
        else:
            fn = DERIVED.get(name, lambda s, key=name: s[key])
            value = statistics.median(fn(s) for s in snapshots)
        out[name] = {"value": value, "unit": unit}
    return out


def end_to_end_metrics(setup_s, passes):
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def run_benchmark(args, root):
    cli = import_program(root)
    setup_s = measure_setup(root, args.workload)
    work = make_inputs(root, args.workload)
    try:
        runner = Runner(cli, wl.commands(args.workload, work, args.seed), wl.load_reference())
        print(f"machine {json.dumps(machine_record())}")
        if args.trace:
            metrics, harness_ok = traced_run(runner, args)
        else:
            passes = run_until(runner, args.seconds)
            metrics = end_to_end_metrics(setup_s, passes)
            harness_ok = True
            print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
                  f"raw (reference-speed) pass wall {describe(passes)} s")
            for name, m in metrics.items():
                print(f"{name} {m['value']:.6g} {m['unit']}")
            if args.workload != I:
                ess_rate = statistics.median(p.ess / p.wall_s for p in passes)
                print(f"ess_per_s {ess_rate:.6g} 1/s")
            print(f"fail_frac {runner.failed / runner.attempted:.6g} "
                  f"({runner.failed} of {runner.attempted} commands)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in runner.notes:
        print(f"check failed: {note}", file=sys.stderr)
    result = {"correct": harness_ok and runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))


def traced_run(runner, args):
    from tracer import Tracer

    untraced = runner.run_pass()
    tracer = Tracer()
    tracer.install()
    snapshots = []
    try:
        def collect():
            snapshots.append(tracer.snapshot())
            tracer.reset()

        traced = run_until(runner, args.seconds, on_pass=collect)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(snapshots, untraced, traced)
    zero = [name for name, _, _, must in PER_LAYER
            if args.workload in must and not metrics[name]["value"] > 0]
    for name in zero:
        print(f"check failed: {name} is zero on {args.workload}", file=sys.stderr)
    overhead = metrics["trace.overhead_s"]["value"]
    print(f"workload {args.workload} seed {args.seed}: raw (reference-speed) wall of the "
          f"untraced pass {describe([untraced])} s, traced passes {describe(traced)} s, "
          f"tracing overhead {overhead:+.3f} s ({overhead / untraced.wall_s:+.1%})")
    return metrics, not zero


# ---------------------------------------------------------------------------
# other modes
# ---------------------------------------------------------------------------

def self_test(root):
    """BENCHMARK.json matches the harness's tables and what it emits; a
    failing command is counted, not fatal."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    cli = import_program(root)
    work = make_inputs(root, V)
    try:
        cfg = os.path.join(work, "ell.json")
        cmds = [
            wl.Command("exit-only", "ell", ("verify", "-c", cfg, "--levels", "0.99", "--n", "2000",
                                            "--seed", "1", "--format", "json",
                                            "-o", os.path.join(work, "v.json")), ""),
            wl.Command("simulate", "ell", ("simulate", "-c", cfg, "--threshold", "40",
                                           "--n", "1000", "--seed", "1",
                                           "-o", os.path.join(work, "s.csv")), ""),
        ]
        runner = Runner(cli, cmds, reference={})
        passes = run_until(runner, 0.0)
        if (runner.attempted, runner.failed) != (2, 1):
            problems.append(f"expected 1 of 2 commands failed, got "
                            f"{runner.failed} of {runner.attempted}")
        e2e = end_to_end_metrics(1.0, passes)
        layers, _ = traced_run(runner, argparse.Namespace(workload="self-test", seed=1, seconds=0.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    def fields(entries, *keys):
        return [tuple(e[k] for k in keys) for e in entries]

    checks = (
        ("end_to_end", fields(spec["end_to_end"], "name", "unit", "better", "bound"),
         list(END_TO_END), [(k, v["unit"]) for k, v in e2e.items()]),
        ("per_layer", fields(spec["per_layer"], "name", "unit", "better"),
         [m[:3] for m in PER_LAYER], [(k, v["unit"]) for k, v in layers.items()]),
        ("workloads", fields(spec["workloads"], "name", "why"), list(wl.WORKLOADS.items()), None),
    )
    for section, declared, table, emitted in checks:
        if declared != table:
            problems.append(f"{section}: BENCHMARK.json has {declared}, the harness {table}")
        if emitted is not None and emitted != [d[:2] for d in declared]:
            problems.append(f"{section}: emitted {emitted}, BENCHMARK.json has {declared}")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def ks_limit_distance(cp, model, t):
    """sup over y of |exact conditional CDF - limit CDF| at threshold t."""
    import numpy as np
    frame = cp.normalization(model, t)
    limit = cp.limit_law_of(model)

    def gap(y):
        return abs(cp.conditional_cdf_oracle(model, frame, math.inf, y) - float(limit.cdf(y)))

    coarse = np.linspace(-6.0, 6.0, 241)
    k = int(np.argmax([gap(y) for y in coarse]))
    fine = np.linspace(coarse[k] - 0.05, coarse[k] + 0.05, 41)
    return max(gap(y) for y in fine)


def record(root):
    """Recompute reference.json from the current code (seed 1 for the runs)."""
    cli = import_program(root)
    import cevpolar as cp
    work = make_inputs(root, V)
    ref = {"verify": {}, "independence": {}, "simulate": {}}
    try:
        configs = wl.model_configs(("ell", "lp3", "vm"))
        for workload in (V, I):
            for cmd in wl.commands(workload, work, 1):
                if cli.run(list(cmd.argv)) != 0:
                    raise SetupError(f"{cmd.argv} failed")
                body, _ = wl.json_body(cmd.output)
                body.pop("ks", None)
                body.pop("eff_size", None)
                if cmd.kind == "verify":
                    model = cp.model_from_dict(dict(configs[cmd.config]))
                    body["ks_limit"] = [ks_limit_distance(cp, model, t)
                                        for t in body["thresholds"]]
                ref[cmd.kind][cmd.config] = body
        for cmd in wl.commands(S, work, 1):
            model = cp.model_from_dict(dict(configs[cmd.config]))
            threshold = float(cmd.argv[cmd.argv.index("--threshold") + 1])
            frame = cp.normalization(model, threshold)
            ref["simulate"][cmd.config] = {
                "threshold": threshold, "m_t": frame.m_t, "a_t": frame.a_t,
                "y_std": list(wl.Y_STD_POINTS),
                "oracle_cdf": [cp.conditional_cdf_oracle(model, frame, math.inf, y)
                               for y in wl.Y_STD_POINTS],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.self_test:
            return self_test(root)
        if args.record:
            return record(root)
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            with speed.Probe() as probe:
                import_program(root)
                work = make_inputs(root, args.workload)
            print(f"ready {probe.handler_s!r} {probe.kernel_s!r}", flush=True)
            shutil.rmtree(work)
            return 0
        run_benchmark(args, root)
        return 0
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
