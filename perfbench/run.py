"""singvec desk benchmark.

    python3 perfbench/run.py --workload scan-enclosed --seed 1 --seconds 20 --trace 0

Runs the workload's job list in a closed loop with one client (each
pass starts when the previous one ends, one process, no threads) until
``--seconds`` have elapsed, checks every result, and prints one JSON
object as its last line of output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics, including the tracing overhead.
Pass time is scaled to nominal host speed by a probe timed at the start
and end of a pass, between jobs, and, in untraced passes, at least once
a second (``reference.py``);
``scaled_wall_s`` is the median scaled pass time, and the raw pass
times are printed beside it.
Lines before the JSON start with ``#`` and record the environment,
quartiles, outcomes and self times.  Full results, and the spans of a
traced run, are written under ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# The host-speed probe like each workload's hot loop (``reference.py``):
# certify-weighted spends its time in Fraction sums on huge denominators.
PROBE = {"certify-sup": "interp", "certify-weighted": "bigint",
         "scan-enclosed": "interp", "scan-exact": "interp"}
ENGINE_SPANS = (
    "engine.psi", "engine.record_sequence", "engine.badness", "engine.lower_bound",
    "engine.simultaneous", "engine.dirichlet", "engine.psi_enclosure",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="singvec desk benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(args) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload: str, seed: int) -> dict:
    """Median over fresh interpreters of import and input-generation time,
    each scaled to nominal host speed by the probe samples taken right
    before and after its interpreter ran."""
    probes, rows = [reference.sample()], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(reference.sample())
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        nominal = reference.NOMINAL_S["interp"]
        rows.append({k: reference.scaled([v], probes[-2:], nominal) for k, v in row.items()})
    return {
        "import_s": statistics.median(r["import_s"] for r in rows),
        "inputs_s": statistics.median(r["inputs_s"] for r in rows),
        "setup_s": statistics.median(r["import_s"] + r["inputs_s"] for r in rows),
    }


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Runner:
    """Runs passes of one job list and tallies their outcomes."""

    def __init__(self, job_list, tracer, precision_exhausted, probe: str):
        self.jobs = job_list
        self.probe = probe
        self.tracer = tracer
        self.precision_exhausted = precision_exhausted
        self.attempted = self.failed = self.refused = 0
        self.problems: list[str] = []
        self.probe_s: list[float] = []

    def run_pass(self, number: int, periodic: bool) -> tuple[float, float]:
        """Run every job once; return the pass's wall time and its time
        scaled to nominal host speed.  The probe samples at the start and
        end, after every job (``Clock.job_done``) and, if ``periodic``,
        ``reference.PERIOD_S`` after the last sample."""
        ctx, done = {}, []
        clock = reference.Clock(self.probe)
        with clock.periodic() if periodic else contextlib.nullcontext():
            for job in self.jobs:
                self.tracer.job = f"{number}:{job.name}"
                span = None
                try:
                    with self.tracer.span(job.span, vectors=job.vectors) as span:
                        result = job.run(ctx)
                except self.precision_exhausted as exc:
                    self._outcome(job, span, exc, refused=job.may_refuse)
                    continue
                except Exception as exc:  # record the failure, keep measuring
                    self._outcome(job, span, exc, refused=False)
                    continue
                finally:
                    clock.job_done()
                ctx[job.name] = result
                done.append(job)
                if span is not None and job.attrs:
                    span.attrs.update(job.attrs(result))
        clock.cut()
        self.tracer.job = None
        self.probe_s.extend(clock.samples)
        self.attempted += len(self.jobs)
        for job in done:
            try:
                job.check(ctx[job.name], ctx)
            except Exception as exc:  # a wrong answer or a broken check
                self.failed += 1
                self.problems.append(f"pass {number} {job.name}: wrong: {exc}")
        return clock.seconds(), clock.scaled()

    def _outcome(self, job, span, exc, refused: bool) -> None:
        if span is not None:
            span.attrs["error"] = type(exc).__name__
        if refused:
            self.refused += 1
        else:
            self.failed += 1
            self.problems.append(f"{job.name}: raised {type(exc).__name__}: {exc}")


def layer_metrics(tracer, passes: int, setup: dict, traced, untraced) -> dict:
    spans = tracer.spans
    selfs = tracer.self_seconds()

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else None

    def named(name, parent=None):
        return [s for s in spans if s.name == name and (parent is None or parent_name(s) == parent)]

    def secs(items):
        return sum(s.seconds for s in items) / passes

    def total(items, key):
        return sum(s.attrs.get(key, 0) for s in items) / passes

    def peak(items, key):
        return max((s.attrs.get(key, 0) for s in items), default=0)

    engine = [s for s in spans if s.name in ENGINE_SPANS]
    enclosure = named("engine.psi_enclosure")
    engine_s = secs(engine)
    enclosure_s = secs(enclosure)

    outer = [i for i, s in enumerate(spans)
             if s.name == "realdesc.enclose" and parent_name(s) != "realdesc.enclose"]
    rounds: dict[int, set] = {}
    for i in outer:
        anc = spans[i].parent
        while anc is not None and spans[anc].name not in ENGINE_SPANS:
            anc = spans[anc].parent
        rounds.setdefault(anc, set()).add(spans[i].attrs["bits"])

    planes = named("hyperplanes.meeting")
    mvecs = total(planes, "mvecs")
    yielded = total(planes, "yielded")
    construct = [i for i, s in enumerate(spans) if s.name == "constructor.construct"]
    verify_s = secs(named("verifier.verify"))
    spot = named("engine.psi_enclosure", "verifier.verify") + named("engine.psi", "verifier.verify")
    spot_s = secs(spot)

    values = {
        "engine.psi_enclosure_s": enclosure_s,
        "engine.psi_enclosure.vectors_per_s":
            total(enclosure, "vectors") / enclosure_s if enclosure_s else 0.0,
        "engine.psi_s": secs(named("engine.psi")),
        "engine.record_sequence_s": secs(named("engine.record_sequence")),
        "engine.badness_s": secs(named("engine.badness")),
        "engine.lower_bound_s": secs(named("engine.lower_bound")),
        "engine.simultaneous_s": secs(named("engine.simultaneous")),
        "engine.dirichlet_s": secs(named("engine.dirichlet")),
        "engine.box_vectors": total(engine, "vectors"),
        "engine.vectors_per_s": total(engine, "vectors") / engine_s if engine_s else 0.0,
        "engine.precision_exhausted":
            sum(s.attrs.get("error") == "PrecisionExhausted" for s in engine) / passes,
        "realdesc.enclose_calls": len(outer) / passes,
        "realdesc.enclose_s": secs(spans[i] for i in outer),
        "realdesc.max_bits": max((spans[i].attrs["bits"] for i in outer), default=0),
        "realdesc.rounds_per_query":
            statistics.mean(len(b) for b in rounds.values()) if rounds else 0.0,
        "hyperplanes.meeting_calls": total(planes, "calls"),
        "hyperplanes.meeting_s": secs(planes),
        "hyperplanes.planes_yielded": yielded,
        "hyperplanes.mvecs_scanned": mvecs,
        "hyperplanes.yield_ratio": yielded / mvecs if mvecs else 0.0,
        "constructor.construct_s": secs(spans[i] for i in construct),
        "constructor.self_s": sum(selfs[i] for i in construct) / passes,
        "constructor.avoided_planes": total(named("constructor.construct"), "avoided"),
        "constructor.box_den_bits": peak(named("constructor.construct"), "den_bits"),
        "verifier.verify_s": verify_s,
        "verifier.structural_s": verify_s - spot_s,
        "verifier.rescan_s": secs(named("hyperplanes.meeting", "verifier.verify")),
        "verifier.spot_s": spot_s,
        "verifier.spot_checks": total(named("verifier.verify"), "spot_checks"),
        "verifier.spot_bits": peak(named("engine.psi_enclosure", "verifier.verify"), "bits"),
        "verifier.exact_fallbacks": len(named("engine.psi", "verifier.verify")) / passes,
        "verifier.failures": total(named("verifier.verify"), "failures"),
        "certificates.dumps_s": secs(named("certificates.dumps")),
        "certificates.loads_s": secs(named("certificates.loads")),
        "certificates.bytes": total(named("certificates.dumps"), "bytes"),
        "setup.import_s": setup["import_s"],
        "setup.inputs_s": setup["inputs_s"],
        "trace.scaled_wall_s": statistics.median(traced),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
    }
    return values


UNITS = {"per_s": "1/s", "_s": "s", "_mib": "MiB", "_bits": "bits", "_frac": "frac", "_ratio": "frac",
         "bytes": "bytes", "_query": "rounds"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "singvec" / "__init__.py").is_file():
        print(f"perfbench: no singvec sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    setup = measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import singvec
    from singvec.errors import PrecisionExhausted

    if Path(singvec.__file__).resolve().parent != SRC / "singvec":
        print(f"perfbench: imported singvec from {singvec.__file__}", file=sys.stderr)
        return 2
    import jobs
    import spans

    tracer = spans.Tracer()
    runner = Runner(jobs.build(args.workload, args.seed, jobs.load_expected()),
                    tracer, PrecisionExhausted, PROBE[args.workload])
    hooks = jobs.hooks(tracer) if args.trace else []
    untraced, traced = [], []  # (wall seconds, scaled seconds) per pass
    deadline = time.perf_counter() + args.seconds
    number = 0
    while True:
        tracing = bool(args.trace) and number % 2 == 1
        tracer.active = tracing
        with spans.patched(hooks if tracing else []):
            times = runner.run_pass(number, periodic=not tracing)
        tracer.active = False
        (traced if tracing else untraced).append(times)
        number += 1
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = quartiles([w for w, _ in untraced])
    scaled = quartiles([s for _, s in untraced])
    if args.trace:
        values = layer_metrics(tracer, len(traced), setup,
                               [s for _, s in traced], [s for _, s in untraced])
    else:
        values = {"scaled_wall_s": scaled[1], "setup_s": setup["setup_s"],
                  "peak_rss_mib": peak_rss_mib}
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }

    print("# env " + json.dumps(env))
    print(f"# wall_s median={wall[1]:.4f} q1={wall[0]:.4f} q3={wall[2]:.4f} "
          f"untraced_passes={len(untraced)} traced_passes={len(traced)}")
    print(f"# scaled_wall_s median={scaled[1]:.4f} q1={scaled[0]:.4f} q3={scaled[2]:.4f} "
          f"probe={runner.probe} probe_median_s={statistics.median(runner.probe_s):.5f} "
          f"nominal_s={reference.NOMINAL_S[runner.probe]}")
    print(f"# jobs attempted={runner.attempted} failed={runner.failed} "
          f"fail_frac={runner.failed / runner.attempted:.4f} "
          f"refused={runner.refused} (PrecisionExhausted on documented jobs)")
    for problem in runner.problems[:20]:
        print(f"# problem {problem}")
    if args.trace:
        by_name = tracer.self_by_name()
        for name, secs in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"# self {name} {secs / len(traced):.4f} s/pass")

    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "env": env, "setup": setup, "untraced_s": untraced, "traced_s": traced,
        "probe_s": runner.probe_s,
        "refused": runner.refused, "problems": runner.problems, "result": result,
        "spans": tracer.to_json(),
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
