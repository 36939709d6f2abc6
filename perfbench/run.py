"""End-to-end and per-layer benchmark of linkhomotopy.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tower-magnus --seed 1 --seconds 25 --trace 0

Workloads: simplicial-identities, tower-magnus, classify-wedges, cli (see
``workloads.py``).  One client runs the queries as a closed loop in this
process (the cli workload starts one ``python -m linkhomotopy`` process per
query).  Queries come in rounds of a fixed mix, and whole rounds run until
``--seconds`` have passed.  Every output is checked; a query that raises
or returns a wrong value counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds, sized from ``--seconds``, once untraced and once with a
span around every call the benchmark makes into a layer, prints the
per-layer metrics of the traced pass and writes its spans to
``.perfbench/spans-<workload>.tsv.gz``.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
# A traced run makes an untraced and a traced pass over the same rounds; the
# round count is TRACE_SHARE * --seconds over the workload's nominal_round_s
# (CPU seconds of one round on a 2-vCPU x86-64 host), so each pass takes
# about this share of --seconds and the counts repeat for a fixed seed.
TRACE_SHARE = 0.4

LAYERS = ("words", "simplicial", "magnus", "homotopy", "links", "cli")
# functions whose self time is also reported on its own, by metric prefix
FUNCTION_METRICS = {
    "simplicial.face": "simplicial.face",
    "simplicial.degeneracy": "simplicial.degeneracy",
    "simplicial.is_cycle": "simplicial.is_cycle",
    "simplicial.eta_tower": "simplicial.eta_tower",
    "magnus.magnus_expand": "magnus.expand",
    "magnus.gamma_class_lower_bound": "magnus.expand",
    "magnus.reduced_expand": "magnus.reduced",
    "magnus.mu_coefficient": "magnus.reduced",
    "homotopy.hilton_pi": "homotopy.hilton_pi",
    "links.parse_profile": "links.parse_profile",
    "links.classify_A": "links.classify_A",
}
COUNT_METRICS = ("words.syllables_out", "simplicial.syllables_out", "magnus.terms_out",
                 "homotopy.lyndon_words_out", "words.failed", "magnus.failed",
                 "links.failed", "cli.nonzero_exit")
END_TO_END_UNITS = {
    "setup_s": "s", "throughput_qps": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"trace.overhead_frac": "ratio"}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
    for prefix in set(FUNCTION_METRICS.values()):
        units[f"{prefix}.busy_s"] = "s"
    for name in COUNT_METRICS:
        units[name] = "count"
    units["cli.stdout_bytes"] = "bytes"
    units["homotopy.resolved_ratio"] = "ratio"
    units["links.classified_ratio"] = "ratio"
    return units


def import_program():
    """Import linkhomotopy from this checkout's ``src`` and nowhere else."""
    if not (SRC / "linkhomotopy" / "__init__.py").is_file():
        raise SystemExit(f"error: no linkhomotopy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import linkhomotopy
    from linkhomotopy import homotopy, links, magnus, simplicial, words
    if Path(linkhomotopy.__file__).resolve().parent != SRC / "linkhomotopy":
        raise SystemExit(f"error: imported linkhomotopy from {linkhomotopy.__file__}")
    return types.SimpleNamespace(words=words, simplicial=simplicial, magnus=magnus,
                                 homotopy=homotopy, links=links)


def make_workload(name: str, seed: int, modules):
    import workloads
    workload = workloads.WORKLOADS[name](ROOT, seed)
    if hasattr(workload, "prepare"):
        workload.prepare(modules)
    workload.round(0)
    return workload


def layer_namespace(modules, tracer=None):
    """The modules the queries call, wrapped in span recorders when traced."""
    import workloads
    cli_layer = types.SimpleNamespace(run=workloads.run_cli)
    if tracer is None:
        return types.SimpleNamespace(**vars(modules), cli=cli_layer)
    from spans import TracedModule
    counters = work_counters(modules)
    layers = dict(vars(modules), cli=cli_layer)
    return types.SimpleNamespace(**{
        layer: TracedModule(layers[layer], layer, tracer, counters[layer])
        for layer in LAYERS})


def work_counters(modules):
    """Per-layer functions adding the work counts of one returned value."""
    Word = modules.words.Word
    MagnusSeries = modules.magnus.MagnusSeries
    DirectSum, Trivial = modules.homotopy.DirectSum, modules.homotopy.Trivial
    PiOfSphere = modules.homotopy.PiOfSphere

    def words(c, fn, result):
        if isinstance(result, Word):
            c["words.syllables_out"] += len(result.syllables)

    def simplicial(c, fn, result):
        word = getattr(result, "word", None)
        if isinstance(word, Word):
            c["simplicial.syllables_out"] += len(word.syllables)

    def magnus(c, fn, result):
        if isinstance(result, MagnusSeries):
            c["magnus.terms_out"] += len(result.terms)

    def homotopy(c, fn, result):
        if fn == "lyndon_words":
            c["homotopy.lyndon_words_out"] += len(result)
        elif fn == "hilton_pi" and not isinstance(result, Trivial):
            parts = result.parts if isinstance(result, DirectSum) else (result,)
            c["homotopy.summands"] += len(parts)
            c["homotopy.resolved"] += sum(not isinstance(p, PiOfSphere) for p in parts)

    def links(c, fn, result):
        if fn == "classify_A":
            c["links.classify_A.calls"] += 1
            c["links.classified"] += result.classified

    def cli(c, fn, result):
        code, stdout, _ = result
        c["cli.nonzero_exit"] += code != 0
        c["cli.stdout_bytes"] += len(stdout)

    return dict(words=words, simplicial=simplicial, magnus=magnus,
                homotopy=homotopy, links=links, cli=cli)


# End-to-end times are scaled by REFERENCE_MS / (the CPU time of
# reference_loop measured in the same run).  Co-tenants of a shared host
# slow a thread's CPU time by up to a quarter for minutes at a time (a busy
# sibling hyperthread); a pure-Python loop run between queries slows alike,
# so the scaled times stay steady.  0.55 ms is about the loop's CPU time on
# an idle 2-vCPU x86-64 host, so there scaled and raw times read alike.
REFERENCE_MS = 0.55
REFERENCE_EVERY_S = 0.2  # of query time between two reference samples
_REFERENCE_RNG = random.Random(0)
_REFERENCE_LETTERS = [[(_REFERENCE_RNG.randint(1, 4), _REFERENCE_RNG.choice((1, -1)))
                       for _ in range(40)] for _ in range(30)]
_REFERENCE_TERMS = {tuple(_REFERENCE_RNG.randint(1, 3) for _ in range(length)): 1 + i
                    for i, length in enumerate((0, 1, 1, 2, 2, 2, 3, 3, 3, 3))}


def reference_loop() -> int:
    """Fixed interpreter-bound work like the program's own: free reduction
    of letter lists on a stack and a truncated product of sparse series
    held in dicts of tuples."""
    total = 0
    for letters in _REFERENCE_LETTERS:
        stack: list[tuple[int, int]] = []
        for gen, sign in letters:
            if stack and stack[-1] == (gen, -sign):
                stack.pop()
            else:
                stack.append((gen, sign))
        total += len(tuple(stack))
    product = {(): 1}
    for _ in range(3):
        out: dict[tuple, int] = {}
        for m1, c1 in product.items():
            for m2, c2 in _REFERENCE_TERMS.items():
                if len(m1) + len(m2) <= 6:
                    key = m1 + m2
                    out[key] = out.get(key, 0) + c1 * c2
        product = out
    return total + len(product)


def reference_ms(repeats: int = 5) -> float:
    """Median CPU milliseconds of one ``reference_loop``."""
    samples = []
    for _ in range(repeats):
        t0 = time.process_time()
        reference_loop()
        samples.append(time.process_time() - t0)
    return statistics.median(samples) * 1e3


def children_cpu_clock() -> float:
    """CPU seconds of this process plus those of its reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


def query_clock(workload):
    """The clock that times queries: CPU time, not wall time, because the
    virtual CPUs of a shared host lose a varying share of wall time to other
    tenants.  The cli workload's queries run in child processes."""
    return children_cpu_clock if workload.name == "cli" else time.process_time


class Pass:
    """One closed-loop pass over whole rounds of queries."""

    def __init__(self, workload, layers, plant: bool, tracer=None) -> None:
        self.workload = workload
        self.clock = query_clock(workload)
        self.layers = layers
        self.plant = plant
        self.tracer = tracer
        self.latencies: list[float] = []
        self.busy = 0.0
        self.failed = 0
        self.rounds = 0
        self.errors: list[str] = []
        self.reference: list[float] = []
        self.scaled: list[float] = []
        self._referenced_at = 0.0

    def run(self, rounds: int | None = None, seconds: float | None = None) -> "Pass":
        start = time.perf_counter()
        self.sample_reference()
        while True:
            if rounds is not None and self.rounds >= rounds:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
            for query in self.workload.round(self.rounds):
                self.query(query)
                if self.busy - self._referenced_at >= REFERENCE_EVERY_S:
                    self.sample_reference()
            self.rounds += 1
        if len(self.scaled) < len(self.latencies):
            self.sample_reference()
        return self

    def sample_reference(self) -> None:
        """Time the reference loop and scale the latencies since the last
        sample by the mean of the two samples around them."""
        ref = reference_ms()
        if self.reference:
            factor = 2 * REFERENCE_MS / (self.reference[-1] + ref)
            self.scaled.extend(t * factor for t in self.latencies[len(self.scaled):])
        self.reference.append(ref)
        self._referenced_at = self.busy

    def query(self, q) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.query_id = len(self.latencies)
            span = tracer.open(tracer.name_id("bench.query"))
        t0 = self.clock()
        try:
            out = self.workload.run(self.layers, q)
            error = None
        except Exception as exc:  # a failing query is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = self.clock() - t0
        if tracer is not None:
            tracer.close(span)
        self.latencies.append(elapsed)
        self.busy += elapsed
        if error is None:
            error = self.mismatch(q, out)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{q!r:.120}: {error}")

    def mismatch(self, q, out) -> str | None:
        try:
            for label, got, expected in self.workload.check(q, out):
                if self.plant:
                    self.plant = False
                    expected = ("planted wrong value", expected)
                if got != expected:
                    return f"{label}: got {got!r:.200}, expected {expected!r:.200}"
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"
        return None


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    index = min(len(ordered), math.ceil(len(ordered) * percentile / 100)) - 1
    return ordered[index], len(ordered) - 1 - index


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median CPU seconds a fresh interpreter spends until the first query
    of the workload is ready (start-up, import, inputs, table file): scaled
    by the reference loop that each probe runs once ready, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        fields = probe.stdout.split()
        if probe.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise SystemExit(f"error: setup probe failed: {probe.stderr.strip()}")
        seconds, ref = float(fields[1]), float(fields[2])
        scaled.append(seconds * REFERENCE_MS / ref)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(args, workload, modules) -> dict:
    run = Pass(workload, layer_namespace(modules), args.plant).run(seconds=args.seconds)
    peak = getattr(workload, "child_peak_rss_mb", None)
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pct = workload.tail_percentile
    tail_s, beyond = tail(run.scaled, pct)
    attempted = len(run.latencies)
    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    metrics = {
        "setup_s": setup_s,
        "throughput_qps": attempted / sum(run.scaled),
        "latency_p50_ms": statistics.median(run.scaled) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak,
    }
    raw = {"setup_s": setup_raw, "throughput_qps": attempted / run.busy,
           "latency_p50_ms": statistics.median(run.latencies) * 1e3,
           "latency_tail_ms": tail(run.latencies, pct)[0] * 1e3}
    units = END_TO_END_UNITS
    print(f"# {args.workload} seed={args.seed} rounds={run.rounds} queries={attempted} "
          f"reference loop median {statistics.median(run.reference):.4f} ms "
          f"over {len(run.reference)} samples, scaled to {REFERENCE_MS} ms")
    for name, value in metrics.items():
        note = f"  (raw CPU {raw[name]:.6f})" if name in raw else ""
        if name == "latency_tail_ms":
            note += f"  (p{pct:g}, {beyond} of {attempted} samples beyond)"
        elif name == "setup_s":
            note += f"  (median of {SETUP_SAMPLES} fresh processes)"
        print(f"{name:<18} {value:14.6f} {units[name]}{note}")
    print(f"{'error_rate':<18} {run.failed / attempted:14.6f} ratio"
          f"  ({run.failed} failed of {attempted} attempted)")
    return report(run, metrics, units)


def per_layer(args, workload, modules) -> dict:
    from spans import Tracer
    rounds = max(1, round(args.seconds * TRACE_SHARE / workload.nominal_round_s))
    gc.collect()
    plain = Pass(workload, layer_namespace(modules), args.plant).run(rounds=rounds)
    tracer = Tracer(query_clock(workload))
    gc.collect()
    traced = Pass(workload, layer_namespace(modules, tracer), False, tracer).run(rounds=rounds)
    self_times = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
        metrics[f"{layer}.busy_s"] = sum(
            t for name, t in self_times.items() if name.startswith(layer + "."))
    for prefix in sorted(set(FUNCTION_METRICS.values())):
        metrics[f"{prefix}.busy_s"] = sum(
            t for name, t in self_times.items() if FUNCTION_METRICS.get(name) == prefix)
    for name in (*COUNT_METRICS, "cli.stdout_bytes"):
        metrics[name] = counts[name]
    metrics["homotopy.resolved_ratio"] = (
        counts["homotopy.resolved"] / counts["homotopy.summands"]
        if counts["homotopy.summands"] else 0.0)
    metrics["links.classified_ratio"] = (
        counts["links.classified"] / counts["links.classify_A.calls"]
        if counts["links.classify_A.calls"] else 0.0)
    metrics["trace.overhead_frac"] = traced.busy / plain.busy - 1
    units = per_layer_units()
    out = ROOT / ".perfbench" / f"spans-{args.workload}.tsv.gz"
    tracer.write(out)
    print(f"# {args.workload} seed={args.seed} traced rounds={rounds} "
          f"queries={len(traced.latencies)} spans={len(tracer)} -> {out.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"{name:<30} {metrics[name]:16.6f} {units[name]}")
    plain.failed += traced.failed
    plain.errors += traced.errors
    return report(plain, metrics, units, attempted=len(plain.latencies) + len(traced.latencies))


def report(run: Pass, metrics: dict, units: dict, attempted: int | None = None) -> dict:
    for error in run.errors:
        print(f"failed: {error}", file=sys.stderr)
    attempted = len(run.latencies) if attempted is None else attempted
    return {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true",
                        help="replace the first expected value with a wrong one")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    modules = import_program()
    workload = make_workload(args.workload, args.seed, modules)
    if args.setup_probe:
        print("ready", time.process_time(), reference_ms(), flush=True)
        return 0
    result = (per_layer if args.trace else end_to_end)(args, workload, modules)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
