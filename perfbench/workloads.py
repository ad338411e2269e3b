"""The three benchmark workloads and the closed loop that drives them.

Every program call goes through ``romga.cli.main`` in this process, one at a
time: a call starts only after the previous one returned (a closed loop with
one caller, no threads or pools). The program sees only the files this
module generates and the flags it passes.

Each run has three parts:

1. set-up, repeated: ``datagen`` of the training ensemble plus ``compress``;
2. quality checks that need no timing: node reproduction (plume) and
   leave-one-out over the interior training parameters;
3. the measured part: ``optimize`` on each campaign target in turn, every
   call followed by a stretch of predict calls on queries drawn from the
   seed; then ``predict`` and ``report`` at each target's recovered genes.
   Every repeated ``optimize`` is checked byte for byte against the first.

The campaign targets and GA seed are fixed per workload rather than drawn
from the seed; README.md explains the measurement behind that choice.
"""

from __future__ import annotations

import io
import math
import resource
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from romga import cli
from romga.dataset import Grid, TimeAxis, read_snapshots
from romga.errors import RomgaError
from romga.pod import read_rom, reconstruct_sample
from romga.surrogate import PlumeParams, analytic_plume

import layers
from spans import Tracer, self_times
from summary import percentile, tail_per_mille

SETUP_REPS = 3          # set-up repeats at least this often...
SETUP_SECONDS = 2.0     # ...and for at least this long, then reports the median
MIN_QUERIES = 100       # predict calls per run; a p90 needs 100 samples
QUALITY_QUERIES = 1000  # the first queries, compared against a closed-form truth
QUERY_BLOCK = 16        # queries per stratified block
MIN_PASSES = 2          # optimize calls per target at least; repeats check reproducibility
NODE_BAR = 1.0e-8       # acceptance criterion 1
GA_FLAGS = ("--pop", "20", "--gens", "30", "--seed", "3")  # the acceptance suite's GA
M_MIN = 4               # smallest truncation order a query draws, as optimize's default


@dataclass(frozen=True)
class Workload:
    name: str
    ensemble: tuple[str, ...]       # datagen flags shared by training and targets
    param_flag: str                 # the flag listing the swept parameter
    train: tuple[float, ...]
    q: int
    ne_max: int                     # largest neighbor count a query may draw
    campaign: tuple[float, ...]     # identification targets
    predict_share: float            # share of the measured time spent on predict calls
    min_queries: int                # predict calls a run makes at least
    truth: Callable[[float], np.ndarray] | None = None  # exact field at a parameter


def _plume_truth(delta: float) -> np.ndarray:
    """The closed-form field the plume workload's datagen flags describe."""
    grid, times = Grid(40, 40, 1.04, 1.04), TimeAxis(60, 10.0)
    return analytic_plume(PlumeParams(delta, sigma=0.3), grid, times).values


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plume-predict",
            ensemble=("--family", "plume", "--nx", "40", "--ny", "40",
                      "--snapshots", "60", "--tfinal", "10", "--sigma", "0.3"),
            param_flag="--deltas",
            train=(0.3, 0.35, 0.4, 0.45, 0.5),
            q=10,
            ne_max=5,
            campaign=(0.375,),
            predict_share=0.5,
            min_queries=QUALITY_QUERIES,
            truth=_plume_truth,
        ),
        Workload(
            name="cavity-temperature",
            ensemble=("--preset", "series2-temperature"),
            param_flag="--temperatures",
            train=(5.0, 10.0, 15.0, 20.0, 25.0),
            q=30,
            ne_max=5,
            campaign=(7.5, 17.5, 22.5),
            predict_share=0.25,
            min_queries=MIN_QUERIES,
        ),
        Workload(
            name="cavity-velocity",
            ensemble=("--preset", "series1-velocity"),
            param_flag="--velocities",
            train=(0.51, 0.627, 0.798),
            q=30,
            ne_max=3,
            campaign=(0.54, 0.67, 0.755),
            # A quarter of the queries hit the sweep cap, so the median call
            # sits in the upper tail of the uncapped calls; more of them
            # steady it, and the two optimize passes fill the rest of the run.
            predict_share=0.4,
            min_queries=MIN_QUERIES,
        ),
    )
}

# End-to-end metric names and units, in the order BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "identify_s": "s",
    "predict_ms.p50": "ms",
    "recovery_miss_pct": "%",
    "instant_err_pct": "%",
    "predict_err_pct": "%",
    "loo_err_pct": "%",
    "peak_rss_mb": "MB",
}


def _fields(line: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in line.split())


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _rel_l2(predicted: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(predicted - truth) / np.linalg.norm(truth))


@dataclass
class Run:
    """State of one benchmark invocation: counters, samples, spans."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    work: Path
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)   # metric -> list of values
    quality: dict = field(default_factory=dict)   # metric -> list of values
    # wall seconds of the calls a traced run makes twice, untraced then traced
    paired: dict = field(default_factory=lambda: {"untraced": 0.0, "traced": 0.0, "calls": 0})
    identify_times: dict = field(default_factory=dict)  # target -> untraced optimize seconds
    histories: dict = field(default_factory=dict)       # target -> (first history, genes)
    tracer: Tracer = field(default_factory=Tracer)

    # ------------------------------------------------------------ operations

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check as an operation; record it when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def call(self, argv, request: str, traced: bool = False) -> tuple[bool, str, float]:
        """One CLI call: returns (exit was 0, stdout, wall seconds).

        A traced call installs the layer wrappers for its duration only. An
        exception escaping ``cli.main`` counts as a failed call.
        """
        out, err = io.StringIO(), io.StringIO()
        main = cli.main
        if traced:
            self.tracer.request = request
            self.tracer.install(layers.TARGETS)
            main = self.tracer.span(f"cli.{argv[0]}", cli.main, via="perfbench")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                code = main(list(argv))
                elapsed = time.perf_counter() - start
        except Exception:
            return self.check(False, f"{request}: {argv[0]} raised\n{traceback.format_exc()}"), "", 0.0
        finally:
            self.tracer.uninstall()
        ok = self.check(code == 0, f"{request}: {argv[0]} exited {code}: {err.getvalue().strip()}")
        return ok, out.getvalue(), elapsed

    def finite(self, path: Path, request: str):
        """Read a snapshot output; a non-finite value fails the check."""
        try:
            values = read_snapshots(path).values
        except (RomgaError, ValueError) as exc:
            self.check(False, f"{request}: unreadable output {path.name}: {exc}")
            return None
        if self.check(bool(np.isfinite(values).all()), f"{request}: non-finite values in {path.name}"):
            return values
        return None

    def pair(self, traced: bool, elapsed: float) -> None:
        self.paired["traced" if traced else "untraced"] += elapsed
        self.paired["calls"] += traced

    def add(self, table: dict, name: str, value: float) -> None:
        table.setdefault(name, []).append(float(value))

    # ------------------------------------------------------------ phases

    def setup(self) -> Path:
        """Build the training ensemble and the ROM, repeatedly; returns the last build.

        A traced run makes exactly SETUP_REPS builds and traces the last.
        """
        w = self.workload
        start = time.perf_counter()
        rep = 0
        while rep < SETUP_REPS or (not self.trace and time.perf_counter() - start < SETUP_SECONDS):
            root = self.work / f"setup{rep}"
            root.mkdir(parents=True)
            traced = self.trace and rep == SETUP_REPS - 1
            rep += 1
            ok1, _, t1 = self.call(
                ("datagen", *w.ensemble, w.param_flag, _floats(w.train), "--out", str(root)),
                "setup", traced,
            )
            ok2, _, t2 = self.call(
                ("compress", "--snapshots", str(root / cli.MANIFEST_NAME),
                 "--q", str(w.q), "--out", str(root / "db.rom1")),
                "setup", traced,
            )
            if ok1 and ok2 and not traced:
                self.add(self.samples, "setup_s", t1 + t2)
        return root

    def node_queries(self, root: Path) -> None:
        """Plume only: a query on a training node reproduces that sample."""
        rom = root / "db.rom1"
        db = read_rom(rom)
        for k, delta in enumerate(db.params):
            out = self.work / f"node{k}.snp1"
            request = f"node-{delta!r}"
            ok, _, _ = self.call(
                ("predict", "--rom", str(rom), "--delta", repr(float(delta)),
                 "--ne-x", "3", "--ne-t", "3", "--out", str(out)),
                request,
            )
            if ok and (values := self.finite(out, request)) is not None:
                rel = _rel_l2(values, reconstruct_sample(db, k, db.q).values)
                self.check(rel <= NODE_BAR, f"{request}: node reproduced to {rel:.3e}")

    def leave_one_out(self, root: Path) -> None:
        """Drop each interior training run, rebuild, predict it back."""
        w = self.workload
        entries = (root / cli.MANIFEST_NAME).read_text(encoding="utf-8").splitlines()
        ne = str(len(entries) - 1)
        for i in range(1, len(entries) - 1):
            _, value, name = entries[i].split(",")
            request = f"loo-{value}"
            manifest = root / f"loo{i}.txt"
            manifest.write_text("\n".join(entries[:i] + entries[i + 1:]) + "\n", encoding="utf-8")
            rom, out = root / f"loo{i}.rom1", root / f"loo{i}.snp1"
            ok, _, _ = self.call(
                ("compress", "--snapshots", str(manifest), "--q", str(w.q), "--out", str(rom)),
                request,
            )
            ok = ok and self.call(
                ("predict", "--rom", str(rom), "--delta", value, "--ne-x", ne, "--ne-t", ne,
                 "--m", str(w.q), "--out", str(out)),
                request,
            )[0]
            if ok and (values := self.finite(out, request)) is not None:
                self.add(self.quality, "loo_err_pct", 100.0 * _rel_l2(values, read_snapshots(root / name).values))

    def queries(self):
        """Endless seeded stream of (delta, ne_x, ne_t, m) predict queries.

        The stream is stratified so that every stretch of it has the same
        mix: the truncation orders cycle through every value from M_MIN to q
        and the neighbor-count pairs through every pair, each cycle in a
        fresh seeded order, and each block of QUERY_BLOCK queries puts one
        parameter in each of QUERY_BLOCK equal slices of the training range.
        The seed moves the parameters within their slices and orders the
        cycles. About a tenth (temperature) to a third (velocity) of cavity
        queries hit the sweep cap and cost five times the others; unstratified
        draws let that share, and the median with it, move from seed to seed.
        """
        w = self.workload
        rng = np.random.default_rng(self.seed)
        lo, hi = w.train[0], w.train[-1]
        pairs = [(x, t) for x in range(2, w.ne_max + 1) for t in range(2, w.ne_max + 1)]
        orders = list(range(M_MIN, w.q + 1))
        pair_cycle: list = []
        m_cycle: list = []
        while True:
            slots = rng.permutation(QUERY_BLOCK)
            for slot in slots:
                if not pair_cycle:
                    pair_cycle = [pairs[i] for i in rng.permutation(len(pairs))]
                if not m_cycle:
                    m_cycle = [orders[i] for i in rng.permutation(len(orders))]
                delta = lo + (slot + rng.uniform()) / QUERY_BLOCK * (hi - lo)
                ne_x, ne_t = pair_cycle.pop()
                yield float(delta), ne_x, ne_t, m_cycle.pop()

    def predict(self, root: Path, index: int, query, traced: bool) -> None:
        w = self.workload
        delta, ne_x, ne_t, m = query
        out = self.work / "query.snp1"
        request = f"query-{index}"
        ok, _, elapsed = self.call(
            ("predict", "--rom", str(root / "db.rom1"), "--delta", repr(delta),
             "--ne-x", str(ne_x), "--ne-t", str(ne_t), "--m", str(m), "--out", str(out)),
            request, traced,
        )
        if not ok:
            return
        self.pair(traced, elapsed)
        if not traced:
            self.add(self.samples, "predict_ms", 1000.0 * elapsed)
        values = self.finite(out, request)
        if values is not None and w.truth is not None and index < QUALITY_QUERIES and not traced:
            self.add(self.quality, "predict_err_pct", 100.0 * _rel_l2(values, w.truth(delta)))

    def targets(self) -> list[tuple[float, Path]]:
        """Generate the campaign targets with ``datagen``; (value, file) pairs."""
        w = self.workload
        folder = self.work / "targets"
        folder.mkdir()
        ok, _, _ = self.call(
            ("datagen", *w.ensemble, w.param_flag, _floats(w.campaign), "--out", str(folder)),
            "targets",
        )
        if not ok:
            return []
        targets = []
        for line in (folder / cli.MANIFEST_NAME).read_text(encoding="utf-8").splitlines():
            _, value, name = line.split(",")
            targets.append((float(value), folder / name))
        return targets

    def measure(self, root: Path) -> None:
        """The timed part of a run: seeded predict calls and the campaign.

        In an untraced run every ``optimize`` (targets in turn) is followed by
        predict calls for ``predict_share / (1 - predict_share)`` of its
        duration, so both kinds of sample spread over the whole run and meet
        the same interference from the rest of the machine. The run ends once
        ``--seconds`` have passed, every target was identified MIN_PASSES
        times and ``min_queries`` predict calls were made.

        A traced run makes fixed work instead: MIN_QUERIES predict calls and
        one ``optimize`` per target, each made untraced and then at once
        traced, so the pair meets the same machine and the difference is the
        tracing overhead.
        """
        w = self.workload
        targets = self.targets()
        if not targets:
            return
        rom = root / "db.rom1"
        stream = self.queries()
        if self.trace:
            for index in range(MIN_QUERIES):
                query = next(stream)
                for traced in (False, True):
                    self.predict(root, index, query, traced)
            for value, path in targets:
                for traced in (False, True):
                    self.identify(rom, value, path, traced)
        else:
            ratio = w.predict_share / (1.0 - w.predict_share)
            start = time.perf_counter()
            index = turn = 0
            while (
                time.perf_counter() - start < self.seconds
                or index < w.min_queries
                or turn < MIN_PASSES * len(targets)
            ):
                value, path = targets[turn % len(targets)]
                elapsed = self.identify(rom, value, path, False)
                until = time.perf_counter() + ratio * elapsed
                turn += 1
                while time.perf_counter() < until:
                    self.predict(root, index, next(stream), False)
                    index += 1
        for value, elapsed in self.identify_times.items():
            self.add(self.samples, "identify_target_s", median(elapsed))
            self.samples.setdefault("identify_s", []).extend(elapsed)
        for i, (value, path) in enumerate(targets):
            if value in self.histories:
                self.recovered(i, value, path, rom, self.histories[value][1])

    def identify(self, rom: Path, value: float, path: Path, traced: bool) -> float:
        """One ``optimize`` on a campaign target; returns its wall time.

        The first history of a target is kept; every later one must match it
        byte for byte.
        """
        request = f"target-{value!r}"
        history = self.work / "history.csv"
        ok, out, elapsed = self.call(
            ("optimize", "--rom", str(rom), "--target", str(path), *GA_FLAGS,
             "--out", str(history)),
            request, traced,
        )
        if not ok:
            return elapsed
        self.pair(traced, elapsed)
        if traced:
            self.add(self.samples, "traced_identify_s", elapsed)
        else:
            self.identify_times.setdefault(value, []).append(elapsed)
        blob = history.read_bytes()
        if value not in self.histories:
            self.check(_history_finite(blob), f"{request}: non-finite history")
            self.histories[value] = (blob, _fields(out))
        else:
            self.check(blob == self.histories[value][0], f"{request}: history differs from the first")
        return elapsed

    def recovered(self, i: int, value: float, path: Path, rom: Path, genes: dict) -> None:
        """Predict and report at the recovered genes; record answer quality."""
        request = f"target-{value!r}"
        pred = self.work / f"pred{i}.snp1"
        report = self.work / f"report{i}"
        report.mkdir()
        self.add(self.quality, "recovery_miss_pct", 100.0 * abs(float(genes["delta"]) - value) / value)
        ok, _, _ = self.call(
            ("predict", "--rom", str(rom), "--delta", genes["delta"], "--ne-x", genes["ne_x"],
             "--ne-t", genes["ne_t"], "--m", genes["m"], "--out", str(pred)),
            request, self.trace,
        )
        if not ok or (values := self.finite(pred, request)) is None:
            return
        self.add(self.quality, "predict_err_pct", 100.0 * _rel_l2(values, read_snapshots(path).values))
        ok, _, _ = self.call(
            ("report", "--predicted", str(pred), "--target", str(path), "--out", str(report)),
            request, self.trace,
        )
        if not ok:
            return
        rows = (report / "error_series.csv").read_text(encoding="utf-8").splitlines()[1:]
        series = [float(row.split(",")[1]) for row in rows]
        if self.check(all(math.isfinite(v) for v in series), f"{request}: non-finite error series"):
            self.add(self.quality, "instant_err_pct", max(series))

    # ------------------------------------------------------------ results

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """(value, sample count) of every end-to-end metric."""
        s, q = self.samples, self.quality
        predict = s["predict_ms"]
        per_target = s["identify_target_s"]
        return {
            "setup_s": (median(s["setup_s"]), len(s["setup_s"])),
            "identify_s": (sum(per_target) / len(per_target), len(s["identify_s"])),
            "predict_ms.p50": (percentile(predict, 500), len(predict)),
            "recovery_miss_pct": (max(q["recovery_miss_pct"]), len(q["recovery_miss_pct"])),
            "instant_err_pct": (max(q["instant_err_pct"]), len(q["instant_err_pct"])),
            "predict_err_pct": (max(q["predict_err_pct"]), len(q["predict_err_pct"])),
            "loo_err_pct": (max(q["loo_err_pct"]), len(q["loo_err_pct"])),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }

    def tail(self) -> dict[str, tuple[float, int]]:
        """The highest predict_ms percentile the sample count supports.

        Printed and recorded but not registered in BENCHMARK.json: on the
        cavity workloads a tenth to a third of the queries hit the sweep cap,
        so p90 falls between the two modes and moves from seed to seed.
        """
        predict = self.samples["predict_ms"]
        pm = tail_per_mille(len(predict))
        return {f"predict_ms.p{pm / 10:g}": (percentile(predict, pm), len(predict))}

    def per_layer(self) -> dict[str, tuple[float, int]]:
        """(value, sample count) of every per-layer metric, from the traced calls."""
        spans = self.tracer.spans
        values = layers.layer_metrics(spans)
        traced = self.samples["traced_identify_s"]
        values["trace.identify_s"] = (sum(traced) / len(traced), len(traced))
        values["trace.overhead_pct"] = (
            100.0 * (self.paired["traced"] / self.paired["untraced"] - 1.0),
            self.paired["calls"],
        )
        values["trace.spans"] = (len(spans), len(spans))
        self.check(_optimize_self_times_add_up(spans), "self times under optimize do not sum to it")
        return {name: values[name] for name in layers.UNITS}


def _history_finite(blob: bytes) -> bool:
    rows = blob.decode("utf-8").splitlines()[1:]
    return bool(rows) and all(
        math.isfinite(float(cell)) for row in rows for cell in row.split(",")
    )


def _optimize_self_times_add_up(spans) -> bool:
    """Within each traced optimize call, the self times sum to its duration."""
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.name == "cli.optimize"]
    owner: dict[int, int] = {}
    for i, span in enumerate(spans):
        owner[i] = owner[span.parent] if span.parent is not None else i
    ok = bool(roots)
    for root in roots:
        total = sum(own for i, own in enumerate(selfs) if owner[i] == root)
        ok = ok and abs(total - spans[root].duration) <= 1.0e-9 * max(1.0, spans[root].duration)
    return ok


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Run:
    """One benchmark invocation, after warm-up."""
    state = Run(workload, seed, seconds, trace, work)
    root = state.setup()
    if workload.truth is not None:
        state.node_queries(root)
    state.leave_one_out(root)
    state.measure(root)
    return state
