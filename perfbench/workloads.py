"""The benchmark's workloads: why each exists, what it loads, how a run goes.

Every workload drives the real service (``python -m repro.cli serve`` in a
subprocess) from this one client process, in a closed loop with one client:
upload a CSV, submit an experiment with ``register_as``, poll it to done,
then predict through the registered model.  End-to-end metrics:

* ``setup_s`` — launch → ``/readyz`` 200, median of several cold starts;
* ``peak_rss_mb`` — server ``VmHWM`` at the end of the measured window;
* ``ok_share`` — experiments that succeeded ÷ experiments attempted;
* ``ops_per_min`` — 60 × experiments ÷ Σ(``finished_at`` − ``submitted_at``);
* ``p50_ms``, ``p90_ms`` — time to first prediction (submit → first
  successful predict on the new model);
* ``lone_p50_ms``, ``lone_p90_ms`` — the predicts issued after each
  experiment, lone requests with nothing else running.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.classifiers import classifier_names

from perfbench import fixtures, layers, loops
from perfbench.layers import quantile, windowed_quantile
from perfbench.datagen import make_experiment_input
from perfbench.service import Service, cpu_ticks

__all__ = ["WORKLOADS", "E2E_METRICS", "LAYER_METRICS"]

#: (name, unit) of every end-to-end metric, in report order.
E2E_METRICS = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("ops_per_min", "1/min"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("lone_p50_ms", "ms"),
    ("lone_p90_ms", "ms"),
]

_PER_FAMILY = [
    (f"classifiers.{what}.{family}", unit)
    for family in classifier_names()
    for what, unit in (("fit_s", "s"), ("predict_s", "s"), ("fits", "count"))
]
#: (name, unit) of every per-layer metric (``--trace 1``), in report order.
LAYER_METRICS = [
    ("proc.import_s", "s"),
    ("proc.open_s", "s"),
    ("proc.server_cpu_s", "s"),
    ("api.upload_ms", "ms"),
    ("api.submit_ms", "ms"),
    ("api.queue_s", "s"),
    ("api.run_s", "s"),
    ("api.overhead_s", "s"),
    ("api.journal_append_ms", "ms"),
    ("api.journal_appends", "count"),
    ("api.retries", "count"),
    ("api.http_ms", "ms"),
    ("data.parse_ms", "ms"),
    ("data.validate_ms", "ms"),
    ("preprocess.fit_transform_ms", "ms"),
    ("metafeatures.extract_ms", "ms"),
    ("metafeatures.calls", "count"),
    ("kb.open_s", "s"),
    ("kb.nominate_ms", "ms"),
    ("kb.commit_ms", "ms"),
    ("kb.datasets", "count"),
    ("core.run_self_ms", "ms"),
    ("parallel.dispatch_self_ms", "ms"),
    ("hpo.tune_candidate_s", "s"),
    ("hpo.tuning_share", "share"),
    ("hpo.smac_self_s", "s"),
    ("hpo.surrogate_fit_ms", "ms"),
    ("hpo.surrogate_fits", "count"),
    ("hpo.surrogate_predict_ms", "ms"),
    ("hpo.fold_evals", "count"),
    ("hpo.fold_eval_s", "s"),
    ("hpo.failed_trials", "count"),
    ("classifiers.fit_s", "s"),
    ("classifiers.predict_s", "s"),
    ("classifiers.fits", "count"),
    *_PER_FAMILY,
    ("serving.register_ms", "ms"),
    ("serving.load_ms", "ms"),
    ("serving.lru_hit_ratio", "share"),
    ("serving.lru_lookups", "count"),
    ("serving.engine_pass_ms", "ms"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.requests_per_batch", "count"),
    ("serving.failed_requests", "count"),
    ("trace.overhead_share", "share"),
    ("trace.run_accounted_share", "share"),
]

#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: Served predictions re-computed locally per run.
CHECK_SAMPLE = 40
DIGEST_DIR = fixtures.CACHE_DIR


def quantile50(values) -> float:
    return quantile(list(values), 50)


@dataclass
class Phase:
    """What one measured window produced."""

    label: str
    window: tuple[float, float]
    instance: Path
    records: list = field(default_factory=list)
    cpu_s: float = 0.0
    steal_share: float = 0.0
    peak_rss_mb: float = 0.0
    serving_stats: tuple[dict, dict] = ({}, {})
    kb_datasets: int = 0


class Workload:
    """The run procedure; subclasses set the inputs and the server's flags."""

    name = ""
    why = ""
    loads = ""
    bypasses = ""
    #: Whether the server opens a copy of the seed's ``intake_kb`` fixture.
    fixture = False
    kind = ""
    config: dict = {}
    #: Sequential predicts after each experiment; the first is the first
    #: prediction, all are lone requests.
    predicts_per_experiment = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.fixture_path = (
            fixtures.intake_kb(ctx.seed, ctx.program_digest) if self.fixture else None
        )

    # ---------------------------------------------------------- instances
    def instance(self, label: str) -> Path:
        dest = self.ctx.workdir / label
        if self.fixture_path is None:
            dest.mkdir(parents=True)
        else:
            shutil.copytree(self.fixture_path, dest)
        return dest

    def cold_starts(self, n: int) -> tuple[list[float], Service, Path]:
        """``n`` cold starts on fresh copies; the last one stays up."""
        times = []
        for k in range(n):
            inst = self.instance(f"start-{k}")
            service = self.ctx.service(inst / "proc", self.serve_args(inst))
            times.append(service.start())
            if k < n - 1:
                service.kill()
        return times, service, inst

    def measure(self, service: Service, inst: Path, duration: float, label: str) -> Phase:
        self.warm_up(service)
        _, before = service.request("GET", "/serving/stats")
        cpu0 = service.cpu_seconds()
        ticks0 = cpu_ticks()
        start = time.perf_counter()
        phase = Phase(label, (start, start), inst)
        self.drive(service, phase, duration)
        phase.window = (start, time.perf_counter())
        phase.cpu_s = service.cpu_seconds() - cpu0
        ticks1 = cpu_ticks()
        phase.steal_share = (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])
        _, after = service.request("GET", "/serving/stats")
        phase.serving_stats = (before, after)
        phase.kb_datasets = int(service.request("GET", "/kb/stats")[1].get("datasets", 0))
        phase.peak_rss_mb = service.peak_rss_mb()
        service.stop()
        return phase

    # -------------------------------------------------------------- runs
    def run(self) -> dict:
        ctx = self.ctx
        if not ctx.trace:
            setups, service, inst = self.cold_starts(SETUP_STARTS)
            phase = self.measure(service, inst, ctx.seconds, "untraced")
            failures = self.check(phase)
            metrics = self.end_to_end(phase)
            metrics["setup_s"] = statistics.median(setups)
            notes = {"setup_starts_s": setups, "steal_share": phase.steal_share,
                     "server_cpu_s": phase.cpu_s, **self.notes(phase)}
            return self.outcome(phase, metrics, failures, notes)
        # Traced run: an untraced half and a traced half over the same
        # inputs, each on a fresh fixture copy; per-layer numbers come from
        # the traced half, the overhead from comparing the two.
        setups, service, inst = self.cold_starts(1)
        half = ctx.seconds / 2.0
        plain = self.measure(service, inst, half, "untraced")
        traced_inst = self.instance("traced")
        spans_file = ctx.workdir / "spans.json"
        traced_service = ctx.service(
            traced_inst / "proc", self.serve_args(traced_inst), spans_file
        )
        traced_service.start()
        traced = self.measure(traced_service, traced_inst, half, "traced")
        failures = self.check(plain) + self.check(traced)
        tree = layers.SpanTree(layers.load_spans(spans_file), traced.window)
        import_s = ctx.import_seconds()
        metrics = {name: 0.0 for name, _ in LAYER_METRICS}
        metrics.update(self.layer_metrics(tree, traced, plain))
        metrics["proc.import_s"] = import_s
        # Measured within one start: end of imports to ready.  Subtracting
        # the import probe from setup_s instead mixes two noisy samples.
        imported = next(s for s in tree.all if s.name == "proc.imported")
        metrics["proc.open_s"] = traced_service.ready_at - imported.start
        kb_open = [s for s in tree.all if s.name == "kb.open"]
        metrics["kb.open_s"] = kb_open[0].duration if kb_open else 0.0
        notes = {
            "setup_starts_s": setups,
            "untraced_e2e": self.end_to_end(plain),
            "traced_e2e": self.end_to_end(traced),
            "blocking_path_s": {
                k: round(v, 6) for k, v in sorted(
                    tree.blocking_path().items(), key=lambda kv: -kv[1]
                )
            },
            **self.notes(traced),
        }
        return self.outcome(traced, metrics, failures, notes, extra=[plain])

    def outcome(self, phase, metrics, failures, notes, extra=()) -> dict:
        phases = [phase, *extra]
        attempted = sum(len(p.records) for p in phases)
        failed = sum(sum(not r.ok for r in p.records) for p in phases)
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "check_failures": failures,
            "notes": {
                "workload": {"why": self.why, "loads": self.loads, "bypasses": self.bypasses},
                **notes,
            },
        }

    # ------------------------------------------------------------ shared
    def serving_layer(self, phase: Phase, tree, n_ops: int) -> dict:
        before, after = phase.serving_stats
        reg0, reg1 = before["registry"], after["registry"]
        bat0, bat1 = before["batcher"], after["batcher"]
        hits = reg1["hits"] - reg0["hits"]
        lookups = hits + reg1["misses"] - reg0["misses"]
        batches = bat1["batches"] - bat0["batches"]
        waits = layers.queue_waits_ms(tree)
        return {
            "serving.register_ms": tree.p50_ms("serving.register"),
            # Registry load time per experiment: hits are nearly free, so
            # this moves with the miss share and with decode cost.
            "serving.load_ms": tree.total_s("serving.load") * 1e3 / n_ops,
            "serving.lru_hit_ratio": hits / lookups if lookups else 0.0,
            "serving.lru_lookups": lookups,
            "serving.engine_pass_ms": tree.p50_ms("serving.engine_pass"),
            "serving.queue_wait_ms": quantile50(waits),
            "serving.requests_per_batch": (
                (bat1["requests"] - bat0["requests"]) / batches if batches else 0.0
            ),
            "serving.failed_requests": bat1["failed_requests"] - bat0["failed_requests"],
        }

    def classifier_layer(self, tree, n_ops: int) -> dict:
        """Top-level classifier fit/predict totals per experiment."""
        out = {}
        if not n_ops:
            return out
        fits = tree.top_level("classifiers.fit")
        predicts = tree.top_level("classifiers.predict")
        out["classifiers.fit_s"] = sum(s.duration for s in fits) / n_ops
        out["classifiers.predict_s"] = sum(s.duration for s in predicts) / n_ops
        out["classifiers.fits"] = len(fits) / n_ops
        fit_by = Counter()
        fit_s_by = Counter()
        predict_s_by = Counter()
        for span in fits:
            fit_by[span.attr] += 1
            fit_s_by[span.attr] += span.duration
        for span in predicts:
            predict_s_by[span.attr] += span.duration
        for family in classifier_names():
            out[f"classifiers.fit_s.{family}"] = fit_s_by[family] / n_ops
            out[f"classifiers.predict_s.{family}"] = predict_s_by[family] / n_ops
            out[f"classifiers.fits.{family}"] = fit_by[family] / n_ops
        return out

    def registry(self, phase: Phase):
        from repro.serving import ModelRegistry

        return ModelRegistry(phase.instance / "registry")


    def experiment_config(self, index: int) -> dict:
        return {**self.config, "seed": index}

    def make_input(self, index: int):
        return make_experiment_input(self.kind, self.ctx.seed, index, n_folds=3)

    def warm_up(self, service: Service) -> None:
        # A discarded experiment on its own data stream loads lazy imports
        # and builds the KB's similarity index; it leaves the KB unchanged.
        inp = make_experiment_input(self.kind, self.ctx.seed, 10_000_000, n_folds=3)
        record = loops.run_experiment(
            service, inp, {**self.experiment_config(0), "update_kb": False}, "warmup"
        )
        if not record.ok:
            raise RuntimeError(f"warm-up experiment failed: {record.error}")

    def drive(self, service: Service, phase: Phase, duration: float) -> None:
        phase.records = loops.run_experiments(
            service, self.make_input, self.experiment_config,
            lambda index: f"{self.kind}-{index}", phase.window[0] + duration,
            self.predicts_per_experiment,
        )

    def end_to_end(self, phase: Phase) -> dict:
        done = [r for r in phase.records if r.ok]
        total = sum(r.latency_s for r in done)
        return {
            "peak_rss_mb": phase.peak_rss_mb,
            "ok_share": len(done) / len(phase.records) if phase.records else 0.0,
            "ops_per_min": 60.0 * len(done) / total if total else 0.0,
            "p50_ms": windowed_quantile([r.ttfp_s * 1e3 for r in done], 50),
            "p90_ms": windowed_quantile([r.ttfp_s * 1e3 for r in done], 90),
            "lone_p50_ms": windowed_quantile([p.ms for r in done for p in r.predicts], 50),
            "lone_p90_ms": windowed_quantile([p.ms for r in done for p in r.predicts], 90),
        }

    def notes(self, phase: Phase) -> dict:
        done = [r for r in phase.records if r.ok]
        return {
            "experiments": len(phase.records),
            "samples": len(done),
            "latency_s": [round(r.latency_s, 4) for r in done],
            "digest": self.digest(phase.records),
            "best_algorithms": dict(Counter(r.job["result"]["best_algorithm"] for r in done)),
        }

    @staticmethod
    def result_digest(record) -> str:
        result = record.job["result"]
        payload = json.dumps(
            [record.name, result["best_algorithm"], result["best_config"],
             result["validation_accuracy"]],
            sort_keys=True,
        )
        return hashlib.blake2b(payload.encode(), digest_size=12).hexdigest()

    def digest(self, records) -> str:
        h = hashlib.blake2b(digest_size=12)
        for record in records:
            if record.ok:
                h.update(self.result_digest(record).encode())
        return h.hexdigest()

    def check(self, phase: Phase) -> list[str]:
        failures = []
        for record in phase.records:
            if not record.validation_ok:
                failures.append(f"{record.name}: generated dataset fails validate_dataset")
            if not record.ok:
                failures.append(f"{record.name}: {record.error}")
            elif record.job.get("degraded") or record.job["result"].get("degraded"):
                failures.append(f"{record.name}: result is degraded")
        failures += self.check_digests(phase.records)
        registry = self.registry(phase)
        served = [(r, p) for r in phase.records if r.ok for p in r.predicts]
        for record, predict in served[:: max(1, len(served) // CHECK_SAMPLE)]:
            entry = registry.load(record.model_id, predict.version)
            rows = np.asarray(predict.rows, dtype=np.float64)
            expected = entry.predict_rows(np.concatenate([rows, rows]) if len(rows) == 1 else rows)
            if expected[: len(rows)].astype(int).tolist() != predict.predictions:
                failures.append(f"{record.name}: served prediction differs from the registry's")
        return failures

    def check_digests(self, records) -> list[str]:
        """Each experiment's outcome must repeat in every run with this seed."""
        # Keyed by the benchmark's and the program's code as well: either
        # may legitimately change what an experiment returns.
        key = hashlib.blake2b(
            f"{fixtures.bench_digest()}:{self.ctx.program_digest}".encode(), digest_size=6
        ).hexdigest()
        path = DIGEST_DIR / f"digests-{self.name}-{self.ctx.seed}-{key}.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        failures = []
        for record in records:
            if not record.ok:
                continue
            digest = self.result_digest(record)
            if known.setdefault(record.name, digest) != digest:
                failures.append(f"{record.name}: result differs from an earlier run")
        DIGEST_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(known, sort_keys=True))
        return failures

    def layer_metrics(self, tree, traced: Phase, plain: Phase) -> dict:
        done = [r for r in traced.records if r.ok]
        n = len(done)
        if not n:
            return {}
        run_s = sum(r.job["run_seconds"] for r in done)
        runs = tree.named("core.run")
        out = {
            "proc.server_cpu_s": plain.cpu_s / max(1, sum(r.ok for r in plain.records)),
            "api.upload_ms": quantile50(r.upload_ms for r in done),
            "api.submit_ms": quantile50(r.submit_ms for r in done),
            "api.queue_s": sum(r.job["queue_seconds"] for r in done) / n,
            "api.run_s": run_s / n,
            "api.overhead_s": sum(
                r.ttfp_s - r.job["run_seconds"] - r.predicts[0].ms / 1e3 for r in done
            ) / n,
            "api.journal_append_ms": tree.p50_ms("api.journal_append"),
            "api.journal_appends": len(tree.named("api.journal_append")) / n,
            "api.retries": sum(max(0, r.job["attempt"] - 1) for r in done),
            "api.http_ms": quantile50(
                (r[2] - r[1] - span.duration) * 1e3
                for r, span in layers.link_predicts(
                    tree,
                    [(r.model_id, p.start, p.end, p) for r in done for p in r.predicts],
                )
            ),
            "data.parse_ms": tree.p50_ms("data.parse"),
            "data.validate_ms": tree.p50_ms("data.validate"),
            "preprocess.fit_transform_ms": tree.p50_ms("preprocess.fit_transform"),
            "metafeatures.extract_ms": tree.p50_ms("metafeatures.extract"),
            "metafeatures.calls": len(tree.named("metafeatures.extract")) / n,
            "kb.nominate_ms": tree.p50_ms("kb.nominate"),
            "kb.commit_ms": tree.p50_ms("kb.commit"),
            "kb.datasets": traced.kb_datasets,
            "core.run_self_ms": tree.self_total_s("core.run") * 1e3 / n,
            "parallel.dispatch_self_ms": tree.self_total_s("parallel.dispatch") * 1e3 / n,
            "hpo.tune_candidate_s": tree.total_s("hpo.tune_candidate") / n,
            "hpo.tuning_share": tree.total_s("hpo.tune_candidate") / run_s if run_s else 0.0,
            "hpo.smac_self_s": tree.self_total_s("hpo.smac") / n,
            "hpo.surrogate_fit_ms": tree.p50_ms("hpo.surrogate_fit"),
            "hpo.surrogate_fits": len(tree.named("hpo.surrogate_fit")) / n,
            "hpo.surrogate_predict_ms": tree.p50_ms("hpo.surrogate_predict"),
            # A fold evaluation that fits a model; cached repeats have no children.
            "hpo.fold_evals": sum(
                1 for s in tree.named("hpo.fold_eval") if tree.children.get(s.id)
            ) / n,
            "hpo.fold_eval_s": tree.total_s("hpo.fold_eval") / n,
            "hpo.failed_trials": sum(
                c.get("n_failed_trials", 0)
                for r in done for c in r.job["result"].get("candidates", [])
            ),
            "trace.run_accounted_share": (
                sum(s.duration for s in runs) / run_s if run_s else 0.0
            ),
            "trace.overhead_share": self.overhead(plain, traced),
        }
        out.update(self.classifier_layer(tree, n))
        out.update(self.serving_layer(traced, tree, n))
        return out

    @staticmethod
    def overhead(plain: Phase, traced: Phase) -> float:
        """Traced ÷ untraced run time over the experiments both halves ran."""
        pairs = [
            (a.job["run_seconds"], b.job["run_seconds"])
            for a, b in zip(plain.records, traced.records)
            if a.ok and b.ok
        ]
        base = sum(a for a, _ in pairs)
        return sum(b for _, b in pairs) / base - 1.0 if base else 0.0


class TuneHeavy(Workload):
    name = "tune_heavy"
    kind = "tune"
    why = (
        "Distinct mid-size datasets, 5 SMAC evals of one nominated forest, KB kept "
        "empty: hpo and classifiers do nearly all the work; api and serving do one "
        "registration and 10 predicts each."
    )
    loads = "hpo (SMAC, surrogate, fold evaluation), classifiers (random forest fits)"
    bypasses = (
        "kb (kept empty by update_kb false), the journal, the batcher's coalescing "
        "(one predict at a time)"
    )
    # One nominated family (the first of the fallback portfolio an empty KB
    # nominates: random_forest), so every served model is a forest and
    # lone-predict latency does not swing with which family won.  No KB
    # commits: warm starts from earlier experiments' winners coupled whole
    # runs to one early expensive configuration.
    config = {
        "time_budget_s": None, "max_evals_per_algorithm": 5, "n_algorithms": 1,
        "n_jobs": 1, "update_kb": False,
    }
    # ~50 experiments fit in a 40 s run; 10 predicts each give the
    # lone-predict percentiles five windows of 100 samples.
    predicts_per_experiment = 10

    def serve_args(self, inst: Path) -> list[str]:
        return [
            "--kb", str(inst / "kb.jsonl"), "--registry", str(inst / "registry"),
            "--workers", "1", "--backend", "thread",
        ]


class IntakeWarm(Workload):
    name = "intake_warm"
    kind = "intake"
    fixture = True
    why = (
        "Many small CSV uploads, 1 eval per family, against a 10k-dataset sharded "
        "KB with journal and registry on disk: intake, nomination at scale, KB "
        "commit and registry write dominate; tuning is a minority."
    )
    loads = (
        "api (upload, submit, journal), data (parse, validate), preprocess, "
        "metafeatures, kb (open, nominate at 10k datasets, commit), serving "
        "(register, cold first predict)"
    )
    bypasses = "multi-evaluation SMAC (1 eval per family), the batcher's coalescing"
    config = {"time_budget_s": None, "max_evals_per_algorithm": 1}

    def serve_args(self, inst: Path) -> list[str]:
        return [
            "--kb", str(inst / "kb"), "--journal", str(inst / "jobs.wal"),
            "--registry", str(inst / "registry"),
        ]


WORKLOADS = {cls.name: cls for cls in (TuneHeavy, IntakeWarm)}
