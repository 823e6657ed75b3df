"""Command-line interface.

The original SmartML ships as an R package, a web application, and REST
APIs; this module is the command-line face of the Python reproduction:

``repro datasets``
    List the built-in Table-4 evaluation datasets.
``repro bootstrap --kb kb/ --n 10``
    Bootstrap a knowledge base from the synthetic corpus.
``repro run --dataset my.csv --target label --kb kb/ --budget 10``
    Run the full pipeline on a CSV/ARFF file (or a built-in dataset).
``repro validate --dataset my.csv --target label``
    Pre-flight lint: the same dataset validation ``POST /experiments``
    enforces, as a local report (exit 1 when the dataset would be rejected).
``repro nominate --dataset my.csv --target label --kb kb/``
    Algorithm selection only (no tuning).
``repro kb fsck kb-root/ [--repair]``
    Verify every frame CRC of a KB root; ``--repair`` salvages the valid
    prefix of damaged shards and rebuilds the manifest, reporting what was
    dropped.
``repro kb merge pooled/ instance-a/ instance-b/``
    Deterministically union run histories from N instance roots —
    content-digest dedup, order-independent, byte-identical output.  A
    legacy JSON-lines log is converted the same way:
    ``repro kb merge kb/ old-kb.jsonl``.
``repro serve --port 8080 --kb kb/ --workers 2 --registry models/ --journal jobs.wal``
    Start the REST server with an async experiment worker pool, a durable
    model registry, and a crash-recoverable job journal (plus backpressure
    and timeout knobs: ``--max-queue``, ``--job-timeout``, ``--max-retries``,
    ``--drain-grace``).
``repro submit --dataset my.csv --target label --port 8080 [--wait]``
    Upload a dataset to a running server and enqueue an experiment job
    (``--register-as my-model`` persists the winner in the registry).
``repro status --port 8080 [--job 3]``
    List a running server's experiment jobs, or show one job in full.
``repro models --port 8080 [--model id] [--delete id]``
    List, inspect, or delete a server's registered models.
``repro predict --model id --rows '[[...]]' --port 8080``
    Predict rows through a registered model on a running server.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exceptions import SmartMLError

__all__ = ["main", "build_parser"]


def _load_dataset(args) -> object:
    """Resolve --dataset: a registry key or a csv/arff path."""
    from repro.data import eval_dataset_names, load_eval_dataset, read_arff, read_csv

    if args.dataset in eval_dataset_names():
        return load_eval_dataset(args.dataset)
    path = Path(args.dataset)
    if not path.exists():
        raise SmartMLError(
            f"{args.dataset!r} is neither a built-in dataset "
            f"({eval_dataset_names()}) nor an existing file"
        )
    target = args.target if args.target is not None else -1
    if path.suffix.lower() == ".arff":
        return read_arff(path, target=target)
    return read_csv(path, target=target)


def _open_kb(args):
    from repro.kb import KnowledgeBase

    if not args.kb:
        return KnowledgeBase()
    return KnowledgeBase(args.kb, shards=getattr(args, "shards", None))


def cmd_datasets(args, out) -> int:
    from repro.data import TABLE4_CARDS

    print(f"{'key':14s} {'paper shape (d x k x n)':>24s} {'paper AW':>9s} {'paper SM':>9s}", file=out)
    for card in TABLE4_CARDS:
        shape = f"{card.paper_attributes}x{card.paper_classes}x{card.paper_instances}"
        print(
            f"{card.key:14s} {shape:>24s} {card.paper_autoweka_accuracy:9.2f} "
            f"{card.paper_smartml_accuracy:9.2f}",
            file=out,
        )
    return 0


def cmd_bootstrap(args, out) -> int:
    from repro.data import load_kb_corpus
    from repro.kb import bootstrap_knowledge_base

    kb = _open_kb(args)
    try:
        corpus = load_kb_corpus(n=args.n, seed=args.seed)
        bootstrap_knowledge_base(
            kb,
            corpus,
            configs_per_algorithm=args.configs,
            n_folds=2,
            max_instances=args.max_instances,
            seed=args.seed,
            verbose=not args.quiet,
        )
        print(
            f"knowledge base ready: {kb.n_datasets()} datasets, {kb.n_runs()} runs"
            + (f" -> {args.kb}" if args.kb else " (in memory only; pass --kb to persist)"),
            file=out,
        )
        return 0
    finally:
        kb.close()


def cmd_run(args, out) -> int:
    from repro.core import SmartML, SmartMLConfig

    dataset = _load_dataset(args)
    kb = _open_kb(args)
    try:
        config = SmartMLConfig(
            preprocessing=args.preprocess or [],
            time_budget_s=args.budget,
            n_algorithms=args.algorithms,
            ensemble=args.ensemble,
            interpretability=args.interpret,
            update_kb=not args.no_update,
            n_jobs=args.jobs,
            backend=args.backend,
            seed=args.seed,
        )
        registry = None
        if args.register_as:
            if not args.registry:
                raise SmartMLError("--register-as requires --registry DIR")
            from repro.serving import ModelRegistry

            registry = ModelRegistry(args.registry)
        result = SmartML(kb, model_registry=registry).run(
            dataset, config, register_as=args.register_as or None
        )
        if args.json:
            print(json.dumps(result.to_dict(), indent=2), file=out)
        else:
            print(result.describe(), file=out)
            if result.registration:
                print(
                    f"registered as {result.registration['model_id']!r} "
                    f"v{result.registration['version']} in {args.registry}",
                    file=out,
                )
        return 0
    finally:
        kb.close()


def cmd_validate(args, out) -> int:
    from repro.data.validation import validate_dataset

    dataset = _load_dataset(args)
    report = validate_dataset(dataset, n_folds=args.folds)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(report.describe(), file=out)
        if not report.ok:
            print(
                "the server would reject this dataset at POST /experiments "
                "(HTTP 400)",
                file=out,
            )
    return 0 if report.ok else 1


def cmd_nominate(args, out) -> int:
    from repro.metafeatures import extract_metafeatures

    dataset = _load_dataset(args)
    kb = _open_kb(args)
    try:
        metafeatures = extract_metafeatures(dataset)
        nominations = kb.nominate(metafeatures, n_algorithms=args.algorithms)
        if not nominations:
            print("knowledge base is empty: no nominations (run `repro bootstrap`)", file=out)
            return 1
        for nomination in nominations:
            print(
                f"{nomination.algorithm:15s} score={nomination.score:.4f} "
                f"supported by KB datasets {nomination.supporting_datasets}",
                file=out,
            )
        return 0
    finally:
        kb.close()


def cmd_serve(args, out) -> int:  # pragma: no cover - blocking loop
    import signal
    import threading

    from repro.api import SmartMLServer
    from repro.core import SmartML

    kb = _open_kb(args)
    server = SmartMLServer(
        SmartML(kb), host=args.host, port=args.port, workers=args.workers,
        backend=args.backend, registry_dir=args.registry,
        journal=args.journal, max_queue=args.max_queue,
        default_timeout_s=args.job_timeout, max_retries=args.max_retries,
    )
    registry_note = (
        f"registry at {args.registry}" if args.registry else "in-memory registry"
    )
    journal_note = (
        f"journal at {args.journal}" if args.journal else "no journal (jobs are volatile)"
    )
    print(
        f"SmartML REST server on {server.base_url} "
        f"({args.workers} experiment worker(s), {args.backend} backend, "
        f"{registry_note}, {journal_note}; Ctrl-C to stop, SIGTERM to drain)",
        file=out,
    )

    # SIGTERM (the orchestrator's "please stop") drains: intake flips to
    # 503, running jobs get --drain-grace seconds to finish and land their
    # KB writes, queued jobs stay journaled for the next start.
    draining = {"requested": False}

    def _on_sigterm(signum, frame):
        draining["requested"] = True
        threading.Thread(
            target=server._httpd.shutdown, name="smartml-sigterm", daemon=True
        ).start()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
        if draining["requested"]:
            print(f"SIGTERM received; draining (grace {args.drain_grace:.0f}s)...", file=out)
            summary = server.jobs.drain(timeout=args.drain_grace)
            server._httpd.server_close()
            server.batcher.shutdown()
            print(
                f"drained: {summary['finished']} job(s) finished, "
                f"{summary['deferred']} deferred to the journal",
                file=out,
            )
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        if not draining["requested"]:
            server._httpd.server_close()
            server.jobs.shutdown()
        kb.close()
    return 0


def cmd_submit(args, out) -> int:
    from repro.api import SmartMLClient
    from repro.data.writers import dataset_to_arff

    dataset = _load_dataset(args)
    client = SmartMLClient(host=args.host, port=args.port)
    upload = client.upload_arff(dataset_to_arff(dataset), name=dataset.name)
    config: dict = json.loads(args.config) if args.config else {}
    config.setdefault("time_budget_s", args.budget)
    config.setdefault("n_algorithms", args.algorithms)
    config.setdefault("seed", args.seed)
    job = client.submit_experiment(
        upload["dataset_id"], config, register_as=args.register_as or None
    )
    registered = f", will register as {args.register_as!r}" if args.register_as else ""
    print(
        f"job {job['job_id']} {job['status']} "
        f"(dataset {upload['dataset_id']}: {dataset.name}{registered})",
        file=out,
    )
    if args.wait:
        result = client.wait_experiment(job["job_id"])
        if args.json:
            print(json.dumps(result, indent=2), file=out)
        else:
            print(
                f"best: {result['best_algorithm']} "
                f"val_acc={result['validation_accuracy']:.4f} "
                f"config={result['best_config']}",
                file=out,
            )
            if result.get("degraded"):
                failures = result.get("failures") or []
                print(
                    f"DEGRADED: {len(failures)} candidate(s) quarantined "
                    "(best-of-survivors result):",
                    file=out,
                )
                for f in failures:
                    print(
                        f"  ! {f.get('algorithm')} [{f.get('phase')}] "
                        f"{f.get('error_type')}: {f.get('message')}",
                        file=out,
                    )
    return 0


def cmd_status(args, out) -> int:
    from repro.api import SmartMLClient

    client = SmartMLClient(host=args.host, port=args.port)
    if args.job is not None:
        print(json.dumps(client.get_experiment(args.job), indent=2), file=out)
        return 0
    jobs = client.list_experiments()["jobs"]
    if not jobs:
        print("no experiment jobs", file=out)
        return 0
    print(
        f"{'job':>4s} {'status':10s} {'dataset':16s} {'phase':22s} {'run_s':>8s} notes",
        file=out,
    )
    for job in jobs:
        phase = job["progress"]["phase"] or "-"
        run_s = f"{job['run_seconds']:.2f}" if job["run_seconds"] is not None else "-"
        notes = ""
        failures = job.get("failures") or []
        if job.get("degraded"):
            notes = f"DEGRADED ({len(failures)} quarantined)"
        elif failures:
            notes = f"{len(failures)} candidate failure(s)"
        print(
            f"{job['job_id']:>4d} {job['status']:10s} {job['dataset_name'][:16]:16s} "
            f"{phase:22s} {run_s:>8s} {notes}",
            file=out,
        )
    return 0


def cmd_models(args, out) -> int:
    from repro.api import SmartMLClient

    client = SmartMLClient(host=args.host, port=args.port)
    if args.delete:
        deleted = client.delete_model(args.delete)
        print(
            f"deleted {deleted['model_id']!r} "
            f"(versions {deleted['deleted_versions']})",
            file=out,
        )
        return 0
    if args.model:
        print(json.dumps(client.get_model(args.model), indent=2), file=out)
        return 0
    models = client.list_models()["models"]
    if not models:
        print("no registered models", file=out)
        return 0
    print(f"{'model':24s} {'ver':>4s} {'algorithm':14s} {'val_acc':>8s} {'d':>4s} {'k':>3s}", file=out)
    for model in models:
        if "error" in model:
            print(f"{model['model_id']:24s} !! {model['error']}", file=out)
            continue
        acc = model.get("validation_accuracy")
        print(
            f"{model['model_id']:24s} {model['version']:>4d} "
            f"{(model.get('algorithm') or '-'):14s} "
            f"{acc:8.4f} {model['n_features']:>4d} {model['n_classes']:>3d}"
            if acc is not None
            else f"{model['model_id']:24s} {model['version']:>4d}",
            file=out,
        )
    return 0


def cmd_kb(args, out) -> int:
    from repro.kb.shards import fsck_store, merge_kb_roots

    if args.kb_command == "fsck":
        report = fsck_store(args.path, repair=args.repair)
        if args.json:
            print(json.dumps(report, indent=2), file=out)
        else:
            _print_fsck_report(report, out)
        return 0 if report.get("healthy") or report.get("repaired") else 1
    if args.kb_command == "merge":
        report = merge_kb_roots(args.dest, args.sources, n_shards=args.shards)
        if args.json:
            print(json.dumps(report, indent=2), file=out)
        else:
            for source in report["sources"]:
                print(
                    f"  {source['root']}: {source['datasets']} dataset(s), "
                    f"{source['runs']} run(s)"
                    + (
                        f", {source['orphan_runs']} orphan run(s) skipped"
                        if source.get("orphan_runs")
                        else ""
                    )
                    + (
                        f", torn final write ({source['torn_bytes_dropped']} "
                        "byte(s)) dropped"
                        if source.get("torn_bytes_dropped")
                        else ""
                    ),
                    file=out,
                )
            print(
                f"merged into {report['dest']}: "
                f"{report['datasets']} unique dataset(s), "
                f"{report['runs']} unique run(s)",
                file=out,
            )
        return 0
    raise SmartMLError(f"unknown kb command {args.kb_command!r}")


def _print_fsck_report(report: dict, out) -> None:
    print(f"{report['root']}: {report['n_shards']} shard(s)", file=out)
    for shard in report["shards"]:
        line = (
            f"  {shard['file']}: {shard['status']:9s} "
            f"{shard['records']:5d} record(s) {shard['bytes_valid']:8d} bytes"
        )
        if shard.get("bytes_dropped"):
            line += f"  ({shard['bytes_dropped']} byte(s) dropped"
            if shard.get("records_lost_vs_manifest"):
                line += f", ~{shard['records_lost_vs_manifest']} record(s) lost"
            line += ")"
        if shard.get("detail"):
            line += f"  -- {shard['detail']}"
        print(line, file=out)
    if report.get("repaired"):
        print("repaired: logs truncated to their valid prefix, manifest rebuilt", file=out)
    elif not report.get("healthy"):
        print("unhealthy: re-run with --repair to salvage the valid prefix", file=out)


def cmd_predict(args, out) -> int:
    from repro.api import SmartMLClient

    try:
        rows = json.loads(args.rows)
    except json.JSONDecodeError as exc:
        raise SmartMLError(f"--rows must be a JSON list of rows: {exc}") from exc
    client = SmartMLClient(host=args.host, port=args.port)
    response = client.predict(
        args.model, rows, proba=args.proba, version=args.version
    )
    if args.json:
        print(json.dumps(response, indent=2), file=out)
    elif args.proba:
        names = response["class_names"]
        for row in response["probabilities"]:
            print(
                "  ".join(f"{name}={p:.4f}" for name, p in zip(names, row)),
                file=out,
            )
    else:
        for code, label in zip(response["predictions"], response["labels"]):
            print(f"{code} ({label})", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SmartML reproduction: automated algorithm selection and tuning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list built-in evaluation datasets")

    p_boot = sub.add_parser("bootstrap", help="bootstrap a knowledge base")
    p_boot.add_argument("--kb", help="knowledge base root directory")
    p_boot.add_argument(
        "--shards", type=int,
        help="shard count when the KB root is created (default 1; "
        "existing roots keep their own)",
    )
    p_boot.add_argument("--n", type=int, default=10, help="corpus datasets (default 10)")
    p_boot.add_argument("--configs", type=int, default=2, help="probes per algorithm")
    p_boot.add_argument("--max-instances", type=int, default=200, dest="max_instances")
    p_boot.add_argument("--seed", type=int, default=7)
    p_boot.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="run the full pipeline on a dataset")
    p_run.add_argument("--dataset", required=True, help="registry key or csv/arff path")
    p_run.add_argument("--target", help="target column name (files only)")
    p_run.add_argument("--kb", help="knowledge base root directory")
    p_run.add_argument("--budget", type=float, default=10.0, help="seconds of tuning")
    p_run.add_argument("--algorithms", type=int, default=3, help="candidates to tune")
    p_run.add_argument("--preprocess", nargs="*", help="Table-2 operator names")
    p_run.add_argument("--ensemble", action="store_true")
    p_run.add_argument("--interpret", action="store_true")
    p_run.add_argument("--no-update", action="store_true", help="do not write to the KB")
    p_run.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="parallel candidate evaluations (default 1)",
    )
    p_run.add_argument(
        "--backend", choices=["serial", "thread", "process"], default="thread",
        help="execution backend for candidate evaluation (default thread)",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--register-as", dest="register_as",
        help="persist the winning pipeline in the model registry under this id",
    )
    p_run.add_argument(
        "--registry", help="model registry directory (required with --register-as)"
    )

    p_val = sub.add_parser(
        "validate", help="pre-flight lint a dataset against pipeline requirements"
    )
    p_val.add_argument("--dataset", required=True, help="registry key or csv/arff path")
    p_val.add_argument("--target", help="target column name (files only)")
    p_val.add_argument(
        "--folds", type=int, default=3,
        help="cross-validation folds the experiment would use (default 3)",
    )
    p_val.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_nom = sub.add_parser("nominate", help="algorithm selection only")
    p_nom.add_argument("--dataset", required=True)
    p_nom.add_argument("--target")
    p_nom.add_argument("--kb", help="knowledge base root directory")
    p_nom.add_argument("--algorithms", type=int, default=3)

    p_kb = sub.add_parser("kb", help="knowledge-base maintenance (fsck, merge)")
    kb_sub = p_kb.add_subparsers(dest="kb_command", required=True)
    p_fsck = kb_sub.add_parser(
        "fsck", help="verify every frame CRC of a KB store; optionally repair"
    )
    p_fsck.add_argument("path", help="knowledge base root directory")
    p_fsck.add_argument(
        "--repair", action="store_true",
        help="truncate damaged shards to their valid prefix, drop unusable "
        "snapshots, and rebuild the manifest (reports what was dropped)",
    )
    p_fsck.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_merge = kb_sub.add_parser(
        "merge", help="deterministically union run histories from other KB roots"
    )
    p_merge.add_argument("dest", help="destination KB root (created if missing)")
    p_merge.add_argument(
        "sources", nargs="+",
        help="source KB roots (or legacy JSON-lines logs to convert) to union in",
    )
    p_merge.add_argument(
        "--shards", type=int,
        help="shard count when creating a new destination (default 1)",
    )
    p_merge.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_serve = sub.add_parser("serve", help="start the REST server")
    p_serve.add_argument("--kb", help="knowledge base root directory")
    p_serve.add_argument(
        "--shards", type=int,
        help="shard count when the KB root is created (default 1)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="background experiment workers draining the job queue (default 1)",
    )
    p_serve.add_argument(
        "--backend", choices=["serial", "thread", "process"], default="thread",
        help="default execution backend for submitted experiments (default thread)",
    )
    p_serve.add_argument(
        "--registry",
        help="model registry directory (omit for an in-memory registry)",
    )
    p_serve.add_argument(
        "--journal",
        help="job-journal file: submitted jobs survive a crash and are "
        "replayed on the next start with the same path (omit for volatile jobs)",
    )
    p_serve.add_argument(
        "--max-queue", dest="max_queue", type=int,
        help="bound on queued jobs; a full queue returns HTTP 429 with "
        "Retry-After (omit for unbounded intake)",
    )
    p_serve.add_argument(
        "--job-timeout", dest="job_timeout", type=float,
        help="default per-job wall-clock timeout in seconds; requests may "
        "override with their own timeout_s (omit for no limit)",
    )
    p_serve.add_argument(
        "--max-retries", dest="max_retries", type=int, default=2,
        help="automatic re-runs for jobs killed by infrastructure faults "
        "(default 2; 0 disables)",
    )
    p_serve.add_argument(
        "--drain-grace", dest="drain_grace", type=float, default=30.0,
        help="seconds SIGTERM draining waits for running jobs before exiting "
        "(queued jobs stay journaled; default 30)",
    )

    p_submit = sub.add_parser("submit", help="submit an experiment job to a server")
    p_submit.add_argument("--dataset", required=True, help="registry key or csv/arff path")
    p_submit.add_argument("--target", help="target column name (files only)")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8080)
    p_submit.add_argument("--budget", type=float, default=10.0, help="seconds of tuning")
    p_submit.add_argument("--algorithms", type=int, default=3, help="candidates to tune")
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--config", help="extra config as a JSON object (overrides flags)")
    p_submit.add_argument("--wait", action="store_true", help="poll until the job finishes")
    p_submit.add_argument("--json", action="store_true", help="with --wait: emit result JSON")
    p_submit.add_argument(
        "--register-as", dest="register_as",
        help="register the winning pipeline in the server's model registry",
    )

    p_status = sub.add_parser("status", help="show a server's experiment jobs")
    p_status.add_argument("--host", default="127.0.0.1")
    p_status.add_argument("--port", type=int, default=8080)
    p_status.add_argument("--job", type=int, help="show this job in full (JSON)")

    p_models = sub.add_parser("models", help="list/inspect/delete registered models")
    p_models.add_argument("--host", default="127.0.0.1")
    p_models.add_argument("--port", type=int, default=8080)
    p_models.add_argument("--model", help="show this model in full (JSON)")
    p_models.add_argument("--delete", help="delete this model (all versions)")

    p_predict = sub.add_parser("predict", help="predict rows through a registered model")
    p_predict.add_argument("--model", required=True, help="registered model id")
    p_predict.add_argument(
        "--rows", required=True,
        help="JSON list of feature rows, e.g. '[[5.1, 3.5, 1.4, 0.2]]'",
    )
    p_predict.add_argument("--host", default="127.0.0.1")
    p_predict.add_argument("--port", type=int, default=8080)
    p_predict.add_argument("--version", type=int, help="pin a model version")
    p_predict.add_argument("--proba", action="store_true", help="class probabilities")
    p_predict.add_argument("--json", action="store_true", help="emit the raw response")

    return parser


COMMANDS = {
    "datasets": cmd_datasets,
    "bootstrap": cmd_bootstrap,
    "run": cmd_run,
    "validate": cmd_validate,
    "nominate": cmd_nominate,
    "kb": cmd_kb,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "models": cmd_models,
    "predict": cmd_predict,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except SmartMLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
