"""Command-line interface wiring configs to the pipeline stages.

Commands: gen-data, train, eval, gradcheck, ablate, report. Every output
file embeds the config fingerprint so any result can be traced back to
the exact configuration that produced it. Exit codes: 0 success, 1
validation problem (bad flags, bad config, incompatible inputs), 2
runtime failure (diverged training, unexpected errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import evaluation, gradcheck, jsonio, synthgen, trainer
from .aggregators import LocalAggregatorSpec
from .autodiff import ContractError
from .config import ExperimentConfig, parse_config
from .encoders import unflatten_params
from .trainer import NonFiniteLossError

EVAL_TASKS = ("zs", "probe", "grounding", "retrieval")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _load_split(config: ExperimentConfig, corpus_path: str):
    corpus = synthgen.read_corpus(corpus_path)
    train_part, test_part = synthgen.split_corpus(
        corpus, config.corpus.train_fraction, config.corpus.seed)
    return corpus, train_part.documents, test_part.documents


def cmd_gen_data(args) -> int:
    config = parse_config(args.config)
    corpus = synthgen.generate_corpus(config.corpus)
    _ensure_dir(args.out)
    corpus_path = os.path.join(args.out, "corpus.jsonl")
    prompts_path = os.path.join(args.out, "prompts.json")
    synthgen.write_corpus(corpus_path, corpus, config.fingerprint)
    synthgen.write_prompts(prompts_path, corpus.bank, config.fingerprint)
    print(f"wrote {len(corpus.documents)} documents to {corpus_path}")
    print(f"wrote {corpus.bank.concepts} prompts to {prompts_path}")
    return 0


def _check_schedule(train: trainer.TrainConfig, train_docs,
                    epochs_key: str) -> None:
    """Refuse, before any work, a schedule whose steps cannot leave the
    warmup; training would otherwise stop inside its first step."""
    batches = len(train_docs) // train.batch_size
    steps = train.epochs * batches
    if 0 < steps <= train.warmup_steps:
        raise ContractError(
            f"{epochs_key}={train.epochs} at {batches} batches per epoch "
            f"gives {steps} training steps, which must exceed "
            f"train.warmup_steps={train.warmup_steps}")


def cmd_train(args) -> int:
    config = parse_config(args.config)
    _, train_docs, _ = _load_split(config, args.corpus)
    _check_schedule(config.train, train_docs, "train.epochs")
    resume = trainer.load_checkpoint(args.resume) if args.resume else None
    result = trainer.train(train_docs, config.train, resume=resume)
    _ensure_dir(args.out)
    checkpoint_path = os.path.join(args.out, "checkpoint.json")
    log_path = os.path.join(args.out, "train_log.csv")
    trainer.save_result(checkpoint_path, result, config.fingerprint)
    trainer.write_training_log(log_path, result.log_rows, config.fingerprint)
    if result.log_rows:
        last = result.log_rows[-1]
        print(f"trained {len(result.log_rows)} steps "
              f"(through step {result.step} of {result.total_steps}); "
              f"final loss {last[2]:.6f}, gamma {last[3]:.4f}")
    else:
        print("no steps to run; wrote the initialized checkpoint")
    print(f"wrote {checkpoint_path}")
    return 0


def _parse_tasks(raw: str) -> list:
    tasks = [t.strip() for t in raw.split(",") if t.strip()]
    for t in tasks:
        if t not in EVAL_TASKS:
            raise ContractError(f"unknown eval task {t!r}; expected one of "
                                f"{', '.join(EVAL_TASKS)}")
    if not tasks:
        raise ContractError("no eval tasks selected")
    return tasks


def cmd_eval(args) -> int:
    config = parse_config(args.config)
    checkpoint = trainer.load_checkpoint(args.checkpoint)
    own = jsonio.fingerprint(config.train.to_dict())
    theirs = jsonio.fingerprint(checkpoint.config.to_dict())
    if own != theirs:
        raise ContractError("checkpoint was trained under a different "
                            "configuration than --config")
    corpus, train_docs, test_docs = _load_split(config, args.corpus)
    params = unflatten_params(checkpoint.config.model, checkpoint.params_flat)
    tasks = _parse_tasks(args.tasks)
    options = config.eval_options
    rows = []

    if "zs" in tasks:
        singles = evaluation.single_concept_documents(test_docs)
        singles = singles[:options.zero_shot_documents]
        local_agg = config.train.local_agg or LocalAggregatorSpec(kind="Max")
        prompts = synthgen.prompt_bank(corpus.bank)
        zs = evaluation.zero_shot_classify(params, local_agg, prompts, singles)
        rows.append(("zero_shot", "top1_accuracy", zs.accuracy))
        rows.append(("zero_shot", "document_count", float(len(singles))))

    if "probe" in tasks:
        probe = evaluation.probe_eval(params, train_docs, test_docs)
        rows.append(("linear_probe", "accuracy", probe.accuracy))
        rows.append(("linear_probe", "macro_auc", probe.auc))

    if "grounding" in tasks:
        cases = evaluation.grounding_cases(test_docs)
        summary = evaluation.evaluate_grounding(params, cases)
        # the summary's scalar fields, in field order
        rows += [("grounding", f.name, getattr(summary, f.name))
                 for f in dataclasses.fields(summary)
                 if not f.name.startswith("per_case_")]
        rows.append(("grounding", "case_count", float(len(cases))))
        if options.export_score_maps:
            _ensure_dir(args.out)
            maps_path = os.path.join(args.out, "score_maps.json")
            evaluation.export_score_maps(maps_path, params, cases)
            print(f"wrote {maps_path}")

    if "retrieval" in tasks:
        cases = evaluation.retrieval_cases(test_docs, options.retrieval_cases)
        result = evaluation.retrieval_eval(params, cases)
        rows.append(("retrieval", "case_count", float(result.count)))
        rows.append(("retrieval", "medr_box_to_sentence",
                     result.box_to_sentence_medr))
        rows.append(("retrieval", "medr_sentence_to_box",
                     result.sentence_to_box_medr))
        for k in result.k_values:
            rows.append(("retrieval", f"recall_at_{k}_box_to_sentence",
                         result.box_to_sentence_recall[k]))
            rows.append(("retrieval", f"recall_at_{k}_sentence_to_box",
                         result.sentence_to_box_recall[k]))

    _ensure_dir(args.out)
    report_path = os.path.join(args.out, "eval_report.csv")
    evaluation.write_report_csv(report_path, rows, config.fingerprint,
                                config.train.seed)
    for task, metric, value in rows:
        print(f"{task:12s} {metric:32s} {value:.6f}")
    print(f"wrote {report_path}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(step=args.step, tolerance=args.tolerance,
                                  instances=args.instances)
    failed = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:28s} max rel err {r.max_relative_error:.3e}  {status}")
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} of {len(results)} operations failed the gradient check")
        return 2
    print(f"all {len(results)} operations passed at tolerance {args.tolerance}")
    return 0


def _parse_seeds(raw: str) -> list:
    try:
        seeds = [int(s) for s in raw.split(",") if s.strip()]
    except ValueError as exc:
        raise ContractError(f"--seeds must be comma-separated integers: {exc}")
    if not seeds:
        raise ContractError("--seeds must name at least one seed")
    return seeds


def cmd_ablate(args) -> int:
    config = parse_config(args.config)
    _, train_docs, test_docs = _load_split(config, args.corpus)
    seeds = _parse_seeds(args.seeds) if args.seeds else \
        list(config.ablation.seeds)
    base = config.train
    epochs_key = "train.epochs"
    if config.ablation.epochs is not None:
        base = dataclasses.replace(base, epochs=config.ablation.epochs)
        epochs_key = "ablation.epochs"
    _check_schedule(base, train_docs, epochs_key)
    grid = evaluation.default_grid()
    _ensure_dir(args.out)
    for seed in seeds:
        rows = evaluation.ablation_grid(
            train_docs, test_docs, grid, base, seed,
            retrieval_limit=config.eval_options.retrieval_cases)
        raw_path = os.path.join(args.out, f"ablation_seed{seed}.csv")
        norm_path = os.path.join(args.out,
                                 f"ablation_seed{seed}_normalized.csv")
        evaluation.write_ablation_csvs(raw_path, norm_path, rows,
                                       config.fingerprint, seed)
        done = sum(1 for r in rows if r.trained)
        print(f"seed {seed}: {done}/{len(rows)} configurations trained; "
              f"wrote {raw_path}")
    return 0


def cmd_report(args) -> int:
    directory = args.in_dir
    if not os.path.isdir(directory):
        raise ContractError(f"not a directory: {directory}")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".csv"))
    if not names:
        raise ContractError(f"no CSV reports found in {directory}")
    for name in names:
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        print(f"== {name} ==")
        for comment in comments:
            print(comment)
        if rows:
            widths = [max(len(r[i]) if i < len(r) else 0 for r in rows)
                      for i in range(max(len(r) for r in rows))]
            for r in rows:
                cells = [c.ljust(widths[i]) for i, c in enumerate(r)]
                print("  ".join(cells).rstrip())
        print()
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="milalign",
                     description="Permutation-invariant image-document "
                                 "scoring: data, training, evaluation.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a corpus file")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue from")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--tasks", default=",".join(EVAL_TASKS))
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and compare aggregator grid")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seeds", default=None, help="comma-separated, e.g. 0,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("report", help="render CSV reports as text")
    p.add_argument("--in", dest="in_dir", required=True)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            print("error: a command is required", file=sys.stderr)
            return 1
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteLossError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
