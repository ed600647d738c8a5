"""One round of a benchmark workload, in a fresh interpreter.

run.py starts this script once per round. It imports the program from
the checkout's `src`, builds the workload's configuration and prints
`ready`: that line marks the end of set-up. It then runs the timed
stages through the same library calls the CLI makes, optionally under the
layer tracer, runs the output checks when asked to, and prints one JSON
line with the round's figures.

    python3 bench/worker.py --workload desk --seed 0 --dir .bench_out/x
"""

import os

# The machine is small and shared: one BLAS thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

WORKLOADS = ("desk", "grid", "eval-heavy")

# How many times each stage runs in one round. The shared machine flips
# between a fast state and one about 1.7 times slower, for a second or for
# a minute, so a stage timed over one second says little; repeating it
# until each metric is timed over 7-10 seconds a run, and taking the
# median, keeps a run on the state it spent most of its time in. The desk's
# 12-second training runs once; the grid's ablation runs once a round, and
# its rounds repeat instead.
REPEATS = {
    "desk": {"gen_data": 4, "read": 4, "train": 1, "checkpoint": 4, "eval": 9},
    "grid": {"gen_data": 4, "read": 4, "checkpoint": 4},
    "eval-heavy": {"gen_data": 3, "read": 3, "train": 10, "checkpoint": 3,
                   "eval": 3},
}
# library calls counted as operations in one execution of each stage
OPS_PER_STAGE = {"gen_data": 3, "read": 1, "train": 1, "checkpoint": 2, "eval": 5}
GRID_ROWS = 11


def planned_ops(workload: str) -> int:
    """Operations a round attempts, so that a round that stops early still
    reports the same number attempted."""
    ops = sum(OPS_PER_STAGE[stage] * n for stage, n in REPEATS[workload].items())
    return ops + (GRID_ROWS if workload == "grid" else 0)


def workload_config(workload: str, corpus_seed: int, train_seed: int) -> dict:
    """The JSON config of a workload; everything unnamed is the default."""
    if workload == "desk":
        # the README's default experiment: 2000 documents, LSE+NL, 600 steps
        return {"corpus": {"seed": corpus_seed}, "train": {"seed": train_seed}}
    if workload == "grid":
        # all eleven aggregator rows, 390 training documents, 48 steps a row
        return {"corpus": {"documents": 600, "seed": corpus_seed},
                "train": {"warmup_steps": 10, "seed": train_seed},
                "ablation": {"seeds": [train_seed], "epochs": 4}}
    # eval-heavy: 140 local-only steps on 450 documents, then every eval
    # task on the 2550 held-out ones
    return {"corpus": {"documents": 3000, "train_fraction": 0.15,
                       "seed": corpus_seed},
            "train": {"local_agg": {"kind": "LSE", "gamma": 0.1},
                      "global_agg": None, "epochs": 10, "warmup_steps": 10,
                      "seed": train_seed},
            "eval": {"zero_shot_documents": 3000, "retrieval_cases": 3000}}


class StageFailed(Exception):
    pass


class Round:
    """Timed stages and counted operations of one round."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.stage_s = {}  # stage name -> seconds of each execution
        self.done = 0

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(f"stage.{name}"):
                yield
        self.stage_s.setdefault(name, []).append(time.perf_counter() - start)

    def op(self, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(getattr(fn, "__name__", repr(fn))) from exc
        self.done += 1
        return result


class TrainRecorder:
    """Times each `train` call the grid makes and keeps its result."""

    def __init__(self, train):
        self.train = train
        self.seconds = 0.0
        self.results = []

    def __call__(self, docs, config, *args, **kwargs):
        start = time.perf_counter()
        result = self.train(docs, config, *args, **kwargs)
        self.seconds += time.perf_counter() - start
        self.results.append(result)
        return result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="round output directory")
    p.add_argument("--trace-out", default=None,
                   help="trace this round and write its spans to this file")
    p.add_argument("--check", action="store_true", help="run the output checks")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "milalign" / "__init__.py").is_file():
        print(f"error: no milalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import milalign
    import milalign.cli  # noqa: F401  (what the command-line user imports)
    from milalign import (autodiff, evaluation, jsonio, objective, scoring,
                          synthgen, trainer)
    import_s = time.perf_counter() - start
    if Path(milalign.__file__).resolve().parent != (SRC / "milalign").resolve():
        print(f"error: milalign was imported from {milalign.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    from milalign.config import experiment_from_dict

    corpus_seed, train_seed = (int(x) for x in
                               np.random.SeedSequence(args.seed).generate_state(2))
    config = experiment_from_dict(
        workload_config(args.workload, corpus_seed, train_seed))
    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rnd = Round(None)
    recorder = TrainRecorder(evaluation.train)
    evaluation.train = recorder
    if args.trace_out:
        import layers
        rnd.tracer = layers.Tracer()
        rnd.tracer.install({"autodiff": autodiff, "evaluation": evaluation,
                            "jsonio": jsonio, "objective": objective,
                            "scoring": scoring, "synthgen": synthgen,
                            "trainer": trainer})
    out = {"attempted": planned_ops(args.workload), "import_s": import_s}
    try:
        state = run_stages(args.workload, config, workdir, rnd, recorder)
    except StageFailed as exc:
        print(f"error: operation {exc} failed", file=sys.stderr)
        out.update(failed=planned_ops(args.workload) - rnd.done, stage_s=None)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        if rnd.tracer is not None:
            rnd.tracer.restore()
        evaluation.train = recorder.train
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(failed=state["failed"], counts=state["counts"], digest=state["digest"],
               stage_s={k: statistics.median(v) for k, v in rnd.stage_s.items()})
    if rnd.tracer is not None:
        layer = rnd.tracer.summary(state["counts"]["grounding_cases"])
        layer["import_s"] = import_s
        layer["synthgen.corpus_mb"] = state["corpus_bytes"] / 2 ** 20
        out["layers"] = layer
        rnd.tracer.write(args.trace_out)
    if args.check:
        import verify
        out["problems"] = verify.run_checks(args.workload, config, state)
    print(json.dumps(out), flush=True)
    return 0


def run_stages(workload, config, workdir, rnd, recorder) -> dict:
    """The timed stages; library calls are looked up on their modules at
    call time, so a traced round goes through the tracer's wrappers."""
    from milalign import evaluation, synthgen, trainer

    repeats = REPEATS[workload]
    corpus_path = workdir / "corpus.jsonl"
    for _ in range(repeats["gen_data"]):
        with rnd.stage("gen_data"):
            corpus = rnd.op(synthgen.generate_corpus, config.corpus)
            rnd.op(synthgen.write_corpus, corpus_path, corpus, config.fingerprint)
            rnd.op(synthgen.write_prompts, workdir / "prompts.json", corpus.bank,
                   config.fingerprint)
    for _ in range(repeats["read"]):
        with rnd.stage("read"):
            read = rnd.op(synthgen.read_corpus, corpus_path)
            train_part, test_part = synthgen.split_corpus(
                read, config.corpus.train_fraction, config.corpus.seed)
            train_docs, test_docs = train_part.documents, test_part.documents
    state = {"corpus": corpus, "read": read, "train_docs": train_docs,
             "test_docs": test_docs, "corpus_bytes": corpus_path.stat().st_size,
             "failed": 0}
    checkpoint_path = workdir / "checkpoint.json"
    if workload == "grid":
        return _grid_stages(config, workdir, rnd, recorder, state)

    for _ in range(repeats["train"]):
        with rnd.stage("train"):
            result = rnd.op(trainer.train, train_docs, config.train)
    for _ in range(repeats["checkpoint"]):
        with rnd.stage("checkpoint"):
            rnd.op(trainer.save_result, checkpoint_path, result, config.fingerprint)
            trainer.write_training_log(workdir / "train_log.csv", result.log_rows,
                                       config.fingerprint)
            checkpoint = rnd.op(trainer.load_checkpoint, checkpoint_path)
    for _ in range(repeats["eval"]):
        with rnd.stage("eval"):
            outputs = _eval_stage(config, rnd, checkpoint, read.bank, train_docs,
                                  test_docs, workdir / "eval_report.csv")
    state.update(outputs, result=result, checkpoint=checkpoint)
    state["counts"] = {
        "documents": len(corpus.documents),
        "samples": result.step * config.train.batch_size,
        "eval_cases": (len(state["singles"]) + len(state["probe_test"])
                       + len(state["grounding_cases"])
                       + len(state["retrieval_cases"])),
        "grounding_cases": len(state["grounding_cases"])}
    state["digest"] = _digest(checkpoint_path,
                              (workdir / "eval_report.csv").read_text())
    return state


def _eval_stage(config, rnd, checkpoint, bank, train_docs, test_docs,
                report_path) -> dict:
    """The four eval tasks and the report, as `milalign eval` runs them."""
    from milalign import evaluation, synthgen
    from milalign.aggregators import LocalAggregatorSpec
    from milalign.encoders import unflatten_params

    options = config.eval_options
    params = unflatten_params(checkpoint.config.model, checkpoint.params_flat)
    singles = evaluation.single_concept_documents(test_docs)
    singles = singles[:options.zero_shot_documents]
    local_agg = config.train.local_agg or LocalAggregatorSpec(kind="Max")
    zs = rnd.op(evaluation.zero_shot_classify, params, local_agg,
                synthgen.prompt_bank(bank), singles)
    probe_train = evaluation.single_concept_documents(train_docs)
    probe_test = evaluation.single_concept_documents(test_docs)
    probe = rnd.op(_probe, evaluation, params, probe_train, probe_test)
    cases = evaluation.grounding_cases(test_docs)
    grounding = rnd.op(evaluation.evaluate_grounding, params, cases)
    r_cases = evaluation.retrieval_cases(test_docs, options.retrieval_cases)
    retrieval = rnd.op(evaluation.retrieval_eval, params, r_cases)
    rows = [
        ("zero_shot", "top1_accuracy", zs.accuracy),
        ("linear_probe", "accuracy", probe.accuracy),
        ("linear_probe", "macro_auc", probe.auc),
        ("grounding", "mean_cnr", grounding.mean_cnr),
        ("grounding", "mean_miou", grounding.mean_miou),
        ("grounding", "hit_rate", grounding.hit_rate),
        ("retrieval", "medr_box_to_sentence", retrieval.box_to_sentence_medr),
        ("retrieval", "medr_sentence_to_box", retrieval.sentence_to_box_medr),
    ]
    rnd.op(evaluation.write_report_csv, report_path, rows, config.fingerprint,
           config.train.seed)
    return {"singles": singles, "zs": zs, "probe_train": probe_train,
            "probe_test": probe_test, "probe": probe, "grounding_cases": cases,
            "grounding": grounding, "retrieval_cases": r_cases,
            "retrieval": retrieval}


def _grid_stages(config, workdir, rnd, recorder, state) -> dict:
    """One-seed ablation over the eleven default_grid() rows, as `milalign
    ablate` runs it; the rows' training time is split out of the stage."""
    from milalign import evaluation, trainer

    options = config.eval_options
    with rnd.stage("ablate"):
        rows = rnd.op(evaluation.ablation_grid, state["train_docs"],
                      state["test_docs"], evaluation.default_grid(),
                      _grid_base(config), config.ablation.seeds[0],
                      retrieval_limit=options.retrieval_cases)
    rnd.done += len(rows) - 1  # one operation per grid row
    ablate_s = rnd.stage_s.pop("ablate")[0]
    rnd.stage_s["train"] = [recorder.seconds]
    rnd.stage_s["eval"] = [ablate_s - recorder.seconds]
    results = recorder.results
    checkpoint_path = workdir / "checkpoint.json"
    for _ in range(REPEATS["grid"]["checkpoint"]):
        with rnd.stage("checkpoint"):
            rnd.op(trainer.save_result, checkpoint_path, results[-1],
                   config.fingerprint)
            checkpoint = rnd.op(trainer.load_checkpoint, checkpoint_path)
    test_docs = state["test_docs"]
    singles = evaluation.single_concept_documents(test_docs)
    cases = len(evaluation.grounding_cases(test_docs))
    retrieval = len(evaluation.retrieval_cases(test_docs, options.retrieval_cases))
    trained = sum(1 for r in rows if r.trained)
    report = "\n".join(f"{r.name} {r.trained} {r.probe_auc!r} {r.mean_cnr!r} "
                       f"{r.retrieval_medr!r}" for r in rows)
    state.update(rows=rows, results=results, checkpoint=checkpoint,
                 result=results[-1], failed=len(rows) - trained)
    state["counts"] = {
        "documents": len(state["corpus"].documents),
        "samples": sum(r.step * r.config.batch_size for r in results),
        "eval_cases": trained * (len(singles) + cases + retrieval),
        "grounding_cases": trained * cases}
    state["digest"] = _digest(checkpoint_path, report)
    return state


def _grid_base(config):
    import dataclasses
    base = config.train
    if config.ablation.epochs is not None:
        base = dataclasses.replace(base, epochs=config.ablation.epochs)
    return base


def _probe(evaluation, params, probe_train, probe_test):
    return evaluation.linear_probe(
        evaluation.pooled_image_features(params, probe_train),
        [evaluation.document_label(d) for d in probe_train],
        evaluation.pooled_image_features(params, probe_test),
        [evaluation.document_label(d) for d in probe_test])


def _digest(checkpoint_path, report: str) -> str:
    h = hashlib.sha256(Path(checkpoint_path).read_bytes())
    h.update(report.encode("utf-8"))
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
