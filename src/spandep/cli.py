"""Command-line front end.

Subcommands cover the full workflow: ``train`` fits a parser on frame and
dependency corpora, ``pretrain-pruner`` fits the candidate filters,
``predict`` re-annotates a corpus with a saved model (optionally an
ensemble), ``evaluate`` prints task metrics, ``oracle-check`` compares the
decoder against exhaustive enumeration on random instances, and
``export-analysis`` writes the error-breakdown and argument-length CSVs.

Exit codes: 0 on success, 1 on a validation problem (bad flags, unreadable
or malformed inputs), 2 on an unexpected internal error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import fields, replace

import numpy as np

from .evaluation import (
    error_breakdown,
    eval_frames,
    eval_sdp,
    length_binned_pr,
    write_error_breakdown_csv,
    write_length_bins_csv,
)
from .formats import (
    load_embeddings,
    load_model,
    read_frames,
    read_ontology,
    read_sdp,
    save_model,
    write_frames,
    write_sdp,
)
from .inference.decode import decode
from .inference.exhaustive import exhaustive_joint_map
from .model import ModelConfig, ParserModel
from .parts import SpandepError
from .pruning import pretrain_arc_pruner, pretrain_span_pruner, save_pruner
from .synthetic import random_joint_instance
from .training import (
    TrainConfig,
    dependency_predictions,
    frame_predictions,
    train,
)


class _UsageError(SpandepError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems through the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# train takes one flag per TrainConfig field, named after it except here;
# the field's default is the flag's default
_TRAIN_FLAGS = {"max_epochs": "epochs", "l1_weight": "lambda"}
_TRAIN_HELP = {"l1_weight": "cross-task score sparsity weight"}
# pretrain-pruner's fitting flags default to the pretraining functions'
# keywords, which both functions share
_PRETRAIN = inspect.signature(pretrain_span_pruner).parameters


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spandep", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[], help="fit a parser")
    p.add_argument("--fn-train", help="frame-annotated training corpus")
    p.add_argument("--fn-exemplar", help="secondary frame corpus, resampled "
                                         "each epoch")
    p.add_argument("--fn-dev", help="frame dev corpus (early stopping)")
    p.add_argument("--dm-train", help="dependency training corpus")
    p.add_argument("--dm-dev", help="dependency dev corpus")
    p.add_argument("--ontology", required=True, help="frame/role definitions")
    p.add_argument("--embeddings", help="pretrained word vectors")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="per-epoch TSV metric log")
    for f in fields(TrainConfig):
        flag = _TRAIN_FLAGS.get(f.name, f.name.replace("_", "-"))
        p.add_argument("--" + flag, dest=f.name, type=type(f.default),
                       default=f.default, help=_TRAIN_HELP.get(f.name))
    p.add_argument("--no-cross-task", action="store_true")
    p.add_argument("--no-joint", action="store_true",
                   help="frames-only candidate spaces for frame instances, "
                        "at train and at predict")
    p.add_argument("--word-dropout", type=float,
                   default=ModelConfig.word_dropout)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pretrain-pruner", help="fit a candidate filter")
    p.add_argument("--kind", choices=("span", "arc"), required=True)
    p.add_argument("--train", required=True, help="frame corpus for span, "
                                                  "dependency corpus for arc")
    p.add_argument("--ontology", help="required for the span kind")
    p.add_argument("--out", required=True)
    for name in ("epochs", "lr", "seed"):
        default = _PRETRAIN[name].default
        p.add_argument("--" + name, type=type(default), default=default)
    p.add_argument("--max-span-len", type=int,
                   default=ModelConfig.max_span_len,
                   help="span cap, saved in the pruner checkpoint")
    p.set_defaults(func=cmd_pretrain_pruner)

    p = sub.add_parser("predict", help="annotate a corpus with a saved model")
    p.add_argument("--model", help="model checkpoint")
    p.add_argument("--ensemble", help="comma-separated checkpoints whose "
                                      "part scores are averaged")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("fn", "sdp"), required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--task", choices=("fn", "sdp"), required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--ontology", help="required for the fn task")
    p.add_argument("--exclude-top", action="store_true",
                   help="sdp only: ignore virtual-root top arcs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle-check",
                       help="decoder vs exhaustive enumeration on random "
                            "instances")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("export-analysis",
                       help="write error-breakdown / argument-length CSVs")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--ontology", required=True)
    p.add_argument("--error-breakdown", help="output CSV path")
    p.add_argument("--length-bins", help="output CSV path")
    p.set_defaults(func=cmd_export_analysis)

    return parser


def _dep_labels(sentences) -> tuple:
    labels = {lab for s in sentences for (_, _, lab) in s.supervision.arcs}
    return tuple(sorted(labels))


def cmd_train(args) -> int:
    ontology = read_ontology(args.ontology)
    fn_train = read_frames(args.fn_train, ontology) if args.fn_train else []
    fn_ex = read_frames(args.fn_exemplar, ontology) if args.fn_exemplar else []
    fn_dev = read_frames(args.fn_dev, ontology) if args.fn_dev else []
    dm_train = read_sdp(args.dm_train) if args.dm_train else []
    dm_dev = read_sdp(args.dm_dev) if args.dm_dev else []
    if not fn_train and not dm_train:
        raise SpandepError("need --fn-train or --dm-train")
    pretrained = load_embeddings(args.embeddings) if args.embeddings else None

    config = TrainConfig(**{f.name: getattr(args, f.name)
                            for f in fields(TrainConfig)})
    model_config = ModelConfig(word_dropout=args.word_dropout,
                               joint=not args.no_joint,
                               include_cross_task=not args.no_cross_task)
    model = ParserModel.build(
        model_config, ontology, _dep_labels(dm_train),
        list(fn_train) + list(fn_ex) + list(dm_train),
        np.random.default_rng(args.seed), pretrained_words=pretrained)
    result = train(model, fn_train, dm_train, fn_exemplar=fn_ex,
                   fn_dev=fn_dev, dm_dev=dm_dev, config=config,
                   log_path=args.log)
    save_model(model, args.out)
    print(f"trained {len(result.history)} epochs, "
          f"best epoch {result.best_epoch} "
          f"(dev FN F1 {result.best_dev_fn_f1:.4f})")
    print(f"saved model to {args.out}")
    return 0


def cmd_pretrain_pruner(args) -> int:
    model_config = replace(ModelConfig.pruner_sized(),
                           max_span_len=args.max_span_len)
    fit = dict(epochs=args.epochs, lr=args.lr, seed=args.seed,
               model_config=model_config)
    if args.kind == "span":
        if not args.ontology:
            raise _UsageError("the span kind requires --ontology")
        ontology = read_ontology(args.ontology)
        corpus = read_frames(args.train, ontology)
        pruner = pretrain_span_pruner(corpus, ontology=ontology, **fit)
    else:
        pruner = pretrain_arc_pruner(read_sdp(args.train), **fit)
    save_pruner(pruner, args.out)
    print(f"saved {args.kind} pruner to {args.out}")
    return 0


def _load_members(args):
    if bool(args.model) == bool(args.ensemble):
        raise _UsageError("give exactly one of --model or --ensemble")
    paths = [args.model] if args.model else [
        p for p in args.ensemble.split(",") if p]
    if not paths:
        raise _UsageError("empty --ensemble list")
    return [load_model(p) for p in paths]


def cmd_predict(args) -> int:
    members = _load_members(args)
    if args.format == "fn":
        sentences = read_frames(args.input, members[0].ontology)
        pred, uncertified = frame_predictions(members, sentences)
        decodes = sum(len(s.supervision.parses) for s in sentences)
        write_frames(pred, args.output)
    else:
        sentences = read_sdp(args.input)
        pred, uncertified = dependency_predictions(members, sentences)
        decodes = len(sentences)
        write_sdp(pred, args.output)
    print(f"wrote {len(sentences)} sentences to {args.output}")
    print(f"{uncertified} of {decodes} decodes not certified exact",
          file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    if args.task == "fn":
        if not args.ontology:
            raise _UsageError("the fn task requires --ontology")
        ontology = read_ontology(args.ontology)
        gold = read_frames(args.gold, ontology)
        pred = read_frames(args.pred, ontology)
        res = eval_frames(gold, pred, ontology)
        print(f"precision {res.precision:.3f}")
        print(f"recall {res.recall:.3f}")
        print(f"F1 {res.f1:.3f}")
        print(f"frame_accuracy {res.frame_accuracy:.3f}")
        print(f"ambiguous_frame_accuracy {res.ambiguous_frame_accuracy:.3f} "
              f"({res.n_ambiguous_targets} targets)")
    else:
        gold = read_sdp(args.gold)
        pred = read_sdp(args.pred)
        res = eval_sdp(gold, pred, include_top=not args.exclude_top)
        print(f"precision {res.precision:.3f}")
        print(f"recall {res.recall:.3f}")
        print(f"F1 {res.f1:.3f}")
    return 0


def cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    max_gap = 0.0
    exact = no_iterations = 0
    for _ in range(args.n):
        space = random_joint_instance(rng)
        got = decode(space)
        _, want = exhaustive_joint_map(space)
        max_gap = max(max_gap, abs(got.objective - want))
        exact += got.status == "exact"
        no_iterations += got.iterations == 0
    print(f"checked {args.n} instances, max objective gap {max_gap:.3g}")
    print(f"{exact} of {args.n} decodes certified exact, {no_iterations} "
          f"with zero ADMM iterations")
    if max_gap > args.tolerance:
        print(f"error: gap exceeds tolerance {args.tolerance:g}",
              file=sys.stderr)
        return 1
    return 0


def cmd_export_analysis(args) -> int:
    if not args.error_breakdown and not args.length_bins:
        raise _UsageError("give --error-breakdown and/or --length-bins")
    ontology = read_ontology(args.ontology)
    gold = read_frames(args.gold, ontology)
    pred = read_frames(args.pred, ontology)
    if args.error_breakdown:
        write_error_breakdown_csv(error_breakdown(gold, pred),
                                  args.error_breakdown)
        print(f"wrote {args.error_breakdown}")
    if args.length_bins:
        write_length_bins_csv(length_binned_pr(gold, pred), args.length_bins)
        print(f"wrote {args.length_bins}")
    return 0


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except (SpandepError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - the exit-code contract
        print(f"internal error: {err!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
