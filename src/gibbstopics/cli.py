"""Command-line front end.

Training:
    gibbstopics -model LDA -corpus test/corpus.txt [-ntopics K] [-alpha A]
        [-beta B] [-niters N] [-twords T] [-name NAME] [-sstep S] [-seed N]
    gibbstopics -model DMM -corpus test/corpus.txt -beta 0.1 -name testDMM

Inference on an unseen corpus:
    gibbstopics -model LDAinf -paras test/testLDA.paras -corpus test/unseen.txt
        [-niters N] [-twords T] [-name NAME] [-sstep S] [-seed N]
    (-name must differ from the trained model's when both share a folder)

Unset flags take the Hyperparams defaults, which `gibbstopics -h` lists.

Clustering evaluation:
    gibbstopics -model Eval -label test/corpus.LABEL -dir test -prob theta

-seed is an extension for reproducible runs; when omitted, the seed comes from
OS entropy (and is recorded in the .paras file).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

from gibbstopics.chain import train_dmm, train_lda
from gibbstopics.core import Hyperparams, ToolError
from gibbstopics.corpus import load_corpus, load_labels
from gibbstopics.evaluation import evaluate_files
from gibbstopics.inference import infer, load_pretrained

# Each mode's required flags, then the other flags it accepts. An inference run
# takes K, alpha and beta from the paras file: only the sampling run itself is
# configurable there.
_HP_FLAGS = tuple(f.name for f in fields(Hyperparams) if f.name != "model")
_RUN_FLAGS = tuple(f for f in _HP_FLAGS if f not in ("ntopics", "alpha", "beta"))
MODES = {"LDA": (("corpus",), _HP_FLAGS), "DMM": (("corpus",), _HP_FLAGS),
         "LDAinf": (("corpus", "paras"), _RUN_FLAGS), "DMMinf": (("corpus", "paras"), _RUN_FLAGS),
         "Eval": (("label", "dir", "prob"), ())}


@dataclass
class CliCommand:
    mode: str
    hp: Hyperparams | None   # train and inf modes
    corpus: str | None       # train and inf modes
    paras: str | None        # inf modes
    label: str | None        # Eval mode
    dir: str | None
    prob: str | None


def _build_parser() -> argparse.ArgumentParser:
    d = Hyperparams()  # the one statement of every default
    defaults = " ".join(f"-{f.name} {getattr(d, f.name)}" for f in fields(Hyperparams)
                        if f.name not in ("model", "seed"))
    p = argparse.ArgumentParser(
        prog="gibbstopics",
        allow_abbrev=False,
        description="Topic modeling (LDA, DMM) via collapsed Gibbs sampling, "
                    "topic inference on unseen corpora, and clustering evaluation.",
        epilog=f"-seed is a reproducibility extension; defaults: {defaults}.",
    )
    p.add_argument("-model", required=True, choices=MODES, help="mode to run")
    p.add_argument("-corpus", help="input corpus file, one document per line")
    p.add_argument("-ntopics", type=int, help=f"number of topics (default {d.ntopics})")
    p.add_argument("-alpha", type=float, help=f"document-topic prior (default {d.alpha})")
    p.add_argument("-beta", type=float,
                   help=f"topic-word prior (default {d.beta}; 0.1 suits short texts)")
    p.add_argument("-niters", type=int, help=f"Gibbs sampling iterations (default {d.niters})")
    p.add_argument("-twords", type=int, help=f"top topical words to report (default {d.twords})")
    p.add_argument("-name", help=f"experiment name used for output files (default {d.name!r})")
    p.add_argument("-sstep", type=int, help="iterations between saved sampling outputs "
                                            f"(default {d.sstep}: final only)")
    p.add_argument("-paras", help="paras file of a pre-trained model (inference modes)")
    p.add_argument("-label", help="gold label file, one label per line (Eval mode)")
    p.add_argument("-dir", help="directory holding document-topic distribution files (Eval mode)")
    p.add_argument("-prob", help="distribution file name or name suffix (Eval mode)")
    p.add_argument("-seed", type=int, help="random seed (extension, for reproducible runs)")
    return p


def parse_args(argv) -> CliCommand:
    parser = _build_parser()
    args = parser.parse_args(argv)
    mode = args.model
    required, accepted = MODES[mode]
    for flag in required:
        if getattr(args, flag) is None:
            parser.error(f"-{flag} is required with -model {mode}")
    for flag, value in vars(args).items():
        if value is not None and flag not in ("model", *required, *accepted):
            parser.error(f"-{flag} is not accepted with -model {mode}")
    hp = None
    if mode != "Eval":  # flags left unset take the Hyperparams defaults
        hp = Hyperparams(**{f.name: getattr(args, f.name) for f in fields(Hyperparams)
                            if getattr(args, f.name) is not None})
        try:
            hp.validate()
        except ToolError as exc:
            parser.error(str(exc))
    return CliCommand(mode, hp, args.corpus, args.paras, args.label, args.dir, args.prob)


def dispatch(cmd: CliCommand) -> int:
    try:
        if cmd.mode == "LDA":
            train_lda(load_corpus(cmd.corpus), cmd.hp)
        elif cmd.mode == "DMM":
            train_dmm(load_corpus(cmd.corpus), cmd.hp)
        elif cmd.mode in ("LDAinf", "DMMinf"):
            infer(load_pretrained(cmd.paras), cmd.corpus, cmd.hp)
        else:
            labels = load_labels(cmd.label)
            summary = evaluate_files(cmd.dir, cmd.prob, labels)
            for r in summary.results:
                print(f"{r.file}\tpurity={r.purity:.5f}\tnmi={r.nmi:.5f}")
            if len(summary.results) > 1:
                print(f"mean\tpurity={summary.purity_mean:.5f}\tnmi={summary.nmi_mean:.5f}")
                print(f"stddev\tpurity={summary.purity_std:.5f}\tnmi={summary.nmi_std:.5f}")
        return 0
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return dispatch(parse_args(argv))


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
