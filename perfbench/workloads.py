"""Workload definitions: one experiment config and one command sequence each.

Every workload runs the same kinds of command (gen, train, retrain,
partition, unlearn with all six methods, eval, report) so that every
end-to-end metric is measured on every workload; the corpus shape and
the budgets decide which layer dominates.

Unlearning requests run a fixed epoch budget. Their target, 0.001, lies
below the smallest reciprocal rank a pool of at most 200 documents
allows, so no request stops early and the work per request does not
depend on the seed. With ``--dest d2`` the number of epochs swings from
1 to 30 between seeds of the same corpus shape, which would make the
wall time of a request measure the seed rather than the code.
"""

from __future__ import annotations

from dataclasses import dataclass

METHODS = ("cocol", "cf", "amnesiac", "neggrad", "ssd", "badt")
LIGHT_METHODS = ("amnesiac", "neggrad", "ssd")
UNREACHABLE_DELTA = "0.001"


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    spec: str        # removal request that retrain, partition and unlearn serve
    eval_specs: tuple[str, ...]

    def commands(self) -> list[tuple[str, list[str]]]:
        """(label, CLI arguments after the global options), in pipeline order.

        Commands that add up to one metric (the light methods, the evals)
        are spread over the pass, so that each metric samples the
        machine's speed at several moments of a run, not one.
        """
        def unlearn(method):
            return (f"unlearn.{method}", ["unlearn", "--spec", self.spec, "--method",
                                          method, "--delta", UNREACHABLE_DELTA])

        def evaluate(spec):
            return (f"eval.{spec}",
                    ["eval", "--spec", spec, "--model", "{out}/train/model.bin"])

        first, *rest = self.eval_specs
        return [("gen", ["gen"]), ("train", ["train"]),
                ("retrain", ["retrain", "--spec", self.spec]),
                ("partition", ["partition", "--spec", self.spec]),
                evaluate(first), unlearn("amnesiac"), unlearn("cocol"),
                unlearn("neggrad"), unlearn("cf"), unlearn("ssd"), unlearn("badt"),
                *[evaluate(spec) for spec in rest], ("report", ["report"])]


WORKLOADS = {
    # The paper's corpus (64 queries, 256 docs, pools of 100, 2 positives
    # per query): checkpoint evaluation, four MRR passes per epoch,
    # dominates unlearning, and scoring dominates training.
    "paper-doc25": Workload(
        name="paper-doc25",
        config={"train": {"epochs": 5}, "unlearn": {"max_epochs": 2}},
        spec="spec_document_25",
        eval_specs=("spec_document_25", "spec_query_25"),
    ),
    # Four positives per query and pools of 25 make the per-pair SGD loop
    # the largest part of training; checkpoints every 5 epochs make
    # updates dominate unlearning.
    "sgd-wide": Workload(
        name="sgd-wide",
        config={"corpus": {"n_queries": 96, "n_docs": 384, "vocab_size": 768,
                           "positives_per_query": 4, "pool_size": 25},
                "train": {"epochs": 4},
                "unlearn": {"max_epochs": 5, "check_every": 5}},
        spec="spec_query_15",
        eval_specs=("spec_query_15", "spec_document_15"),
    ),
    # 2048 docs and pools of 200 (13k pool lines): every command parses
    # the corpus again, and the duplicate check of each pool entry scans
    # its whole pool; the rest is read-only ranking of long pools, with
    # one training epoch and one unlearning epoch.
    "ingest-2k": Workload(
        name="ingest-2k",
        config={"corpus": {"n_queries": 64, "n_docs": 2048, "vocab_size": 4096,
                           "pool_size": 200},
                "train": {"epochs": 1},
                "unlearn": {"max_epochs": 1}},
        spec="spec_document_25",
        eval_specs=("spec_document_25", "spec_query_25"),
    ),
}

# A tiny corpus for the benchmark's own tests; it is not a benchmark workload.
SMOKE = Workload(
    name="smoke",
    config={"corpus": {"n_queries": 24, "n_docs": 96, "vocab_size": 128,
                       "pool_size": 20},
            "train": {"epochs": 3},
            "unlearn": {"max_epochs": 2}},
    spec="spec_document_25",
    eval_specs=("spec_document_25", "spec_query_25"),
)
