"""Golden guard for the CL pipeline: sha256 digests of its outputs on the
corpus, recorded before the quasi-term walkers became fold rules.

A change here is a change of output: strict forms (fresh names and
literal order included), refinement traces, compiled explicit
definitions, and the dispatcher of each PR reduction and its stack
stepper, which only a reduction with two or more self-calls per clause
has.  The compiled digests of pred and split3, whose successor splits use
PRED, were recorded again when PRED became a closed form.  Every compiled
digest was recorded again when compile_explicit began to emit one
D-dispatch per split of the refinement tree, in place of a guard per
clause; the strict, trace, h_def and f1_def digests did not move."""

import hashlib
import json
from pathlib import Path

from funalg.clausal import check_refinement, complete_to_strict, print_cl
from funalg.compiler import compile_explicit
from funalg.corpus import corpus_defs
from funalg.derivation import d_print
from funalg.reduction import reduce_recursive_to_pr

GOLDEN = json.loads((Path(__file__).parent / "golden_cl.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_cl_pipeline_outputs_match_golden_digests():
    got, env = {}, {}
    for d in corpus_defs():
        g = {"strict": _sha(print_cl(complete_to_strict(d))),
             "trace": _sha("\n".join(check_refinement(d)))}
        if d.kind == "explicit":
            env[d.name] = compile_explicit(d, env)
            g["compiled"] = _sha(d_print(env[d.name]))
        else:
            art = reduce_recursive_to_pr(d, env)
            g["h_def"] = _sha(print_cl(art.h_def))
            if art.f1_def is not None:  # J >= 2 only
                g["f1_def"] = _sha(print_cl(art.f1_def))
        got[d.name] = g
    assert got == GOLDEN
