"""Every subcommand that reads a file, fed one of its small valid inputs
with one value replaced or one key deleted, ends in exit 0 to 3: bad
input exits 2 with an `error:` line, never 4, and nothing escapes main."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcut.cli import main

LCL = {"digraph": {"vertices": ["x", "y", "z"],
                   "edges": [{"id": "e", "tail": "x", "head": "y"},
                             {"id": "f", "tail": "y", "head": "z"}]},
       "risks": [{"edge": "e", "z": "y", "p": 0.25},
                 {"edge": "f", "z": "z", "p": 0.25}]}
WEIGHTS = {"weights": {"x->y": 2.0, "y->z": 2.0}}
FAMILY = {"ground": ["a", "b"],
          "events": [{"element": "a", "p": 0.125, "witness": ["a", "b"]},
                     {"element": "b", "p": 0.25, "witness": ["b"]}],
          "tau": {"a": 1.5, "b": 1.5}}
LLL = {"n": 2, "gamma": [[2], [1]], "p": [0.125, 0.125],
       "mu": [0.25, 0.25]}
CHOICE = {"universes": [["a1", "a2"], ["b1", "b2"]],
          "forbidden": [["a1", "b1"]],
          "p": {"a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": 1.0}}
HYPERGRAPH = {"vertices": ["a", "b", "c", "d"],
              "edges": [["a", "b", "c"], ["b", "c", "d"]]}
GRAPH = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
LISTS = {"lists": [["0", "1"], ["0", "1"], ["0", "1", "2"]]}

# per case: its argv, with {0}, {1} for the files, and the files' contents
CASES = {
    "check-lcl": (["check-lcl", "{0}", "--cap", "200"], [LCL]),
    "check-lcl-weights": (["check-lcl", "{0}", "--weights", "{1}"],
                          [LCL, WEIGHTS]),
    "check-family": (["check-family", "{0}", "--cap", "200"], [FAMILY]),
    "check-lll": (["check-lll", "{0}"], [LLL]),
    "check-lll-auto-mu": (["check-lll", "{0}", "--auto-mu", "--cap", "200"],
                          [LLL]),
    "choice": (["choice", "{0}", "--cap", "20"], [CHOICE]),
    "peel": (["peel", "{0}", "--k", "4", "--c", "3.5", "--z", "2"],
             [HYPERGRAPH]),
    "sample-2col": (["sample", "2col", "--instance", "{0}", "--cap", "20"],
                    [HYPERGRAPH]),
    "sample-acyclic": (["sample", "acyclic", "--instance", "{0}", "--cap",
                        "20"], [GRAPH]),
    "sample-nonrep-seq": (["sample", "nonrep-seq", "--instance", "{0}",
                           "--cap", "20"], [LISTS]),
    "validate-model-nonrep": (["validate-model", "nonrep", "--instance",
                               "{0}", "--cap", "100"], [LISTS]),
    "validate-model-hypcol2": (["validate-model", "hypcol2", "--instance",
                                "{0}", "--cap", "100"], [HYPERGRAPH]),
}

DELETE = object()       # the replacement that deletes a key instead
REPLACEMENTS = [None, True, False, 2 ** 63, -2 ** 63, 10 ** 400, math.nan,
                math.inf, -math.inf, -0.0, 0, 3, "", "x", [], ["x"], [[]],
                {}, {"x": 1}, DELETE]


def paths(value, prefix=()):
    """Every path into a JSON value, the root's () first."""
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from paths(child, prefix + (key,))


def replaced(value, path, new):
    """A copy of `value` with the value at `path` replaced by `new`, or
    its key deleted when `new` is DELETE and the parent is an object."""
    if not path:
        return value if new is DELETE else new
    copy = json.loads(json.dumps(value))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        if isinstance(parent, dict):
            del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return copy


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def mutations(files):
    """((file index, path), replacement), over every path of every file."""
    places = [(i, path) for i, doc in enumerate(files) for path in paths(doc)]
    return st.tuples(st.sampled_from(places), st.sampled_from(REPLACEMENTS))


@pytest.mark.parametrize("case", CASES)
def test_one_bad_value_exits_0_to_3_with_a_message(case):
    argv, files = CASES[case]
    with tempfile.TemporaryDirectory() as folder:
        names = [os.path.join(folder, f"in{i}.json")
                 for i in range(len(files))]

        @settings(derandomize=True, deadline=None, max_examples=150,
                  database=None)
        @given(mutations(files))
        def check(mutation):
            (index, path), new = mutation
            for i, (name, doc) in enumerate(zip(names, files)):
                if i == index:
                    doc = replaced(doc, path, new)
                with open(name, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
            code, out, err = run_main([a.format(*names) for a in argv])
            assert code in (0, 1, 2, 3), (path, new, err)
            if code == 2:
                assert err.startswith("error:") and out == "", (path, new)

        check()


@pytest.mark.parametrize("case", CASES)
def test_each_unchanged_input_passes(case):
    # the inputs the fuzz starts from are valid ones
    argv, files = CASES[case]
    with tempfile.TemporaryDirectory() as folder:
        names = []
        for i, doc in enumerate(files):
            names.append(os.path.join(folder, f"in{i}.json"))
            with open(names[-1], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        code, out, err = run_main([a.format(*names) for a in argv])
    assert code in (0, 1, 3) and err == "" and out
