"""Spec fuzzer: every spec, well-formed or mutated, ends with a known exit.

Two strategies feed ``cli.run`` with ``--element-cap 4000``: well-formed
nested named/perm/direct/semidirect/quotient/central_product specs, and
the same specs mutated (wrong types, missing or extra fields, out-of-range
and ``true``/``false`` ids).  Every case must exit 0, 2 or 3; a non-zero
exit prints exactly one ``error: ...`` line, and an exit-0 report is
byte-identical when run again.  ``--node-cap 200`` keeps the elementary
abelian products (C2^5 has 374 normal subgroups) quick to refuse.  A third
test draws the flag values with the well-formed specs: ``--element-cap``
from -2 to 4,000, ``--node-cap`` from -2 to 200 and ``--seed`` within
+-2^70, bounds that keep every case small.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from chiefblocks import named  # noqa: E402
from chiefblocks.cli import run  # noqa: E402

LEAVES = ["C2", "C3", "C4", "C5", "V4", "S3", "Q8", "D8", "A4", "S4",
          "SL23", "A5", "C1", "S1", "D6"]
FLAGS = [(), ("--components",), ("--dot", "association-graph"),
         ("--dot", "block-poset"), ("--dot", "normal-lattice"),
         ("--extend-normal", "[]"), ("--extend-normal", "[[0]]")]
BASE_ARGS = ("--element-cap", "4000", "--node-cap", "200")


def _named(name):
    return {"kind": "named", "name": name}


@st.composite
def _actions(draw, base: str):
    """One table for the one generator of a cyclic top: the identity map,
    or inversion when the base is abelian."""
    g = named.build_named(base)
    tables = [list(range(g.order))]
    if g.is_abelian:
        tables.append(list(g.inverses()))
    return [draw(st.sampled_from(tables))]


ids = st.integers(min_value=0, max_value=2)
words = st.lists(st.integers(min_value=0, max_value=1), max_size=3)
items = st.one_of(ids, words)

# Each generator is one cycle, so the permutations are always valid.
perm_specs = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.fixed_dictionaries({
        "kind": st.just("perm"), "points": st.just(n),
        "generators": st.lists(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                     unique=True), min_size=1, max_size=1), max_size=2)}))

leaves = st.one_of(st.sampled_from(LEAVES).map(_named), perm_specs)


def _extend(children):
    semidirect = st.tuples(
        st.sampled_from(["C2", "C3", "C4", "V4", "S3", "Q8"]),
        st.sampled_from(["C2", "C3"])).flatmap(
        lambda bt: _actions(bt[0]).map(lambda act: {
            "kind": "semidirect", "base": _named(bt[0]),
            "top": _named(bt[1]), "action": act}))
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("direct"),
                               "left": children, "right": children}),
        semidirect,
        st.fixed_dictionaries({"kind": st.just("quotient"),
                               "group": children,
                               "kernel": st.lists(items, max_size=2)}),
        st.fixed_dictionaries({
            "kind": st.just("central_product"), "left": children,
            "right": children,
            "identify": st.lists(st.lists(items, min_size=2, max_size=2),
                                 max_size=1)}),
    )


well_formed = st.recursive(leaves, _extend, max_leaves=3)

junk = st.sampled_from([None, True, False, -1, 10 ** 9, "x", 2.5, {}, [],
                        [True], [[-1]], [[0, 10 ** 9]], [[True, False]]])


def _nodes(spec):
    """Every spec node (a dict with a kind), outermost first."""
    out = [spec]
    for value in spec.values():
        if isinstance(value, dict):
            out += _nodes(value)
    return out


@st.composite
def mutated(draw):
    spec = draw(well_formed)
    node = draw(st.sampled_from(_nodes(spec)))
    fields = sorted(node)
    action = draw(st.sampled_from(["retype", "drop", "extra", "ids"]))
    if action == "retype":
        node[draw(st.sampled_from(fields))] = draw(junk)
    elif action == "drop":
        del node[draw(st.sampled_from(fields))]
    elif action == "extra":
        node[draw(st.sampled_from(["extra", "name", "left", "kernel"]))] = \
            draw(junk)
    else:  # out-of-range and boolean ids wherever ids are read
        bad = draw(st.sampled_from([-1, 4000, 10 ** 9, True, False,
                                    [7], [-1], [True]]))
        for key in ("kernel", "identify", "action", "generators"):
            if key in node:
                node[key] = ([[bad, bad]] if key == "identify"
                             else [[bad]] if key != "kernel" else [bad])
    return spec


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check(spec, flags, tmp_path_factory, caps=BASE_ARGS):
    path = tmp_path_factory.getbasetemp() / "fuzz_spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["analyze", "--spec", str(path), *caps, *flags]
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (spec, flags, code, err)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), \
            (spec, flags, err)
    else:
        assert out and not err
        assert _run(argv) == (0, out, err), (spec, flags)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(well_formed, st.sampled_from(FLAGS))
def test_well_formed_specs_exit_cleanly(tmp_path_factory, spec, flags):
    _check(spec, flags, tmp_path_factory)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(mutated(), st.sampled_from(FLAGS))
def test_mutated_specs_exit_cleanly(tmp_path_factory, spec, flags):
    _check(spec, flags, tmp_path_factory)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(well_formed, st.sampled_from(FLAGS), st.integers(-2, 4000),
       st.integers(-2, 200), st.integers(-2 ** 70, 2 ** 70))
def test_flag_values_exit_cleanly(tmp_path_factory, spec, flags, element_cap,
                                  node_cap, seed):
    caps = (f"--element-cap={element_cap}", f"--node-cap={node_cap}",
            f"--seed={seed}")
    _check(spec, flags, tmp_path_factory, caps)
