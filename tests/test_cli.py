"""Spec parsing, report generation, DOT output, determinism, exit codes."""

import json

import pytest

from chiefblocks.cli import (
    AnalyzeOptions,
    analyze,
    build_group,
    emit_dot,
    parse_spec,
    resolve_element,
    run,
)
from chiefblocks.errors import (
    BadAction,
    ParseError,
    SectionMissing,
    UnknownName,
)

V4_SPEC = '{"kind":"named","name":"V4"}'
A5A5_SPEC = ('{"kind":"direct","left":{"kind":"named","name":"A5"},'
             '"right":{"kind":"named","name":"A5"}}')


def test_parse_named_and_direct():
    spec = parse_spec(V4_SPEC)
    assert spec["kind"] == "named" and spec["name"] == "V4"
    spec = parse_spec(A5A5_SPEC)
    assert spec["kind"] == "direct"
    assert spec["left"]["name"] == "A5" and spec["right"]["name"] == "A5"


def test_parse_unknown_name_surfaces_on_build():
    spec = parse_spec('{"kind":"named","name":"M11"}')
    with pytest.raises(UnknownName):
        build_group(spec)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_spec('{"kind": }')
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_spec('{"kind":"direct","left":{"kind":"named","name":"A5"}}')
    with pytest.raises(ParseError):
        parse_spec('{"kind":"named","name":"V4","extra":1}')


def test_build_perm_and_quotient_specs():
    perm = parse_spec(
        '{"kind":"perm","points":5,"generators":[[[0,1,2,3,4]],[[0,1,2]]]}')
    g = build_group(perm)
    assert g.order == 60
    # kernel via generator words: normal closure of a double transposition
    s4 = build_group(parse_spec('{"kind":"named","name":"S4"}'))
    double = next(x for x in s4.elements()
                  if s4.element_order(x) == 2
                  and all(s4.permutation_of(x)[i] != i for i in range(4)))
    others = sorted({s4.conj(h, double) for h in s4.elements()})
    q_spec = parse_spec(json.dumps({
        "kind": "quotient",
        "group": {"kind": "named", "name": "S4"},
        "kernel": [double] + others,
    }))
    q = build_group(q_spec)
    assert q.order == 6


def test_build_semidirect_spec():
    spec = parse_spec(json.dumps({
        "kind": "semidirect",
        "base": {"kind": "named", "name": "C3"},
        "top": {"kind": "named", "name": "C2"},
        "action": [[0, 2, 1]],
    }))
    g = build_group(spec)
    assert g.order == 6 and not g.is_abelian
    bad = parse_spec(json.dumps({
        "kind": "semidirect",
        "base": {"kind": "named", "name": "C3"},
        "top": {"kind": "named", "name": "C2"},
        "action": [[0, 0, 1]],
    }))
    with pytest.raises(BadAction):
        build_group(bad)
    # well-typed bijective automorphism of C3, but the generator of C3
    # cannot act by it: its cube would act non-trivially
    no_hom = parse_spec(json.dumps({
        "kind": "semidirect",
        "base": {"kind": "named", "name": "C3"},
        "top": {"kind": "named", "name": "C3"},
        "action": [[0, 2, 1]],
    }))
    with pytest.raises(BadAction, match="do not define a homomorphism"):
        build_group(no_hom)


def test_build_central_product_spec():
    q8 = build_group(parse_spec('{"kind":"named","name":"Q8"}'))
    minus_one = next(x for x in q8.elements()
                     if x != 0 and q8.element_order(x) == 2)
    spec = parse_spec(json.dumps({
        "kind": "central_product",
        "left": {"kind": "named", "name": "Q8"},
        "right": {"kind": "named", "name": "Q8"},
        "identify": [[minus_one, minus_one]],
    }))
    g = build_group(spec)
    assert g.order == 32


def test_resolve_element_words():
    a5 = build_group(parse_spec('{"kind":"named","name":"A5"}'))
    assert resolve_element(a5, []) == 0
    w = resolve_element(a5, [0, 1])
    assert w == a5.mul(a5.generators[0], a5.generators[1])
    with pytest.raises(ParseError):
        resolve_element(a5, [99])
    with pytest.raises(ParseError):
        resolve_element(a5, 10_000)


def test_analyze_v4_report():
    report = analyze(parse_spec(V4_SPEC))
    text = report.render()
    assert "order: 4" in text
    assert "count: 6" in text          # chief factors
    assert "edge_count: 6" in text     # association hexagon
    assert "blocks:\n  count: 0" in text
    assert "node_count: 5" in text


def test_analyze_a5_report():
    report = analyze(parse_spec('{"kind":"named","name":"A5"}'))
    text = report.render()
    assert "blocks:\n  count: 1" in text
    assert "uppermost: 60/1" in text
    assert "lowermost: 60/1" in text


def test_analyze_wreath_with_components():
    report = analyze(parse_spec('{"kind":"named","name":"A5wrC2"}'),
                     AnalyzeOptions(components=True))
    text = report.render()
    assert "blocks:\n  count: 1" in text
    assert "lowermost: 3600/1" in text
    assert "m0: order=60" in text and "normal=False" in text
    assert "layer_order: 3600" in text


def test_analyze_determinism():
    a = analyze(parse_spec(A5A5_SPEC)).render()
    b = analyze(parse_spec(A5A5_SPEC)).render()
    assert a == b


def test_emit_dot_outputs():
    report = analyze(parse_spec(V4_SPEC))
    dot = emit_dot(report, "association-graph")
    assert dot.startswith('graph "association-graph"')
    assert dot.count(" -- ") == 6
    assert dot.count("label=") == 6
    lattice = emit_dot(report, "normal-lattice")
    assert lattice.startswith('digraph')
    assert lattice.count(" -> ") == 6
    s4 = analyze(parse_spec('{"kind":"named","name":"S4"}'))
    chain = emit_dot(s4, "normal-lattice")
    assert chain.count(" -> ") == 3
    a5 = analyze(parse_spec('{"kind":"named","name":"A5"}'))
    poset = emit_dot(a5, "block-poset")
    assert poset.count("label=") == 1 and " -> " not in poset
    with pytest.raises(SectionMissing):
        emit_dot(report, "no-such-graph")


def test_cli_exit_codes(tmp_path, capsys):
    spec_file = tmp_path / "v4.json"
    spec_file.write_text(V4_SPEC)
    out_file = tmp_path / "report.txt"
    assert run(["analyze", "--spec", str(spec_file),
                "-o", str(out_file)]) == 0
    assert "order: 4" in out_file.read_text()

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["analyze", "--spec", str(bad)]) == 2

    unknown = tmp_path / "m11.json"
    unknown.write_text('{"kind":"named","name":"M11"}')
    assert run(["analyze", "--spec", str(unknown)]) == 2

    a5file = tmp_path / "a5.json"
    a5file.write_text('{"kind":"named","name":"A5"}')
    assert run(["analyze", "--spec", str(a5file),
                "--element-cap", "10"]) == 3
    capsys.readouterr()


def test_cli_dot_and_factorization(tmp_path, capsys):
    wr_file = tmp_path / "wr.json"
    wr_file.write_text('{"kind":"named","name":"A5wrC2"}')
    dot_file = tmp_path / "wr.dot"
    assert run(["analyze", "--spec", str(wr_file), "--dot", "block-poset",
                "-o", str(dot_file)]) == 0
    assert dot_file.read_text().startswith("digraph")

    es_file = tmp_path / "es.json"
    es_file.write_text(json.dumps({
        "kind": "central_product",
        "left": {"kind": "named", "name": "Q8"},
        "right": {"kind": "named", "name": "Q8"},
        "identify": [[3, 3]],
    }))
    # element 3 of the Q8 unit representation is the central involution
    q8 = build_group(parse_spec('{"kind":"named","name":"Q8"}'))
    assert q8.element_order(3) == 2
    fact_file = tmp_path / "parts.json"
    # the two image subgroups, described by generator words
    fact_file.write_text(json.dumps(
        {"parts": [[[0], [1]], [[2], [3]]]}))
    out_file = tmp_path / "es.txt"
    assert run(["analyze", "--spec", str(es_file),
                "--factorization", str(fact_file),
                "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert "kind: generalized-central" in text
    assert "diagonal_kernel_order: 2" in text
    assert "diagonal_injective: False" in text
    capsys.readouterr()


def test_cli_extend_normal(tmp_path, capsys):
    wr_file = tmp_path / "wr.json"
    wr_file.write_text('{"kind":"named","name":"A5wrC2"}')
    out_file = tmp_path / "ext.txt"
    assert run(["analyze", "--spec", str(wr_file),
                "--extend-normal", "[[0],[1],[2],[3]]",
                "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert "subgroup_order: 3600" in text
    assert "subgroup_blocks: 2" in text
    assert "kind=antichain-orbit" in text
    assert "poset_isomorphism_verified: True" in text
    capsys.readouterr()


def test_cli_internal_failure_exit_code(tmp_path, capsys, monkeypatch):
    import chiefblocks.cli as cli
    from chiefblocks.errors import InternalCheckError

    def boom(spec, options=None):
        raise InternalCheckError("postcondition violated")

    monkeypatch.setattr(cli, "analyze", boom)
    spec_file = tmp_path / "v4.json"
    spec_file.write_text(V4_SPEC)
    assert cli.run(["analyze", "--spec", str(spec_file)]) == 4
    capsys.readouterr()


_C3 = '{"kind":"named","name":"C3"}'
_C2 = '{"kind":"named","name":"C2"}'
_S3 = '{"kind":"named","name":"S3"}'


@pytest.mark.parametrize("spec", [
    '{"kind":"perm","points":3,"generators":[[["a",1]]]}',
    '{"kind":"perm","points":3,"generators":[[0,1]]}',
    '{"kind":"perm","points":true,"generators":[]}',
    f'{{"kind":"semidirect","base":{_C3},"top":{_C2},"action":[[0,5,1]]}}',
    f'{{"kind":"quotient","group":{_C3},"kernel":5}}',
    f'{{"kind":"central_product","left":{_C2},"right":{_C2},'
    '"identify":5}',
    f'{{"kind":"quotient","group":{_S3},"kernel":[false]}}',
    f'{{"kind":"quotient","group":{_S3},"kernel":[[true]]}}',
    f'{{"kind":"central_product","left":{_C2},"right":{_C2},'
    '"identify":[[true,true]]}',
], ids=["cycle-entry", "cycle", "points", "action-entry", "kernel",
        "identify", "kernel-bool-id", "kernel-bool-index",
        "identify-bool-ids"])
def test_cli_mistyped_spec_fields_are_input_errors(spec, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(spec)
    assert run(["analyze", "--spec", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_extend_normal_bool_id_is_input_error(tmp_path, capsys):
    spec_file = tmp_path / "s3.json"
    spec_file.write_text(_S3)
    assert run(["analyze", "--spec", str(spec_file),
                "--extend-normal", "[false]"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["--extend-normal", "{}"],
    ["--extend-normal", "[[0]]"],
    ["--factorization", "PARTS"],
], ids=["extend-normal-object", "extend-normal-not-normal",
        "factorization-bad-word"])
def test_cli_bad_subgroup_refused_before_lattice(flags, tmp_path, capsys,
                                                 monkeypatch):
    import chiefblocks.cli as cli

    def boom(g):
        raise RuntimeError("the lattice was built")

    monkeypatch.setattr(cli, "normal_subgroups", boom)
    wr_file = tmp_path / "wr.json"
    wr_file.write_text('{"kind":"named","name":"A5wrC2"}')
    parts_file = tmp_path / "parts.json"
    parts_file.write_text('{"parts": [["x"]]}')
    flags = [str(parts_file) if f == "PARTS" else f for f in flags]
    assert cli.run(["analyze", "--spec", str(wr_file), "--components",
                    *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("generators", ["[]", "[[[0,100]]]"])
def test_cli_perm_points_over_cap_refused_before_allocation(
        generators, tmp_path, capsys, monkeypatch):
    import chiefblocks.perm as perm

    def boom(*args):
        raise RuntimeError("a permutation was allocated")

    monkeypatch.setattr(perm, "identity_perm", boom)
    monkeypatch.setattr(perm, "perm_from_cycles", boom)
    spec_file = tmp_path / "perm.json"
    spec_file.write_text(
        f'{{"kind":"perm","points":101,"generators":{generators}}}')
    assert run(["analyze", "--spec", str(spec_file),
                "--element-cap", "100"]) == 3
    assert "element cap 100" in capsys.readouterr().err


def test_cli_invalid_permutation_is_input_error(tmp_path, capsys):
    bad = tmp_path / "badperm.json"
    bad.write_text('{"kind":"perm","points":3,"generators":[[[0,0,1]]]}')
    assert run(["analyze", "--spec", str(bad)]) == 2
    capsys.readouterr()


def test_cli_unexpected_error_exit_code(tmp_path, capsys, monkeypatch):
    import chiefblocks.cli as cli

    def boom(g):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "association_graph", boom)
    spec_file = tmp_path / "v4.json"
    spec_file.write_text(V4_SPEC)
    assert cli.run(["analyze", "--spec", str(spec_file)]) == 4
    assert capsys.readouterr().err == "internal error: unexpected\n"


@pytest.mark.parametrize("flags", [
    ["--components"],
    ["--extend-normal", "[[0],[1],[2],[3]]"],
], ids=["components", "extend-normal"])
def test_cli_node_cap_bounds_subgroup_lattices(flags, tmp_path, capsys):
    # The lattice of A5wrC2 has 3 nodes; that of its base A5xA5 has 4.
    wr_file = tmp_path / "wr.json"
    wr_file.write_text('{"kind":"named","name":"A5wrC2"}')
    assert run(["analyze", "--spec", str(wr_file), "--node-cap", "3",
                *flags]) == 3
    assert "node cap 3" in capsys.readouterr().err


@pytest.mark.parametrize("parts", [{"parts": 5}, {"parts": [5]}],
                         ids=["parts-not-list", "part-not-list"])
def test_cli_malformed_factorization_is_input_error(parts, tmp_path, capsys):
    spec_file = tmp_path / "v4.json"
    spec_file.write_text(V4_SPEC)
    parts_file = tmp_path / "parts.json"
    parts_file.write_text(json.dumps(parts))
    assert run(["analyze", "--spec", str(spec_file),
                "--factorization", str(parts_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("subspec", ["5", "{}"], ids=["int", "object"])
def test_cli_extend_normal_not_a_list_is_input_error(subspec, tmp_path,
                                                     capsys):
    spec_file = tmp_path / "v4.json"
    spec_file.write_text(V4_SPEC)
    assert run(["analyze", "--spec", str(spec_file),
                "--extend-normal", subspec]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_c2_6_refused_at_association_stage(tmp_path, capsys):
    # 23,562 chief factors would need 277,572,141 association pair tests.
    import time
    spec = {"kind": "named", "name": "C2"}
    for _ in range(5):
        spec = {"kind": "direct", "left": spec,
                "right": {"kind": "named", "name": "C2"}}
    spec_file = tmp_path / "c2_6.json"
    spec_file.write_text(json.dumps(spec))
    t0 = time.monotonic()
    assert run(["analyze", "--spec", str(spec_file)]) == 3
    assert time.monotonic() - t0 < 60
    err = capsys.readouterr().err
    assert err.startswith("error: association stage: 23562 chief factors")
    assert "277572141 pair tests" in err
