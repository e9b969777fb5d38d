import json
from itertools import combinations_with_replacement, permutations

import pytest

from wittkit import checks, drw
from wittkit.cli import UnknownSuite, main, parse_word, run_suite
from wittkit.rings import LaurentElem
from wittkit.weyl import WeylElement, apply, apply_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_word():
    assert parse_word("z0^2 d1[3] z1 d0") == [
        ("z", 0, 2), ("d", 1, 3), ("z", 1, 1), ("d", 0, 1)
    ]
    with pytest.raises(ValueError):
        parse_word("q7")
    for text in ("z-1^2", "d-2[3]", "z0 d-1"):
        with pytest.raises(ValueError, match="bad token"):
            parse_word(text)


def test_witt_polys_command(capsys):
    code, out = run(capsys, "witt", "polys", "--p", "2", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ghost_compatible"] is True
    assert data["sum"][0] == [{"e": [0, 0, 1, 0], "c": 1},
                              {"e": [1, 0, 0, 0], "c": 1}]


def test_witt_op_roundtrip(tmp_path, capsys):
    vec = {"p": 2, "n": 2, "coords": [1, 1]}
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"vectors": [vec, vec]}))
    code, out = run(capsys, "witt", "op", "--op", "add", "--in", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["result"]["coords"] == [0, 1]  # [1]+[1] = (0,1) in W_2(F_2)


def test_witt_op_refuses_mixed_coordinates(tmp_path, capsys):
    laurent = LaurentElem(3, 1, 1, {(1,): 1}, (0,)).to_json()
    vec = {"p": 3, "n": 2, "coords": [laurent, 1]}
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"vectors": [vec, vec]}))
    code = main(["witt", "op", "--op", "add", "--in", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == "VariableMismatch"
    assert "not all Laurent" in err["error"]


def _vec(*coords):
    return {"p": 3, "n": 2, "coords": list(coords)}


def _laurent_vec(e=(1,), c=1, **ring):
    """A length-1 vector over F_3[z^+-1] with one term c z^e; ring entries
    override the coordinate's p, n, vars and neg."""
    coord = dict({"p": 3, "n": 1, "vars": 1, "neg": [0]}, **ring)
    coord["terms"] = [{"e": list(e), "c": c}]
    return {"p": 3, "n": 1, "coords": [coord]}


@pytest.mark.parametrize("op,vectors,kind,needle", [
    ("add", [_vec(1, 2)], "ValueError", "--op add: too few vectors (1)"),
    ("mul", [_vec(1, 2)], "ValueError", "--op mul: too few vectors (1)"),
    ("frob", [], "ValueError", "--op frob: too few vectors (0)"),
    ("add", [_vec(1.5, 1)] * 2, "VariableMismatch", "coordinate 1.5 "),
    ("add", [_vec("a", 1)] * 2, "VariableMismatch", "coordinate 'a' "),
    ("mul", [_vec(1, True)] * 2, "VariableMismatch", "coordinate True "),
    # malformed vector objects
    ("frob", [{"p": 3, "n": 2, "coords": True}], "VariableMismatch",
     "a Witt vector needs"),
    ("frob", [{"p": 3, "coords": [1, 2]}], "VariableMismatch",
     "a Witt vector needs"),
    ("frob", [{"p": "3", "n": 2, "coords": [1, 2]}], "VariableMismatch",
     "a Witt vector needs"),
    ("frob", [[1, 2]], "VariableMismatch", "a Witt vector needs"),
    # length 0, and Laurent coordinates without terms or a coefficient
    ("versch", [{"p": 3, "n": 0, "coords": []}], "VariableMismatch",
     "need n >= 1"),
    ("teich", [{"p": 3, "n": 0, "coords": []}], "VariableMismatch",
     "need n >= 1"),
    ("frob", [_vec({"p": 3, "n": 1}, 1)], "VariableMismatch",
     "malformed LaurentElem"),
    ("frob", [_vec({"p": 3, "n": 1, "vars": 1, "terms": [{"e": [1]}]}, 1)],
     "VariableMismatch", "malformed LaurentElem"),
    # Laurent coordinates whose values are not plain ints
    ("teich", [_laurent_vec(c="x")], "VariableMismatch",
     "malformed LaurentElem"),
    ("teich", [_laurent_vec(e=[1.5])], "VariableMismatch",
     "malformed LaurentElem"),
    ("teich", [_laurent_vec(c=1.5)], "VariableMismatch",
     "malformed LaurentElem"),
    ("teich", [_laurent_vec(p="3")], "VariableMismatch",
     "malformed LaurentElem"),
    ("teich", [_laurent_vec(neg=[True])], "VariableMismatch",
     "malformed LaurentElem"),
])
def test_witt_op_refuses_bad_input(tmp_path, capsys, op, vectors, kind,
                                   needle):
    """Too few vectors for the op, and F_p coordinates that are not ints,
    exit 3 with a JSON error before any arithmetic."""
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"vectors": vectors}))
    code = main(["witt", "op", "--op", op, "--in", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == kind and needle in err["error"]


@pytest.mark.parametrize("doc", [{}, {"vectors": {}}, [_vec(1, 2)], 7])
def test_witt_op_refuses_input_without_vectors(tmp_path, capsys, doc):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(doc))
    code = main(["witt", "op", "--op", "frob", "--in", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == "VariableMismatch"
    assert '"vectors" list' in err["error"]


_POLY = {"p": 3, "n": 1, "vars": 1, "terms": [{"e": [1], "c": 1}]}
_OP = {"p": 3, "n": 1, "vars": 1,
       "terms": [{"e": [0], "order": [1], "c": 1}]}


@pytest.mark.parametrize("argv,op,poly,cls", [
    (("weyl", "apply"), dict(_OP, terms=[{"c": 1}]), _POLY, "WeylElement"),
    (("weyl", "apply"), dict(_OP, terms=[{"e": [0], "c": 1}]), _POLY,
     "WeylElement"),
    (("weyl", "apply"), dict(_OP, terms=[7]), _POLY, "WeylElement"),
    (("weyl", "apply"), _OP, {"p": 3, "n": 1, "terms": []}, "LaurentElem"),
    (("weyl", "apply"), _OP, [1], "LaurentElem"),
    (("wdiff", "lift", "--n", "1"), {"n": 1, "vars": 1, "terms": []}, None,
     "WeylElement"),
    # values that are not plain ints
    (("weyl", "apply"), dict(_OP, terms=[{"e": [0], "order": [True], "c": 1}]),
     _POLY, "WeylElement"),
    (("weyl", "apply"), _OP, dict(_POLY, neg=["0"]), "LaurentElem"),
    (("weyl", "apply"), _OP, dict(_POLY, vars=1.0), "LaurentElem"),
    (("wdiff", "lift", "--n", "1"),
     dict(_OP, terms=[{"e": [0], "order": [1], "c": 1.5}]), None,
     "WeylElement"),
])
def test_malformed_sparse_elements_exit_3(tmp_path, capsys, argv, op, poly,
                                          cls):
    """A Weyl or Laurent object missing p, n, vars or terms, a term
    missing e, order or c, or any of these that is not a plain int (or a
    list of them), is refused with a JSON error."""
    args = list(argv)
    for flag, obj in (("--op", op), ("--poly", poly)):
        if obj is not None:
            f = tmp_path / (flag[2:] + ".json")
            f.write_text(json.dumps(obj))
            args += [flag, str(f)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == "VariableMismatch"
    assert "malformed %s" % cls in err["error"]


_TWICE = [{"e": [1], "c": 1}] * 2


@pytest.mark.parametrize("argv,files", [
    (("witt", "op", "--op", "teich"),
     {"--in": {"vectors": [{"p": 3, "n": 1, "coords": [
         dict(_POLY, neg=[0], terms=_TWICE)]}]}}),
    (("weyl", "apply"), {"--op": _OP, "--poly": dict(_POLY, terms=_TWICE)}),
    (("wdiff", "lift", "--n", "1"),
     {"--op": dict(_OP, terms=[{"e": [0], "order": [1], "c": 1}] * 2)}),
], ids=["witt-op", "weyl-apply", "wdiff-lift"])
def test_duplicate_sparse_terms_exit_3(tmp_path, capsys, argv, files):
    """A term listed twice is refused, not read as one copy of it."""
    args = list(argv)
    for flag, obj in files.items():
        f = tmp_path / (flag[2:] + ".json")
        f.write_text(json.dumps(obj))
        args += [flag, str(f)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == "VariableMismatch"
    assert "listed twice" in err["error"]


def _drw_doc(p, n, d, terms):
    return {"p": p, "n": n, "d": d, "terms": [
        dict(drw.symbol_json(d, *key), c=c) for key, c in terms]}


def _drw_act(tmp_path, capsys, which, doc):
    f = tmp_path / "elem.json"
    f.write_text(json.dumps(doc))
    code = main(["drw", "act", "--which", which, "--elem", str(f)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("which", "FVd")
def test_drw_act_round_trip(tmp_path, capsys, which):
    p, n, d, i = 3, 2, 2, 1
    keys = drw.enumerate_basis(p, n, d, i, 2 * p)
    terms = [(keys[5], 2), (keys[-7], 4)]
    code, captured = _drw_act(tmp_path, capsys, which,
                              _drw_doc(p, n, d, terms))
    assert code == 0
    out = json.loads(captured.out)
    want = drw.act(which, drw.DRWElement(p, n, d, i, dict(terms)))
    assert want.terms and (out["n"], out["degree"]) == (want.n, want.degree)
    assert out == dict(want.to_json(), which=which)
    assert drw.DRWElement.from_json(out) == want


def test_drw_act_output_is_drw_act_input(tmp_path, capsys):
    """F of the printed V of x is p x: the output of drw act, which carries
    p and d, is read back as its input."""
    p, n, d, i = 3, 2, 2, 1
    keys = drw.enumerate_basis(p, n, d, i, 2 * p)
    x = drw.DRWElement(p, n, d, i, {keys[5]: 2, keys[-7]: 4, keys[11]: 1})
    code, captured = _drw_act(tmp_path, capsys, "V", x.to_json())
    assert code == 0
    code, captured = _drw_act(tmp_path, capsys, "F",
                              json.loads(captured.out))
    assert code == 0
    px = x.scalar_mul(p)
    assert not px.is_zero()
    assert drw.DRWElement.from_json(json.loads(captured.out)) == px


def test_drw_act_chains_past_the_top_degree(tmp_path, capsys):
    """d of a top-degree element prints the zero element of degree d + 1,
    which drw act reads back: d, F and d chain, each exiting 0."""
    doc = _drw_doc(3, 2, 1, [((((0, 1, 0),), ((), (0,))), 1)])
    for which, degree in (("d", 2), ("F", 2), ("d", 3)):
        code, captured = _drw_act(tmp_path, capsys, which, doc)
        assert code == 0, captured.err
        doc = json.loads(captured.out)
        assert (doc["degree"], doc["terms"]) == (degree, [])


_KEY = (((0, 1, 0), (1, 2, -1)), ((1,), (0,)))
_ONE = _drw_doc(3, 2, 2, [(_KEY, 1)])


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("doc,needle", [
    (_without(_ONE, "p"), "malformed drw element"),
    (_without(_ONE, "terms"), "malformed drw element"),
    ([1], "malformed drw element"),
    (dict(_ONE, terms=[_without(_ONE["terms"][0], "weight")]),
     "malformed drw element"),
    (dict(_ONE, terms=[_without(_ONE["terms"][0], "partition")]),
     "malformed drw element"),
    (dict(_ONE, terms=[_without(_ONE["terms"][0], "c")]),
     "malformed drw element"),
    (_drw_doc(3, 2, 2, [(_KEY, 1.5)]), "is not an int"),
    (_drw_doc(3, 2, 2, [(_KEY, "1")]), "is not an int"),
    (_drw_doc(3, 2, 2, [(_KEY, True)]), "is not an int"),
    (_drw_doc(3, 2, 2, [(_KEY, 1), (_KEY, 1)]), "a term is listed twice"),
    (dict(_ONE, n="2"), "malformed drw element"),
    # the support order of _KEY's weight is 1, 0 (valuation -1 first)
    (_drw_doc(3, 2, 2, [((_KEY[0], ((0,), (1,))), 1)]),
     "does not split the support [1, 0] in order"),
    (_drw_doc(3, 2, 2, [((_KEY[0], ()), 1)]), "does not split the support"),
    (_drw_doc(3, 2, 2, [(_KEY, 1), ((_KEY[0], ((1, 0),)), 1)]),
     "terms of degrees [0, 1] in one element"),
    # a float valuation or numerator, a boolean v, a degree outside 0..d,
    # a weight of the wrong length and an entry that is not a pair
    (dict(_ONE, terms=[dict(_ONE["terms"][0], weight=[[1, 0], [2, -0.5]])]),
     "-0.5 is not an int"),
    (dict(_ONE, terms=[dict(_ONE["terms"][0], weight=[[1.0, 0], [2, -1]])]),
     "1.0 is not an int"),
    (dict(_ONE, terms=[dict(_ONE["terms"][0], weight=[[1, True], [2, -1]])]),
     "True is not an int"),
    (dict(_drw_doc(3, 2, 1, [((((0, 1, 0),), ((), (0,))), 1)]), degree=7),
     "of degree 7"),
    (dict(_ONE, d=1), "is not 1 [u, v] pairs"),
    (dict(_ONE, terms=[dict(_ONE["terms"][0], weight=[[1], [2, -1]])]),
     "is not 2 [u, v] pairs"),
])
def test_drw_act_refuses_bad_input(tmp_path, capsys, doc, needle):
    """A document or term missing a key, a p, n, d, c or weight entry that
    is not an int, a symbol given twice, a partition that is not one of
    drw._partitions for its support order, terms of two degrees or of a
    degree outside 0..d and a weight that is not d [u, v] pairs exit 3
    with a JSON error."""
    code, captured = _drw_act(tmp_path, capsys, "d", doc)
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == "VariableMismatch" and needle in err["error"]


def test_drw_act_accepts_exactly_drw_partitions(tmp_path, capsys):
    """Every sequence of one to four blocks that concatenates to an order of
    a support in order (1, 0, 2) is accepted by drw act exactly when it is
    one of drw._partitions for its degree."""
    weight = [[1, 0], [2, -1], [1, 1]]
    supp = (1, 0, 2)
    seen = set()
    for order in permutations(supp):
        for blocks in range(1, 5):
            for cuts in combinations_with_replacement(range(4), blocks - 1):
                ends = (0,) + cuts + (3,)
                parts = tuple(order[a:b] for a, b in zip(ends, ends[1:]))
                member = parts in drw._partitions(supp, blocks - 1)
                seen.add(member)
                doc = {"p": 3, "n": 2, "d": 3, "terms": [
                    {"weight": weight, "partition": [list(b) for b in parts],
                     "c": 1}]}
                code, _ = _drw_act(tmp_path, capsys, "d", doc)
                assert code == (0 if member else 3), parts
    assert seen == {True, False}


def test_weyl_nf_command(capsys):
    code, out = run(capsys, "weyl", "nf", "--word", "d0 z0", "--p", "5")
    data = json.loads(out)
    assert {"e": [0], "order": [0], "c": 1} in data["normal_form"]["terms"]
    assert {"e": [1], "order": [1], "c": 1} in data["normal_form"]["terms"]


def test_weyl_nf_laurent_word(capsys):
    """A word with a negative z exponent inverts that variable."""
    word = "z0^3 d0[4] z0^-1 d0"
    code, out = run(capsys, "weyl", "nf", "--word", word, "--p", "5",
                    "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"]["neg"] == [0]
    nf = WeylElement.from_json(data["normal_form"])
    for terms in ({(3,): 1}, {(-2,): 3, (7,): 1}):
        f = LaurentElem(5, 2, 1, terms, (0,))
        assert apply(nf, f) == apply_word(parse_word(word), f)


@pytest.mark.parametrize("argv,needle", [
    pytest.param(("weyl", "nf", "--word", "q1", "--p", "5", "--n", "2"),
                 "'q1'", id="argv0"),
    pytest.param(("weyl", "nf", "--word", "z0^x", "--p", "5", "--n", "2"),
                 "'z0^x'", id="argv1"),
    pytest.param(("witt", "polys", "--p", "4", "--n", "2"), "prime p",
                 id="argv2"),
    pytest.param(("weyl", "nf", "--word", "", "--p", "5"), "word is empty",
                 id="empty-word"),
    pytest.param(("weyl", "nf", "--word", "z-1^2", "--p", "3", "--n", "1"),
                 "'z-1^2'", id="negative-index-alone"),
    pytest.param(("weyl", "nf", "--word", "z0 z-1", "--p", "3", "--n", "1"),
                 "'z-1'", id="negative-index-after-z0"),
    pytest.param(("weyl", "nf", "--word", "d0 z0", "--p", "4", "--n", "1"),
                 "modulus 4 is not prime", id="weyl-nf-p4"),
    pytest.param(("weyl", "nf", "--word", "d0 z0", "--p", "5", "--n", "0"),
                 "need n >= 1", id="weyl-nf-n0"),
    pytest.param(("verify", "localgen", "--j", "2"), "j = 2, d = 2",
                 id="localgen-j-not-below-d"),
    pytest.param(("verify", "localgen", "--d", "0"), "j = 0, d = 0",
                 id="localgen-d0"),
    pytest.param(("cohomology", "line-bundle", "--p", "2", "--n", "1",
                  "--d", "0", "--a", "-1"), "d = 0", id="line-bundle-d0"),
    pytest.param(("verify", "drw-identities", "--p", "4", "--n", "1"),
                 "p = 4 is not prime", id="drw-identities-p4"),
    pytest.param(("verify", "drw-identities", "--p", "2", "--n", "0"),
                 "need n >= 1, got n = 0", id="drw-identities-n0"),
    pytest.param(("drw", "basis", "--p", "2", "--n", "0", "--d", "1",
                  "--i", "0", "--bound", "4"), "need n >= 1, got n = 0",
                 id="drw-basis-n0"),
    pytest.param(("drw", "basis", "--p", "2", "--n", "2", "--d", "-1",
                  "--i", "0", "--bound", "4"), "need d >= 0, got d = -1",
                 id="drw-basis-negative-d"),
    pytest.param(("wdiff", "verify", "--relation", "restr", "--p", "3",
                  "--n", "1", "--d", "0", "--samples", "1"),
                 "need 0 <= j < d, got j = 0, d = 0", id="wdiff-verify-d0"),
    pytest.param(("steinberg", "--q", "2", "--dim", "2", "--I", "5"),
                 "I names roots [5] outside 0..0", id="steinberg-root-5"),
    pytest.param(("steinberg", "--q", "2", "--dim", "3", "--ring", "Zpn",
                  "--n", "0"), "need n >= 1, got n = 0", id="steinberg-n0"),
    pytest.param(("drw", "basis", "--p", "2", "--n", "2", "--d", "1",
                  "--i", "0", "--bound", "-3"),
                 "need bound >= 0, got bound = -3",
                 id="drw-basis-negative-bound"),
    pytest.param(("verify", "localgen", "--p", "4", "--bound", "3"),
                 "p = 4 is not prime", id="localgen-p4"),
    pytest.param(("verify", "cohomology-sweep", "--p", "4", "--n", "1",
                  "--d", "1"), "p = 4 is not prime", id="cohomology-sweep-p4"),
    pytest.param(("verify", "witt-axioms", "--samples", "-3"),
                 "samples = -3", id="witt-axioms-negative-samples"),
    pytest.param(("verify", "witt-axioms", "--n", "0"), "n = 0",
                 id="witt-axioms-n0"),
    pytest.param(("verify", "localgen", "--bound", "-1"), "bound = -1",
                 id="localgen-negative-bound"),
    pytest.param(("verify", "wdiff-relations", "--p", "2", "--n", "1",
                  "--samples", "0"), "samples = 0",
                 id="wdiff-relations-no-samples"),
    pytest.param(("localcoh", "stability", "--p", "3", "--n", "2", "--d", "2",
                  "--j", "2"), "j = 2, d = 2", id="stability-j-not-below-d"),
    pytest.param(("localcoh", "stability", "--p", "3", "--n", "2", "--d", "0",
                  "--j", "0"), "j = 0, d = 0", id="stability-d0"),
    pytest.param(("localcoh", "stability", "--p", "3", "--n", "0", "--d", "2",
                  "--j", "0"), "need n >= 1, got n = 0", id="stability-n0"),
    pytest.param(("localcoh", "stability", "--p", "4", "--n", "2", "--d", "2",
                  "--j", "0"), "p = 4 is not prime", id="stability-p4"),
])
def test_library_errors_exit_3_with_json(capsys, argv, needle):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["type"] == "ValueError" and needle in err["error"]


def test_oversized_polys_exit_3_before_any_work(capsys):
    code = main(["witt", "polys", "--p", "7", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["type"] == "ScaleExceeded"
    assert "p = 7, n = 4" in err["error"]


def test_oversized_stability_exits_3(capsys):
    code = main(["localcoh", "stability", "--p", "7", "--n", "4", "--d", "6",
                 "--j", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == "ScaleExceeded"
    assert "4694520 series terms" in err["error"]


@pytest.mark.parametrize("relation,p,n,d", [("frob", 3, 6, 3),
                                             ("restr", 5, 4, 2)])
def test_oversized_wdiff_verify_exits_3(capsys, relation, p, n, d):
    code = main(["wdiff", "verify", "--relation", relation, "--p", str(p),
                 "--n", str(n), "--d", str(d), "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == "ScaleExceeded"
    assert "p = %d, n = %d with 5 samples" % (p, n) in err["error"]


def test_oversized_drw_basis_exits_3_before_enumerating(capsys, monkeypatch):
    import wittkit.drw as drw
    from itertools import product

    def small_product(*ranges):
        # the d = 1 cells run first and are small; a larger one is the bug
        if len(ranges) > 1 and len(ranges[0]) > 100:
            raise AssertionError("an oversized enumeration started")
        return product(*ranges)
    monkeypatch.setattr(drw, "product", small_product)
    code = main(["verify", "drw-identities", "--p", "31", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["type"] == "ScaleExceeded"
    assert "bound = 2883 has 8317456 elements" in err["error"]


def test_cohomology_line_bundle_command(capsys):
    code, out = run(capsys, "cohomology", "line-bundle", "--p", "2",
                    "--n", "2", "--d", "1", "--a", "-2")
    data = json.loads(out)
    assert data["degrees"][1] == {"i": 1, "layers": [1, 3], "length": 4}


def test_cohomology_sweep_command(capsys):
    code, out = run(capsys, "cohomology", "sweep", "--p", "2", "--n", "2",
                    "--d", "1", "--a-min", "-2", "--a-max", "1")
    data = json.loads(out)
    assert len(data["rows"]) == 4


def test_localcoh_generate_command(capsys):
    code, out = run(capsys, "localcoh", "generate", "--p", "3", "--d", "2",
                    "--j", "0", "--bound", "7")
    assert code == 0
    data = json.loads(out)
    assert data["reached"] == data["target"]


def test_localcoh_stability_command_at_p2(capsys):
    # Teichmuller sums of more than two summands at p = 2 are read off w~;
    # the unipotent radical escapes N at n = 2, hence exit status 1
    code, out = run(capsys, "localcoh", "stability", "--p", "2", "--n", "2",
                    "--d", "3", "--j", "0")
    assert code == 1
    data = json.loads(out)
    assert data["cases"] == 33
    assert data["failures"]
    assert all("unipotent" in f["generator"] for f in data["failures"])


def test_steinberg_command(capsys):
    code, out = run(capsys, "steinberg", "--q", "2", "--dim", "3", "--I", "")
    assert code == 0
    data = json.loads(out)
    assert data["ranks"]["rank"] == 8


def test_wdiff_verify_command(capsys):
    code, out = run(capsys, "wdiff", "verify", "--relation", "versch",
                    "--p", "2", "--n", "1", "--seed", "3", "--samples", "4")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0


def test_wdiff_lift_command(tmp_path, capsys):
    """Lifting to --n 2 keeps each residue as its own lift over Z/3^3 and
    echoes the input operator as the provenance."""
    terms = [{"e": [1, -1], "order": [0, 2], "c": 2},
             {"e": [0, 0], "order": [1, 0], "c": 1}]
    f = tmp_path / "op.json"
    f.write_text(json.dumps({"p": 3, "n": 1, "vars": 2, "neg": [1],
                             "terms": terms}))
    code, out = run(capsys, "wdiff", "lift", "--op", str(f), "--n", "2")
    assert code == 0
    ordered = sorted(terms, key=lambda t: t["e"])
    expected = {
        "lift": {"p": 3, "n": 3, "vars": 2, "neg": [1], "terms": ordered},
        "provenance": {"p": 3, "n": 1, "vars": 2, "neg": [1],
                       "terms": ordered},
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_drw_basis_command(capsys):
    code, out = run(capsys, "drw", "basis", "--p", "2", "--n", "2",
                    "--d", "1", "--i", "0", "--bound", "4")
    data = json.loads(out)
    assert data["count"] == 5


_SMALL = {
    "witt-axioms": ("--p", "3", "--n", "2", "--seed", "7", "--samples", "5"),
    "wdiff-relations": ("--p", "2", "--n", "1", "--seed", "1",
                        "--samples", "2"),
    "drw-identities": ("--p", "2", "--n", "1"),
    "cohomology-sweep": ("--p", "2", "--n", "1", "--d", "1"),
    "localgen": ("--p", "3", "--bound", "4"),
    "steinberg": (),
}


@pytest.mark.parametrize("suite", sorted(checks.CHECKS))
def test_verify_suite(capsys, suite):
    """Each suite passes at a small size and its report is deterministic."""
    reports = []
    for _ in range(2):
        code, out = run(capsys, "verify", suite, *_SMALL[suite])
        assert code == 0
        data = json.loads(out)
        data.pop("elapsed_s")
        reports.append(data)
    assert reports[0]["failures"] == [] and reports[0] == reports[1]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope")


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WITTKIT_OUT_DIR", str(tmp_path))
    code, _ = run(capsys, "verify", "steinberg", "--out", "rep.json")
    assert code == 0
    assert json.loads((tmp_path / "rep.json").read_text())["failures"] == []


def test_table_format(capsys):
    code, out = run(capsys, "verify", "steinberg", "--format", "table")
    assert code == 0 and "suite\tsteinberg" in out
