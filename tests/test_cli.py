"""Tests for the command line front end."""

import argparse
import json
import os
import random
import time

import pytest

import modh1.cli
from modh1.cli import _job_count, main
from modh1.cohomology import ClaimRefused, Cocycle, certify_noncoboundary, \
    make_ba
from modh1.linalg import AbelianInvariants
from modh1.presentations import Word, builtin, evaluate_word


def run_json(capsys, args):
    code = main(list(args) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def checks_pass(payload):
    return all(c["pass"] for c in payload["checks"])


class TestH1:
    def test_psl2_degree_10(self, capsys):
        code, payload = run_json(capsys, ["h1", "--group", "psl2",
                                          "--n", "10"])
        assert code == 0
        assert payload["results"]["invariants"]["free_rank"] == 3
        assert checks_pass(payload)

    def test_sl2_degree_1_trivial(self, capsys):
        code, payload = run_json(capsys, ["h1", "--group", "sl2",
                                          "--n", "1"])
        assert code == 0
        assert payload["results"]["trivial"] is True

    def test_gl2_formula_check(self, capsys):
        code, payload = run_json(capsys, ["h1", "--group", "gl2",
                                          "--n", "10"])
        assert code == 0
        assert payload["results"]["invariants"]["free_rank"] == 1
        assert payload["results"]["matches_formula"] is True

    def test_free_group(self, capsys):
        code, payload = run_json(capsys, ["h1", "--group", "free:2",
                                          "--n", "1"])
        assert code == 0
        assert payload["results"]["invariants"]["free_rank"] == 2

    def test_congruence_subgroup(self, capsys):
        code, payload = run_json(capsys, ["h1", "--group", "gamma0bar:11",
                                          "--n", "2"])
        assert code == 0
        assert payload["results"]["cosets"] == 12
        assert payload["results"]["basis_rank"] == 3
        assert payload["results"]["invariants"]["free_rank"] == 6

    def test_unknown_group_is_usage_error(self, capsys):
        assert main(["h1", "--group", "nosuch", "--n", "2"]) == 2

    def test_torsion_prime_is_usage_error(self, capsys):
        assert main(["h1", "--group", "gamma0bar:13", "--n", "2"]) == 2

    def test_bad_degree_is_usage_error(self, capsys):
        assert main(["h1", "--group", "psl2", "--n", "0"]) == 2


class TestClassify:
    def test_dihedral_example(self, capsys):
        code, payload = run_json(capsys, ["classify", "--matrix", "2,1;1,1"])
        assert code == 0
        res = payload["results"]
        assert res["class"] == "hyperbolic"
        assert res["psl_type"] == "Dinf"
        assert res["sl2_type"] == "Z x| C4"
        assert res["witness"] == "0,-1;1,0"
        assert res["discriminant"] == 5
        assert checks_pass(payload)

    def test_cyclic_example(self, capsys):
        code, payload = run_json(capsys, ["classify", "--matrix", "3,1;2,1"])
        assert code == 0
        res = payload["results"]
        assert res["class"] == "hyperbolic"
        assert res["sl2_type"] == "Z x C2"
        assert "witness" not in res

    def test_parabolic_example(self, capsys):
        code, payload = run_json(capsys, ["classify", "--matrix", "1,3;0,1"])
        assert code == 0
        res = payload["results"]
        assert res["class"] == "parabolic"
        assert res["generator"] == "1,1;0,1"

    def test_elliptic_example(self, capsys):
        code, payload = run_json(capsys, ["classify", "--matrix", "0,-1;1,0"])
        assert code == 0
        res = payload["results"]
        assert res["class"] == "elliptic"
        assert res["order"] == 4
        assert res["psl_type"] == "C2"
        assert res["sl2_type"] == "C4"

    def test_central_example(self, capsys):
        code, payload = run_json(capsys, ["classify",
                                          "--matrix=-1,0;0,-1"])
        assert code == 0
        res = payload["results"]
        assert res["class"] == "central"
        assert "psl_type" not in res

    def test_wrong_determinant_is_usage_error(self, capsys):
        assert main(["classify", "--matrix", "1,2;3,4"]) == 2

    def test_malformed_matrix_is_usage_error(self, capsys):
        assert main(["classify", "--matrix", "1,2,3,4"]) == 2

    def test_internal_error_is_failed_check(self, capsys, monkeypatch):
        def broken(g):
            raise RuntimeError("consistency check tripped")

        monkeypatch.setattr(modh1.cli, "max_amenable_type", broken)
        code, payload = run_json(capsys, ["classify", "--matrix", "2,1;1,1"])
        assert code == 1
        assert payload["checks"] == [{
            "name": "internal consistency", "expected": "no error",
            "actual": "consistency check tripped", "pass": False}]


class TestPell:
    def test_json_by_default(self, capsys):
        code = main(["pell", "--d", "13"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["fundamental"] == [649, 180]

    def test_negative_and_four(self, capsys):
        code, payload = run_json(capsys, ["pell", "--d", "13", "--neg",
                                          "--four"])
        assert code == 0
        assert payload["results"]["negative"] == [18, 5]
        assert payload["results"]["four_normalized"] == [11, 3]

    def test_no_negative_solution(self, capsys):
        code, payload = run_json(capsys, ["pell", "--d", "3", "--neg"])
        assert code == 0
        assert payload["results"]["negative"] is None

    def test_solve_norm_equation(self, capsys):
        code, payload = run_json(capsys, ["pell", "--d", "5",
                                          "--solve", "-4"])
        assert code == 0
        assert [1, 1] in payload["results"]["representatives"]
        assert checks_pass(payload)

    @pytest.mark.parametrize("fmt", [["--format=text"], ["--format", "text"]])
    def test_explicit_text_format(self, capsys, fmt):
        # both spellings of the option override the JSON default
        assert main(["pell", "--d", "7"] + fmt) == 0
        out = capsys.readouterr().out
        assert out.startswith("pell (modh1 ")
        assert "all checks pass" in out

    def test_square_is_usage_error(self, capsys):
        assert main(["pell", "--d", "9"]) == 2

    def test_zero_norm_is_usage_error(self, capsys):
        assert main(["pell", "--d", "5", "--solve", "0"]) == 2


class TestVerifySuites:
    def test_formulas(self, capsys):
        code, payload = run_json(capsys, ["verify", "--suite", "formulas",
                                          "--n-even", "2..10"])
        assert code == 0
        assert payload["results"]["checks_run"] == 20
        assert checks_pass(payload)

    def test_identity(self, capsys):
        code, payload = run_json(capsys, ["verify", "--suite", "identity",
                                          "--n-max", "40"])
        assert code == 0
        assert checks_pass(payload)

    def test_congruence(self, capsys):
        code, payload = run_json(capsys, ["verify", "--suite", "congruence",
                                          "--p-max", "60"])
        assert code == 0
        assert checks_pass(payload)

    def test_pell(self, capsys):
        code, payload = run_json(capsys, ["verify", "--suite", "pell",
                                          "--d-max", "20"])
        assert code == 0
        assert checks_pass(payload)

    def test_amenable(self, capsys):
        code, payload = run_json(capsys, ["verify", "--suite", "amenable",
                                          "--count", "40"])
        assert code == 0
        assert payload["results"]["corpus_size"] == 40
        assert checks_pass(payload)

    def test_deterministic_output(self, capsys):
        _, first = run_json(capsys, ["verify", "--suite", "amenable",
                                     "--count", "30"])
        _, second = run_json(capsys, ["verify", "--suite", "amenable",
                                      "--count", "30"])
        first.pop("elapsed")
        second.pop("elapsed")
        assert first == second

    def test_parallel_matches_serial(self, capsys):
        _, serial = run_json(capsys, ["verify", "--suite", "formulas",
                                      "--n-even", "2..12", "--jobs", "1"])
        _, parallel = run_json(capsys, ["verify", "--suite", "formulas",
                                        "--n-even", "2..12", "--jobs", "2"])
        assert serial["checks"] == parallel["checks"]

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        # _job_count only computes the number; no pool is started here
        cpus = os.cpu_count() or 1
        assert _job_count(argparse.Namespace(jobs=100000)) == cpus
        assert _job_count(argparse.Namespace(jobs=-3)) == 1
        monkeypatch.setenv("MODH1_JOBS", "100000")
        assert _job_count(argparse.Namespace(jobs=None)) == cpus
        monkeypatch.setenv("MODH1_JOBS", "0")
        assert _job_count(argparse.Namespace(jobs=None)) == 1

    def test_jobs_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MODH1_JOBS", "2")
        code, payload = run_json(capsys, ["verify", "--suite", "identity",
                                          "--n-max", "12"])
        assert code == 0
        assert payload["params"]["jobs"] == 2

    def test_empty_sweep_fails(self, capsys):
        code, payload = run_json(capsys, ["verify", "--suite", "formulas",
                                          "--n-even", "40..2"])
        assert code == 1
        assert payload["results"]["checks_run"] == 0
        assert [c["name"] for c in payload["checks"]] == ["nonempty sweep"]
        assert not checks_pass(payload)

    def test_bad_range_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "formulas",
                     "--n-even", "2-10"]) == 2

    def test_csv_format(self, capsys):
        code = main(["verify", "--suite", "identity", "--n-max", "8",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,expected,actual,pass"
        assert len(lines) == 1 + 2 * 4
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["verify", "--suite", "identity", "--n-max", "8",
                     "--format", "json", "--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["command"] == "verify"


class TestWitness:
    def test_free_lift(self, capsys, tmp_path):
        cert = tmp_path / "lift.json"
        code, payload = run_json(capsys, ["witness", "--kind",
                                          "free-lift:11", "--n", "1",
                                          "--cert", str(cert)])
        assert code == 0
        assert payload["results"]["overgroups"] == ["K x <eps>", "sl2"]
        assert checks_pass(payload)
        assert cert.exists()

    @pytest.mark.parametrize("p", [11, 23, 47, 59, 71, 83, 107, 131])
    def test_free_lift_certifies_the_unit_cocycle(self, capsys, tmp_path, p):
        """The witness is the unit cocycle: X^n on the first basis
        generator, 0 on the others.  Both overgroups, K x <eps> and sl2,
        hold a central element acting by -1 on P_n at odd n, so by "center
        kills" (Brown, Cohomology of Groups, III.8) their restriction images
        in H^1 of the free subgroup are 2-torsion.  The unit class has
        infinite order, so neither image holds it."""
        for n in (1, 3, 5):
            cert = tmp_path / ("lift-%d-%d.json" % (p, n))
            code, payload = run_json(capsys, [
                "witness", "--kind", "free-lift:%d" % p, "--n", str(n),
                "--cert", str(cert)])
            assert code == 0
            assert payload["results"]["overgroups"] == ["K x <eps>", "sl2"]
            assert checks_pass(payload)
            values = json.loads(cert.read_text())["cocycle"]["values"]
            k = 1 + (p + 1) // 6
            assert values == [[1] + [0] * n] + [[0] * (n + 1)] * (k - 1)
            code, report = run_json(capsys, ["verify-certificate", str(cert)])
            assert code == 0 and checks_pass(report)

    @pytest.mark.parametrize("p, n, rank", [(11, 1, 4), (11, 3, 8),
                                            (47, 5, 48), (131, 3, 88)])
    def test_free_lift_checks_h1_free_rank(self, capsys, tmp_path, p, n,
                                           rank):
        # H^1 of the lifted free subgroup of rank k = 1 + (p+1)/6 has free
        # rank (k - 1)(n + 1), checked as h1 --group gamma0bar:p checks it
        code, payload = run_json(capsys, [
            "witness", "--kind", "free-lift:%d" % p, "--n", str(n),
            "--cert", str(tmp_path / "x.json")])
        assert code == 0
        assert payload["results"]["h1_free_rank"] == rank
        assert [c for c in payload["checks"]
                if c["name"] == "h1 free rank is (k - 1)(n + 1)"] == [{
                    "name": "h1 free rank is (k - 1)(n + 1)",
                    "expected": rank, "actual": rank, "pass": True}]

    def test_free_lift_reports_a_wrong_h1_free_rank(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(modh1.cli, "h1",
                            lambda *args: AbelianInvariants(3))
        code, payload = run_json(capsys, [
            "witness", "--kind", "free-lift:11", "--n", "1",
            "--cert", str(tmp_path / "x.json")])
        assert code == 1
        assert [c for c in payload["checks"] if not c["pass"]] == [{
            "name": "h1 free rank is (k - 1)(n + 1)", "expected": 4,
            "actual": 3, "pass": False}]

    def test_free_lift_needs_odd_degree(self, capsys, tmp_path):
        assert main(["witness", "--kind", "free-lift:11", "--n", "2",
                     "--cert", str(tmp_path / "x.json")]) == 2
        assert main(["witness", "--kind", "free-lift:11",
                     "--cert", str(tmp_path / "x.json")]) == 2
        # the other kinds take their degree from the kind, so --n is a
        # usage error there, and no certificate is written
        for kind in ("ba:2,1", "beps:4,1", "gammaN:5"):
            assert main(["witness", "--kind", kind, "--n", "2",
                         "--cert", str(tmp_path / "x.json")]) == 2
        assert not (tmp_path / "x.json").exists()

    def test_ba(self, capsys, tmp_path):
        cert = tmp_path / "ba.json"
        code, payload = run_json(capsys, ["witness", "--kind", "ba:2,1",
                                          "--cert", str(cert)])
        assert code == 0
        assert payload["results"]["cokernel"]["free_rank"] == 1
        assert checks_pass(payload)

    def test_beps(self, capsys, tmp_path):
        cert = tmp_path / "beps.json"
        code, payload = run_json(capsys, ["witness", "--kind", "beps:4,1",
                                          "--cert", str(cert)])
        assert code == 0
        assert payload["results"]["epsilon"] == [1]
        assert checks_pass(payload)

    def test_extending_class_is_refused(self, capsys, tmp_path):
        cert = tmp_path / "ba.json"
        code, payload = run_json(capsys, ["witness", "--kind", "ba:2,0",
                                          "--cert", str(cert)])
        assert code == 1
        assert payload["checks"] == [{
            "name": "class is nonextendable", "expected": "refuted",
            "actual": "the class extends to overgroup 'gl2'", "pass": False}]
        assert not cert.exists()

    @pytest.mark.parametrize("kind, certify, name", [
        ("free-lift:11 --n 1", "certify_nonextendable",
         "unit class is nonextendable"),
        ("beps:4,1", "certify_noncoboundary", "cocycle is not a coboundary"),
        ("gammaN:5", "certify_membership_sample", "membership sample clean")])
    def test_each_kind_reports_a_refusal(self, capsys, tmp_path, monkeypatch,
                                         kind, certify, name):
        def refuse(*args, **kwargs):
            raise ClaimRefused("refused")

        monkeypatch.setattr(modh1.cli, certify, refuse)
        cert = tmp_path / "x.json"
        code, payload = run_json(capsys, ["witness", "--kind"] + kind.split()
                                 + ["--cert", str(cert)])
        assert code == 1
        assert [(c["name"], c["actual"], c["pass"])
                for c in payload["checks"]] == [(name, "refused", False)]
        assert not cert.exists()

    @pytest.mark.parametrize("kind", ["free-lift:11 --n 1", "ba:4,1",
                                      "beps:4,1"])
    @pytest.mark.parametrize("flag", ["--seed", "--count", "--max-length"])
    def test_sample_flags_are_for_gamma_only(self, capsys, tmp_path, kind,
                                             flag):
        # a flag the kind does not read is a usage error, not ignored
        cert = tmp_path / "x.json"
        assert main(["witness", "--kind"] + kind.split()
                    + [flag, "5", "--cert", str(cert)]) == 2
        assert "reads no %s" % flag in capsys.readouterr().err
        assert not cert.exists()

    def test_oversized_sample_is_usage_error(self, capsys, tmp_path):
        assert main(["witness", "--kind", "gammaN:5", "--count",
                     str(10 ** 12), "--cert", str(tmp_path / "x.json")]) == 2
        assert main(["witness", "--kind", "gammaN:0",
                     "--cert", str(tmp_path / "x.json")]) == 2

    def test_beps_zero_vector_is_usage_error(self, capsys, tmp_path):
        assert main(["witness", "--kind", "beps:4,0",
                     "--cert", str(tmp_path / "x.json")]) == 2

    def test_membership_sample(self, capsys, tmp_path):
        cert = tmp_path / "gamma.json"
        code, payload = run_json(capsys, ["witness", "--kind", "gammaN:5",
                                          "--count", "500", "--cert",
                                          str(cert)])
        assert code == 0
        assert payload["results"]["sampled_words"] == 500
        assert checks_pass(payload)

    def test_membership_sample_level_one(self, capsys, tmp_path):
        code, payload = run_json(capsys, ["witness", "--kind", "gammaN:1",
                                          "--count", "20", "--cert",
                                          str(tmp_path / "gamma1.json")])
        assert code == 0
        assert checks_pass(payload)

    def test_unknown_kind_is_usage_error(self, capsys):
        assert main(["witness", "--kind", "nope:1"]) == 2
        assert main(["witness", "--kind", "nope"]) == 2


class TestVerifyCertificate:
    def make_cert(self, capsys, tmp_path):
        cert = tmp_path / "lift.json"
        main(["witness", "--kind", "free-lift:11", "--n", "1",
              "--cert", str(cert)])
        capsys.readouterr()
        return cert

    def test_roundtrip(self, capsys, tmp_path):
        cert = self.make_cert(capsys, tmp_path)
        code, payload = run_json(capsys, ["verify-certificate", str(cert)])
        assert code == 0
        assert payload["results"]["kind"] == "nonextendable"
        assert checks_pass(payload)

    def test_tampered_functional_fails(self, capsys, tmp_path):
        cert = self.make_cert(capsys, tmp_path)
        payload = json.loads(cert.read_text())
        ref = payload["overgroups"][0]["refutation"]
        ref["functional"] = [0] * len(ref["functional"])
        cert.write_text(json.dumps(payload))
        code, report = run_json(capsys, ["verify-certificate", str(cert)])
        assert code == 1
        assert not checks_pass(report)

    def test_tampered_matrix_fails(self, capsys, tmp_path):
        cert = self.make_cert(capsys, tmp_path)
        payload = json.loads(cert.read_text())
        payload["overgroups"][1]["matrices"][0][0] += 1
        cert.write_text(json.dumps(payload))
        code, report = run_json(capsys, ["verify-certificate", str(cert)])
        assert code == 1

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        assert main(["verify-certificate", str(tmp_path / "no.json")]) == 2

    def test_non_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["verify-certificate", str(bad)]) == 2

    @pytest.mark.parametrize("text", ["[]", '"x"', "3"])
    def test_non_object_fails_format(self, capsys, tmp_path, text):
        # valid JSON that is not an object is a failed check, not a crash
        bad = tmp_path / "array.json"
        bad.write_text(text)
        code, report = run_json(capsys, ["verify-certificate", str(bad)])
        assert code == 1
        assert report["checks"] == [{
            "name": "format", "expected": "modh1-certificate-1",
            "actual": "not a JSON object", "pass": False}]

    def test_wrong_format_tag_fails(self, capsys, tmp_path):
        bad = tmp_path / "tag.json"
        bad.write_text(json.dumps({"format": "other", "kind": "x"}))
        code, report = run_json(capsys, ["verify-certificate", str(bad)])
        assert code == 1
        assert report["checks"][0]["name"] == "format"


def _zero_functional(ref):
    ref["functional"] = [0] * len(ref["functional"])


# (certificate kind, tamper, edit of the payload, check that must fail)
TAMPERS = [
    ("ba", "zeroed functional",
     lambda p: _zero_functional(p["overgroups"][0]["refutation"]),
     "gl2 refutation"),
    ("ba", "changed modulus",
     lambda p: p["overgroups"][0]["refutation"].update(modulus=1),
     "gl2 refutation"),
    ("lift", "changed modulus",
     lambda p: p["overgroups"][1]["refutation"].update(modulus=1),
     "sl2 refutation"),
    ("ba", "altered cocycle entry",
     lambda p: p["cocycle"]["values"][0].__setitem__(1, 1),
     "cocycle condition"),
    ("ba", "altered overgroup matrix",
     lambda p: p["overgroups"][0]["matrices"][2].__setitem__(0, 1),
     "gl2 relators"),
    ("lift", "altered overgroup matrix",
     lambda p: p["overgroups"][0]["matrices"].__setitem__(
         0, p["overgroups"][0]["matrices"][1]),
     "K x <eps> embedding"),
    # singular subgroup matrices, one with a zero first column: rho_n of
    # each is built without error, and the embedding check rejects them
    ("lift", "subgroup matrix 0,1;0,1",
     lambda p: p["subgroup"]["matrices"].__setitem__(0, [0, 1, 0, 1]),
     "K x <eps> embedding"),
    ("lift", "subgroup matrix 1,1;1,1",
     lambda p: p["subgroup"]["matrices"].__setitem__(0, [1, 1, 1, 1]),
     "K x <eps> embedding"),
    ("lift", "subgroup matrix 0,0;0,0",
     lambda p: p["subgroup"]["matrices"].__setitem__(0, [0, 0, 0, 0]),
     "K x <eps> embedding"),
    ("ba", "swapped embedding word",
     lambda p: p["overgroups"][0]["embedding"].reverse(),
     "gl2 embedding"),
    ("lift", "swapped embedding word",
     lambda p: p["overgroups"][1]["embedding"].reverse(),
     "sl2 embedding"),
    ("ba", "no overgroups",
     lambda p: p.update(overgroups=[]),
     "overgroups listed"),
    ("ba", "embedding word missing",
     lambda p: p["overgroups"][0]["embedding"].pop(),
     "gl2 embedding"),
    ("beps", "zeroed functional",
     lambda p: _zero_functional(p["refutation"]),
     "coboundary refutation"),
    ("beps", "altered cocycle entry",
     lambda p: p["cocycle"]["values"][0].__setitem__(0, 1),
     "cocycle condition"),
    ("ba", "unknown kind",
     lambda p: p.update(kind="bogus"),
     "kind"),
    ("beps", "unknown kind",
     lambda p: p.update(kind="bogus"),
     "kind"),
    ("ba", "subgroup matrix breaking a relator",
     lambda p: p["subgroup"]["matrices"].__setitem__(0, [1, 1, 0, 1]),
     "subgroup relators"),
    ("beps", "subgroup matrix breaking a relator",
     lambda p: p["subgroup"]["matrices"].__setitem__(0, [1, 1, 0, 1]),
     "subgroup relators"),
    ("gamma", "altered mismatch count",
     lambda p: p.update(mismatches=3),
     "claimed mismatch count"),
    ("gamma", "altered seed",
     lambda p: p.update(seed=p["seed"] + 1),
     "sampled words digest"),
    # fields of the wrong JSON type, which int() or bool() would coerce
    # into the genuine values
    ("lift1", "cocycle values shifted by 0.5",
     lambda p: p["cocycle"].update(values=[[x + 0.5 for x in v]
                                           for v in p["cocycle"]["values"]]),
     "payload fields"),
    ("lift1", "cocycle values as decimal strings",
     lambda p: p["cocycle"].update(values=[[str(x) for x in v]
                                           for v in p["cocycle"]["values"]]),
     "payload fields"),
    ("lift1", "subgroup projective as a string",
     lambda p: p["subgroup"].update(projective="yes"),
     "payload fields"),
    ("lift1", "overgroup projective as a string",
     lambda p: p["overgroups"][0].update(projective="yes"),
     "payload fields"),
    ("ba", "matrix entry as a bool",
     lambda p: p["subgroup"]["matrices"][0].__setitem__(2, True),
     "payload fields"),
    ("lift", "overgroup matrix entry as a bool",
     lambda p: p["overgroups"][1]["matrices"][0].__setitem__(2, True),
     "payload fields"),
    ("lift", "subgroup matrix entry as 1.5",
     lambda p: p["subgroup"]["matrices"][0].__setitem__(0, 1.5),
     "payload fields"),
    ("ba", "modulus as a string",
     lambda p: p["overgroups"][0]["refutation"].update(
         modulus=str(p["overgroups"][0]["refutation"]["modulus"])),
     "payload fields"),
    ("ba", "functional as decimal strings",
     lambda p: p["overgroups"][0]["refutation"].update(functional=[
         str(x) for x in p["overgroups"][0]["refutation"]["functional"]]),
     "payload fields"),
    ("gamma", "fractional seed",
     lambda p: p.update(seed=0.5),
     "payload fields"),
    ("gamma", "count as a string",
     lambda p: p.update(count=str(p["count"])),
     "payload fields"),
    ("gamma", "mismatches as a bool",
     lambda p: p.update(mismatches=False),
     "payload fields"),
]

WITNESS_ARGS = {
    "ba": ["--kind", "ba:4,1"],
    "beps": ["--kind", "beps:6,11"],
    "lift": ["--kind", "free-lift:11", "--n", "3"],
    "lift1": ["--kind", "free-lift:11", "--n", "1"],
    "gamma": ["--kind", "gammaN:5", "--count", "200"],
}


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    # one genuine certificate per kind, written once for the module
    out = {}
    for key, args in WITNESS_ARGS.items():
        path = tmp_path_factory.mktemp("certs") / (key + ".json")
        assert main(["witness"] + args + ["--cert", str(path),
                                          "--format", "json"]) == 0
        out[key] = path.read_text()
    return out


def verify_payload(capsys, tmp_path, payload):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    return run_json(capsys, ["verify-certificate", str(path)])


def failed_checks(report):
    return [c["name"] for c in report["checks"] if not c["pass"]]


class TestTamperRejection:
    @pytest.mark.parametrize("key", sorted(WITNESS_ARGS))
    def test_genuine_certificates_pass(self, capsys, tmp_path, certificates,
                                       key):
        code, report = verify_payload(capsys, tmp_path,
                                      json.loads(certificates[key]))
        assert code == 0 and checks_pass(report)

    @pytest.mark.parametrize("key, name, edit, check", TAMPERS,
                             ids=["%s: %s" % t[:2] for t in TAMPERS])
    def test_tampered_copy_fails_its_check(self, capsys, tmp_path,
                                           certificates, key, name, edit,
                                           check):
        payload = json.loads(certificates[key])
        edit(payload)
        # compared as JSON text, where false is not 0
        assert json.dumps(payload, sort_keys=True) != json.dumps(
            json.loads(certificates[key]), sort_keys=True)
        code, report = verify_payload(capsys, tmp_path, payload)
        assert code == 1
        assert check in failed_checks(report)

    @pytest.mark.parametrize("key", ["ba", "beps"])
    def test_matrix_count_mismatch_is_malformed(self, capsys, tmp_path,
                                                certificates, key):
        # one matrix short of the generators: a usage error, not an
        # IndexError from evaluating a relator
        payload = json.loads(certificates[key])
        payload["subgroup"]["matrices"].pop()
        path = tmp_path / "short.json"
        path.write_text(json.dumps(payload))
        assert main(["verify-certificate", str(path)]) == 2

    def test_projective_subgroup_at_odd_degree_is_malformed(self, capsys,
                                                           tmp_path):
        # rho_3 sends the psl2 relators to -1, so there is no cocycle
        # condition to check: a usage error, not a failed check
        pres, assign = builtin("psl2")
        cert = certify_noncoboundary(pres, assign, 4,
                                     Cocycle(pres, make_ba(4, 1).values))
        payload = json.loads(cert.to_json())
        payload["degree"] = 3
        payload["cocycle"]["values"] = [[1, 0, 0, -1], [0, 0, 0, 0]]
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(payload))
        assert main(["verify-certificate", str(path)]) == 2
        assert "does not satisfy relator" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["ba", "beps"])
    @pytest.mark.parametrize("degree", [10 ** 9, -1, True, 4.0, "4", None])
    def test_untrusted_degree_is_bounded(self, capsys, tmp_path,
                                         certificates, key, degree):
        payload = json.loads(certificates[key])
        payload["degree"] = degree
        start = time.perf_counter()
        code, report = verify_payload(capsys, tmp_path, payload)
        assert time.perf_counter() - start < 0.1
        assert code == 1
        assert failed_checks(report) == ["payload fields"]

    @pytest.mark.parametrize("kind, n", [("ba:1000000000,1", None),
                                         ("beps:1000000,1", None),
                                         ("free-lift:11", "1000001")])
    def test_witness_degree_above_bound_is_usage_error(self, capsys,
                                                       tmp_path, monkeypatch,
                                                       kind, n):
        # the bound is checked before anything of that degree is built
        def refuse(*args, **kwargs):
            raise AssertionError("built before the degree check")

        for name in ("make_ba", "make_beps", "schreier_free_basis"):
            monkeypatch.setattr(modh1.cli, name, refuse)
        args = ["witness", "--kind", kind, "--cert", str(tmp_path / "x.json")]
        if n is not None:
            args += ["--n", n]
        start = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - start < 0.1
        assert not (tmp_path / "x.json").exists()

    def test_costly_certificate_fails_fast(self, capsys, tmp_path,
                                           certificates):
        # a free-lift certificate at degree 31 whose three sl2 embedding
        # words have 800 letters each, with matching subgroup and K x <eps>
        # matrices: 2426 letters times 32^3 is over the budget, so the
        # re-check stops before any linear algebra
        rng = random.Random(5)
        pres, assignment = builtin("sl2")
        payload = json.loads(certificates["lift"])
        k = len(payload["subgroup"]["generators"])
        words = [Word([(rng.randrange(2), 1) for _ in range(800)])
                 for _ in range(k)]
        mats = [list(evaluate_word(w, assignment.matrices).entries())
                for w in words]
        payload["degree"] = 31
        payload["subgroup"]["matrices"] = mats
        payload["cocycle"]["values"] = [[1] * 32 for _ in range(k)]
        kx, sl2 = payload["overgroups"]
        kx["matrices"][:k] = mats
        sl2["embedding"] = [w.format(pres.generators) for w in words]
        start = time.perf_counter()
        code, report = verify_payload(capsys, tmp_path, payload)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert failed_checks(report) == ["payload fields"]
        assert "budget" in report["checks"][0]["actual"]

    def test_exponents_are_counted_unexpanded(self, capsys, tmp_path,
                                              certificates, monkeypatch):
        # w^1000000000 is counted from its exponent; parsing would expand it
        def refuse(*args, **kwargs):
            raise AssertionError("parsed before the budget check")

        payload = json.loads(certificates["ba"])
        payload["overgroups"][0]["relators"].append("w^1000000000")
        monkeypatch.setattr(Word, "parse", refuse)
        code, report = verify_payload(capsys, tmp_path, payload)
        assert code == 1
        assert failed_checks(report) == ["payload fields"]

    def test_witness_over_budget_is_usage_error(self, capsys, tmp_path,
                                                monkeypatch):
        # free-lift:131 has 690 letters, so degree 43 is over the budget;
        # it is refused before h1 runs and nothing is written
        def refuse(*args, **kwargs):
            raise AssertionError("h1 ran before the budget check")

        monkeypatch.setattr(modh1.cli, "h1", refuse)
        path = tmp_path / "x.json"
        assert main(["witness", "--kind", "free-lift:131", "--n", "43",
                     "--cert", str(path)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not path.exists()
