import json
import pathlib
import re
import subprocess
import sys

import pytest

from symquiv import cartan, cli, errors, grassmann
from symquiv.errors import InterpolationError, TooLargeError

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "symquiv.cli", *argv],
        capture_output=True, text=True)
    return proc


class TestBasicCommands:
    def test_roots_b2(self):
        proc = run_cli("roots", "--datum", str(DATA / "b2.json"))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["count"] == 4

    def test_roots_golden(self):
        proc = run_cli("roots", "--datum", str(DATA / "b2.json"))
        assert proc.stdout == (GOLDEN / "roots_b2.json").read_text()

    def test_forms_golden(self):
        proc = run_cli("forms", "--datum", str(DATA / "b2.json"))
        assert proc.stdout == (GOLDEN / "forms_b2.json").read_text()

    def test_byte_identical_repeat_runs(self):
        a = run_cli("fpoly", "--datum", str(DATA / "b2.json"))
        b = run_cli("fpoly", "--datum", str(DATA / "b2.json"))
        assert a.stdout == b.stdout == (GOLDEN / "fpoly_b2.json").read_text()

    def test_fpoly_fixed_locus_golden(self):
        # G2 (2, 3) fails the torus gate: its F-polynomial is fitted to
        # point counts of the torus fixed locus
        proc = run_cli("fpoly", "--datum", str(DATA / "g2.json"))
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "fpoly_g2.json").read_text()

    def test_fpoly_f4_golden(self):
        # the deepest walk of the rank <= 4 catalog: eight F4 roots fail the
        # torus gate and are point-counted on the fixed locus
        proc = run_cli("fpoly", "--datum", str(DATA / "f4.json"))
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "fpoly_f4.json").read_text()

    def test_homext_csv_golden(self):
        proc = run_cli("homext-table", "--datum", str(DATA / "b2.json"),
                       "--format", "csv")
        assert proc.stdout == (GOLDEN / "homext_b2.csv").read_text()

    def test_omega_override(self):
        proc = run_cli("forms", "--datum", str(DATA / "b2.json"), "--omega", "2,1")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["gram_euler"] == [[2, -2], [0, 1]]


class TestExitCodes:
    def test_cluster_match_b2(self):
        proc = run_cli("cluster-match", "--datum", str(DATA / "b2.json"))
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "4/4 matched"

    def test_non_dynkin_is_usage_error(self, tmp_path):
        path = tmp_path / "affine.json"
        path.write_text('{"C": [[2,-2],[-2,2]], "D": [1,1], "Omega": [[1,2]]}')
        proc = run_cli("coxeter-check", "--datum", str(path))
        assert proc.returncode == 2
        assert "usage error" in proc.stderr

    def test_missing_seed_rejected(self):
        proc = run_cli("serre-check", "--datum", str(DATA / "b2.json"),
                       "--samples", "2")
        assert proc.returncode == 2

    def test_flag_of_another_command_rejected(self):
        proc = run_cli("roots", "--datum", str(DATA / "b2.json"), "--seed", "3")
        assert proc.returncode == 2

    def test_missing_datum(self):
        proc = run_cli("roots")
        assert proc.returncode == 2

    @pytest.mark.parametrize("error", [TooLargeError("enumeration budget of 1 exhausted")])
    def test_exhausted_resources_exit_3(self, monkeypatch, capsys, error):
        # running out of budget is not a broken invariant (exit 1)
        def exhausted(self, m, n):
            raise error

        monkeypatch.setattr(grassmann.PBWEngine, "pairing", exhausted)
        with pytest.raises(SystemExit) as info:
            cli.main(["pbw-check", "--datum", str(DATA / "b2.json")])
        assert info.value.code == 3
        assert capsys.readouterr().err.startswith("resources exhausted: ")

    def test_vertex_budget_names_the_enumeration(self, monkeypatch, capsys):
        # a real vertex charge running out: the message names the vertex, its
        # rank, e_v, the prime and the size of the candidate set
        class TinyBudget(grassmann._Budget):
            def __init__(self, units):
                super().__init__(3)

        monkeypatch.setattr(grassmann, "_Budget", TinyBudget)
        # every B2 root passes the torus gate and spends no budget; the G2
        # root (2, 3) fails it and is point-counted
        with pytest.raises(SystemExit) as info:
            cli.main(["fpoly", "--datum", str(DATA / "g2.json")])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("resources exhausted: enumeration budget of 3 exhausted by the ")
        assert re.search(r"the \d+ free rank-\d candidates at vertex \d \(rank \d\) over F_\d+$",
                         err.strip()), err

    def test_prime_pool_exhausted_exit_3(self):
        # a fit needs at least five points; 67 and 71 end the pool, so the
        # user set is not extended and the fit stops after two counts (on
        # the G2 root (2, 3), the first root that fails the torus gate)
        proc = run_cli("fpoly", "--datum", str(DATA / "g2.json"), "--prime-set", "67,71")
        assert proc.returncode == 3
        assert proc.stderr.startswith("resources exhausted: prime pool exhausted")

    def test_counts_that_do_not_fit_exit_1(self, monkeypatch, capsys):
        # counts that no polynomial fits break an invariant; more primes
        # would not help
        def no_fit(self, m, n):
            raise InterpolationError("counts do not fit an integer polynomial of degree <= 1")

        monkeypatch.setattr(grassmann.PBWEngine, "pairing", no_fit)
        with pytest.raises(SystemExit) as info:
            cli.main(["pbw-check", "--datum", str(DATA / "b2.json")])
        assert info.value.code == 1
        assert capsys.readouterr().err.startswith("violated: counts do not fit")

    # the errors that mean a broken invariant (exit 1); a new error class has
    # to be placed here, in cli.USAGE_ERRORS or in cli.RESOURCE_ERRORS
    INVARIANT_ERRORS = (errors.SymquivError, errors.NotSinkOrSourceError,
                        errors.NotReducedError, errors.ShapeMismatchError,
                        errors.SpecMismatchError, errors.NotLocallyFreeError,
                        errors.NotNilpotentError, errors.InternalMismatchError,
                        errors.InterpolationError, errors.PrimeReductionError,
                        errors.UndefinedValueError)
    ERROR_CLASSES = [obj for obj in vars(errors).values()
                     if isinstance(obj, type) and issubclass(obj, errors.SymquivError)]

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_error_class_has_one_exit_code(self, monkeypatch, error):
        codes = [code for code, classes in ((2, cli.USAGE_ERRORS),
                                            (3, cli.RESOURCE_ERRORS),
                                            (1, self.INVARIANT_ERRORS))
                 if error in classes]
        assert len(codes) == 1, codes

        def fails(args):
            raise error.__new__(error)  # skips __init__, whose arguments vary

        monkeypatch.setattr(cli, "cmd_roots", fails)
        with pytest.raises(SystemExit) as info:
            cli.main(["roots"])
        assert info.value.code == codes[0]


PATH5 = [[1, 2], [2, 3], [3, 4], [4, 5]]
RANK5 = {  # datum, number of positive roots, number of cluster variables
    "B5": ({"C": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
                  [0, 0, -1, 2, -1], [0, 0, 0, -2, 2]],
            "D": [2, 2, 2, 2, 1], "Omega": PATH5}, 25, 30),
    "C5": ({"C": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
                  [0, 0, -1, 2, -2], [0, 0, 0, -1, 2]],
            "D": [1, 1, 1, 1, 2], "Omega": PATH5}, 25, 30),
    "D5": ({"C": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
                  [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
            "D": [1, 1, 1, 1, 1], "Omega": [[1, 2], [2, 3], [3, 4], [3, 5]]}, 20, 25),
}


class TestClusterMatchRank5:
    @pytest.mark.parametrize("name", sorted(RANK5))
    def test_every_root_matches(self, tmp_path, name):
        obj, roots, variables = RANK5[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("cluster-match", "--datum", str(path))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == f"{roots}/{roots} matched"
        payload = json.loads(lines[1])
        assert payload["cluster_variable_count"] == variables
        assert payload["missed"] == [] and payload["sign"] == -1


class TestDeterministicRandomized:
    def test_pi_check_deterministic(self):
        a = run_cli("pi-check", "--datum", str(DATA / "b2.json"),
                    "--samples", "4", "--seed", "9")
        b = run_cli("pi-check", "--datum", str(DATA / "b2.json"),
                    "--samples", "4", "--seed", "9")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_serre_check_small(self):
        proc = run_cli("serre-check", "--datum", str(DATA / "b2.json"),
                       "--samples", "3", "--seed", "4")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True


class TestPBWCheck:
    """Weights whose direct-sum flag counts ran out of time or budget before
    the pairing was localized to root modules."""

    def test_b2_weight_3_3(self):
        proc = run_cli("pbw-check", "--datum", str(DATA / "b2.json"), "--weight-bound", "3,3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["identity"] is True

    def test_g2_highest_root(self):
        path = DATA / "g2.json"
        datum, _ = cartan.datum_from_json(path.read_text())
        highest = max(cartan.positive_roots(datum), key=sum)
        proc = run_cli("pbw-check", "--datum", str(path),
                       "--weight-bound", ",".join(map(str, highest)))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["weight_bound"] == [2, 3]
        assert payload["identity"] is True


F4 = {"C": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
      "D": [2, 2, 1, 1], "Omega": [[1, 2], [2, 3], [3, 4]]}


def usage_error(capsys, argv):
    """Run the CLI in-process; return its stderr after checking for exit 2."""
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err, err
    return err


class TestBadWeightBound:
    """--weight-bound takes one non-negative integer per vertex."""

    def test_f4_default_is_too_short(self, tmp_path, capsys):
        # the default 2,2 once ran F4 over weights cut to two coordinates
        path = tmp_path / "f4.json"
        path.write_text(json.dumps(F4))
        err = usage_error(capsys, ["pbw-check", "--datum", str(path)])
        assert "'2,2' needs 4 non-negative integers" in err

    def test_f4_too_long(self, tmp_path, capsys):
        path = tmp_path / "f4.json"
        path.write_text(json.dumps(F4))
        err = usage_error(capsys, ["pbw-check", "--datum", str(path),
                                   "--weight-bound", "1,1,1,1,1"])
        assert "'1,1,1,1,1' needs 4 non-negative integers" in err

    def test_negative_entry(self, capsys):
        # "=" keeps argparse from reading -1,2 as an option
        err = usage_error(capsys, ["pbw-check", "--datum", str(DATA / "g2.json"),
                                   "--weight-bound=-1,2"])
        assert "'-1,2' needs 2 non-negative integers" in err

    def test_not_an_integer(self, capsys):
        err = usage_error(capsys, ["pbw-check", "--datum", str(DATA / "g2.json"),
                                   "--weight-bound", "1,x"])
        assert "'1,x' is not a list of integers" in err


class TestBadPrimeSet:
    @pytest.mark.parametrize("command", ["fpoly", "nofilt-check"])
    def test_not_prime(self, capsys, command):
        err = usage_error(capsys, [command, "--datum", str(DATA / "b2.json"),
                                   "--prime-set", "4,6"])
        assert "--prime-set '4,6': 4 is not prime" in err

    @pytest.mark.parametrize("command", ["pbw-check", "nofilt-check"])
    def test_not_an_integer(self, capsys, command):
        err = usage_error(capsys, [command, "--datum", str(DATA / "b2.json"),
                                   "--prime-set", "5,x"])
        assert "'5,x' is not a list of integers" in err

    def test_given_set_is_extended(self):
        args = cli.build_parser().parse_args(
            ["fpoly", "--datum", "b2.json", "--prime-set", "13,7,13"])
        assert cli._prime_pool(args) == (7, 13) + tuple(
            p for p in grassmann.PRIME_POOL if p > 13)
        args.prime_set = None
        assert cli._prime_pool(args) == grassmann.PRIME_POOL


class TestNofilt:
    def test_b2_order_asymmetry(self):
        proc = run_cli("nofilt-check", "--datum", str(DATA / "b2.json"),
                       "--prime-set", "5,7")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        betas = {tuple(r["beta"]) for r in payload["results"]}
        assert (1, 1) in betas  # the decomposable root beta_1 + beta_4

    def test_g2_golden(self):
        proc = run_cli("nofilt-check", "--datum", str(DATA / "g2.json"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "nofilt_g2.json").read_text()


class TestTranscripts:
    @staticmethod
    def check_entries(stdout, transcripts):
        """A fitted entry reproduces its held-out count; a coordinate entry
        is the coefficient that fpoly printed (0 when the term is absent)."""
        printed = {(tuple(entry["rank"]), tuple(term["e"])): term["coeff"]
                   for entry in json.loads(stdout) for term in entry["terms"]}
        kinds = set()
        for label, entry in transcripts.items():
            if "coordinate_count" in entry:
                kinds.add("coordinate")
                rank, e = re.fullmatch(r"grlf (\[.*?\]) (\[.*\])", label).groups()
                key = (tuple(json.loads(rank)), tuple(json.loads(e)))
                assert entry["coordinate_count"] == printed.get(key, 0), label
            else:
                kinds.add("fitted")
                prime, count = entry["held_out"]
                value = sum(c * prime ** k for k, c in enumerate(entry["coefficients"]))
                assert value == count, label
        return kinds

    def test_results_dir(self, tmp_path):
        proc = run_cli("fpoly", "--datum", str(DATA / "b2.json"),
                       "--results-dir", str(tmp_path))
        assert proc.returncode == 0
        transcripts = json.loads((tmp_path / "transcripts.json").read_text())
        # one Grassmannian per root rank r of B2 and rank vector e <= r
        expected = {f"grlf {[r0, r1]} {[e0, e1]}"
                    for r0, r1 in ((1, 0), (1, 1), (1, 2), (0, 1))
                    for e0 in range(r0 + 1) for e1 in range(r1 + 1)}
        assert set(transcripts) == expected
        assert self.check_entries(proc.stdout, transcripts) == {"coordinate"}

    def test_results_dir_both_kinds(self, tmp_path):
        # G2: the root (2, 3) fails the torus gate and is fitted, the other
        # five are counted by coordinates
        proc = run_cli("fpoly", "--datum", str(DATA / "g2.json"),
                       "--results-dir", str(tmp_path))
        assert proc.returncode == 0
        transcripts = json.loads((tmp_path / "transcripts.json").read_text())
        expected = {f"grlf {entry['rank']} {[e0, e1]}"
                    for entry in json.loads(proc.stdout)
                    for e0 in range(entry["rank"][0] + 1) for e1 in range(entry["rank"][1] + 1)}
        assert set(transcripts) == expected
        assert all(("coordinate_count" in entry) == (not label.startswith("grlf [2, 3] "))
                   for label, entry in transcripts.items())
        assert self.check_entries(proc.stdout, transcripts) == {"coordinate", "fitted"}
        # the fits count the fixed locus of the torus of (2, 3), a different
        # variety from Gr^lf_e with the same Euler characteristic: the value
        # at q = 1 is the coefficient that fpoly printed
        printed = {tuple(term["e"]): term["coeff"] for entry in json.loads(proc.stdout)
                   if entry["rank"] == [2, 3] for term in entry["terms"]}
        fitted = {label: entry for label, entry in transcripts.items()
                  if "coordinate_count" not in entry}
        assert len(fitted) == 3 * 4
        for label, entry in fitted.items():
            assert entry["variety"] == "fixed_locus", label
            e = tuple(json.loads(label.split("] ", 1)[1]))
            assert sum(entry["coefficients"]) == printed.get(e, 0), label


class TestVerifyCommand:
    def test_single_criterion(self):
        proc = run_cli("verify", "--criterion", "1")
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout

    def test_verify_criterion_13(self):
        proc = run_cli("verify", "--criterion", "13")
        assert proc.returncode == 0
