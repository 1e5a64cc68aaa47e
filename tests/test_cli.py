"""Command-line behaviour: documented outputs, determinism, exit codes."""

import ast
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from etakit import cli
from etakit.cli import ParseError, load_config, main, parse_character
from etakit.grouprep import character_table


GOLDEN = Path(__file__).parent / "golden"
VERIFY_JSON = "verify --suite all --format json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout):
    """`python -m etakit.cli` in a fresh interpreter on this checkout's src."""
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout)


def readme_examples():
    """The commands of the README "Command line" block, without `etakit`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.join(shlex.split(line, comments=True)[1:])
            for line in block.strip().splitlines()]


class TestDocumentedCommands:
    def test_eta_cyclic(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "cyclic", "--l", "8",
                               "--a", "1,1", "--rho", "r0-r4")
        assert code == 0
        assert out == "-1 (order 2 mod 2Z)\n"

    def test_normal_form(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "--algebra", "sd",
                               "--expr", "y*u^3")
        assert code == 0
        assert out == "y^3*u*P\n"

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, *VERIFY_JSON.split())
        assert code == 0
        assert out == (GOLDEN / "verify_all.json").read_text(encoding="utf-8")

    # the JSON report is compared byte for byte by test_verify_json
    @pytest.mark.parametrize("command", [c for c in readme_examples() if c != VERIFY_JSON])
    def test_readme_example(self, capsys, command):
        golden = json.loads((GOLDEN / "readme_examples.json").read_text(encoding="utf-8"))
        assert run_cli(capsys, *shlex.split(command))[:2] == (0, golden[command])

    @pytest.mark.parametrize("command", list(json.loads(
        (GOLDEN / "push_json.json").read_text(encoding="utf-8"))))
    def test_push_json(self, capsys, command):
        golden = json.loads((GOLDEN / "push_json.json").read_text(encoding="utf-8"))
        assert run_cli(capsys, *command.split())[:2] == (0, golden[command])

    @pytest.mark.parametrize("command", list(json.loads(
        (GOLDEN / "restrict_defaults.json").read_text(encoding="utf-8"))))
    def test_restrict_defaults(self, capsys, command):
        golden = json.loads((GOLDEN / "restrict_defaults.json").read_text(encoding="utf-8"))
        assert run_cli(capsys, *command.split())[:2] == (0, golden[command])

    def test_determinism(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "eta", "quaternion", "--k", "1",
                                "--rho", "(2-tau)^2")
            outputs.add(out)
        assert len(outputs) == 1


class TestEtaCommand:
    def test_auto_modulus_quaternion_dim7(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "quaternion", "--k", "1",
                               "--rho", "2-tau")
        assert code == 0
        assert out == "13/32 (order 64 mod 2Z)\n"

    def test_explicit_modulus(self, capsys):
        _, out, _ = run_cli(capsys, "eta", "quaternion", "--k", "0",
                            "--rho", "2-tau", "--mod", "z")
        assert out == "7/8 (order 8 mod Z)\n"

    def test_bundle(self, capsys):
        _, out, _ = run_cli(capsys, "eta", "bundle", "--l", "8", "--a", "1,1",
                            "--rho", "r0-r1")
        assert out == "-7/8 (order 8 mod Z)\n"

    def test_cyclic_ignores_chern(self, capsys):
        _, out, _ = run_cli(capsys, "eta", "cyclic", "--l", "8", "--a", "1,1",
                            "--chern", "2,0", "--rho", "r0-r4")
        assert out == "-1 (order 2 mod 2Z)\n"

    def test_float_oracle_mode(self, capsys):
        _, out, _ = run_cli(capsys, "eta", "bundle", "--l", "8", "--a", "1,1",
                            "--rho", "r0-r1", "--float")
        assert abs(float(out) + 0.875) < 1e-9

    def test_float_evaluates_only_the_float_mirror(self, capsys, monkeypatch):
        def exact(*args):
            raise AssertionError("--float evaluated the exact sum")

        monkeypatch.setattr(cli, "eta_of", exact)
        for engine, flags in (("bundle", ("--l", "8", "--a", "1,1", "--rho", "r0-r1")),
                              ("quaternion", ("--k", "0", "--rho", "2-tau"))):
            code, out, err = run_cli(capsys, "eta", engine, *flags, "--float")
            assert (code, err) == (0, "")
            assert abs(float(out) - {"bundle": -0.875, "quaternion": 0.875}[engine]) < 1e-9

    def test_json_matches_text_content(self, capsys):
        _, text, _ = run_cli(capsys, "eta", "cyclic", "--l", "8", "--a", "1,1",
                             "--rho", "r0-r4")
        _, blob, _ = run_cli(capsys, "eta", "cyclic", "--l", "8", "--a", "1,1",
                             "--rho", "r0-r4", "--format", "json")
        data = json.loads(blob)
        assert data == {"value": "-1", "order": 2, "modulus": "2Z",
                        "order_mod_z": 1, "order_mod_2z": 2}
        assert text.startswith(data["value"])

    def test_computation_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eta", "cyclic", "--l", "8",
                               "--a", "2,1", "--rho", "r0-r4")
        assert code == 1
        assert "NotFreeError" in err

    def test_virtual_dimension_zero_required(self, capsys):
        for flags in ((), ("--float",)):
            code, out, err = run_cli(capsys, "eta", "cyclic", "--l", "8", "--a", "1,1",
                                     "--rho", "r1", *flags)
            assert (code, out) == (1, "")
            assert err == "ValueError: lens-space eta requires a virtual dimension zero character\n"

    def test_weights_not_coprime_to_l(self, capsys):
        code, out, err = run_cli(capsys, "eta", "cyclic", "--l", "6",
                                 "--a", "3,3", "--rho", "r1-r0")
        assert (code, out) == (1, "")
        assert err == "NotFreeError: every weight must be coprime to l = 6 for a free action\n"

    def test_lens_weight_cap(self, capsys):
        assert run_cli(capsys, "eta", "cyclic", "--l", "64", "--a", ",".join(["1"] * 1024),
                       "--rho", "r0-r1") == (
            1, "", "ValidationError: 1024 weights exceed the cap 256\n")

    @pytest.mark.parametrize("engine", ["cyclic", "bundle"])
    def test_empty_weight_tuple(self, engine):
        proc = run_module("-m", "etakit.cli", "eta", engine, "--l", "8", "--a", "",
                          "--rho", "r1-r0", timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "ValidationError: the weight tuple must not be empty\n")

    @pytest.mark.parametrize("argv,error", [
        (("--k", "1", "--rho", "(2-tau)^100000"),
         "ValidationError: character power k = 100000 exceeds the cap 1024\n"),
        (("--k", "100000", "--rho", "2-tau"), "ValueError: k = 100000 exceeds the cap 1024\n"),
    ], ids=["character-power", "quaternion-k"])
    def test_huge_quaternion_input_ends_quickly(self, argv, error):
        proc = run_module("-m", "etakit.cli", "eta", "quaternion", *argv, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(error) and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("--k", "1", "--rho", "(2-tau)^600"),
        ("--k", "1", "--rho", "(2-tau)^1024"),
    ], ids=["600", "1024"])
    def test_value_outside_double_range(self, capsys, argv):
        # the exact value needs no float; --float ends in a typed error
        argv = ("eta", "quaternion") + argv
        code, out, err = run_cli(capsys, *argv)
        value, _, order = out.partition(" ")
        assert (code, err) == (0, "") and order.startswith("(order ")
        with pytest.raises(OverflowError):
            float(Fraction(value))
        code, out, err = run_cli(capsys, *argv, "--float")
        assert (code, out) == (1, "")
        assert err == "FloatRangeError: the eta value is outside double range\n"

    @pytest.mark.parametrize("k", ["536", "600", "1024"])
    def test_value_that_underflows(self, capsys, k):
        # against tau the value is -4^-(k+1)/4, below the least subnormal
        code, out, err = run_cli(capsys, "eta", "quaternion", "--k", k, "--rho", "tau",
                                 "--float")
        assert (code, out) == (1, "")
        assert err == "FloatRangeError: the eta value is outside double range\n"

    def test_float_at_the_quaternion_cap(self, capsys):
        # det(I - tau) = 2^2050 at [-1] is beyond double range, but the
        # value, about 4.2e-309, is not: the mirror divides factor by factor
        argv = ("eta", "quaternion", "--k", "1024", "--rho", "2-tau")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        exact = float(Fraction(out.partition(" ")[0]))
        code, out, err = run_cli(capsys, *argv, "--float")
        assert (code, err) == (0, "")
        assert abs(float(out) - exact) <= 1e-9 * exact

    def test_character_grammar(self):
        t = character_table("sd16")
        chi = parse_character(t, "4 + rho*rho5 - 2*(rho+rho5)")
        assert chi.dim == 4 + 4 - 8
        assert parse_character(t, "2 - c8hat") == 2 * t.trivial() - t.irreducible("chi2")
        with pytest.raises(ParseError):
            parse_character(t, "2 - zeta")

    def test_bad_character_position_skips_whitespace(self, capsys):
        code, _, err = run_cli(capsys, "eta", "quaternion", "--k", "1",
                               "--rho", "2 $ tau")
        assert code == 1
        assert err == "ParseError: unexpected character '$' at position 2\n"


class TestOtherCommands:
    def test_order(self, capsys):
        code, out, _ = run_cli(capsys, "order", "--value", "-1", "--mod", "2z")
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize("argv,err", [
        (("order", "--value", "1/0"), "--value '1/0'"),
        (("span", "--matrix", "1,0;0, 1/0"), "--matrix '1/0'"),
    ], ids=["order", "span"])
    def test_zero_denominator(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (1, "", f"ValidationError: zero denominator in {err}\n")

    @pytest.mark.parametrize("argv", [
        ("order", "--value", "7/8"),
        ("nf", "--algebra", "sd", "--expr", "x"),
        ("sq", "--algebra", "sd", "--i", "2", "--expr", "P"),
    ], ids=["order", "nf", "sq"])
    def test_verbs_without_format(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_span(self, capsys):
        _, out, _ = run_cli(capsys, "span", "--matrix", "1,0;0,1")
        assert out == "det = 1 (order 1 mod Z)\n"

    def test_restrict_default_images(self, capsys):
        _, out, _ = run_cli(capsys, "restrict", "--group", "sd16",
                            "--subgroup", "q8", "--chi", "rho2")
        assert out == "k1 + k3\n"

    @pytest.mark.parametrize("group", ["sd16", "SD16"])
    def test_restrict_any_spelling_of_the_group(self, capsys, group):
        assert run_cli(capsys, "restrict", "--group", group, "--subgroup", "q8",
                       "--chi", "rho2", "--images", "i=s^2,j=s*t") == (0, "k1 + k3\n", "")

    def test_restrict_custom_images(self, capsys):
        _, out, _ = run_cli(capsys, "restrict", "--group", "sd16",
                            "--subgroup", "c8", "--images", "g=s",
                            "--chi", "rho")
        assert out == "r1 + r3\n"

    @pytest.mark.parametrize("images,err", [
        ("i", "ParseError: --images item 'i' is not name=element"),
        ("i=s^2,j", "ParseError: --images item 'j' is not name=element"),
        ("i=s^2,j=t*s,k=t", "NotASubgroupMapError: q8 has no generator 'k'"),
        ("i=s^2,j=s*t,i=s", "ParseError: --images names the generator 'i' twice"),
    ], ids=["no-equals", "second-item", "unknown-generator", "repeated-name"])
    def test_restrict_bad_images(self, capsys, images, err):
        assert run_cli(capsys, "restrict", "--group", "sd16", "--subgroup", "q8",
                       "--images", images, "--chi", "rho2") == (1, "", err + "\n")

    @pytest.mark.parametrize("target,err", [
        ("m9", "ValidationError: total-space algebras have even dimension"),
        ("m2", "ValueError: n must be >= 2"),
    ])
    def test_push_to_bad_total_space(self, capsys, target, err):
        assert run_cli(capsys, "push", "--map", f"sd-to-{target}", "--degree", "2") == \
            (1, "", err + "\n")

    def test_bad_generator_position_skips_whitespace(self, capsys):
        code, _, err = run_cli(capsys, "nf", "--algebra", "sd", "--expr", "x +\t$")
        assert code == 1
        assert err == "F2ParseError: unexpected character '$' (line 1, column 5)\n"

    def test_chained_power_is_left_associative(self, capsys):
        assert run_cli(capsys, "nf", "--algebra", "sd", "--expr", "y^2^3")[:2] == \
            run_cli(capsys, "nf", "--algebra", "sd", "--expr", "(y^2)^3")[:2] == \
            (0, "y^6\n")
        assert run_cli(capsys, "nf", "--algebra", "sd", "--expr", "x^2^3")[:2] == (0, "0\n")

    def test_restrict_negative_power_image(self, capsys):
        _, out, _ = run_cli(capsys, "restrict", "--group", "sd16", "--subgroup", "q8",
                            "--images", "i=s^-6,j=t*s", "--chi", "rho2")
        assert out == "k1 + k3\n"

    @pytest.mark.parametrize("argv,code,out,err", [
        (("nf", "--algebra", "sd", "--expr", "x^1000000000"), 0, "0\n", ""),
        (("nf", "--algebra", "sd", "--expr", "y^1000000000"), 0, "y^1000000000\n", ""),
        (("nf", "--algebra", "sd", "--expr", "(y+u+P)^4095"), 1, "",
         "DegreeBoundExceededError: a product of 59050 by 3 monomials exceeds "
         "the cap of 131072 monomial products\n"),
        (("nf", "--algebra", "sd", "--expr", "y^2147483648"), 1, "",
         "DegreeBoundExceededError: degree 2147483648 exceeds the packed monomial "
         "limit 2147483647\n"),
        (("restrict", "--group", "sd16", "--subgroup", "q8",
          "--images", "i=s^1000000000,j=t*s", "--chi", "rho2"),
         1, "", "NotASubgroupMapError: map is not injective\n"),
        (("restrict", "--group", "sd16", "--subgroup", "q8", "--chi", "rho2^100000"),
         1, "", "ValidationError: character power k = 100000 exceeds the cap 1024\n"),
    ], ids=["algebra-power", "algebra-power-free", "algebra-power-capped",
            "algebra-power-past-width", "group-power", "character-power"])
    def test_huge_exponent_ends_quickly(self, argv, code, out, err):
        proc = run_module("-m", "etakit.cli", *argv, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_large_total_space_ends_quickly(self):
        # the Poincare check lists degree 100000 of m100000 under the staircase
        proc = run_module("-m", "etakit.cli", "nf", "--algebra", "m100000",
                          "--expr", "Z", timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Z\n", "")

    @pytest.mark.parametrize("argv,dim", [
        (("wu", "--algebra", "m2048", "--branch", "spin"), 2048),
        (("wu", "--algebra", "m100000", "--branch", "spin"), 100000),
        (("sq", "--algebra", "m100000", "--i", "1", "--expr", "Z"), 100000),
    ], ids=["wu-2048", "wu-100000", "sq-100000"])
    def test_wu_dimension_cap_ends_quickly(self, argv, dim):
        # the cap is checked before the Steenrod relations are
        proc = run_module("-m", "etakit.cli", *argv, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"DegreeBoundExceededError: formal dimension {dim} exceeds the Wu cap 1024\n")

    def test_basis(self, capsys):
        _, out, _ = run_cli(capsys, "basis", "--algebra", "d8", "--degree", "3")
        assert out == "a^3 a*d b^3 b*d\n"

    def test_sq(self, capsys):
        _, out, _ = run_cli(capsys, "sq", "--algebra", "sd", "--i", "2",
                            "--expr", "P")
        assert out == "x^2*P + y^2*P\n"

    def test_wu(self, capsys):
        _, out, _ = run_cli(capsys, "wu", "--algebra", "m8",
                            "--branch", "nonspin")
        assert out.splitlines()[1] == "v1 = t"

    def test_wu_sw_solves_the_wu_classes_once(self, capsys, monkeypatch):
        # the Stiefel-Whitney classes reuse the Wu classes just printed
        from etakit import cli, f2ring
        calls = []
        wu_classes = f2ring.wu_classes

        def counted(*args):
            calls.append(args)
            return wu_classes(*args)
        monkeypatch.setattr(cli, "wu_classes", counted)
        monkeypatch.setattr(f2ring, "wu_classes", counted)
        _, out, _ = run_cli(capsys, "wu", "--algebra", "m8", "--branch", "nonspin", "--sw")
        assert len(calls) == 1
        assert out == ("v0 = 1\nv1 = t\nv2 = t^2\nv3 = 0\nv4 = 0\nw0 = 1\nw1 = t\n"
                       + "".join(f"w{k} = 0\n" for k in range(2, 9)))

    def test_push(self, capsys):
        _, out, _ = run_cli(capsys, "push", "--map", "d8-to-v2", "--degree", "6")
        assert "xi(p^3*q^3) -> xi(d^3)" in out

    def test_table_kernel_row(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--n", "11")
        assert out == "n=11: one-column orders [8, 16, 128, 128], two-column rank 0\n"

    @pytest.mark.parametrize("n", ["4097", "80000003", "100000000000000000003"])
    def test_table_kernel_row_above_the_cap_ends_quickly(self, n):
        proc = run_module("-m", "etakit.cli", "table", "--n", n, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"ValueError: dimension {n} exceeds the kernel-table cap 4096\n")

    def test_table_kernel_row_at_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "4095", "--format", "json")
        assert code == 0
        assert json.loads(out)["one_column"][-1] == 2 * 16 ** 512

    def test_table_characters(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--group", "q8")
        assert "tau: 2, -2, 0, 0, 0" in out

    def test_verify_failure_exit_is_one(self, capsys):
        # unknown suite is a computation error, not a usage error
        code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 1 and "KeyError" in err

    def test_verify_a_far_suite(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "total-space")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "288 claims, 0 failures"

    def test_verify_takes_only_suite_and_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        options = {word.strip("[],") for word in capsys.readouterr().out.split()
                   if word.lstrip("[").startswith("-")}
        assert options == {"-h", "--help", "--suite", "--format"}

    def test_usage_error_exit_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eta", "cyclic", "--l", "8", "--a", "1,1"])  # missing --rho
        assert exc.value.code == 2


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = load_config(str(path))
        assert cfg.degree_bound == 64 and cfg.algebras == {}

    def test_missing_path_gives_defaults(self, capsys):
        assert load_config(None).degree_bound == 64
        # the cyclic order bound is the one of the builtin groups
        code, out, err = run_cli(capsys, "eta", "cyclic", "--l", "65", "--a", "1,1",
                                 "--rho", "r0-r1")
        assert (code, out) == (1, "")
        assert err == "UnsupportedGroupError: cyclic order 65 out of supported range 1..64\n"

    def test_custom_algebra_block(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "degree_bound": 32,
            "algebras": {"ext": {
                "generators": [["e", 1], ["w", 2]],
                "relations": ["e^2"],
            }},
        }))
        code, out, _ = run_cli(capsys, "--config", str(path), "basis",
                               "--algebra", "custom:ext", "--degree", "3")
        assert code == 0
        assert out == "e*w\n"

    @pytest.mark.parametrize("degree", [0, -1])
    def test_generator_degree_below_one(self, capsys, tmp_path, degree):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algebras": {"z": {"generators": [["e", degree], ["w", 2]]}},
        }))
        code, out, err = run_cli(capsys, "--config", str(path), "basis",
                                 "--algebra", "custom:z", "--degree", "2")
        assert (code, out) == (1, "")
        assert err == (f"ValidationError: algebra 'z': generator 'e' has degree "
                       f"{degree}; degrees start at 1\n")

    def test_malformed_relation_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "algebras": {"oops": {"generators": [["e", 1]],
                                  "relations": ["e^"]}},
        }))
        code, _, err = run_cli(capsys, "--config", str(path), "basis",
                               "--algebra", "custom:oops", "--degree", "1")
        assert code == 1
        assert "F2ParseError" in err and "column" in err

    @pytest.mark.parametrize("argv,error", [
        (("basis", "--algebra", "custom:x", "--degree", "1"),
         "no custom algebra 'x' in the configuration"),
        (("sq", "--algebra", "custom:ext", "--i", "1", "--expr", "w"),
         "no steenrod data for custom algebra 'ext'"),
        (("table", "--group", "custom:x"), "no custom table 'x' in the configuration"),
    ], ids=["algebra", "steenrod", "table"])
    def test_unknown_custom_name(self, capsys, tmp_path, argv, error):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algebras": {"ext": self.EXT}}))
        code, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert (code, out) == (1, "")
        assert err == f"ValidationError: {error}\n"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        with pytest.raises(ParseError, match="line 1"):
            load_config(str(path))

    def test_environment_override(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"degree_bound": 16}))
        monkeypatch.setenv("ETAKIT_CONFIG", str(path))
        cfg = load_config(None)
        assert cfg.degree_bound == 16

    EXT = {"generators": [["e", 1], ["w", 2]], "relations": ["e^2"]}

    @pytest.mark.parametrize("config,error", [
        ({"algebras": []}, "ValidationError: 'algebras' must be an object"),
        ([1, 2], "ValidationError: the configuration must be an object"),
        ({"algebras": {"ext": {"generators": [["e"]]}}},
         "ValidationError: algebra 'ext': generator ['e'] is not a [name, degree] pair"),
        ({"tables": {"t": {"group": "c2", "irreducibles": [{"name": "r0", "values": 5}]}}},
         "ValidationError: irreducible row 0: 'values' must be an array"),
        ({"degree_bound": [64]}, "ValidationError: degree_bound must be an integer"),
        ({"algebras": {"ext": {"generators": [["e", 1.9]]}}},
         "ValidationError: algebra 'ext': the degree of 'e' must be an integer"),
        ({"algebras": {"ext": {**EXT, "steenrod": {"w": {"1": 1.5}}}}},
         "ValidationError: algebra 'ext': Sq^1(w) must be a string or an integer"),
        ({"algebras": {"ext": {**EXT, "steenrod": {"w": {"1": "0", "7": "w^4"}}}}},
         "InconsistentSteenrodDataError: Sq^7(w) must be 0 above the degree 2"),
        ({"algebras": {"ext": {**EXT, "steenrod": {"w": {"1": "0", "-1": "0"}}}}},
         "InconsistentSteenrodDataError: Sq^-1(w) needs i >= 0"),
    ], ids=["algebras-array", "top-level-array", "generator-without-degree",
            "values-not-array", "degree-bound-array", "degree-float", "square-not-string",
            "square-above-degree", "square-negative-index"])
    def test_malformed_shape_is_a_typed_error(self, tmp_path, config, error):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        proc = run_module("-m", "etakit.cli", "--config", str(path), "sq",
                          "--algebra", "custom:ext", "--i", "1", "--expr", "w", timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error + "\n")
        assert "Traceback" not in proc.stderr

    def test_zero_square_above_the_degree_accepted(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algebras": {"ext": {
            **self.EXT, "steenrod": {"w": {"1": "0", "7": "0"}}}}}))
        code, out, _ = run_cli(capsys, "--config", str(path), "sq",
                               "--algebra", "custom:ext", "--i", "2", "--expr", "w")
        assert (code, out) == (0, "w^2\n")

    def test_custom_steenrod_and_table(self, capsys, tmp_path):
        t = character_table("c2")
        path = tmp_path / "full.json"
        path.write_text(json.dumps({
            "algebras": {"proj": {
                "generators": [["e", 1]],
                "relations": [],
                "steenrod": {},
            }},
            "tables": {"mine": {
                "group": "c2",
                "irreducibles": [
                    {"name": name, "values": [str(v) for v in row]}
                    for name, row in zip(t.irreducible_names, t.rows)],
            }},
            # no verb reads inclusions: the key is ignored like any other
            "inclusions": {"c2sd": {"source": "c2", "target": "sd16",
                                    "images": {"g": "t"}}},
        }))
        cfg = load_config(str(path))
        assert "proj" in cfg.steenrod
        assert cfg.tables["mine"].irreducible_names == t.irreducible_names
        code, out, _ = run_cli(capsys, "--config", str(path), "sq",
                               "--algebra", "custom:proj", "--i", "1",
                               "--expr", "e")
        assert (code, out) == (0, "e^2\n")


class TestOptimizedInterpreter:
    """`python -O` strips `assert`; no invariant may rest on one."""

    def test_no_assert_statements_in_package(self):
        src = Path(__file__).parents[1] / "src" / "etakit"
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not asserts, f"{path.name}: assert at lines {asserts}"

    def test_verify_under_optimize_flag(self):
        proc = run_module("-O", "-m", "etakit.cli", *VERIFY_JSON.split(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "verify_all.json").read_text(encoding="utf-8")


class TestStartup:
    def test_import_leaves_out_dataclasses_and_inspect(self):
        proc = run_module("-c", "import sys, etakit.cli; "
                          "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
                          timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_config_values(self):
        a, b = cli.Config(), cli.Config()
        assert a == b and a.algebras is not b.algebras
        assert str(a) == "Config(degree_bound=64, algebras={}, steenrod={}, tables={})"
        assert cli.Config(16).degree_bound == 16
