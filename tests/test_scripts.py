import itertools
import os
import re
import shlex
import subprocess
import sys

from paracnn import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_twin_comparison_script_runs_at_tiny_size():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "twin_comparison.py"),
         "--size", "10", "--epochs", "1", "--channels", "8"],
        capture_output=True, text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "== mode=none" in proc.stdout
    assert "== mode=l2_plus_adversarial" in proc.stdout
    assert "final ce: baseline=" in proc.stdout


def cli_commands(script):
    """argv of each ``paracnn.cli`` command in a shipped script, in order.

    A command inside ``for NAME in VALUES; do`` loops appears once per value of
    each loop variable it uses.
    """
    with open(os.path.join(ROOT, "scripts", script)) as fh:
        text = fh.read().replace("\\\n", " ")
    loops = {name: values.split()
             for name, values in re.findall(r"^\s*for (\w+) in ([^;]+); do", text, re.M)}
    commands = []
    for line in text.splitlines():
        if line.split()[:3] != ["python3", "-m", "paracnn.cli"]:
            continue
        # the command ends where an output redirection or an `||` fallback starts
        argv = list(itertools.takewhile(lambda a: a not in (">", "||"),
                                        shlex.split(line, comments=True)[3:]))
        used = [name for name in loops if any(f"${name}" in arg for arg in argv)]
        for values in itertools.product(*(loops[name] for name in used)):
            sub = dict(zip(used, values))
            commands.append([re.sub(r"\$(\w+)", lambda m: sub.get(m.group(1), m.group(0)), arg)
                             for arg in argv])
    return commands


def check_commands(commands):
    """Every command's flags parse, and every ``train --set`` override resolves."""
    for argv in commands:
        assert cli.build_parser().parse_args(argv).command == argv[0]
        if argv[0] == "train":
            overrides = [value for flag, value in zip(argv, argv[1:]) if flag == "--set"]
            assert len(overrides) == argv.count("--set") > 0
            cli.load_run_config(None, overrides, default_vocab_size=20, default_visual_dim=6)


def test_toy_pipeline_settings_resolve():
    # the overrides and flags the shipped script passes must stay valid keys and options
    commands = cli_commands("toy_pipeline.sh")
    assert [argv[0] for argv in commands] == ["make-corpus", "train", "generate", "eval"]
    check_commands(commands)


def test_digest_settings_resolve():
    commands = cli_commands("digest.sh")
    assert sorted({argv[0] for argv in commands}) == ["eval", "generate", "gradcheck",
                                                      "make-corpus", "train"]
    # one train per twin mode and pooling
    settings = [tuple(a for a in argv if a.startswith(("twin.mode=", "model.pooling=")))
                for argv in commands if argv[0] == "train"]
    assert len(set(settings)) == len(settings) == 4
    check_commands(commands)


def test_readme_cli_examples_resolve():
    # the README's CLI block is a script too: its flags and overrides must stay valid
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## CLI\n", 1)[1].split("```\n")[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("paracnn ")]
    assert [argv[0] for argv in commands] == ["make-corpus", "train", "generate", "eval",
                                              "gradcheck"]
    check_commands(commands)
