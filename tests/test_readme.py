"""README's command-line block runs in order, in a fresh directory, step by step."""

import re
import shlex
from pathlib import Path

from mpshift import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The shell commands of the first ``sh`` block under "## Command line".

    Backslash-newline continues a command, as in the shell; ``#`` starts a
    comment.
    """
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", "").splitlines()]


def test_readme_command_block_runs_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [argv for argv in readme_commands() if argv]
    assert commands[-1][:2] == ["mpshift", "factor"]
    for argv in commands:
        if argv[0] == "mpshift":
            code = cli.main(argv[1:])
        else:
            assert argv[:2] in (["python", "-c"], ["python3", "-c"]), argv
            exec(argv[2], {"__name__": "__main__"})
            code = 0
        assert code == 0, (argv, capsys.readouterr().err)


def _flag_names(cell):
    return {"output" if f == "-o" else f[2:] for f in re.findall(r"`(-o|--[\w-]+)", cell)}


def test_readme_mode_table_is_the_code_table():
    # README's command/mode table lists what cli.MODES declares, row for row
    text = README.read_text(encoding="utf-8")
    header = "| command | mode | selected by | required | optional | input |"
    block = text[text.index(header):].split("\n\n")[0].splitlines()[2:]
    rows = [[c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]] for line in block]
    assert len(rows) == len(cli.MODES)
    for (command, mode, selected, required, optional, kind), m in zip(rows, cli.MODES):
        assert (command.strip("`").split()[0], mode) == (m.command, m.name)
        assert _flag_names(selected) == ({m.selected_by.partition("=")[0]} - {""})
        assert (_flag_names(required), _flag_names(optional)) == (set(m.required), set(m.optional))
        assert kind.strip("`").startswith(m.input or "none")
