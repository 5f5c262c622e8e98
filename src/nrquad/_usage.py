"""The ``-h`` text of the command line, built from the table that ``nrquad._argv`` reads.

Only a launch given ``-h`` or ``--help`` imports this module.
"""

from __future__ import annotations

from ._argv import REQUIRED, _dest


def _metavar(name: str, read: object) -> str:
    if read is None:
        return name
    if isinstance(read, (tuple, list)):
        return f"{name} {{{','.join(read)}}}" + (" ..." if isinstance(read, list) else "")
    return f"{name} {_dest(name).upper()}"


def _usage(about: str, commands: dict[str, tuple[str, dict]], command: str | None) -> str:
    """The ``-h`` text: the commands and their help, or one command's options and their help."""
    if command is None:
        lines = [f"usage: nrquad {{{','.join(commands)}}} [options]", "", about, "", "commands:"]
        rows = [(name, text) for name, (text, _) in commands.items()]
    else:
        text, table = commands[command]
        required = [_metavar(name, read) for name, (default, read, _) in table.items() if default is REQUIRED]
        lines = [f"usage: nrquad {command} {' '.join(required)} [options]", "", text, "", "options:"]
        rows = [("-h, --help", "print this help and exit")]
        rows += [(_metavar(name, read), text) for name, (_, read, text) in table.items()]
    width = max(len(left) for left, _ in rows if len(left) <= 24)
    for left, text in rows:
        lines += [f"  {left:<{width}}  {text}"] if len(left) <= width else [f"  {left}", f"  {'':<{width}}  {text}"]
    return "\n".join(lines)
