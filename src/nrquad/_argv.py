"""The command line, read from one table of commands and their options.

``nrquad.cli`` gives the table: each command's help and options, and for
each option its default, how its value is read, and its help.  The
parser reads argv as argparse read it, with argparse's messages, and
imports neither argparse nor the ``gettext`` and ``locale`` modules that
argparse loads.  ``nrquad._usage`` builds the ``-h`` text from the same
table; only ``-h`` imports it.

An item is an option if it names one by its full name or by a prefix
that starts no other option's name, each with an optional ``=value``.
An item that starts with ``-`` but names no option is an unknown option,
unless it is a single ``-``, a negative number or has a space in it;
those are values.  Before the command, only ``-h`` and ``--help`` are
options.  The first value is the command, and so is ``--`` when
something follows it.  After the command, ``--`` ends the options: it
and every item after it are unrecognized.

A valued option reads ``--name=value``, or else the next item unless
that item is ``--`` or an option or unknown option that starts with
``--`` or ``-h``.  So ``--lower -1e-3`` and ``--expr -1+x`` read their
value, as in ``--lower=-1e-3``.  ``--methods`` reads one or more items,
up to the next one that is ``--``, an option or an unknown option.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

REQUIRED = ...
"""The default of an option the command line must give."""

_HELP = ("-h", "--help")  # the help flag, named -h/--help in messages
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's test for a negative number


class UsageError(ValueError):
    """A malformed command line; the message names the item at fault."""


def _option(item: str, names: Sequence[str]) -> tuple[str, str | None] | None:
    """The option of ``names`` that ``item`` gives, and its ``=value`` or None.

    An unknown option gives ``("", None)`` and a value gives None.  An
    ambiguous prefix raises :class:`UsageError`.
    """
    if item[:1] != "-":
        return None
    if item in names:
        return item, None
    if len(item) == 1:
        return None
    prefix, equals, value = item.partition("=")
    if equals and prefix in names:
        return prefix, value
    if item[1] == "-":
        matches = [name for name in names if name.startswith(prefix)]
        value = value if equals else None
    else:  # a short option with its value attached: -hx is -h with x
        matches = [name for name in names if name == item[:2]]
        value = item[2:]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {item} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    return None if _NEGATIVE.match(item) or " " in item else ("", None)


def parse_argv(argv: Sequence[str], about: str, commands: dict[str, tuple[str, dict]]) -> dict[str, object]:
    """The fields ``argv`` gives: ``command``, then each option's by its name without dashes.

    ``commands`` maps each command to its help and its options; an option
    maps to ``(default, read, help)``.  ``read`` is None for a flag, a
    function for a value (whose ``ValueError`` message names the fault),
    a tuple for the choices of one value, and a list for the choices of
    one or more.  ``-h`` gives ``{"usage": text}`` instead.  A malformed
    command line raises :class:`UsageError`.
    """
    extras: list[str] = []
    for start, item in enumerate(argv, 1):
        option = None if item == "--" else _option(item, _HELP)
        if option is None:
            if item == "--" and start == len(argv):
                break
            return _parse_command(argv[start:], _choose("command", item, commands), about, commands, extras)
        if option[0]:
            return _help(option[1], about, commands)
        extras.append(item)
    raise UsageError("the following arguments are required: command")


def _help(value: str | None, about: str, commands: dict[str, tuple[str, dict]], command: str | None = None) -> dict[str, object]:
    if value is not None:
        raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
    from ._usage import _usage  # only -h reads it, so no other launch compiles it

    return {"usage": _usage(about, commands, command)}


def _parse_command(
    items: Sequence[str], command: str, about: str, commands: dict[str, tuple[str, dict]], extras: list[str]
) -> dict[str, object]:
    table = commands[command][1]
    end = items.index("--") if "--" in items else len(items)
    # every item is read as an option or a value before any is taken, so an ambiguous prefix fails first
    options = [_option(item, [*_HELP, *table]) for item in items[:end]]
    fields = {"command": command, **{_dest(name): default for name, (default, _, _) in table.items()}}
    i = 0
    while i < end:
        option = options[i]
        i += 1
        if option is None or not option[0]:
            extras.append(items[i - 1])
            continue
        name, value = option
        if name in _HELP:
            return _help(value, about, commands, command)
        read = table[name][1]
        if read is None:
            if value is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            values = [value]
            if value is None:
                taken = i
                if isinstance(read, list):
                    while i < end and options[i] is None:
                        i += 1
                elif i < end and (options[i] is None or items[i][1] not in "-h"):
                    i += 1
                if i == taken:
                    raise UsageError(f"argument {name}: expected {'at least one' if isinstance(read, list) else 'one'} argument")
                values = items[taken:i]
            value = _value(name, read, values)
        fields[_dest(name)] = value
    missing = [name for name in table if fields[_dest(name)] is REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    extras += items[end:]
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return fields


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _value(name: str, read: object, values: Sequence[str]) -> object:
    """The value of option ``name`` from the items it took."""
    if isinstance(read, list):
        return [_choose(name, value, read) for value in values]
    if isinstance(read, tuple):
        return _choose(name, values[0], read)
    try:
        return read(values[0])
    except ValueError as exc:
        raise UsageError(f"argument {name}: {exc}") from None


def _choose(name: str, value: str, choices: Sequence[str]) -> str:
    if value not in choices:
        raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    return value
