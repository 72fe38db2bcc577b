#!/bin/sh
# Lists the long options of every mmsynth verb, one "<verb> --<option>"
# per line, read from each verb's plain-text --help.  The test suite
# diffs this against cli_flags.expected, so a change to the command
# line's flag surface shows up as a test failure that names the flag.
# The verb list itself must match the COMMANDS that `mmsynth --help` and
# `mmsynth client --help` list, so a verb added or removed fails too.
# Usage: cli_flags.sh path/to/mmsynth.exe
set -eu
exe=$1
verbs="show check synth compare gantt fleet export export-json dot \
  client:submit client:status client:cancel client:list client:watch \
  client:ping client:shutdown"

# Command entries sit at a 7-column indent under COMMANDS.
commands() {
  "$exe" "$@" --help=plain | sed -n '/^COMMANDS/,/^[A-Z]/p' |
    grep -E '^       [a-z]' | awk '{ print $1 }'
}
listed=$(commands | grep -vx client; commands client | sed 's/^/client:/')
if [ "$(echo "$listed" | sort)" != "$(printf '%s\n' $verbs | sort)" ]; then
  echo "cli_flags.sh: the verb list differs from mmsynth's COMMANDS:" \
    $listed >&2
  exit 1
fi

for verb in $verbs; do
  words=$(echo "$verb" | tr ':' ' ')
  # Option entries sit at a 7-column indent; their docs sit deeper.
  # shellcheck disable=SC2086 # "client submit" is two words
  "$exe" $words --help=plain |
    grep -E '^       -' | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u |
    sed "s/^/$words /"
done
