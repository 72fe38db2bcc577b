#!/bin/sh
# Lists the long options of every mmsynth verb, one "<verb> --<option>"
# per line, read from each verb's plain-text --help.  The test suite
# diffs this against cli_flags.expected, so a change to the command
# line's flag surface shows up as a test failure that names the flag.
# Usage: cli_flags.sh path/to/mmsynth.exe
set -eu
exe=$1
for verb in show check synth compare anneal pareto frontier gantt fleet \
  export export-json dot client:submit client:status client:cancel \
  client:list client:watch client:ping client:shutdown; do
  words=$(echo "$verb" | tr ':' ' ')
  # Option entries sit at a 7-column indent; their docs sit deeper.
  # shellcheck disable=SC2086 # "client submit" is two words
  "$exe" $words --help=plain |
    grep -E '^       -' | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u |
    sed "s/^/$words /"
done
