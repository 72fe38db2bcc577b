#!/bin/sh
# Keeps seed oracles and test-only baselines out of the production code.
# They live in the test-only library mm_oracle (test/oracle/): no
# directory under lib/ or bin/ may define or declare a *_reference
# value, nor define or name the single-device walk (Trace_sim), the
# even-slack DVS baseline (Even_slack), the simulated-annealing mapper
# (Annealing) or the removed Ψ-perturbation (Sensitivity), Pareto-sweep
# (Pareto) and NSGA-II (Multi_objective, Nsga2) modules.
# Usage: no_oracles_in_lib.sh [ROOT]   (ROOT holds lib/ and bin/; default .)
set -eu
root=${1:-.}
status=0
if grep -rnIE '^\s*(let|and|val)\s+(rec\s+)?[a-z0-9_]*_reference\b' \
  "$root/lib" "$root/bin"; then
  echo "a *_reference value under lib/ or bin/; seed oracles belong in test/oracle/" >&2
  status=1
fi
if grep -rnIwE 'Trace_sim|Sensitivity|Even_slack|Annealing|Pareto|Multi_objective|Nsga2' \
  "$root/lib" "$root/bin" ||
  find "$root/lib" "$root/bin" \( -name 'trace_sim.ml*' -o -name 'sensitivity.ml*' \
    -o -name 'annealing.ml*' -o -name 'pareto.ml*' -o -name 'multi_objective.ml*' \
    -o -name 'nsga2.ml*' \) | grep .; then
  echo "lib/ or bin/ defines or names an oracle-only or removed module" >&2
  status=1
fi
exit $status
