#!/bin/sh
# Stale test-pattern check: every -run, -bench and -fuzz pattern that the
# Makefile and the CI workflow pass to `go test` must name at least one
# test, benchmark or fuzz target, alternative by alternative, so a stale
# name inside an alternation fails too. Without the check, renaming a test
# leaves its pattern selecting nothing and `go test` passes silently.
# `-run '^$'` (run no tests) is exempt. Patterns are split on every `|`,
# so keep them free of grouped alternations.
#
# Usage, from the repository root: ./scripts/check_test_patterns.sh
set -eu
set -f # patterns are regular expressions, never globs

stale=0
checked=0
# One `go test` invocation per line, from `test ` on; make's $(VAR) and
# $$ are rewritten so the shell can split the line safely.
lines=$(grep -hE '(go|\$\(GO\)) test .*-(run|bench|fuzz)[ =]' Makefile .github/workflows/ci.yml |
    sed -e 's/.*test //' -e 's/\$(\([A-Za-z_]*\))/\1/g' -e 's/\$\$/$/g')

old_ifs=$IFS
IFS='
'
for line in $lines; do
    IFS=$old_ifs
    eval "set -- $line"
    patterns=
    pkgs=
    while [ $# -gt 0 ]; do
        case $1 in
        -run | -bench | -fuzz) patterns="$patterns $2"; shift ;;
        -run=* | -bench=* | -fuzz=*) patterns="$patterns ${1#*=}" ;;
        .*) pkgs="$pkgs $1" ;;
        esac
        shift
    done
    for pattern in $patterns; do
        test "$pattern" = '^$' && continue
        IFS='|'
        for alt in $pattern; do
            IFS=$old_ifs
            checked=$((checked + 1))
            # $pkgs is unquoted on purpose: it is a list of packages.
            if ! go test -list "$alt" $pkgs | grep -qE '^(Test|Benchmark|Fuzz|Example)'; then
                echo "stale test pattern: '$alt' (from '$pattern') matches nothing in$pkgs" >&2
                stale=$((stale + 1))
            fi
        done
        IFS=$old_ifs
    done
    IFS='
'
done
IFS=$old_ifs

echo "checked $checked test-pattern alternatives, $stale stale"
test "$stale" -eq 0
