#!/bin/sh
# Enforcing lint: every `val` exported by a lib/**/*.mli has a user
# outside its own module.
#
#   sh tools/lint_exports.sh
#
# An export nothing else calls is API surface that has to be read,
# documented and kept working for no caller; once it leaves the .mli the
# compiler's unused-value warning finds its implementation if the module
# itself does not use it either.  A user is any .ml/.mli under lib/,
# bin/, bench/, examples/, test/ or perfbench/ other than the module's
# own two files that names `M.v`, or that opens M (`open M`,
# `let open M`, `M.(...)`) and mentions `v`.  Heuristic by design:
# a same-named module in another library or a same-named local binding
# can hide a dead export (false negatives are acceptable; the goal is a
# cheap census that cannot grow back unnoticed).
#
# An export kept on purpose is listed in tools/lint_exports.allow as
# `<path to .mli>:<val> <reason>`; an entry with no reason, or whose
# export has gone or gained a user, fails too, so the list only shrinks.
set -u
cd "$(dirname "$0")/.."

allow=tools/lint_exports.allow
srcs=$(find lib bin bench examples test perfbench \
  \( -name _build -prune \) -o \( -name '*.ml' -o -name '*.mli' \) -print |
  sort)

echo "== exported vals with no outside user in lib/ (enforcing) =="
total=0
bad=0
flagged=""
for mli in $(find lib -name '*.mli' | sort); do
  base=$(basename "$mli" .mli)
  m=$(printf '%s' "$base" | cut -c1 | tr a-z A-Z)$(printf '%s' "$base" | cut -c2-)
  ml=${mli%i}
  # Files that name the module at all; only they can use its exports.
  others=$(for f in $srcs; do
    [ "$f" = "$mli" ] || [ "$f" = "$ml" ] || echo "$f"
  done)
  cands=$(grep -lw -- "$m" $others)
  # Of those, the ones that open it.
  openers=$([ -z "$cands" ] || grep -lE -- \
    "(open!? +([A-Z][a-z_0-9]*\\.)*$m( |\$)|let open +([A-Z][a-z_0-9]*\\.)*$m |(^|[^a-zA-Z_0-9.])$m\\.\\()" \
    $cands)
  for v in $(sed -nE 's/^val +([a-z_][a-zA-Z_0-9'\'']*).*/\1/p' "$mli"); do
    total=$((total + 1))
    used=no
    if [ -n "$cands" ] &&
      grep -qE -- "(^|[^a-zA-Z_0-9])$m\\.$v([^a-zA-Z_0-9']|\$)" $cands; then
      used=yes
    elif [ -n "$openers" ] &&
      grep -qE -- "(^|[^a-zA-Z_0-9.])$v([^a-zA-Z_0-9']|\$)" $openers; then
      used=yes
    fi
    entry="$mli:$v"
    listed=$(grep -E "^$entry( |\$)" "$allow" || true)
    if [ "$used" = yes ]; then
      if [ -n "$listed" ]; then
        echo "  STALE $entry (allowlisted but used outside its module)"
        bad=$((bad + 1))
      fi
      continue
    fi
    flagged="$flagged $entry"
    if [ -z "$listed" ]; then
      echo "  FAIL  $entry"
      echo "        no user outside $m -- drop it from the .mli (and the"
      echo "        implementation if nothing else uses it) or allowlist it with a reason"
      bad=$((bad + 1))
    elif [ "$listed" = "$entry" ]; then
      echo "  FAIL  $entry (allowlisted without a reason)"
      bad=$((bad + 1))
    else
      echo "  ok    $listed"
    fi
  done
done

# Entries whose export no longer exists.
while IFS= read -r line; do
  case "$line" in '' | '#'*) continue ;; esac
  entry=${line%% *}
  case " $flagged " in
  *" $entry "*) ;;
  *)
    f=${entry%%:*}
    v=${entry##*:}
    if [ ! -f "$f" ] || ! grep -qE "^val +$v( |:|\$)" "$f"; then
      echo "  STALE $entry (allowlisted but not exported)"
      bad=$((bad + 1))
    fi
    ;;
  esac
done <"$allow"

echo "== $total exported val(s), $bad unreviewed/stale =="
[ "$bad" -eq 0 ]
