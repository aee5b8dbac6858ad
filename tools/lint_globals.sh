#!/bin/sh
# Enforcing lint: inventory toplevel mutable host state in lib/.
#
# Isoflow audits guest-visible state (page tables, EPTs, VMCS EPTP
# lists) but cannot see host-side OCaml globals.  Every toplevel
# `ref`/`Hashtbl.create`/`Atomic.make`/... in lib/ is simulator state
# that survives across scenario builds and — now that the quantum
# scheduler runs shards on OCaml domains and `--jobs` runs whole
# replicas concurrently — can leak between runs racing on different
# domains.  The Accel kill-switch bug (a process-global Atomic flipped
# mid-run by one replica, perturbing the others) is exactly the class
# this catches.
#
# Every finding must appear in tools/lint_globals.allow with a reviewed
# domain-safety classification; an unlisted finding fails the build.
# The fix for a real finding is the scoped-world pattern: move the
# state into Sky_sim.Scopes (or the fast-default + Domain.DLS override
# pattern it is built from), not the allowlist.
set -u
cd "$(dirname "$0")/.."

allow=tools/lint_globals.allow

# A toplevel binding is flush-left `let`; we flag ones whose right-hand
# side constructs mutable state on the same line or, when the `let` line
# ends in `=`, on the line after it.  Heuristic by design -- false
# negatives are acceptable, the goal is a cheap reviewable census, not a
# proof.
head='let [a-zA-Z_0-9]* *(: *[^=]*)?='
pattern="^[0-9]+:$head *(ref |ref\$|Hashtbl\\.create|Array\\.make|Array\\.create|Bytes\\.make|Bytes\\.create|Buffer\\.create|Queue\\.create|Stack\\.create|Atomic\\.make|Mutex\\.create)"

# Every line as `N:text`, plus each `let ... =` line that ends there
# joined to the line after it, under the `let` line's number.
numbered() {
  awk -v head="^$head *\$" '
    { if (pn) print pn ":" prev " " $0
      print NR ":" $0
      if ($0 ~ head) { prev = $0; pn = NR } else pn = 0 }' "$1"
}

echo "== toplevel mutable host state in lib/ (enforcing) =="
total=0
bad=0
for f in $(find lib -name '*.ml' | sort); do
  hits=$(numbered "$f" | grep -E "$pattern" || true)
  [ -n "$hits" ] || continue
  while IFS= read -r line; do
    total=$((total + 1))
    sym=$(printf '%s\n' "$line" | sed -E 's/^[0-9]+:let ([a-zA-Z_0-9]*).*/\1/')
    if grep -q "^$f:$sym\$" "$allow"; then
      echo "  ok    $f:$line"
    else
      echo "  FAIL  $f:$line"
      echo "        not in $allow -- move it into a scoped bundle"
      echo "        (Sky_sim.Scopes / Domain.DLS override) or review and allowlist it"
      bad=$((bad + 1))
    fi
  done <<EOF
$hits
EOF
done

# Stale allowlist entries rot the census: flag entries whose binding no
# longer exists so the list shrinks as globals are burned down.
while IFS= read -r entry; do
  case "$entry" in ''|'#'*) continue ;; esac
  ef=${entry%%:*}
  es=${entry##*:}
  if [ ! -f "$ef" ] || ! grep -qE "^let $es( |:|$)" "$ef"; then
    echo "  STALE $entry (allowlisted but no such toplevel binding)"
    bad=$((bad + 1))
  fi
done < "$allow"

echo "== $total toplevel mutable binding(s), $bad unreviewed/stale =="
if [ "$bad" -gt 0 ]; then
  exit 1
fi
echo "(all findings reviewed; audit passes cover guest-visible state, this inventories host state)"
exit 0
