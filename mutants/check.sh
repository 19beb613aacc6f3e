#!/usr/bin/env bash
# Runs the mutation kill list (mutants/kill-list.txt by default).
#
#   mutants/check.sh [LIST]
#
# Extracts HEAD into one work tree, `mutants/tree` under the cargo target
# directory (CARGO_TARGET_DIR, else ./target), which later runs reuse for
# its build cache. Checks that every entry's snippet occurs exactly once
# in its file, then for each entry in turn: applies it, builds the
# entry's test target in release, runs only the named test, and reverts
# the file. Exits 1 when a snippet is missing or repeated, a mutant does
# not build, a named test does not exist, or a mutant survives (its test
# passes); prints each entry's time and the total.
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true

root=$(git rev-parse --show-toplevel)
list=$(realpath "${1:-$root/mutants/kill-list.txt}")
if [[ -n ${CARGO_TARGET_DIR:-} ]]; then
    CARGO_TARGET_DIR=$(realpath -m "$CARGO_TARGET_DIR")
    export CARGO_TARGET_DIR
fi
tree="${CARGO_TARGET_DIR:-$root/target}/mutants/tree"
# The chaos matrix runs its full default grid only when none of its
# selectors is set, and the kill list expects that grid.
unset HYPERPOWER_CHAOS_SEED HYPERPOWER_WORKERS HYPERPOWER_CHAOS_PROFILE \
    HYPERPOWER_FAULT_PROFILE HYPERPOWER_RECALIBRATE

files=() froms=() tos=() cargos=() tests=()
declare -A entry=()
end_entry() {
    if [[ ${#entry[@]} -eq 0 ]]; then
        return
    fi
    for key in file from to cargo test; do
        if [[ -z ${entry[$key]+set} ]]; then
            echo "kill list: an entry ending before line $lineno has no '$key:'" >&2
            exit 1
        fi
    done
    files+=("${entry[file]}") froms+=("${entry[from]}") tos+=("${entry[to]}")
    cargos+=("${entry[cargo]}") tests+=("${entry[test]}")
    entry=()
}
lineno=0
while IFS= read -r line || [[ -n $line ]]; do
    lineno=$((lineno + 1))
    case $line in
        '#'*) ;;
        '') end_entry ;;
        file:* | from:* | to:* | cargo:* | test:*)
            key=${line%%:*}
            value=${line#*:}
            entry[$key]=${value# } ;;
        *)
            echo "kill list line $lineno: expected 'key: value', got: $line" >&2
            exit 1 ;;
    esac
done < "$list"
end_entry

mkdir -p "$tree"
find "$tree" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
# Fresh modification times, so cargo rebuilds what the extraction changed.
git -C "$root" archive HEAD | tar -x -m -C "$tree"
cd "$tree"

status=0
for i in "${!files[@]}"; do
    count=$(grep -oF -e "${froms[$i]}" "${files[$i]}" | wc -l || true)
    if [[ $count -ne 1 ]]; then
        echo "entry $((i + 1)): '${froms[$i]}' occurs $count times in ${files[$i]}, not once" >&2
        status=1
    fi
done
if [[ $status -ne 0 ]]; then
    exit 1
fi

start=$SECONDS
killed=0
for i in "${!files[@]}"; do
    n=$((i + 1))
    file=${files[$i]}
    read -ra args <<< "${cargos[$i]}"
    began=$SECONDS
    cp "$file" "$file.orig"
    content=$(cat "$file"; printf x)
    content=${content%x}
    printf '%s' "${content/"${froms[$i]}"/"${tos[$i]}"}" > "$file"
    verdict=""
    if ! cargo test --release --quiet "${args[@]}" --no-run 2> "$tree/build.log"; then
        cat "$tree/build.log" >&2
        verdict="does not build"
    elif ! cargo test --release --quiet "${args[@]}" -- --exact "${tests[$i]}" --list 2> /dev/null \
        | grep -qxF -e "${tests[$i]}: test"; then
        verdict="names no test '${tests[$i]}'"
    elif cargo test --release --quiet "${args[@]}" -- --exact "${tests[$i]}" > /dev/null 2>&1; then
        verdict="SURVIVED: '${tests[$i]}' passed"
    else
        killed=$((killed + 1))
    fi
    mv "$file.orig" "$file"
    if [[ -n $verdict ]]; then
        status=1
        echo "entry $n ($file) $verdict" >&2
    else
        echo "entry $n ($file): killed by ${tests[$i]} in $((SECONDS - began)) s"
    fi
done
echo "killed $killed of ${#files[@]} mutants in $((SECONDS - start)) s"
exit $status
