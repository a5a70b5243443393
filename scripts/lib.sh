# Shell functions shared by the scripts in this directory. Source it from
# the repository root, after `set -euo pipefail`:
#   . scripts/lib.sh
#
#   require_clean NAME        exit 1, printing NAME's refusal and the changed
#                             files, while src/, perfbench/ or scripts/
#                             differ from HEAD, since a result would not be
#                             HEAD's
#   require_commit NAME REV   exit 2, printing NAME's refusal, unless REV
#                             names a commit
#   unpack REV DIR [PATH...]  REV's tree, or only its PATHs, unpacked into
#                             DIR with git archive

require_clean() {
    local dirty
    dirty="$(git status --porcelain -- src perfbench scripts)"
    if [ -n "$dirty" ]; then
        echo "$1: src, perfbench or scripts differ from HEAD; commit first:" >&2
        echo "$dirty" >&2
        exit 1
    fi
}

require_commit() {
    if ! git rev-parse --quiet --verify "$2^{commit}" > /dev/null; then
        echo "$1: BASE '$2' names no commit" >&2
        exit 2
    fi
}

unpack() {
    local rev="$1" dir="$2"
    shift 2
    mkdir -p "$dir"
    git archive "$rev" "$@" | tar -x -C "$dir"
}
