#!/usr/bin/env bash
# End-to-end checks on the standard library alone: `python -I -S` leaves
# site-packages off the path, so these fail if f2rep needs anything else.
# Run from the root of the repository: bash -eo pipefail ci/stdlib.sh
set -eo pipefail

f2rep() { python -I -S -c "import sys; sys.path.insert(0, 'src'); from f2rep.cli import main; sys.exit(main(sys.argv[1:]))" "$@"; }
export -f f2rep
f2rep scan --preset trinomials19 > /dev/null
f2rep family range --r-max 8 --jobs 2 > /dev/null
f2rep repr --set "{0,1,2}" --n 4
f2rep parity --set "{0,1,7,9}"
# The README's library quick start (its first python block) runs as written.
python -I -S -c 'import re, sys; sys.path.insert(0, "src"); exec(re.search(r"```python\n(.*?)```", open("README.md").read(), re.S)[1])'
# Hex text is held to the bit cap as expression text is: 0x1, 399 zeros, 1 is 1601 bits.
status=0
F2REP_BIT_CAP=1000 f2rep order "$(printf '0x1%0399d1' 0)" || status=$?
test "$status" -eq 1
# A digit past Python's 4,300-digit limit on decimal text is refused, not passed to int().
status=0
err=$(f2rep repr --set "{0,1,1$(printf '%04399d' 0)}" --n 3 2>&1) || status=$?
test "$status" -eq 1
test "$err" = "error: digit of 4400 digits is too long to read"
# A refusal must come at once: exit 1 with the cap line, not a hang (timeout's 124).
status=0
timeout 20 bash -c 'f2rep gapcheck --degree-max 40' || status=$?
test "$status" -eq 1
# An --out that cannot be opened is one error line, not a traceback.
status=0
err=$(f2rep scan --preset trinomials19 --out /nonexistent/x.csv 2>&1) || status=$?
test "$status" -eq 1
if [[ "$err" == *Traceback* ]]; then exit 1; fi
# Sequences are streamed: a 4,194,305-term row fits in 400 MB of address space.
(ulimit -v 400000; f2rep stern --row 22 > /dev/null)
# A pool starts only for a run heavy enough to pay for one (search._pays).  Of the runs here at
# jobs 2, degree 14, the degree-24 quadrinomials and degree 18 start one; the family ranges and
# the degree-20 quadrinomials run in this process, with the same bytes.
# The r <= 12 digest at jobs 2, in this process; tier-1 runs jobs 1, and r <= 6 on a forced pool.
sum=$(f2rep family range --r-max 12 --allow-large-r --jobs 2 | sha256sum)
test "$sum" = "99c4d00670694b6d8bd00f035fe10e2d10a958453bf05333243ae20942d0c26e  -"
# Past the r <= 12 digest: r = 13's 67 Mbit closed forms, walked in windows, fit in 60 MB of address space.
for jobs in 1 2; do
  sum=$(timeout 60 bash -c "ulimit -v 60000; f2rep family range --r-max 13 --allow-large-r --jobs $jobs" | sha256sum)
  test "$sum" = "fadd2842e8a5d8dc0160fec80949a0b6eb3d6ddb9357074a6894018756c2f4f4  -"
done
# The degree-14 digest at jobs 2, where dense chunks carry table slices to the pool; tier-1 runs jobs 1.
sum=$(f2rep scan --preset degree14 --jobs 2 | sha256sum)
test "$sum" = "ce97bec6a36f3231ace469b74a46810e5ade1d8200bba9200ce59d725026e488  -"
# The quadrinomial JSONL digest at jobs 2, in this process; tier-1 runs jobs 1.
sum=$(f2rep scan --shape quadrinomial --degree-max 20 --json --jobs 2 | sha256sum)
test "$sum" = "1b7348b1dc0396af9e124f75320fc4f5d2320be23f468e2ed87d5a2d2499db73  -"
# The degree-24 quadrinomials at jobs 2, on the pool: 2,024 members, every computed count walked over the series 1/f.
sum=$(timeout 60 bash -c 'f2rep scan --shape quadrinomial --degree-max 24 --json --jobs 2' | sha256sum)
test "$sum" = "58a376db080b8f06b0e5493a5a71a5d3c5fde7a9937dc0558b95e363cdc53400  -"
# A 2^27-term cofactor from the series 1/f, and its walk, under a bound on address space.
# They needed about 95,000-101,000 KB under CPython 3.10.13-3.13.13 on x86-64 Linux (Newton's
# loop about 99,000-105,000 KB); the limit is about 50% over, for other builds and allocators.
line=$(ulimit -v 150000; f2rep beta "x^4+x+1" --period 125829120)
test "$line" = "order=125829120 exact=false beta=(67108864,58720256) gamma=8/15 robust=true"
# Past the degree-14 digest, on the pool: degree 17, the sieve's last, then degree 18, factored.
sum=$(timeout 120 bash -c 'f2rep scan --degree-max 18 --jobs 2' | sha256sum)
test "$sum" = "e71d7baee5f1720da539dec22dd556fd92fa526deae965a3d4c5dfa0b4b5dd38  -"
echo "ci/stdlib.sh: all checks passed"
