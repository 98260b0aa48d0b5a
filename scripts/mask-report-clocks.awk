# Masks the wall-clock columns of reports/*.txt, and the speedups derived
# from them, so that two runs of `pactbench -ex all` print the same text
# unless a count, a value or a memory figure moved. This file is the one
# list of masked fields; check.sh's reports leg runs it on both sides of
# its diff:
#
#   awk -f scripts/mask-report-clocks.awk reports/table2.txt
#
# Table fields count from the end of the line ($(NF-k)), so multi-word row
# labels do not shift them. A masked field reads "<t>"; awk rejoins a
# touched line with single spaces.

function mask(k) { $(NF - k) = "<t>" }

# multipoint.txt: the "reduce" column.
FILENAME ~ /multipoint\.txt$/ && /^(single|multi)-point / { mask(1) }

# ordering.txt: the "reduce (s)" column.
FILENAME ~ /ordering\.txt$/ && /^(minimum-degree|rcm|natural) / { mask(1) }

# table1.txt: the "reduce (s)" and "sim (s)" columns, and the simulation
# speedup taken from the latter.
FILENAME ~ /table1\.txt$/ && /^(no parasitics|full parasitics|pact reduced) / { mask(3); mask(2) }
FILENAME ~ /table1\.txt$/ && /^reduced-vs-full sim speedup: / { mask(0) }

# table2.txt: the "reduce (s)" and "AC sweep (s)" columns.
FILENAME ~ /table2\.txt$/ && /^(\(original\)|[0-9]+ [MG]Hz) / { mask(3); mask(0) }

# table3.txt: the reduction time, the transient "time (s)" column and the
# speedup taken from it (the memory ratio is not a clock).
FILENAME ~ /table3\.txt$/ && /^reduced: / { sub(/reduction [0-9.]+ s/, "reduction <t> s") }
FILENAME ~ /table3\.txt$/ && /^(original|reduced) +[0-9.]+ +[0-9.]+ MB$/ { mask(2) }
FILENAME ~ /table3\.txt$/ && /^speedup: / { sub(/^speedup: [0-9.]+x/, "speedup: <t>x") }

# table4.txt: the reduced network's "time (s)" column.
FILENAME ~ /table4\.txt$/ && /^reduced, / { mask(0) }

{ print }
