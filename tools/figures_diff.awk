# Compare hpa_figures output with its golden text line by line and
# name each line that moved by its table (the banner title), its width
# section and its row, e.g.
#
#   Figure 14: performance of sequential wakeup | --- 8-wide ... ---
#     golden: eon   ...  0.9812 ...
#     actual: eon   ...  0.9790 ...
#
# Usage: awk -f tools/figures_diff.awk GOLDEN ACTUAL
# Exit status: 0 when the two texts are identical, 1 otherwise.

FNR == NR { want[FNR] = $0; nwant = FNR; next }

/^====/ { banner = !banner; if (banner) { title = ""; section = "" } }
banner && title == "" && !/^====/ { title = $0 }
/^--- / { section = $0 }

{
    ngot = FNR
    if ($0 != want[FNR] && ++bad <= 20)
        printf "%s%s\n  golden: %s\n  actual: %s\n", title,
            (section == "" ? "" : " | " section), want[FNR], $0
}

END {
    if (ngot != nwant)
        printf "line count: golden %d, actual %d\n", nwant, ngot
    if (bad > 20)
        printf "... %d more lines differ\n", bad - 20
    if (bad || ngot != nwant) {
        print "figures drifted from the golden text; if the change " \
              "is intended, regenerate it with hpa_figures --insts " \
              "150000 and update EXPERIMENTS.md"
        exit 1
    }
}
