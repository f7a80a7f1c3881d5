#!/usr/bin/env bash
# Smoke run of the installed `qedtangle` console script; CSVs go to OUT_DIR.
#     bash .github/cli-smoke.sh OUT_DIR
set -euo pipefail
out=$1
qedtangle --version
qedtangle point --process electron-muon --p 7.348 --theta 3.14159
qedtangle scan --process moller --p-min 0.5 --p-max 1.5 --p-steps 2 --theta-steps 2 --out "$out/scan.csv"
qedtangle threshold --process moller --theta 1.5707963 --p-bracket 0.5,2.0
qedtangle point --process electron-muon --p 1e-5 --theta 2
for jobs in 1 2; do
  qedtangle scan --process compton --initial werner --p-min 0.01 --p-max 1e4 --p-log --p-steps 600 --theta-steps 30 --jobs "$jobs" --out "$out/compton-jobs$jobs.csv"
done
cmp "$out/compton-jobs1.csv" "$out/compton-jobs2.csv"
# rows across the muon-pair threshold, each split across chunks
for jobs in 1 2; do
  python -W error::RuntimeWarning -m qedtangle scan --process muon-pair --p-min 50 --p-max 500 --p-steps 9000 --theta-steps 4 --jobs "$jobs" --out "$out/muon-pair-jobs$jobs.csv"
done
cmp "$out/muon-pair-jobs1.csv" "$out/muon-pair-jobs2.csv"
# a pure input's 4 x 4 spectra: half of the matrices leave the
# Jacobi kernel after a different sweep from the other half
for jobs in 1 2; do
  python -W error::RuntimeWarning -m qedtangle scan --process moller --initial ll --p-steps 600 --theta-steps 30 --jobs "$jobs" --out "$out/moller-ll-jobs$jobs.csv"
done
cmp "$out/moller-ll-jobs1.csv" "$out/moller-ll-jobs2.csv"
