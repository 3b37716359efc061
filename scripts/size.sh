#!/usr/bin/env sh
# size.sh — print the two size numbers the repo tracks like ns/op:
#   go_lines     non-test Go lines outside benchmark/ (the separate
#                benchmark module)
#   api_surface  lines of testdata/api_surface.txt, the exported
#                surface of package bftbcast (see api_surface_test.go)
#
# Usage: scripts/size.sh
set -eu

cd "$(dirname "$0")/.."
go_lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.git/*' -exec cat {} + | wc -l)
api_lines=$(wc -l < testdata/api_surface.txt)
echo "go_lines $((go_lines))"
echo "api_surface $((api_lines))"
