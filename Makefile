GO ?= go

.PHONY: check build test race bench figures lint

# The full verification gate: vet + lint + build + race-enabled test suite.
check:
	./scripts/check.sh

# Determinism & simulator-invariant static analysis (see LINT.md).
lint:
	$(GO) run ./cmd/simlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x .

figures:
	$(GO) run ./cmd/figures -fig all
