package analyzers_test

import (
	"testing"

	"mmt/internal/analyzers"
	"mmt/internal/analyzers/analysistest"
)

// Each analyzer runs over its fixture package in testdata/src/<name>;
// // want comments mark the expected diagnostics, *_test.go fixture files
// must stay silent, and //mmt:allow comments exercise suppression.

func TestSimClock(t *testing.T) {
	analysistest.Run(t, analyzers.SimClock, "simclock")
}

func TestCryptoCompare(t *testing.T) {
	analysistest.Run(t, analyzers.CryptoCompare, "cryptocompare")
}

func TestCheckVerify(t *testing.T) {
	analysistest.Run(t, analyzers.CheckVerify, "checkverify")
}

func TestNoPanic(t *testing.T) {
	analysistest.Run(t, analyzers.NoPanic, "nopanic")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analyzers.MapOrder, "maporder")
}

func TestParClock(t *testing.T) {
	analysistest.Run(t, analyzers.ParClock, "parclock")
}

func TestEventKind(t *testing.T) {
	analysistest.Run(t, analyzers.EventKind, "eventkind")
}

func TestNoAlloc(t *testing.T) {
	analysistest.Run(t, analyzers.NoAlloc, "noalloc")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analyzers.LockOrder, "lockorder")
}

func TestTraceCtx(t *testing.T) {
	analysistest.Run(t, analyzers.TraceCtx, "tracectx")
}

// TestDriverOnRealPackage smoke-tests the go-list driver end to end: the
// shipped tree must be clean under the full suite for at least one real
// package (the crypto core, which is also the most invariant-dense).
func TestDriverOnRealPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	root, err := analyzers.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analyzers.Run(root, []string{"./internal/crypt"}, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}
