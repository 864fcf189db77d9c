package core

import (
	"go/build"
	"testing"
)

// TestTimingModelDoesNotImportGoldenModel keeps the two models independent:
// what both need of the ISA (privileged rules, host ABI, load extension)
// lives in isa, and the device window in mem, so the timing core has no
// reason to import the emulator it is checked against.
func TestTimingModelDoesNotImportGoldenModel(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "xt910/internal/emu" {
			t.Fatalf("internal/core imports %s", imp)
		}
	}
}
