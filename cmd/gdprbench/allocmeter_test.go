package main

import (
	"errors"
	"testing"
)

// sink keeps test allocations alive so the compiler cannot elide them.
var sink [][]byte

// TestAllocMeterScopedToSection pins the allocs_per_op fix: only
// allocations made inside a measured section count, so load-phase or
// reporting allocations around the timed loops can no longer inflate
// the figure the way the old whole-run ReadMemStats delta did.
func TestAllocMeterScopedToSection(t *testing.T) {
	var m allocMeter

	// Heavy allocation OUTSIDE any measured section — the old
	// whole-run delta would have charged all of this.
	sink = sink[:0]
	for i := 0; i < 10_000; i++ {
		sink = append(sink, make([]byte, 256))
	}

	const ops = 1000
	if err := m.measure(func() (int64, error) {
		for i := 0; i < ops; i++ {
			sink = append(sink, make([]byte, 16))
		}
		return ops, nil
	}); err != nil {
		t.Fatal(err)
	}

	// More outside-the-section garbage after the measured loop.
	for i := 0; i < 10_000; i++ {
		sink = append(sink, make([]byte, 256))
	}

	got := m.allocsPerOp()
	// The section makes one escaping allocation per op plus slice
	// regrowth and runtime noise — a loose band well below the ~20
	// allocs/op the outside garbage would add if it leaked in.
	if got < 1 || got >= 10 {
		t.Fatalf("allocsPerOp = %.2f, want [1, 10): section scoping leaked outside allocations", got)
	}
	// 16 B per op plus, at most, one regrowth of the 10k-entry sink
	// (~300 KiB, ~300 B/op); the ~5 KiB/op of outside garbage must not
	// show.
	if b := m.bytesPerOp(); b < 16 || b >= 1024 {
		t.Fatalf("bytesPerOp = %.1f, want [16, 1024): section scoping leaked outside bytes", b)
	}
	sink = nil
}

func TestAllocMeterErrorChargesNothing(t *testing.T) {
	var m allocMeter
	wantErr := errors.New("boom")
	err := m.measure(func() (int64, error) {
		sink = append(sink[:0], make([]byte, 1024))
		return 500, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("measure error = %v, want %v", err, wantErr)
	}
	if got := m.allocsPerOp(); got != 0 {
		t.Fatalf("failed section charged the meter: %.2f allocs/op", got)
	}
	if got := m.bytesPerOp(); got != 0 {
		t.Fatalf("failed section charged the meter: %.2f bytes/op", got)
	}
	sink = nil
}

func TestAllocMeterAccumulatesAcrossSections(t *testing.T) {
	var m allocMeter
	for s := 0; s < 3; s++ {
		if err := m.measure(func() (int64, error) {
			sink = append(sink[:0], make([]byte, 64))
			return 100, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if m.ops != 300 {
		t.Fatalf("ops = %d, want 300", m.ops)
	}
	if got := m.allocsPerOp(); got <= 0 {
		t.Fatalf("allocsPerOp = %.2f, want > 0", got)
	}
	sink = nil
}
