package main

import "runtime"

// allocMeter attributes heap allocations to the timed workload loops
// alone. Each measured section is bracketed by its own ReadMemStats
// pair, so load-phase and reporting allocations never leak into the
// -json allocs_per_op and bytes_per_op figures (they did when a single
// whole-run delta covered everything between load and report).
type allocMeter struct {
	mallocs uint64
	bytes   uint64
	ops     int64
}

// measure runs one timed section and charges its allocations plus the
// operation count it reports to the meter. A failed section charges
// nothing: a half-run workload would skew the ratio.
func (m *allocMeter) measure(section func() (ops int64, err error)) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops, err := section()
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.ops += ops
	return nil
}

// allocsPerOp reports heap allocations per measured operation (0 before
// any successful section).
func (m *allocMeter) allocsPerOp() float64 {
	if m.ops == 0 {
		return 0
	}
	return float64(m.mallocs) / float64(m.ops)
}

// bytesPerOp reports heap bytes allocated per measured operation (0
// before any successful section).
func (m *allocMeter) bytesPerOp() float64 {
	if m.ops == 0 {
		return 0
	}
	return float64(m.bytes) / float64(m.ops)
}
