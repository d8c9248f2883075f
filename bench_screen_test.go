// BenchmarkScreenWorlds is the alloc-counted go test -bench entry point
// for sequential screening of every scoped S1–S6 world. The benchmark
// ledger proper is bench/ (bash bench/run.sh); this one reports
// states/s, B/op and allocs/op per world:
//
//	go test -run '^$' -bench ScreenWorlds -benchmem .
package cnetverifier_test

import (
	"testing"

	"cnetverifier/internal/core"
	"cnetverifier/internal/names"
)

// BenchmarkScreenWorlds measures sequential screening of every scoped
// world — the per-transition cost of the clone/apply/encode/hash loop.
func BenchmarkScreenWorlds(b *testing.B) {
	for _, pw := range []struct {
		name string
		s    core.Scoped
	}{
		{"S1", core.S1World(false)},
		{"S2", core.S2World(false)},
		{"S3", core.S3World(false, names.SwitchReselect)},
		{"S4CS", core.S4CSWorld(false)},
		{"S4PS", core.S4PSWorld(false)},
		{"S6", core.S6World(false)},
	} {
		b.Run(pw.name, func(b *testing.B) {
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				r, err := core.Screen(pw.s, pw.s.Options)
				if err != nil {
					b.Fatal(err)
				}
				states = r.Result.States
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(states)*float64(b.N)/sec, "states/s")
			}
		})
	}
}
